"""liebider benchmark: three exact workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload decompose-space --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, each in a fresh child process
    python3 perfbench/run.py --trace 1       # the same, traced: per-layer tables

Run from the repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Results (and, for a traced run, its spans) are also
written under .perfbench_out/.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# at most this many extra fresh set-ups are timed between the jobs of each
# untraced pass, besides the pass's own
SETUP_SAMPLES = 8
# every job runs at least this many times per run, each time on fresh algebras
MIN_PASSES = 4
# between two calls, reference() runs this many times for one speed sample,
# their median; during a call it runs once every TICK_S seconds
REFERENCE_REPEATS = 5
TICK_S = 0.025
# the reference speed, as the time of one reference(): about what it takes on
# the 2-vCPU Intel Xeon (2.1 GHz, Python 3.11) host the benchmark was built on
# in that host's faster phases (between 0.3 and 0.6 ms there)
REFERENCE_S = 0.00045

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB")]


def load_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import liebider
        import liebider.cli  # noqa: F401  (binds lb.cli and lb.serialize)
    except ImportError as exc:
        sys.exit(f"error: cannot import liebider from {os.path.join(ROOT, 'src')}: {exc}")
    return liebider


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    cpu = ln.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "cpu": cpu,
            "cpus": os.cpu_count(), "src_lines": src_lines}


# -- host speed ------------------------------------------------------------


def reference():
    """The time of a fixed pure-Python workload like liebider's: Fraction
    arithmetic into a dict.  It never changes, so its time tracks the
    host's speed.  The garbage collector is off meanwhile: a collection
    there would time the heap of the job around it."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc = {}
    x = Fraction(2, 3)
    for i in range(100):
        k = i * 7 % 31
        v = acc.get(k, Fraction(0)) + x * (i % 5 + 1)
        acc[k] = v if v.denominator < 10 ** 6 else Fraction(v.numerator % 97, 5)
    t = perf_counter() - t0
    if collecting:
        gc.enable()
    return t


def reference_time():
    return statistics.median(reference() for _ in range(REFERENCE_REPEATS))


class Clock:
    """Times calls and scales each to the reference speed.

    A shared host runs the same code up to twice as slowly, for a fraction
    of a second up to minutes at a time, so wall times of the same call
    spread widely.  The clock samples the host's speed as the time of
    reference(): before and after each call (reference_time), and, every
    TICK_S seconds during the call, once more from a SIGALRM handler.  A
    call's scaled time is its wall time without the handler's time,
    multiplied by REFERENCE_S over the mean of those samples."""

    def __init__(self):
        self.last = reference_time()
        self.samples = [self.last]
        self.armed = False
        self.ticks = []
        self.tick_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self.armed:
            return
        t0 = perf_counter()
        self.ticks.append(reference())
        self.tick_s += perf_counter() - t0

    def time(self, fn):
        """(fn(), its wall time, its scaled time)."""
        self.ticks = []
        self.tick_s = 0.0
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
            wall = perf_counter() - t0
        wall -= self.tick_s
        now = reference_time()
        speeds = [self.last] + self.ticks + [now]
        self.samples.extend(speeds[1:])
        self.last = now
        return out, wall, wall * REFERENCE_S / statistics.fmean(speeds)


# -- measuring -------------------------------------------------------------


class Run:
    """Everything one workload run measured."""

    def __init__(self):
        self.setup = []        # per untraced pass, its scaled set-up times
        self.latencies = []    # per untraced pass, the scaled latency of each job
        self.wall = []         # per untraced pass, the wall latency of each job
        self.speed = []        # every reference_time() sample
        self.traced = []       # per traced pass, the wall latency of each job
        self.attempted = 0
        self.failed = 0
        self.wrong = 0         # failures on well-formed inputs
        self.errors = []


def timed_setup(w, clock):
    ts, _, scaled = clock.time(w.setup)
    return ts, scaled


def attempt(job):
    try:
        return job.run()
    except Exception as exc:
        return workloads.Raised(exc)


def one_pass(w, run, rec=None):
    """Fresh set-up, then the job list timed job by job, then the checks.

    An untraced pass scales its times with a Clock, and also times up to
    SETUP_SAMPLES extra set-ups spread evenly between its jobs (outside the
    jobs' timing).  A traced pass keeps wall times."""
    if rec is not None:
        rec.job = "setup"
        with rec:
            ts = w.setup()
    else:
        clock = Clock()
        ts, setup_s = timed_setup(w, clock)
        setups = [setup_s]
    jobs = w.jobs(ts)
    step = -(-len(jobs) // SETUP_SAMPLES)
    outcomes = []
    lat = []
    scaled = []
    w.rec = rec
    if rec is not None:
        rec.install()
    for i, job in enumerate(jobs):
        if rec is not None:
            rec.job = f"{len(run.traced)}:{job.key}"
        elif i % step == 0:
            setups.append(timed_setup(w, clock)[1])
        if rec is None:
            out, wall, job_s = clock.time(lambda: attempt(job))
            scaled.append(job_s)
        else:
            t0 = perf_counter()
            out = attempt(job)
            wall = perf_counter() - t0
        lat.append(wall)
        outcomes.append(out)
    if rec is not None:
        rec.uninstall()
        run.traced.append(lat)
    else:
        run.latencies.append(scaled)
        run.wall.append(lat)
        run.setup.append(setups)
        run.speed.extend(clock.samples)
    w.rec = None
    by_key = {job.key: out for job, out in zip(jobs, outcomes)}
    for job, out in zip(jobs, outcomes):
        run.attempted += 1
        try:
            msg = job.check(out, by_key)
        except Exception as exc:  # a malformed result must count, not stop the run
            msg = f"check raised {exc!r}"
        if msg is not None:
            run.failed += 1
            if not job.malformed:
                run.wrong += 1
            err = f"{job.key}: {msg}"
            if err not in run.errors and len(run.errors) < 20:
                run.errors.append(err)
    w.reset()


def measure(w, run, seconds, min_passes, rec=None):
    """Complete passes until the next one would end after `seconds`, and at
    least min_passes of them."""
    start = perf_counter()
    done = 0
    while True:
        t0 = perf_counter()
        one_pass(w, run, rec)
        done += 1
        now = perf_counter()
        if done >= min_passes and now - start + (now - t0) > seconds:
            break


def tail(values):
    """The value with exactly ten values above it, or the largest when there
    are ten or fewer; returns (value, its percentile)."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def best_latencies(latencies):
    """Each job's fastest latency over the passes."""
    return [min(xs) for xs in zip(*latencies)]


def median_latencies(latencies):
    """Each job's median latency over the passes."""
    return [statistics.median(xs) for xs in zip(*latencies)]


def end_to_end(run):
    lat = median_latencies(run.latencies)
    value, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(x for p in run.setup for x in p),
        "run_s": sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "job_tail_percentile": round(pct, 2), "jobs_per_pass": len(lat),
        "passes": len(run.latencies), "setup_samples": sum(len(p) for p in run.setup),
        "fail_ratio": run.failed / run.attempted,
        "failed": run.failed, "attempted": run.attempted,
        "host_speed": REFERENCE_S / statistics.median(run.speed),
        "run_wall_s": sum(median_latencies(run.wall)),
    }
    return metrics, notes


# -- per-layer metrics from the traced passes ------------------------------

# (metric, unit, (table, key) it is read from or None when computed below);
# values are per traced pass, set-up included, except linalg.max_bits, the
# largest over the run
PER_LAYER = [
    ("linalg.rows_fed", "count", ("calls", "linalg.RowReducer.add_row")),
    ("linalg.useful_ratio", "ratio", None),
    ("linalg.reduce_s", "s", ("total", "linalg.RowReducer.add_row")),
    ("linalg.canonical_basis_s", "s", ("total", "linalg.canonical_basis")),
    ("linalg.max_bits", "bits", ("counters", "linalg.max_bits")),
    ("linalg.span_checks", "count", ("calls", "linalg.SpanChecker.contains")),
    ("linalg.span_check_s", "s", ("total", "linalg.SpanChecker.contains")),
    ("linalg.solve_calls", "count", ("calls", "linalg.solve")),
    ("linalg.solve_s", "s", ("total", "linalg.solve")),
    ("algebra.validate_s", "s", ("total", "algebra.FiniteAlgebra.__init__")),
    ("algebra.center_s", "s", ("total", "algebra.center_basis")),
    ("triangular.build_s", "s", ("total", "triangular.TriangularAlgebra.__init__")),
    ("algebra.multiply_calls", "count", ("calls", "algebra.multiply")),
    ("algebra.multiply_s", "s", ("total", "algebra.multiply")),
    ("algebra.elements_built", "count", ("calls", "algebra.Element.__init__")),
    ("triangular.hypotheses_s", "s", ("total", "triangular.hypothesis_report")),
    ("bider.solve_s", "s", ("total", "bider.solve_space")),
    ("bider.from_flat_s", "s", ("total", "bider.BilinearMap.from_flat")),
    ("bider.maps_out", "count", ("counters", "bider.maps_out")),
    ("bider.lemma31_calls", "count", ("calls", "bider.lemma31_residual")),
    ("bider.lemma31_s", "s", ("total", "bider.lemma31_residual")),
    ("bider.phi_evals", "count", None),
    ("bider.law_residual_calls", "count", ("calls", "bider.law_residual")),
    ("decomp.decompose_calls", "count", ("calls", "decomp.decompose")),
    ("decomp.decompose_s", "s", ("total", "decomp.decompose")),
    ("decomp.verify_s", "s", ("total", "decomp.verify_decomposition")),
    ("decomp.obstructions", "count", ("counters", "decomp.obstructions")),
    ("decomp.lemma_suite_s", "s", ("total", "decomp.lemma_suite")),
    ("serialize.load_algebra_s", "s", ("total", "serialize.load_algebra")),
    ("serialize.load_map_s", "s", ("total", "serialize.load_map")),
    ("serialize.save_map_s", "s", ("total", "serialize.save_map")),
    ("serialize.save_algebra_s", "s", ("total", "serialize.save_algebra")),
    ("serialize.fingerprint_s", "s", ("total", "serialize.algebra_fingerprint")),
    ("serialize.bytes_written", "bytes", ("counters", "serialize.bytes_written")),
] + [(f"cli.{c}.self_s", "s", None)
     for c in ("build", "solve", "decompose", "verify", "center", "hypotheses")] + [
    ("cli.report_bytes", "bytes", ("counters", "cli.report_bytes")),
    ("trace.overhead_ratio", "ratio", None),
]


def per_layer(rec, run):
    passes = len(run.traced)
    selfs = rec.self_by_name()
    fed = rec.calls.get("linalg.RowReducer.add_row", 0)
    out = {}
    for name, _, source in PER_LAYER:
        if source is not None:
            value = getattr(rec, source[0]).get(source[1], 0)
            out[name] = value if name == "linalg.max_bits" else value / passes
        elif name.startswith("cli."):
            out[name] = selfs.get(name[:-len(".self_s")], 0.0) / passes
        elif name == "linalg.useful_ratio":
            out[name] = rec.counters["linalg.pivots"] / fed if fed else 0.0
        elif name == "bider.phi_evals":
            out[name] = (rec.calls.get("bider.BilinearMap.__call__", 0)
                         + rec.calls.get("bider.BilinearMap.value", 0)) / passes
        else:  # trace.overhead_ratio
            out[name] = (sum(best_latencies(run.traced))
                         / sum(best_latencies(run.wall)))
    return out


# -- one workload ----------------------------------------------------------


def run_workload(args):
    lb = load_library()
    pins = load_json(os.path.join(HERE, "pins.json"))
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    home = os.getcwd()
    os.chdir(work)
    try:
        w = workloads.WORKLOADS[args.workload](lb, args.seed, pins)
        run = Run()
        rec = None
        if args.trace:
            measure(w, run, args.seconds / 2, 2)
            rec = tracer.Recorder()
            measure(w, run, args.seconds / 2, 2, rec)
        else:
            measure(w, run, args.seconds, MIN_PASSES)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    e2e, notes = end_to_end(run)
    if args.trace:
        layer = per_layer(rec, run)
        units = {name: unit for name, unit, _ in PER_LAYER}
        shown = layer
        reported = [m["name"] for m in spec["per_layer"]]
    else:
        units = dict(END_TO_END)
        shown = e2e
        reported = [m["name"] for m in spec["end_to_end"]]
    correct = run.wrong == 0 and not w.input_errors
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "environment": env, "end_to_end": e2e, "notes": notes,
               "errors": w.input_errors + run.errors}
    if args.trace:
        results["per_layer"] = layer
        results["self_s"] = {k: v / len(run.traced) for k, v in rec.self_by_name().items()}
        rec.dump(stem + "-spans.json")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"# workload {args.workload}  seed {args.seed}  python {env['python']}  "
          f"cpu {env['cpu']} x{env['cpus']}  src_lines {env['src_lines']}")
    print(f"# passes {notes['passes']} untraced, {len(run.traced)} traced; "
          f"fail_ratio {notes['fail_ratio']:.4f} ({run.failed}/{run.attempted}); "
          f"job_tail_s at p{notes['job_tail_percentile']} of {notes['jobs_per_pass']} jobs")
    print(f"# host speed {notes['host_speed']:.3f} of the reference; times are scaled to it "
          f"(run_s in wall time: {notes['run_wall_s']:.4g} s)")
    for msg in w.input_errors + run.errors:
        print(f"# error {msg}")
    if not args.trace:
        shown = dict(shown, fail_ratio=notes["fail_ratio"])
        units = dict(units, fail_ratio="ratio")
    for name, value in shown.items():
        print(f"{name:28s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": shown[k], "unit": units[k]} for k in reported},
    }))
    return 0


# -- every workload, one child process each ---------------------------------


def run_all(args):
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="run one workload in this process (default: all, one child each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
