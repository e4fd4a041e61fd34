"""Self-tests of the benchmark's correctness gate, tracer and clock.

    python3 -m pytest perfbench/tests -q
"""

import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import liebider  # noqa: E402
import liebider.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def t3():
    return liebider.upper_triangular(3, 2)


@pytest.fixture(scope="module")
def t3_map(t3):
    return liebider.solve_space(t3.alg, liebider.MapLaw.LIE_BIDER)[3]


def bare(cls, pins):
    """A workload object with pins but without generated inputs."""
    w = cls.__new__(cls)
    w.lb = liebider
    w.pins = pins
    return w


def test_gate_accepts_a_true_decomposition(t3, t3_map):
    d = liebider.decompose(t3, t3_map)
    assert workloads.decomposition_error(liebider, t3, t3_map, d) is None


@pytest.mark.parametrize("part", ["lambda0", "r", "mu"])
def test_gate_counts_a_tampered_decomposition(t3, t3_map, part):
    d = liebider.decompose(t3, t3_map)
    one = t3.alg.unit_element()
    if part == "lambda0":
        d.lambda0 = d.lambda0 + one            # still central, rebuilds wrong
    elif part == "r":
        d.r = d.r + t3.alg.basis_element(1)    # no longer phi(e, e)
    else:
        d.mu = d.mu + liebider.BilinearMap(t3.alg, {(0, 0, 0): 1})  # not central
    assert workloads.decomposition_error(liebider, t3, t3_map, d) is not None


def test_gate_counts_a_changed_report_body():
    argv = ["center", "T3.json"]
    good = workloads.CliResult(0, "# elapsed_ms: 1.0\nalgebra: T3.json\ndimension: 1\n", "")
    pins = {"cli-files": {"T3:center": {"code": 0, "body": workloads.body_digest(good.out)}}}
    w = bare(workloads.CliFiles, pins)
    assert w._check("T3:center", argv, good) is None
    # '# ' lines are commentary and may change
    timing = workloads.CliResult(0, good.out.replace("1.0", "9.9"), "")
    assert w._check("T3:center", argv, timing) is None
    changed = workloads.CliResult(0, good.out.replace("dimension: 1", "dimension: 2"), "")
    assert w._check("T3:center", argv, changed) is not None


def test_gate_counts_a_wrong_exit_code():
    assert workloads.CliFiles._check_malformed(workloads.CliResult(2, "", "error: x"), {}) is None
    assert workloads.CliFiles._check_malformed(workloads.CliResult(0, "", ""), {}) is not None
    crash = workloads.CliResult(1, "", "Traceback (most recent call last):\nAttributeError: x\n")
    assert workloads.CliFiles._check_malformed(crash, {}) is not None


def test_gate_checks_verify_by_its_fields():
    argv = ["verify", "T2.json"]
    text = ("# elapsed_ms: 9.0\ndim lie-bider: 5\ncheck 3.4: 5/5\nlemma31_mode: sampled\n"
            "lemma31_quads: 1000\nlemma31_failures: 0\nverdict: pass\n")
    want = workloads.verify_fields(workloads.CliResult(0, text, ""))
    w = bare(workloads.CliFiles, {"cli-files": {"T2:verify": want}})
    assert w._check("T2:verify", argv, workloads.CliResult(0, text, "")) is None
    # the body may change as long as the fields hold: more quads are fine
    more = text.replace("sampled", "exhaustive").replace("1000", "2401")
    assert w._check("T2:verify", argv, workloads.CliResult(0, more, "")) is None
    assert w._check("T2:verify", argv, workloads.CliResult(4, text, "")) is not None
    for old, new in (("5/5", "4/5"), ("1000", "999"), ("failures: 0", "failures: 1"),
                     ("dim lie-bider: 5", "dim lie-bider: 6")):
        bad = workloads.CliResult(0, text.replace(old, new), "")
        assert w._check("T2:verify", argv, bad) is not None, (old, new)


def test_gate_counts_a_perturbation_that_is_not_rejected(t3, t3_map):
    w = bare(workloads.DecomposeSpace, {})
    assert w._check_perturbed(t3, t3_map, liebider.decompose(t3, t3_map)) is not None
    bad = t3_map + liebider.BilinearMap(t3.alg, {(0, 1, 1): 1})
    with pytest.raises(liebider.NotLieBider) as info:
        liebider.decompose(t3, bad)
    assert w._check_perturbed(t3, bad, workloads.Raised(info.value)) is None


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 holds a 2..5 and b 6..9; a holds c 3..4; root made 1.5 s of
    # hot calls outside its children
    spans = [
        ["root", 0.0, 10.0, -1, "j", 1.5],
        ["a", 2.0, 5.0, 0, "j", 0.0],
        ["c", 3.0, 4.0, 1, "j", 0.25],
        ["b", 6.0, 9.0, 0, "j", 0.0],
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 3 - 3 - 1.5, 3 - 1, 1 - 0.25, 3])


def test_recorder_traces_library_calls_and_restores_them(t3, t3_map):
    original = liebider.decompose
    rec = tracer.Recorder()
    rec.job = "j"
    with rec:
        assert liebider.decompose is not original
        liebider.decompose(t3, t3_map)
    assert liebider.decompose is original
    assert liebider.decomp.multiply is liebider.algebra.multiply
    assert rec.calls["decomp.decompose"] == 1
    assert rec.calls["algebra.multiply"] > 0
    assert rec.counters["trace.spans_in_hot"] == 0
    names = [s[0] for s in rec.spans]
    assert names[0] == "decomp.decompose"
    assert all(s[3] == 0 for s in rec.spans[1:] if s[0] == "linalg.solve")
    assert min(rec.self_times()) >= 0


def test_tail_has_ten_jobs_beyond_it():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_clock_samples_the_speed_during_a_call_and_disarms():
    clock = run.Clock()

    def busy():
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < 0.15:
            pass
        return "done"

    t0 = run.perf_counter()
    out, wall, scaled = clock.time(busy)
    elapsed = run.perf_counter() - t0
    assert out == "done"
    assert len(clock.ticks) >= 3
    assert 0 < wall < elapsed           # the ticks' time is taken out
    assert scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_job_is_its_median_over_passes():
    assert run.median_latencies([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == [2.0, 5.0]
