"""The benchmark's three workloads: seeded inputs, jobs, and correctness checks.

A workload makes its inputs from the seed once, before any timing.  Each
pass then sets up fresh algebras (timed as set-up), binds the inputs to them
(untimed) and runs its job list (timed per job).  Fresh algebras per pass
mean that no per-algebra cache survives from one pass to the next, so every
pass pays what a user pays on a newly built algebra.  The checks run after
the pass, outside the timed region.

Library functions are always looked up on their module at call time, never
imported by name, so that the traced run sees the benchmark's own calls.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import traceback

# name -> (constructor kind, arguments); the names are the ones the job keys
# and pins use
ALGEBRAS = {
    "T2": ("tn", (2, 1)),
    "T3": ("tn", (3, 2)),
    "T4": ("tn", (4, 2)),
    "T6k3": ("tn", (6, 3)),
    "B22": ("block", ([2, 2], 1)),
    "B221": ("block", ([2, 2, 1], 1)),
    "V": ("incidence", ((3, [(1, 3), (2, 3)]), [1, 2])),
    "D": ("incidence", ((4, [(1, 2), (1, 3), (2, 4), (3, 4)]), [1, 2, 3])),
}

LAWS = ["lie-bider", "assoc-bider", "lie-deriv-1", "lie-deriv-2"]


def construct(lb, name):
    kind, args = ALGEBRAS[name]
    if kind == "tn":
        return lb.upper_triangular(*args)
    if kind == "block":
        return lb.block_upper_triangular(*args)
    (size, covers), downset = args
    return lb.incidence_algebra(lb.Poset(size, covers), downset)


def build_argv(name):
    """`liebider build` arguments that construct the named algebra."""
    kind, args = ALGEBRAS[name]
    if kind == "tn":
        extra = ["--n", str(args[0]), "--k", str(args[1])]
    elif kind == "block":
        extra = ["--dims", ",".join(map(str, args[0])), "--j", str(args[1])]
    else:
        extra = ["--poset", f"{name}.poset.json",
                 "--downset", ",".join(map(str, args[1]))]
    return ["build", "--kind", kind] + extra + ["--out", f"{name}.json"]


def write_poset(name):
    (size, covers), _ = ALGEBRAS[name][1]
    with open(f"{name}.poset.json", "w", encoding="utf-8") as fh:
        json.dump({"size": size, "covers": [list(c) for c in covers]}, fh)


# -- digests ---------------------------------------------------------------


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def basis_digest(maps):
    """Digest of a list of bilinear maps, coefficient by coefficient."""
    return sha("\n".join(" ".join(f"{i},{j},{k},{v}" for i, j, k, v in m.items())
                         for m in maps))


def body_digest(stdout):
    """Digest of a report body: every line except the '# ' commentary."""
    return sha("\n".join(ln for ln in stdout.splitlines() if not ln.startswith("# ")))


def files_digest(paths):
    parts = []
    for p in sorted(paths):
        with open(p, encoding="utf-8") as fh:
            parts.append(os.path.basename(p) + "\0" + fh.read())
    return sha("\0".join(parts))


# -- jobs and outcomes -----------------------------------------------------


class Raised:
    """Outcome of a job whose call raised."""

    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc

    def describe(self):
        return "".join(traceback.format_exception_only(type(self.exc), self.exc)).strip()


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code = code
        self.out = out
        self.err = err


class Job:
    """One timed call.

    run() is the timed call.  check(outcome, outcomes) returns None when the
    outcome is right and a message otherwise; outcomes maps every job key
    of the pass to its outcome.  observe(outcome), where given, is the value
    pinned for this job's key.  malformed marks a job whose input is a
    deliberately broken file.
    """

    __slots__ = ("key", "run", "check", "observe", "malformed")

    def __init__(self, key, run, check, observe=None, malformed=False):
        self.key = key
        self.run = run
        self.check = check
        self.observe = observe
        self.malformed = malformed


def run_cli(cli, argv, rec=None):
    """`liebider <argv>` in process, as the console script would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    if rec is not None:
        rec.add("cli.report_bytes", len(out.getvalue().encode("utf-8")))
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_failure(res):
    if not isinstance(res, CliResult):
        return f"no CLI result: {res.describe()}"
    if "Traceback" in res.err:
        return f"traceback (exit {res.code}): {res.err.strip().splitlines()[-1]}"
    return None


def _report_fields(text):
    fields = {}
    for ln in text.splitlines():
        if ln.startswith("# ") or ": " not in ln:
            continue
        key, value = ln.split(": ", 1)
        fields[key] = value
    return fields


class Workload:
    """Base: subclasses set name and algebras, and build jobs()."""

    name = None
    algebras = ()

    def __init__(self, lb, seed, pins):
        self.lb = lb
        self.rnd = random.Random(seed)
        self.pins = pins
        self.input_errors = []
        self.input_digests = {}
        self.rec = None

    def setup(self):
        return {n: construct(self.lb, n) for n in self.algebras}

    def jobs(self, ts):
        raise NotImplementedError

    def reset(self):
        """Remove what a pass left behind, before the next pass."""

    def pinned(self, key):
        return self.pins.get(self.name, {}).get(key)

    def check_bases(self, t, name):
        """Solve every law on an input algebra, untimed, and compare each
        canonical basis with its pin; returns {law: basis}."""
        out = {}
        for law in LAWS:
            maps = out[law] = self.lb.solve_space(t.alg, self.lb.MapLaw(law))
            key = f"{name}:{law}"
            self.input_digests[key] = digest = basis_digest(maps)
            want = self.pins.get("bases", {}).get(key)
            if want is not None and want != digest:
                self.input_errors.append(f"basis {key}: digest differs from the pinned one")
        return out


# -- verify reports --------------------------------------------------------


def verify_fields(res):
    """The fields of a `verify` report that its check compares.

    The body itself is not pinned: a faster or exhaustive Lemma 3.1 sweep
    legitimately changes it."""
    f = _report_fields(res.out)
    checks = [v.split("/") for k, v in f.items() if k.startswith("check ")]
    return {
        "code": res.code,
        "verdict": f.get("verdict"),
        "dims": {law: f.get(f"dim {law}") for law in LAWS},
        "all_checks": bool(checks) and all(a == b for a, b in checks),
        "quads": int(f.get("lemma31_quads", -1)),
        "failures": f.get("lemma31_failures"),
    }


def verify_error(got, want):
    for field in ("code", "verdict", "dims"):
        if got[field] != want[field]:
            return f"{field} is {got[field]!r}, pinned {want[field]!r}"
    if got["failures"] != "0":
        return f"lemma31_failures is {got['failures']!r}"
    if got["quads"] < want["quads"]:
        return f"lemma31_quads fell to {got['quads']} from {want['quads']}"
    if want["verdict"] == "pass" and not got["all_checks"]:
        return "a check is below n/n on an algebra that passes its hypotheses"
    return None


# -- decompose-space -------------------------------------------------------


def _is_central(lb, x, basis):
    return all(lb.lie_bracket(x, b).is_zero() for b in basis)


def decomposition_error(lb, t, phi, d):
    """Check d = decompose(t, phi) from its definition: r = phi(e, e),
    lambda0 and every mu value central, inner + extremal + mu = phi."""
    basis = t.alg.basis()
    if d.r != phi(t.e, t.e):
        return "r differs from phi(e, e)"
    if not _is_central(lb, d.lambda0, basis):
        return "lambda0 is not central"
    for i, j, _, _ in d.mu.items():
        if not _is_central(lb, d.mu.value(i, j), basis):
            return f"mu({i}, {j}) is not central"
    if lb.make_inner(t, d.lambda0) + lb.make_extremal(t, d.r) + d.mu != phi:
        return "inner + extremal + mu does not rebuild phi"
    return None


class DecomposeSpace(Workload):
    name = "decompose-space"
    algebras = ("T4", "D", "B22", "V")
    # with six combinations per algebra, the job with ten slower ones above
    # it (job_tail_s) lies inside the block [2,2] jobs instead of on the
    # edge between them and the T4 jobs, where it jumped from run to run
    combos = 6
    perturbations = 2

    def __init__(self, lb, seed, pins):
        super().__init__(lb, seed, pins)
        self.inputs = []  # (key, algebra name, kind, items, extra)
        for n in self.algebras:
            t = construct(lb, n)
            maps = self.check_bases(t, n)["lie-bider"]
            for i, m in enumerate(maps):
                self.inputs.append((f"{n}:basis:{i}", n, "basis", m.items(), None))
            good = [i for i in range(len(maps))
                    if self.pinned(f"{n}:basis:{i}") in (None, "ok")]
            for c in range(self.combos):
                picks = self.rnd.sample(good, min(len(good), self.rnd.randint(2, 3)))
                coefs = [self.rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in picks]
                phi = lb.BilinearMap(t.alg, {})
                for i, a in zip(picks, coefs):
                    phi = phi + maps[i].scale(a)
                self.inputs.append((f"{n}:combo:{c}", n, "combo", phi.items(),
                                    list(zip(picks, coefs))))
            for c, (i, j, k) in enumerate(self._positions(t, maps)):
                base = maps[self.rnd.randrange(len(maps))]
                coeffs = {(a, b, q): v for a, b, q, v in base.items()}
                coeffs[(i, j, k)] = coeffs.get((i, j, k), 0) + self.rnd.choice([-2, -1, 1, 2])
                phi = lb.BilinearMap(t.alg, coeffs)
                self.inputs.append((f"{n}:perturbed:{c}", n, "perturbed", phi.items(), None))
        self.rnd.shuffle(self.inputs)

    def _positions(self, t, maps):
        """Coefficients to perturb: the first one at or after 1/3, 2/3, ...
        of the flat tensor order whose unit map is not a Lie biderivation.

        The witness scan that reports a perturbed map stops at a triple
        fixed by the position alone, so fixed positions keep its cost the
        same for every seed; the seed picks the base map and the change."""
        dim = t.alg.dim
        span = self.lb.SpanChecker([m.flat() for m in maps], dim ** 3)
        out = []
        for c in range(1, self.perturbations + 1):
            f = c * dim ** 3 // (self.perturbations + 1)
            while span.contains([int(x == f) for x in range(dim ** 3)]):
                f += 1
            out.append((f // (dim * dim), f // dim % dim, f % dim))
        return out

    def jobs(self, ts):
        lb = self.lb
        out = []
        for key, n, kind, items, extra in self.inputs:
            t = ts[n]
            phi = lb.BilinearMap(t.alg, items)
            out.append(Job(key, lambda t=t, phi=phi: lb.decompose(t, phi),
                           self._checker(key, kind, t, phi, extra),
                           observe=self._observe if kind == "basis" else None))
        return out

    @staticmethod
    def _observe(outcome):
        return type(outcome.exc).__name__ if isinstance(outcome, Raised) else "ok"

    def _checker(self, key, kind, t, phi, extra):
        if kind == "basis":
            return lambda d, outcomes: self._check_basis_job(key, t, phi, d)
        if kind == "combo":
            return lambda d, outcomes: self._check_combo(key, t, phi, d, extra, outcomes)
        return lambda d, outcomes: self._check_perturbed(t, phi, d)

    def _check_basis_job(self, key, t, phi, d):
        want = self.pinned(key)
        got = self._observe(d)
        if got != want:
            return f"outcome {got} ({d.describe() if isinstance(d, Raised) else ''}), pinned {want}"
        if got != "ok":
            return None
        return decomposition_error(self.lb, t, phi, d)

    def _check_combo(self, key, t, phi, d, extra, outcomes):
        if isinstance(d, Raised):
            return f"raised {d.describe()}"
        bad = decomposition_error(self.lb, t, phi, d)
        if bad:
            return bad
        n = key.split(":")[0]
        lam, r, mu = t.alg.zero(), t.alg.zero(), self.lb.BilinearMap(t.alg, {})
        for i, a in extra:
            part = outcomes.get(f"{n}:basis:{i}")
            if part is None or isinstance(part, Raised):
                return f"basis map {i} has no decomposition to combine"
            lam = lam + part.lambda0.scale(a)
            r = r + part.r.scale(a)
            mu = mu + part.mu.scale(a)
        if (d.lambda0, d.r, d.mu) != (lam, r, mu):
            return "parts differ from the same combination of the basis maps' parts"
        return None

    def _check_perturbed(self, t, phi, d):
        lb = self.lb
        if not isinstance(d, Raised) or not isinstance(d.exc, lb.NotLieBider):
            return "a perturbed map was not rejected with NotLieBider"
        slot, labels, residual = d.exc.witness
        idx = [t.alg.basis_labels.index(lbl) for lbl in labels]
        basis = t.alg.basis()
        res = lb.law_residual(phi, lb.MapLaw.LIE_BIDER, tuple(basis[i] for i in idx))
        got = res[slot - 1]
        if got.is_zero() or got != residual:
            return f"witness {slot} {labels} does not break the law as reported"
        return None


# -- solve-laws ------------------------------------------------------------


class SolveLaws(Workload):
    name = "solve-laws"
    algebras = ("T6k3", "B221")

    def __init__(self, lb, seed, pins):
        super().__init__(lb, seed, pins)
        self.order = [(n, law) for n in self.algebras for law in LAWS + ["hypotheses"]]
        self.rnd.shuffle(self.order)

    def jobs(self, ts):
        lb = self.lb
        out = []
        for n, what in self.order:
            key = f"{n}:{what}"
            t = ts[n]
            if what == "hypotheses":
                out.append(Job(key, lambda t=t: lb.hypothesis_report(t),
                               lambda hr, _, key=key: self._check(key, hr, self._observe_hr),
                               observe=self._observe_hr))
            else:
                law = lb.MapLaw(what)
                out.append(Job(key, lambda t=t, law=law: lb.solve_space(t.alg, law),
                               lambda maps, _, key=key: self._check(key, maps, self._observe_maps),
                               observe=self._observe_maps))
        return out

    @staticmethod
    def _observe_hr(hr):
        return [hr.cond_i, hr.cond_ii, hr.cond_iii, hr.cond_iv]

    @staticmethod
    def _observe_maps(maps):
        return [len(maps), basis_digest(maps)]

    def _check(self, key, outcome, observe):
        if isinstance(outcome, Raised):
            return f"raised {outcome.describe()}"
        got = observe(outcome)
        want = self.pinned(key)
        return None if got == want else f"got {got}, pinned {want}"


# -- cli-files -------------------------------------------------------------


def _map_name(idx, count):
    width = max(3, len(str(max(count - 1, 0))))
    return f"map_{idx:0{width}d}.json"


class CliFiles(Workload):
    name = "cli-files"
    algebras = ("T2", "T3", "V", "D")
    # T2 only gets `build` and `verify`, the others the whole file pipeline
    PIPELINED = ("T3", "V", "D")
    SOLVED = ("lie-bider", "lie-deriv-1")
    MALFORMED = ("bad-fingerprint", "truncated", "wrong-schema", "list-map", "float-index")

    def __init__(self, lb, seed, pins):
        super().__init__(lb, seed, pins)
        self.lie_dims = {}
        for n in self.algebras:
            if ALGEBRAS[n][0] == "incidence":
                write_poset(n)
            self.lie_dims[n] = len(self.check_bases(construct(lb, n), n)["lie-bider"])
        self.malformed = self._make_malformed()
        lines = [[(self._key("T2", argv), argv)
                  for argv in (build_argv("T2"), ["verify", "T2.json"])]]
        for n in self.PIPELINED:
            lb_dir = f"{n}-lie-bider"
            decs = [["decompose", f"{n}.json", f"{lb_dir}/{_map_name(i, self.lie_dims[n])}"]
                    for i in range(self.lie_dims[n])]
            self.rnd.shuffle(decs)
            steps = [build_argv(n)]
            steps += [["solve", f"{n}.json", "--law", law, "--outdir", f"{n}-{law}"]
                      for law in self.SOLVED]
            steps += decs + [["center", f"{n}.json"], ["hypotheses", f"{n}.json"]]
            lines.append([(self._key(n, argv), argv) for argv in steps])
        # interleave the algebras' pipelines, each kept in order, then drop
        # the malformed inputs in at seeded places
        self.order = []
        while any(lines):
            line = self.rnd.choice([ln for ln in lines if ln])
            self.order.append(line.pop(0))
        for key, argv in self.malformed:
            self.order.insert(self.rnd.randrange(len(self.order) + 1), (key, argv))

    @staticmethod
    def _key(n, argv):
        if argv[0] == "solve":
            return f"{n}:solve:{argv[3]}"
        if argv[0] == "decompose":
            return f"{n}:decompose:{os.path.basename(argv[2])}"
        return f"{n}:{argv[0]}"

    def _make_malformed(self):
        """Broken copies of a valid algebra file and map file, in inputs/."""
        lb, rnd = self.lb, self.rnd
        n = rnd.choice(self.PIPELINED)
        t = construct(lb, n)
        os.makedirs("inputs", exist_ok=True)
        alg_path = f"inputs/{n}.json"
        alg_doc = lb.serialize.save_algebra(alg_path, t.alg, t.e)
        fpr = lb.serialize.algebra_fingerprint(t.alg, t.e)
        maps = lb.solve_space(t.alg, lb.MapLaw.LIE_BIDER)
        map_doc = lb.serialize.map_to_doc(maps[rnd.randrange(len(maps))], fpr)

        def write(name, doc=None, text=None):
            path = f"inputs/{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text if text is not None else json.dumps(doc, indent=1) + "\n")
            return path

        out = []
        pos = rnd.randrange(len(fpr))
        bad = dict(map_doc, algebra_fingerprint=fpr[:pos] + ("0" if fpr[pos] != "0" else "1")
                   + fpr[pos + 1:])
        out.append(["decompose", alg_path, write("bad-fingerprint", bad)])
        if rnd.random() < 0.5:
            text = json.dumps(alg_doc, indent=1) + "\n"
            cut = write("truncated", text=text[:rnd.randrange(1, len(text) - 2)])
            out.append([rnd.choice(["center", "hypotheses"]), cut])
        else:
            text = json.dumps(map_doc, indent=1) + "\n"
            cut = write("truncated", text=text[:rnd.randrange(1, len(text) - 2)])
            out.append(["decompose", alg_path, cut])
        if rnd.random() < 0.5:
            out.append([rnd.choice(["center", "hypotheses"]),
                        write("wrong-schema", dict(alg_doc, schema=2))])
        else:
            out.append(["decompose", alg_path, write("wrong-schema", dict(map_doc, schema=2))])
        out.append(["decompose", alg_path, write("list-map", map_doc["coeffs"])])
        rows = [list(r) for r in alg_doc["structure"]]
        row = rnd.randrange(len(rows))
        col = rnd.randrange(3)
        rows[row][col] = float(rows[row][col])
        out.append([rnd.choice(["center", "hypotheses"]),
                    write("float-index", dict(alg_doc, structure=rows))])
        return [(f"malformed:{kind}", argv) for kind, argv in zip(self.MALFORMED, out)]

    def jobs(self, ts):
        cli = self.lb.cli
        malformed = {key for key, _ in self.malformed}
        out = []
        for key, argv in self.order:
            run = lambda argv=argv: run_cli(cli, argv, self.rec)
            if key in malformed:
                out.append(Job(key, run, self._check_malformed, malformed=True))
            else:
                out.append(Job(key, run, lambda res, _, key=key, argv=argv:
                               self._check(key, argv, res),
                               observe=lambda res, argv=argv: self._observe(argv, res)))
        return out

    @staticmethod
    def _observe(argv, res):
        if argv[0] == "verify":
            return verify_fields(res)
        got = {"code": res.code, "body": body_digest(res.out)}
        if argv[0] == "solve":
            d = argv[-1]
            got["files"] = (files_digest([os.path.join(d, f) for f in os.listdir(d)])
                            if os.path.isdir(d) else None)
        elif argv[0] == "build":
            got["files"] = files_digest([argv[-1]]) if os.path.exists(argv[-1]) else None
        return got

    def _check(self, key, argv, res):
        bad = _cli_failure(res)
        if bad:
            return bad
        got = self._observe(argv, res)
        want = self.pinned(key)
        if argv[0] == "verify":
            return verify_error(got, want)
        return None if got == want else f"got {got}, pinned {want}"

    @staticmethod
    def _check_malformed(res, _):
        bad = _cli_failure(res)
        if bad:
            return bad
        if res.code != 2:
            return f"exit {res.code} on a malformed file, expected 2"
        return None

    def reset(self):
        for n in self.algebras:
            if os.path.exists(f"{n}.json"):
                os.remove(f"{n}.json")
            for law in self.SOLVED:
                shutil.rmtree(f"{n}-{law}", ignore_errors=True)


WORKLOADS = {w.name: w for w in (DecomposeSpace, SolveLaws, CliFiles)}
