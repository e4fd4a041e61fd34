"""Span and counter recorder for the traced benchmark run.

The recorder wraps liebider's public functions and methods from outside the
library.  Every name that a liebider module binds to a wrapped function is
rebound to the wrapper, and methods are replaced on their classes, so calls
from one library module into another are seen as well as the benchmark's own
calls.  An entry point called at most a few thousand times per pass records
a span (name, start, end, parent, job).  A hot entry point (up to millions of
calls per pass) only adds to a call count and a total time, because a span
per call would cost more than the call itself.  A hot entry point never calls
a span entry point, so its time can be charged to the span it runs in.

liebider is single-threaded, so no layer ever waits for another: the
recorder has no waiting-time field.
"""

import json
import os
import sys
from time import perf_counter

SPAN, HOT = "span", "hot"

# (module, attribute, kind); an attribute with a dot is a method on a class
ENTRY_POINTS = [
    ("linalg", "rref", SPAN),
    ("linalg", "nullspace", SPAN),
    ("linalg", "nullspace_from_reducer", SPAN),
    ("linalg", "solve", SPAN),
    ("linalg", "canonical_basis", SPAN),
    ("linalg", "SparseMatrix.__init__", HOT),
    ("linalg", "RowReducer.add_row", HOT),
    ("linalg", "RowReducer.add_fraction_row", HOT),
    ("linalg", "RowReducer.reduce_only", HOT),
    ("linalg", "RowReducer.echelon_rows", HOT),
    ("linalg", "SpanChecker.__init__", SPAN),
    ("linalg", "SpanChecker.contains", HOT),
    ("algebra", "FiniteAlgebra.__init__", SPAN),
    ("algebra", "Element.__init__", HOT),
    ("algebra", "multiply", HOT),
    ("algebra", "lie_bracket", HOT),
    ("algebra", "center_basis", SPAN),
    ("algebra", "is_commutative", SPAN),
    ("triangular", "Poset.__init__", SPAN),
    ("triangular", "TriangularAlgebra.__init__", SPAN),
    ("triangular", "TriangularAlgebra.corner", SPAN),
    ("triangular", "TriangularAlgebra.is_central", HOT),
    ("triangular", "TriangularAlgebra.proj_a", HOT),
    ("triangular", "TriangularAlgebra.proj_m", HOT),
    ("triangular", "TriangularAlgebra.proj_b", HOT),
    ("triangular", "peirce", HOT),
    ("triangular", "tau", SPAN),
    ("triangular", "tau_inv", SPAN),
    ("triangular", "bimodule_hom_basis", SPAN),
    ("triangular", "standard_form_check", SPAN),
    ("triangular", "hypothesis_report", SPAN),
    ("triangular", "upper_triangular", SPAN),
    ("triangular", "block_upper_triangular", SPAN),
    ("triangular", "incidence_algebra", SPAN),
    ("bider", "BilinearMap.__init__", HOT),
    ("bider", "BilinearMap.from_flat", SPAN),
    ("bider", "BilinearMap.__call__", HOT),
    ("bider", "BilinearMap.value", HOT),
    ("bider", "constraint_matrix", SPAN),
    ("bider", "solve_space", SPAN),
    ("bider", "make_inner", SPAN),
    ("bider", "make_extremal", SPAN),
    ("bider", "make_central", SPAN),
    ("bider", "law_residual", HOT),
    ("bider", "lemma31_residual", HOT),
    ("decomp", "decompose", SPAN),
    ("decomp", "verify_decomposition", SPAN),
    ("decomp", "lemma_suite", SPAN),
    ("serialize", "algebra_to_doc", SPAN),
    ("serialize", "algebra_from_doc", SPAN),
    ("serialize", "algebra_fingerprint", SPAN),
    ("serialize", "save_algebra", SPAN),
    ("serialize", "load_algebra", SPAN),
    ("serialize", "load_triangular", SPAN),
    ("serialize", "map_to_doc", SPAN),
    ("serialize", "save_map", SPAN),
    ("serialize", "load_map", SPAN),
    ("serialize", "load_poset", SPAN),
    ("cli", "main", SPAN),
]

SPAN_FIELDS = ["name", "start", "end", "parent", "job", "hot_s"]


def _row_bits(row):
    return max((abs(v).bit_length() for v in row.values()), default=0)


def _after_add_row(rec, args, result):
    if result is not None:
        rec.counters["linalg.pivots"] += 1
        bits = _row_bits(args[0].pivrows[-1])
        if bits > rec.counters["linalg.max_bits"]:
            rec.counters["linalg.max_bits"] = bits


def _after_echelon_rows(rec, args, result):
    bits = max((_row_bits(r) for r in args[0].pivrows), default=0)
    if bits > rec.counters["linalg.max_bits"]:
        rec.counters["linalg.max_bits"] = bits


def _after_solve_space(rec, args, result):
    rec.counters["bider.maps_out"] += len(result)


def _after_save(rec, args, result):
    rec.counters["serialize.bytes_written"] += os.path.getsize(args[0])


AFTER = {
    "linalg.RowReducer.add_row": _after_add_row,
    "linalg.RowReducer.echelon_rows": _after_echelon_rows,
    "bider.solve_space": _after_solve_space,
    "serialize.save_algebra": _after_save,
    "serialize.save_map": _after_save,
}

# exceptions through which decompose reports a map it cannot split
OBSTRUCTIONS = ("NotLieBider", "NoCentralLambda", "ResidualNotCentral")

COUNTERS = ["linalg.pivots", "linalg.max_bits", "bider.maps_out",
            "serialize.bytes_written", "decomp.obstructions", "cli.report_bytes",
            "trace.spans_in_hot"]


def _cli_span_name(args, kwargs):
    """cli.<command> for a call of cli.main(argv)."""
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Recorder:
    """Spans, call counts, total times and counters of one traced run.

    Spans are kept in memory as lists [name, start, end, parent, job, hot_s]:
    parent is the index of the enclosing span or -1, job is the benchmark's
    job id, and hot_s is the time of the outermost hot calls made directly
    inside the span.
    """

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.total = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self._stack = []
        self._hot_depth = 0
        self._patches = []

    def add(self, counter, n):
        self.counters[counter] += n

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        rec = self
        spans = self.spans
        stack = self._stack
        after = AFTER.get(name)
        is_cli = name == "cli.main"
        is_decompose = name == "decomp.decompose"

        def wrapper(*args, **kwargs):
            sname = _cli_span_name(args, kwargs) if is_cli else name
            rec.calls[sname] = rec.calls.get(sname, 0) + 1
            if rec._hot_depth:
                rec.counters["trace.spans_in_hot"] += 1
            span = [sname, 0.0, 0.0, stack[-1] if stack else -1, rec.job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_decompose and type(exc).__name__ in OBSTRUCTIONS:
                    rec.counters["decomp.obstructions"] += 1
                raise
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                rec.total[sname] = rec.total.get(sname, 0.0) + (end - span[1])
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        rec = self
        spans = self.spans
        stack = self._stack
        calls = self.calls
        total = self.total
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            outer = not rec._hot_depth
            rec._hot_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec._hot_depth -= 1
                total[name] += dt
                if outer and stack:
                    spans[stack[-1]][5] += dt
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind every entry point in every loaded liebider module."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "liebider" or n.startswith("liebider."))]
        for mod_name, attr, kind in ENTRY_POINTS:
            mod = sys.modules[f"liebider.{mod_name}"]
            name = f"{mod_name}.{attr}"
            make = self._span_wrapper if kind == SPAN else self._hot_wrapper
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(make(name, raw.__func__))
                else:
                    new = make(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(mod, attr)
            wrapper = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def self_times(self):
        return self_times(self.spans)

    def self_by_name(self):
        out = {}
        for span, s in zip(self.spans, self.self_times()):
            out[span[0]] = out.get(span[0], 0.0) + s
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "calls": self.calls, "total_s": self.total,
                       "counters": self.counters}, fh)
            fh.write("\n")


def self_times(spans):
    """Self time of each span: its duration minus its child spans' durations
    and minus the hot calls made directly inside it."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child[i] - span[5] for i, span in enumerate(spans)]
