"""Command-line surface: build algebras, solve map spaces, decompose, verify.

Reports are line-oriented key-value text by default, a single JSON document
behind --format json.  Both are deterministic for identical inputs; timing
goes on comment lines starting with "# " so report bodies stay
byte-comparable.  Exit codes: 0 success, 2 input error, 3 decomposition
failure, 4 verification failure.
"""

import argparse
import functools
import json
import os
import sys
import time

from .algebra import center_basis
from .bider import MapLaw, lemma31_failures, solve_space
from .decomp import (NoCentralLambda, NotLieBider, ResidualNotCentral,
                     decompose, lemma_suite)
from .serialize import (FingerprintMismatch, SchemaError, algebra_fingerprint,
                        fingerprint, load_algebra, load_map, load_poset,
                        load_triangular, save_algebra, save_map)
from .triangular import (ConstructionError, block_upper_triangular,
                         hypothesis_report, incidence_algebra, upper_triangular)

LAW_CHOICES = [law.value for law in MapLaw]


def _coords_text(coords):
    return " ".join(map(str, coords))


def _coords_pairs(coords):
    return [[c.numerator, c.denominator] for c in coords]


def _print_report(fmt, headers, lines, doc):
    for h in headers:
        print(f"# {h}")
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        for ln in lines:
            print(ln)


def _csv_ints(text, what):
    try:
        vals = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise SchemaError(f"{what} must be comma-separated integers")
    if not vals:
        raise SchemaError(f"{what} must be nonempty")
    return vals


def _cmd_build(args):
    if args.kind == "tn":
        if args.n is None or args.k is None:
            raise SchemaError("--kind tn needs --n and --k")
        t = upper_triangular(args.n, args.k)
    elif args.kind == "block":
        if args.dims is None or args.j is None:
            raise SchemaError("--kind block needs --dims and --j")
        t = block_upper_triangular(_csv_ints(args.dims, "--dims"), args.j)
    else:
        if args.poset is None or args.downset is None:
            raise SchemaError("--kind incidence needs --poset and --downset")
        p = load_poset(args.poset)
        t = incidence_algebra(p, _csv_ints(args.downset, "--downset"))
    fpr = fingerprint(save_algebra(args.out, t.alg, t.e))
    lines = [
        f"kind: {args.kind}",
        f"dim: {t.alg.dim}",
        f"labels: {' '.join(t.alg.basis_labels)}",
        f"out: {args.out}",
        f"fingerprint: {fpr}",
    ]
    jdoc = {"kind": args.kind, "dim": t.alg.dim,
            "labels": list(t.alg.basis_labels),
            "out": args.out, "fingerprint": fpr}
    _print_report(args.format, [], lines, jdoc)
    return 0


def _cmd_solve(args):
    t0 = time.perf_counter()
    alg, e = load_algebra(args.algebra)
    law = MapLaw(args.law)
    maps = solve_space(alg, law)
    fpr = algebra_fingerprint(alg, e)
    os.makedirs(args.outdir, exist_ok=True)
    width = max(3, len(str(max(len(maps) - 1, 0))))
    files = []
    for idx, phi in enumerate(maps):
        path = os.path.join(args.outdir, f"map_{idx:0{width}d}.json")
        save_map(path, phi, fpr)
        files.append(path)
    elapsed = time.perf_counter() - t0
    rank = alg.dim ** 3 - len(maps)
    lines = [
        f"algebra: {args.algebra}",
        f"law: {law.value}",
        f"dimension: {len(maps)}",
        f"rank: {rank}",
        f"outdir: {args.outdir}",
    ]
    lines += [f"file: {p}" for p in files]
    jdoc = {"algebra": args.algebra, "law": law.value,
            "dimension": len(maps), "rank": rank,
            "outdir": args.outdir, "files": files}
    _print_report(args.format, [f"elapsed_ms: {elapsed * 1000:.1f}"], lines, jdoc)
    return 0


def _witness_doc(exc):
    if isinstance(exc, NotLieBider):
        slot, labels, residual = exc.witness
        return {"slot": slot, "triple": list(labels),
                "residual": _coords_pairs(residual.coords)}
    if isinstance(exc, ResidualNotCentral):
        i, j, value = exc.witness
        return {"pair": [i, j], "value": _coords_pairs(value.coords)}
    return {"message": str(exc)}


def _witness_lines(exc):
    if isinstance(exc, NotLieBider):
        slot, labels, residual = exc.witness
        return [f"witness_slot: {slot}",
                f"witness_triple: {' '.join(labels)}",
                f"witness_residual: {_coords_text(residual.coords)}"]
    if isinstance(exc, ResidualNotCentral):
        i, j, value = exc.witness
        return [f"witness_pair: {i} {j}",
                f"witness_value: {_coords_text(value.coords)}"]
    return [f"witness_message: {exc}"]


def _cmd_decompose(args):
    t0 = time.perf_counter()
    t = load_triangular(args.algebra)
    phi = load_map(args.map, t.alg, algebra_fingerprint(t.alg, t.e))
    try:
        d = decompose(t, phi)
    except (NotLieBider, NoCentralLambda, ResidualNotCentral) as exc:
        lines = [f"error: {type(exc).__name__}"] + _witness_lines(exc)
        jdoc = {"error": type(exc).__name__, "witness": _witness_doc(exc)}
        _print_report(args.format, [], lines, jdoc)
        return 3
    elapsed = time.perf_counter() - t0
    mu_items = d.mu.items()
    lines = [
        f"lambda0: {_coords_text(d.lambda0.coords)}",
        f"r: {_coords_text(d.r.coords)}",
        f"mu_terms: {len(mu_items)}",
    ]
    lines += [f"mu: {i} {j} {k} {v}" for (i, j, k, v) in mu_items]
    # decompose() returns only parts that verify_decomposition() accepted:
    # lambda0 and every mu value central, the reconstruction exact
    lines += [
        "lambda0_central: yes",
        "mu_central: yes",
        "reconstruction_exact: yes",
    ]
    jdoc = {
        "lambda0": _coords_pairs(d.lambda0.coords),
        "r": _coords_pairs(d.r.coords),
        "mu": [[i, j, k, v.numerator, v.denominator] for (i, j, k, v) in mu_items],
        "verification": {"lambda0_central": True,
                         "mu_central": True,
                         "reconstruction_exact": True},
    }
    _print_report(args.format, [f"elapsed_ms: {elapsed * 1000:.1f}"], lines, jdoc)
    return 0


def _hypothesis_lines(hr):
    return [
        f"cond_i: {'true' if hr.cond_i else 'false'}",
        f"cond_ii: {'true' if hr.cond_ii else 'false'}",
        f"cond_iii: {'true' if hr.cond_iii else 'false'}",
        f"cond_iv: {hr.cond_iv}",
        f"hypotheses_pass: {'yes' if hr.all_pass() else 'no'}",
    ]


def _hypothesis_doc(hr):
    return {"cond_i": hr.cond_i, "cond_ii": hr.cond_ii,
            "cond_iii": hr.cond_iii, "cond_iv": hr.cond_iv,
            "all_pass": hr.all_pass()}


def _witness_json(wit):
    if wit is None:
        return None
    out = {"basis": list(wit["basis"])}
    if "residual" in wit:
        out["residual"] = [str(c) for c in wit["residual"].coords]
    if "reason" in wit:
        out["reason"] = wit["reason"]
    return out


def _aggregate_sign(signs):
    seen = {s for s in signs if s is not None} - {"both"}
    if not seen:
        return "both" if signs else "none"
    if len(seen) == 1:
        return seen.pop()
    return "mixed"


def _cmd_verify(args):
    t0 = time.perf_counter()
    t = load_triangular(args.algebra)
    alg = t.alg
    hr = hypothesis_report(t)
    gate = hr.all_pass()

    lines = [f"algebra: {args.algebra}", f"dim: {alg.dim}"]
    lines += _hypothesis_lines(hr)
    if not gate:
        lines.append("annotation: hypotheses not met")

    dims = {}
    spaces = {}
    for law in MapLaw:
        spaces[law] = solve_space(alg, law)
        dims[law.value] = len(spaces[law])
        lines.append(f"dim {law.value}: {dims[law.value]}")

    maps = spaces[MapLaw.LIE_BIDER]
    check_ids = ["3.3.1", "3.3.2", "3.3.3", "3.4", "3.5", "3.6", "3.7"]
    counts = {cid: 0 for cid in check_ids}
    first_witness = {}
    b_signs = []
    d_signs = []
    for phi in maps:
        rep = lemma_suite(t, phi)
        for ent in rep:
            cid = ent["id"]
            if ent["passed"]:
                counts[cid] += 1
            elif cid not in first_witness and ent["witness"] is not None:
                first_witness[cid] = ent["witness"]
        b_signs.append(rep.entry("3.4")["detail"].get("b_side_sign"))
        d_signs.append(rep.entry("3.7")["detail"].get("diagonal_sign"))

    lines.append(f"maps_checked: {len(maps)}")
    for cid in check_ids:
        lines.append(f"check {cid}: {counts[cid]}/{len(maps)}")
    for cid in check_ids:
        if cid in first_witness:
            wit = first_witness[cid]
            basis = " ".join(wit["basis"])
            if "residual" in wit:
                lines.append(f"witness {cid}: basis=({basis}) "
                             f"residual={_coords_text(wit['residual'].coords)}")
            else:
                lines.append(f"witness {cid}: basis=({basis}) "
                             f"reason={wit['reason']}")
    b_sign = _aggregate_sign(b_signs)
    d_sign = _aggregate_sign(d_signs)
    lines.append(f"b_side_sign: {b_sign}")
    lines.append(f"diagonal_sign: {d_sign}")

    quads = alg.dim ** 4
    quad_failures = sum(lemma31_failures(phi) for phi in maps)
    lines.append("lemma31_mode: exhaustive")
    lines.append(f"lemma31_quads: {quads}")
    lines.append(f"lemma31_failures: {quad_failures}")

    # every basis map is decomposed; an obstruction is reported, not fatal,
    # since it is expected where the hypotheses fail
    decomposed = 0
    obstruction = None
    for idx, phi in enumerate(maps):
        try:
            decompose(t, phi)
        except (NotLieBider, NoCentralLambda, ResidualNotCentral) as exc:
            if obstruction is None:
                obstruction = {"map": idx, "error": type(exc).__name__}
        else:
            decomposed += 1
    lines.append(f"decompositions: {decomposed}/{len(maps)}")
    if obstruction is not None:
        lines.append(f"witness decompose: map={obstruction['map']} "
                     f"error={obstruction['error']}")

    lemma_fail = (any(counts[cid] != len(maps) for cid in check_ids)
                  or quad_failures > 0)
    if gate and lemma_fail:
        verdict = "fail"
        code = 4
    elif not gate:
        verdict = "hypotheses not met"
        code = 0
    else:
        verdict = "pass"
        code = 0
    lines.append(f"verdict: {verdict}")

    elapsed = time.perf_counter() - t0
    jdoc = {
        "algebra": args.algebra,
        "dim": alg.dim,
        "hypotheses": _hypothesis_doc(hr),
        "solution_dims": dims,
        "maps_checked": len(maps),
        "lemma_checks": {cid: counts[cid] for cid in check_ids},
        "witnesses": {cid: _witness_json(first_witness[cid])
                      for cid in first_witness},
        "b_side_sign": b_sign,
        "diagonal_sign": d_sign,
        "lemma31": {"mode": "exhaustive", "quads": quads,
                    "failures": quad_failures},
        "decompositions": {"decomposed": decomposed, "maps": len(maps),
                           "first_obstruction": obstruction},
        "verdict": verdict,
    }
    _print_report(args.format, [f"elapsed_ms: {elapsed * 1000:.1f}"], lines, jdoc)
    return code


def _cmd_center(args):
    alg, _e = load_algebra(args.algebra)
    zs = center_basis(alg)
    lines = [f"algebra: {args.algebra}", f"dimension: {len(zs)}"]
    lines += [f"z{idx}: {_coords_text(z.coords)}" for idx, z in enumerate(zs)]
    jdoc = {"algebra": args.algebra, "dimension": len(zs),
            "basis": [_coords_pairs(z.coords) for z in zs]}
    _print_report(args.format, [], lines, jdoc)
    return 0


def _cmd_hypotheses(args):
    t = load_triangular(args.algebra)
    hr = hypothesis_report(t)
    lines = [f"algebra: {args.algebra}"] + _hypothesis_lines(hr)
    jdoc = {"algebra": args.algebra, "hypotheses": _hypothesis_doc(hr)}
    _print_report(args.format, [], lines, jdoc)
    return 0


@functools.cache
def _build_parser():
    """The argparse tree, built on first use and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="liebider",
        description="Construct triangular algebras, solve Lie biderivation "
                    "spaces, and decompose the solutions exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("build", help="construct an algebra and write it to a file")
    p.add_argument("--kind", required=True, choices=["tn", "block", "incidence"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--dims")
    p.add_argument("--j", type=int)
    p.add_argument("--poset")
    p.add_argument("--downset")
    p.add_argument("--out", default="algebra.json")
    add_format(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="solve a bilinear-map law on an algebra file")
    p.add_argument("algebra")
    p.add_argument("--law", required=True, choices=LAW_CHOICES)
    p.add_argument("--outdir", default="maps")
    add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decompose", help="split a solved map into its parts")
    p.add_argument("algebra")
    p.add_argument("map")
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="run hypothesis checks and the full "
                                      "identity suite over the solved space")
    p.add_argument("algebra")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("center", help="print a basis of the center")
    p.add_argument("algebra")
    add_format(p)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("hypotheses", help="print the hypothesis report only")
    p.add_argument("algebra")
    add_format(p)
    p.set_defaults(func=_cmd_hypotheses)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, FingerprintMismatch, ConstructionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
