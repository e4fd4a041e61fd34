"""End-to-end acceptance run: the eight contract checks, exact arithmetic throughout.

Each criterion is one test so a plain ``pytest -v`` shows a pass/fail line
per criterion; every test also prints its own summary line.  Nothing here
is approximate: all comparisons are exact Fraction equalities, rank tests,
or byte comparisons.
"""

import subprocess
import sys
import time

import pytest

from dense_oracle import solve_law_dense
from matrix_helpers import from_dense
from liebider import (
    MapLaw,
    SpanChecker,
    block_upper_triangular,
    center_basis,
    decompose,
    hypothesis_report,
    law_residual,
    lemma31_residual,
    lemma_suite,
    lie_bracket,
    make_central,
    make_extremal,
    make_inner,
    nullspace,
    solve_space,
    tau,
    upper_triangular,
    verify_decomposition,
)
from liebider.bider import lemma31_failures
from liebider.serialize import save_algebra
from liebider.triangular import bimodule_hom_basis, standard_form_check

# Wall-clock budgets for the full solve + decompose + verify pass, per algebra.
TIME_LIMIT = {"t3": 10.0, "t4": 10.0, "t5k2": 300.0, "t5k3": 300.0, "t6k3": 20.0}

EXPECTED_DIM = {"t3": 11, "t4": 18, "t5k2": 27, "t5k3": 27, "block21": 5, "block22": 5,
                "t6k3": 38}


def build_suite():
    return {
        "t3": upper_triangular(3, 2),
        "t4": upper_triangular(4, 2),
        "t5k2": upper_triangular(5, 2),
        "t5k3": upper_triangular(5, 3),
        "block21": block_upper_triangular([2, 1], 1),
        "block22": block_upper_triangular([2, 2], 1),
    }


def solve_and_decompose(t):
    """The Lie-biderivation space of t, each map with its decomposition and
    verification, and the wall time of all of it."""
    start = time.perf_counter()
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    triples = []
    for phi in space:
        d = decompose(t, phi)
        ok = verify_decomposition(t, phi, d)
        triples.append((phi, d, ok))
    return space, triples, time.perf_counter() - start


@pytest.fixture(scope="module")
def solved():
    """Solve and decompose every suite algebra once; reused by several criteria."""
    return {name: (t,) + solve_and_decompose(t) for name, t in build_suite().items()}


def check_round_trip(name, t, space, triples, elapsed):
    assert len(space) == EXPECTED_DIM[name], name
    for phi, d, ok in triples:
        assert ok, f"{name}: verify_decomposition failed"
        assert t.is_central(d.lambda0)
        seen = {(i, j) for i, j, _, _ in d.mu.items()}
        for i, j in seen:
            assert t.is_central(d.mu.value(i, j)), f"{name}: mu not central at {(i, j)}"
        rebuilt = make_inner(t, d.lambda0) + make_extremal(t, d.r) + d.mu
        assert rebuilt == phi, f"{name}: reconstruction drifted"
    limit = TIME_LIMIT.get(name)
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.1f}s (limit {limit:.0f}s)"


def test_criterion_1_decomposition_round_trip(solved):
    for name, (t, space, triples, elapsed) in solved.items():
        check_round_trip(name, t, space, triples, elapsed)
    # T6 k=3 only gets the round trip: the other criteria would run the
    # dense lemma suite on its 38 maps
    t6 = upper_triangular(6, 3)
    t6_space, t6_triples, t6_elapsed = solve_and_decompose(t6)
    check_round_trip("t6k3", t6, t6_space, t6_triples, t6_elapsed)
    times = ", ".join(f"{n} {e:.1f}s" for n, (_, _, _, e) in solved.items())
    print(f"criterion 1: PASS  round trip on all six algebras and T6 k=3 "
          f"({times}, t6k3 {t6_elapsed:.1f}s)")


def test_criterion_2_hypotheses(solved):
    for name, (t, _, _, _) in solved.items():
        rep = hypothesis_report(t)
        assert rep.cond_i is True, name
        assert rep.cond_ii is True, name
        assert rep.cond_iii is True, name
        assert rep.cond_iv == "holds", name
        assert rep.all_pass(), name
    t2 = upper_triangular(2, 1)
    assert hypothesis_report(t2).cond_ii is False
    print("criterion 2: PASS  hypotheses hold on the suite, cond_ii fails on T2")


def test_criterion_3_lemma_suite(solved):
    for name, (t, space, _, _) in solved.items():
        for phi in space:
            rep = lemma_suite(t, phi)
            assert rep.all_pass(), f"{name}: {rep.failures()}"
    # Four-term combination identity: the dense reference at every T3
    # quadruple, the sweep on the bracket table at every quadruple elsewhere
    t3, space3 = solved["t3"][0], solved["t3"][1]
    basis = t3.alg.basis()
    for phi in space3:
        for x in basis:
            for y in basis:
                for z in basis:
                    for w in basis:
                        assert lemma31_residual(phi, (x, y, z, w)).is_zero()
    for name in ("t4", "t5k2", "t5k3"):
        for n, phi in enumerate(solved[name][1]):
            assert lemma31_failures(phi) == 0, f"{name}: map {n}"
    print("criterion 3: PASS  lemma suite green, combination identity residual zero")


def _bracket_annihilator(alg):
    # functionals vanishing on every commutator, as coordinate tuples
    rows = []
    for x in alg.basis():
        for y in alg.basis():
            br = lie_bracket(x, y)
            if not br.is_zero():
                rows.append(tuple(br.coords))
    return nullspace(from_dense(sorted(set(rows))))


def test_criterion_4_associative_case_subsumed(solved):
    for name in ("t3", "t4"):
        t = solved[name][0]
        alg = t.alg
        assoc = solve_space(alg, MapLaw.ASSOC_BIDER)
        assert assoc, name
        gens = []
        for lam in center_basis(alg):
            gens.append(make_inner(t, lam))
        for b in alg.basis():
            gens.append(make_extremal(t, b))
        ann = _bracket_annihilator(alg)
        for g in ann:
            for h in ann:
                for z in center_basis(alg):
                    gens.append(make_central(t, g, h, z))
        checker = SpanChecker([m.flat() for m in gens], alg.dim ** 3)
        for phi in assoc:
            assert checker.contains(phi.flat()), f"{name}: assoc map outside generators"
        lie_checker = SpanChecker([m.flat() for m in solved[name][1]], alg.dim ** 3)
        for phi in assoc:
            assert lie_checker.contains(phi.flat()), f"{name}: assoc map outside Lie span"
    print("criterion 4: PASS  associative solutions inside generator span and Lie span")


def test_criterion_5_dense_oracle_agreement():
    for t in (upper_triangular(2, 1), upper_triangular(3, 2)):
        for law in MapLaw:
            ours = [m.flat() for m in solve_space(t.alg, law)]
            oracle = solve_law_dense(t.alg, law)
            assert len(ours) == len(oracle), (t.alg.dim, law)
            fwd = SpanChecker(oracle, t.alg.dim ** 3)
            assert all(fwd.contains(v) for v in ours), (t.alg.dim, law)
            back = SpanChecker(ours, t.alg.dim ** 3)
            assert all(back.contains(v) for v in oracle), (t.alg.dim, law)
    print("criterion 5: PASS  dense oracle agrees on T2 and T3 for every law")


def test_criterion_6_structure_facts(solved):
    for n in (2, 3, 4, 5):
        assert len(center_basis(upper_triangular(n, 1).alg)) == 1, n
    for sizes in ([2, 1], [2, 2]):
        assert len(center_basis(block_upper_triangular(sizes, 1).alg)) == 1, sizes
    for name, (t, _, _, _) in solved.items():
        hom = bimodule_hom_basis(t)
        assert len(hom) == 1, name
        k = len(t.m_indices)
        ident = tuple(tuple(1 if r == c else 0 for c in range(k)) for r in range(k))
        assert hom[0] == ident, name
        assert standard_form_check(t), name
        for z in center_basis(t.alg):
            a = t.proj_a(z)
            ta = tau(t, a)
            for mi in t.m_indices:
                m = t.alg.basis()[mi]
                assert a * m == m * ta, f"{name}: tau fails at {m!r}"
    print("criterion 6: PASS  scalar center, identity hom space, tau intertwines")


def test_criterion_7_constructed_maps(solved):
    t3, space = solved["t3"][0], solved["t3"][1]
    alg = t3.alg
    one = alg.unit_element()
    e13 = alg.basis()[t3.m_indices[0]]
    assert repr(e13) == "E13"
    tr = t3.trace_functional()
    built = [
        make_inner(t3, one),
        make_extremal(t3, e13),
        make_central(t3, tr, tr, one),
    ]
    checker = SpanChecker([m.flat() for m in space], alg.dim ** 3)
    basis = alg.basis()
    for phi in built:
        for x in basis:
            for y in basis:
                for z in basis:
                    r1, r2 = law_residual(phi, MapLaw.LIE_BIDER, (x, y, z))
                    assert r1.is_zero() and r2.is_zero()
        assert checker.contains(phi.flat())
    print("criterion 7: PASS  inner, extremal, central constructions solve and span-check")


def test_criterion_8_verify_determinism(tmp_path):
    path = tmp_path / "t4.json"
    t4 = upper_triangular(4, 2)
    save_algebra(path, t4.alg, t4.e)
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "liebider.cli", "verify", str(path)],
            capture_output=True,
            check=True,
        )
        body = b"\n".join(
            ln for ln in proc.stdout.splitlines() if not ln.startswith(b"# ")
        )
        outs.append(body)
    assert outs[0] == outs[1]
    assert b"verdict: pass" in outs[0]
    print("criterion 8: PASS  verify output is byte-stable across runs")
