"""Algebra construction agrees with the dense reference.

FiniteAlgebra checks associativity on an integer copy of its sparse product
table, and TriangularAlgebra splits the basis from sparse rows of e·b_i and
b_i·e.  dense_oracle.validate walks every basis triple in Fraction
arithmetic, and dense_oracle.peirce_split and dense_oracle.center work in
Element arithmetic.  Both must accept or reject the same inputs with the
same message, and on accepted inputs give the same Peirce indices and the
same center: on the oracle algebras, on a table with a non-integer
constant, on rescaled bases (valid tables with mixed denominators) and on
seeded changes to the structure constants, the unit and e.  With several
constants changed at once, so that several triples fail, the library
must name the reference's first failing triple.
"""

from fractions import Fraction
import functools
import random
import re

import pytest

import dense_oracle
from liebider import FiniteAlgebra, TriangularAlgebra, block_upper_triangular, upper_triangular
from test_bider import t3_scaled
from test_decompose_oracle import ALGEBRAS

# block [2,2,1] and T6 k=3 are the algebras of the benchmark's solve-laws
CASES = dict(ALGEBRAS, t3_scaled=t3_scaled, t6=lambda: upper_triangular(6, 3),
             block221=lambda: block_upper_triangular([2, 2, 1], 1))
DELTAS = [Fraction(d) for d in (1, -1, 2, "1/2", "-1/3", "3/2")]


def library(dim, items, unit, e):
    """("ok", Peirce indices, center) or ("error", stage, message)."""
    try:
        alg = FiniteAlgebra(dim, [f"b{i}" for i in range(dim)], items, unit)
    except ValueError as exc:
        return "error", "algebra", str(exc)
    try:
        t = TriangularAlgebra(alg, alg.element(e))
    except ValueError as exc:
        return "error", "split", str(exc)
    return ("ok", (t.a_indices, t.m_indices, t.b_indices),
            tuple(z.coords for z in t.center))


def reference(dim, items, unit, e):
    try:
        dense_oracle.validate(dim, items, unit)
    except ValueError as exc:
        return "error", "algebra", str(exc)
    alg = FiniteAlgebra(dim, [f"b{i}" for i in range(dim)], items, unit)
    try:
        split = dense_oracle.peirce_split(alg, alg.element(e))
    except ValueError as exc:
        return "error", "split", str(exc)
    return "ok", split, tuple(dense_oracle.center(alg))


def rescaled(items, unit, e, rnd):
    """The same algebra on the basis s_i·b_i, s_i random nonzero rationals:
    c_ij^k becomes c_ij^k·s_i·s_j/s_k, unit and e coordinates u_i/s_i."""
    dim = len(unit)
    s = [Fraction(rnd.choice([1, -1]) * rnd.randint(1, 5), rnd.randint(1, 4))
         for _ in range(dim)]
    return ([(i, j, k, v * s[i] * s[j] / s[k]) for i, j, k, v in items],
            [u / si for u, si in zip(unit, s)], [c / si for c, si in zip(e, s)])


def variants(t, rnd):
    """(kind, items, unit, e) inputs around the triangular algebra t."""
    dim = t.alg.dim
    items = list(t.alg.structure_items())
    unit = list(t.alg.unit)
    e = list(t.e.coords)
    yield "as built", items, unit, e
    for _ in range(3):
        yield ("rescaled",) + rescaled(items, unit, e, rnd)
    # products of two basis elements off the unit's support do not enter
    # the unit law, so changing them reaches the associativity check
    off_unit = [i for i, u in enumerate(unit) if not u]
    for base in ("as built", "rescaled"):
        b_items, b_unit, b_e = (items, unit, e) if base == "as built" else rescaled(items, unit, e, rnd)
        for n in range(30):
            # one constant changed, added or removed
            table = {(i, j, k): v for i, j, k, v in b_items}
            if n % 3 == 0:
                key = rnd.choice(sorted(table))
            elif n % 3 == 1:
                key = (rnd.randrange(dim), rnd.randrange(dim), rnd.randrange(dim))
            else:
                key = (rnd.choice(off_unit), rnd.choice(off_unit), rnd.randrange(dim))
            table[key] = table.get(key, 0) + rnd.choice(DELTAS + [-table.get(key, 0) or 1])
            yield (f"{base} structure", [key + (v,) for key, v in sorted(table.items())],
                   b_unit, b_e)
        for _ in range(3):
            u = list(b_unit)
            u[rnd.randrange(dim)] += rnd.choice(DELTAS)
            yield f"{base} unit", b_items, u, b_e
        for _ in range(4):
            c = list(b_e)
            c[rnd.randrange(dim)] += rnd.choice(DELTAS)
            yield f"{base} e", b_items, b_unit, c
    # e + m is idempotent for m in eTf, so the checks after idempotence see it
    for m in t.m_indices:
        c = list(e)
        c[m] += 1
        yield "e plus m", items, unit, c
    # every sum of diagonal idempotents of the unit's support
    diag = [i for i, u in enumerate(unit) if u]
    for mask in range(1 << len(diag)):
        c = [Fraction(0)] * dim
        for bit, i in enumerate(diag):
            if mask >> bit & 1:
                c[i] = Fraction(1)
        yield "diagonal e", items, unit, c


@functools.cache
def results(name):
    """(kind, library outcome, reference outcome) for every variant."""
    t = CASES[name]()
    rnd = random.Random(f"construction-oracle-{name}")
    return [(kind, library(t.alg.dim, items, unit, e), reference(t.alg.dim, items, unit, e))
            for kind, items, unit, e in variants(t, rnd)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_agrees_with_dense_reference(name):
    for n, (kind, got, want) in enumerate(results(name)):
        assert got == want, (name, n, kind)
    # accepted inputs, and rejections at both stages
    stages = {got[:2] if got[0] == "error" else got[:1] for _, got, _ in results(name)}
    assert stages == {("ok",), ("error", "algebra"), ("error", "split")}


def test_variants_reach_every_check():
    messages = {re.sub(r"[0-9]+", "#", got[2])
                for name in CASES for _, got, _ in results(name) if got[0] == "error"}
    assert messages == {
        "unit fails on the left at basis #", "unit fails on the right at basis #",
        "not associative at basis triple (#,#,#)", "e is not idempotent",
        "f·T·e is nonzero at basis element #",
        "basis element # is not Peirce-homogeneous", "the bimodule eTf is zero",
        "bimodule not faithful: some a in A kills eTf",
        "bimodule not faithful: some b in B kills eTf"}


@pytest.mark.parametrize("name", ["t3", "t4", "diamond", "block22"])
def test_several_faults_name_the_first_failing_triple(name):
    # 2-3 constants changed together at products off the unit's support,
    # which the unit law does not read: associativity decides, and the
    # library's walk over one left factor at a time must report the
    # smallest of the failing triples, as the reference's dim**3 scan does
    t = CASES[name]()
    alg = t.alg
    dim = alg.dim
    unit, e = list(alg.unit), list(t.e.coords)
    off_unit = [i for i, u in enumerate(unit) if not u]
    rnd = random.Random(f"several-faults-{name}")
    several = 0
    for n in range(40):
        table = {(i, j, k): v for i, j, k, v in alg.structure_items()}
        for _ in range(rnd.randint(2, 3)):
            key = (rnd.choice(off_unit), rnd.choice(off_unit), rnd.randrange(dim))
            table[key] = table.get(key, 0) + rnd.choice(DELTAS)
        # in a shuffled order: the first failing triple is the smallest,
        # whatever order the constants were given in
        items = [key + (v,) for key, v in table.items()]
        rnd.shuffle(items)
        got = library(dim, items, unit, e)
        with pytest.raises(ValueError, match="not associative") as want:
            dense_oracle.validate(dim, items, unit)
        assert got == ("error", "algebra", str(want.value)), (name, n)
        failures = dense_oracle.associativity_failures(dim, items)
        if len({i for i, _, _ in failures}) > 1:
            several += 1
    # most variants fail at triples of more than one left factor
    assert several >= 30
