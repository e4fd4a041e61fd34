"""The central solve agrees with linalg.solve.

triangular._center_system builds the system of the central z with
prescribed products z*row: one column per center basis element z_s,
holding the coordinates of z_s*row at (key, o) for each (key, row).
_central_system keeps it as one tagged span: a SpanChecker with one row
[column s | 1 at tag s] per column, the tags in reverse column order.
_central_solution answers the zero target with zero and reduces any
other target, with 1 at a marker column, once against the span: a key
column left means no solution, and otherwise the coefficients are read
off the tags, and z = sum_s c_s*z_s comes back as a sparse row.  The
reference here stacks the same columns and the target into a
SparseMatrix, solves it with linalg.solve (free coefficients zero), sums
the center basis with the coefficients and maps an inconsistent system to
None.  The cached system keeps only its column count, key index and
span, so the reference builds each system's columns itself, from Element
products: pi_M(z*[b_i, b_j]) for lambda0, z*m_u for alpha0, z*e for tau
and z*f for tau_inv.  Both must give the same z on those four systems of
every oracle algebra, and on hand-built systems with dependent, zero and
Fraction-valued columns, redundant rows, an inconsistent target and a
target at a key no column reaches.  Each Element-product column solves
to its own center basis element, which pins the cached system to those
columns, and on the algebras here the columns are independent, so each
solution is unique.
"""

import random
from fractions import Fraction

import pytest

from liebider import (BilinearMap, FiniteAlgebra, Inconsistent, MapLaw, SparseMatrix,
                      TriangularAlgebra, block_upper_triangular, lie_bracket, make_extremal,
                      multiply, rref, solve, solve_space, upper_triangular)
from liebider.decomp import _lambda_system, _solve_alpha0
from liebider.linalg import _sparse
from liebider.triangular import (_center_system, _central_part, _central_solution,
                                 _central_system)
from test_decompose_oracle import ALGEBRAS, CROWN

CASES = dict(ALGEBRAS, t2=lambda: upper_triangular(2, 1))


def center_rows(t):
    return [_sparse(z.coords) for z in t.center]


def combination(coeffs, rows):
    out = {}
    for c, row in zip(coeffs, rows):
        for k, v in row.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def by_solve(t, columns, target):
    """sum_s c_s*z_s over t's center basis for linalg.solve's solution c
    over every key a column or the target reaches, or None if there is
    none."""
    keys = sorted(set().union(*columns, target))
    row = {key: n for n, key in enumerate(keys)}
    entries = [(row[key], s, v) for s, col in enumerate(columns) for key, v in col.items()]
    rhs = [target.get(key, 0) for key in keys]
    try:
        coeffs = solve(SparseMatrix(len(keys), len(columns), entries), rhs)
    except Inconsistent:
        return None
    return combination(coeffs, center_rows(t))


def assert_agree(t, system, columns, targets):
    """Both solves agree on every target, the reference over columns;
    returns which kinds of outcome were seen: True for None, False for a
    solution."""
    seen = set()
    for n, target in enumerate(targets):
        target = {key: v for key, v in target.items() if v}
        got = _central_solution(t, system, target)
        assert got == by_solve(t, columns, target), n
        seen.add(got is None)
    return seen


def shifted(rnd, target, keys):
    """target with one value changed at a key drawn from keys."""
    out = dict(target)
    key = rnd.choice(keys)
    out[key] = out.get(key, 0) + rnd.choice([-2, -1, 1, 2])
    return out


def maps(t, rnd):
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    out = list(space)
    for _ in range(4):
        phi = BilinearMap(t.alg, {})
        for m in rnd.sample(space, min(3, len(space))):
            phi = phi + m.scale(rnd.choice([-3, -2, -1, 1, 2, 3]))
        out.append(phi)
    return out


def alpha0_system(t):
    return _center_system(t, [(u, {u: 1}) for u in t.m_indices])


def tau_system(t, side):
    return _center_system(t, [(side, _sparse((t.e if side == "a" else t.f).coords))])


def nonzero(pairs):
    return {key: c for key, c in pairs if c}


def lambda0_columns(t):
    """pi_M(z*[b_i, b_j]) at ((i, j), o), one column per center basis
    element z, from Element products."""
    basis = t.alg.basis()
    return [nonzero((((i, j), o), c) for i, x in enumerate(basis) for j, y in enumerate(basis)
                    for o, c in enumerate(t.proj_m(multiply(z, lie_bracket(x, y))).coords))
            for z in t.center]


def alpha0_columns(t):
    """z*m_u at (u, o), from Element products."""
    basis = t.alg.basis()
    return [nonzero(((u, o), c) for u in t.m_indices
                    for o, c in enumerate(multiply(z, basis[u]).coords)) for z in t.center]


def tau_columns(t, side):
    """z*e (side 'a') or z*f ('b') at (side, o), from Element products."""
    unit = t.e if side == "a" else t.f
    return [nonzero(((side, o), c) for o, c in enumerate(multiply(z, unit).coords))
            for z in t.center]


def systems(t):
    """(name, cached system, its columns from Element products) for the
    four central systems."""
    return [("lambda0", _lambda_system(t), lambda0_columns(t)),
            ("alpha0", alpha0_system(t), alpha0_columns(t)),
            ("tau", tau_system(t, "a"), tau_columns(t, "a")),
            ("tau_inv", tau_system(t, "b"), tau_columns(t, "b"))]


def t2_sum(n):
    """The direct sum of n copies of T2, each split at its first unit: a
    triangular algebra whose center, spanned by the copies' units, has
    dimension n."""
    structure = {}
    for c in range(n):
        a, m, b = 3 * c, 3 * c + 1, 3 * c + 2
        structure.update({(a, a, a): 1, (a, m, m): 1, (m, b, m): 1, (b, b, b): 1})
    alg = FiniteAlgebra(3 * n, [f"{x}{c}" for c in range(n) for x in "amb"], structure,
                        [1, 0, 1] * n)
    return TriangularAlgebra(alg, alg.element([1, 0, 0] * n))


@pytest.mark.parametrize("name", sorted(CASES))
def test_lambda0_targets_agree_with_solve(name):
    t = CASES[name]()
    rnd = random.Random(f"lambda0-{name}")
    system, columns = _lambda_system(t), lambda0_columns(t)
    m_set = set(t.m_indices)
    keys = sorted(columns[0]) + [((0, 0), t.m_indices[0])]
    targets = []
    for phi in maps(t, rnd):
        rest = phi - make_extremal(t, phi(t.e, t.e))
        target = {((i, j), k): v for i, j, k, v in rest.items() if k in m_set}
        targets += [target, shifted(rnd, target, keys)]
    assert assert_agree(t, system, columns, targets) == {True, False}


@pytest.mark.parametrize("name", sorted(CASES))
def test_alpha0_targets_agree_with_solve(name):
    t = CASES[name]()
    rnd = random.Random(f"alpha0-{name}")
    system, columns = alpha0_system(t), alpha0_columns(t)
    keys = [(u, o) for u in t.m_indices for o in range(t.alg.dim)]
    e = _sparse(t.e.coords)
    targets = []
    for phi in maps(t, rnd):
        target = {(u, o): c for u in t.m_indices
                  for o, c in enumerate(phi(t.e, t.alg.basis_element(u)).coords)}
        # _solve_alpha0 returns the A-part of the solution
        z = by_solve(t, columns, {key: v for key, v in target.items() if v})
        want = None if z is None else {k: v for k, v in z.items() if k in t.a_indices}
        assert _solve_alpha0(t, phi._rows(), e) == want
        targets += [target, shifted(rnd, target, keys)]
    assert assert_agree(t, system, columns, targets) == {True, False}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("side", ["a", "b"])
def test_tau_targets_agree_with_solve(name, side):
    t = CASES[name]()
    rnd = random.Random(f"tau-{side}-{name}")
    system, columns = tau_system(t, side), tau_columns(t, side)
    indices = t.a_indices if side == "a" else t.b_indices
    rows = [{g: z.coords[g] for g in indices} for z in t.center]
    rows += [{g: 1} for g in indices]
    rows += [shifted(rnd, row, list(indices)) for row in rows]
    rows += [{}, {t.m_indices[0]: 1}]   # zero; a key outside the corner
    targets = [{(side, k): v for k, v in row.items()} for row in rows]
    assert assert_agree(t, system, columns, targets) == {True, False}
    for row, target in zip(rows, targets):
        row = {k: v for k, v in row.items() if v}
        assert _central_part(t, row, side) == by_solve(t, columns, target)


@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_match_element_products(name):
    # for central z: z*pi_M(x) = pi_M(z*x), z*m = pi_A(z)*m, z*e = pi_A(z)
    # and z*f = pi_B(z), so each Element-product column is the one the
    # system was built from: the target column s solves to z_s, and the
    # system reaches the columns' keys and no other
    t = CASES[name]()
    basis = t.alg.basis()
    for z in t.center:
        for u in t.m_indices:
            assert multiply(z, basis[u]) == multiply(t.proj_a(z), basis[u])
        assert multiply(z, t.e) == t.proj_a(z)
        assert multiply(z, t.f) == t.proj_b(z)
    for kind, system, columns in systems(t):
        count, index, _ = system
        assert count == len(columns) == len(t.center), kind
        assert index.keys() == set().union(*columns), kind
        for column, z in zip(columns, center_rows(t)):
            assert _central_solution(t, system, column) == z, kind


UNIQUE_CASES = dict(CASES, crown=CROWN, t6k3=lambda: upper_triangular(6, 3),
                    block221=lambda: block_upper_triangular([2, 2, 1], 1),
                    t2sum2=lambda: t2_sum(2), t2sum3=lambda: t2_sum(3), t2sum5=lambda: t2_sum(5))


@pytest.mark.parametrize("name", sorted(UNIQUE_CASES))
def test_central_columns_are_independent(name):
    # for central z, z*m = pi_A(z)*m = m*pi_B(z), so z*m = 0 for every m in
    # eTf forces z = 0 by faithfulness; each system's rows reach every m:
    # [e, m] = m for lambda0, the m_u for alpha0, z*e = pi_A(z) for tau and
    # z*f = pi_B(z) for tau_inv.  So the columns have rank dim Z, and each
    # system has at most one solution
    t = UNIQUE_CASES[name]()
    for _, system, columns in systems(t):
        assert system[0] == len(columns)
        keys = {key: n for n, key in enumerate(sorted(set().union(*columns)))}
        entries = [(s, keys[key], v) for s, col in enumerate(columns) for key, v in col.items()]
        _, pivots = rref(SparseMatrix(len(columns), len(keys), entries))
        assert len(columns) == len(pivots) == len(t.center)


def test_hand_built_systems_agree_with_solve():
    t = t2_sum(5)   # a five-dimensional center: one basis element per column
    half = Fraction(1, 2)
    cases = [
        # column 1 is twice column 0, column 2 is zero, column 4 = 0 + 3
        [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {}, {"b": 1, "c": -1},
         {"a": 1, "b": 3, "c": -1}],
        # more keys than columns, every row of the square redundant once
        [{"a": 1, "b": 1, "c": 1, "d": 1}, {"a": 1, "b": 2, "c": 3, "d": 4}],
        # the first key meets no pivot column until the third
        [{"b": half, "c": 1}, {"b": 1, "c": 2, "d": -1}, {"a": 3}],
        # only zero columns
        [{}, {}],
        # a single column
        [{"x": 5}],
    ]
    rnd = random.Random("hand-built")
    for columns in cases:
        system = _central_system(columns)
        keys = sorted(set().union(*columns)) or ["x"]
        targets = [{}, {"z": 1}]   # the zero target; a key no column reaches
        for s in range(len(columns)):
            targets.append(dict(columns[s]))
        for _ in range(6):
            coeffs = [rnd.choice([0, 0, 1, -2, half]) for _ in columns]
            combo = combination(coeffs, columns)
            targets.append(combo)
            targets.append(shifted(rnd, combo, keys))                # mostly inconsistent
            targets.append(dict(combo, z=rnd.choice([-1, 1])))       # unreached key
        assert assert_agree(t, system, columns, targets) == {True, False}


def test_inconsistent_and_unreached_targets_give_none():
    t = t2_sum(2)
    z0 = center_rows(t)[0]
    system = _central_system([{"a": 1, "b": 1}, {"a": 1, "b": 2}])
    assert _central_solution(t, system, {"a": 1, "b": 1}) == z0
    assert _central_solution(t, system, {"a": 1, "b": 1, "c": 1}) is None
    system = _central_system([{"a": 1, "b": 1}, {"a": 2, "b": 2}])
    assert _central_solution(t, system, {"a": 2, "b": 2}) == {k: 2 * v for k, v in z0.items()}
    assert _central_solution(t, system, {"a": 1, "b": 2}) is None
