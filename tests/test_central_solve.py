"""The factored central-coefficient solve agrees with linalg.solve.

triangular._central_system factors a system sum_s c_s*columns[s] = target
once: its pivot columns, the first keys where they form an invertible
square, and that square's inverse.  _central_solution then solves each
right-hand side by one product with the inverse and a check of the full
equation.  The reference here stacks the same columns and the target into a
SparseMatrix, solves it with linalg.solve (free coefficients zero) and maps
an inconsistent system to None.  Both must give the same element on the
lambda0, alpha0, tau and tau_inv systems of every oracle algebra, and on
hand-built systems with dependent and zero columns, redundant rows, an
inconsistent target and a target at a key no column reaches.
"""

import random
from fractions import Fraction

import pytest

from liebider import (BilinearMap, Inconsistent, MapLaw, SparseMatrix, make_extremal, solve,
                      solve_space, upper_triangular)
from liebider.algebra import _cached
from liebider.decomp import _alpha0_system, _lambda_system
from liebider.triangular import _central_solution, _central_system, _tau_system
from test_decompose_oracle import ALGEBRAS

CASES = dict(ALGEBRAS, t2=lambda: upper_triangular(2, 1))


def by_solve(t, columns, gens, target):
    """sum_s c_s*gens[s] for linalg.solve's solution c over every key a
    column or the target reaches, or None if there is none."""
    keys = sorted(set().union(*columns, target))
    row = {key: n for n, key in enumerate(keys)}
    entries = [(row[key], s, v) for s, col in enumerate(columns) for key, v in col.items()]
    rhs = [target.get(key, 0) for key in keys]
    try:
        coeffs = solve(SparseMatrix(len(keys), len(columns), entries), rhs)
    except Inconsistent:
        return None
    out = t.alg.zero()
    for c, g in zip(coeffs, gens):
        if c:
            out = out + g.scale(c)
    return out


def assert_agree(t, system, gens, targets):
    """Both solves agree on every target; returns which kinds of outcome
    were seen: True for None, False for a solution."""
    seen = set()
    for n, target in enumerate(targets):
        target = {key: v for key, v in target.items() if v}
        got = _central_solution(t, system, gens, target)
        assert got == by_solve(t, system[0], gens, target), n
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_lambda0_targets_agree_with_solve(name):
    t = CASES[name]()
    rnd = random.Random(f"lambda0-{name}")
    system = _cached(t, "lambda0", _lambda_system)
    m_set = set(t.m_indices)
    keys = sorted(system[0][0]) + [(0, 0, t.m_indices[0])]
    targets = []
    for phi in maps(t, rnd):
        rest = phi - make_extremal(t, phi(t.e, t.e))
        target = {(i, j, k): v for i, j, k, v in rest.items() if k in m_set}
        targets += [target, shifted(rnd, target, keys)]
    assert assert_agree(t, system, t.center, targets) == {True, False}


@pytest.mark.parametrize("name", sorted(CASES))
def test_alpha0_targets_agree_with_solve(name):
    t = CASES[name]()
    rnd = random.Random(f"alpha0-{name}")
    system, cen_a = _alpha0_system(t)
    keys = [(u, o) for u in t.m_indices for o in range(t.alg.dim)]
    targets = []
    for phi in maps(t, rnd):
        target = {(u, o): c for u in t.m_indices
                  for o, c in enumerate(phi(t.e, t.alg.basis_element(u)).coords)}
        targets += [target, shifted(rnd, target, keys)]
    assert assert_agree(t, system, cen_a, targets) == {True, False}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("side", ["a", "b"])
def test_tau_targets_agree_with_solve(name, side):
    t = CASES[name]()
    rnd = random.Random(f"tau-{side}-{name}")
    system, gens = _tau_system(t, side)
    indices = t.a_indices if side == "a" else t.b_indices
    targets = [{g: z.coords[g] for g in indices} for z in t.center]
    targets += [{g: 1} for g in indices]
    targets += [shifted(rnd, target, list(indices)) for target in targets]
    targets += [{}, {t.m_indices[0]: 1}]   # zero; a key outside the corner
    assert assert_agree(t, system, gens, targets) == {True, False}


def test_hand_built_systems_agree_with_solve():
    t = upper_triangular(4, 2)   # dim 10: basis elements stand for the coefficients
    gens = t.alg.basis()
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
            combo = {}
            for c, col in zip(coeffs, columns):
                for key, v in col.items():
                    combo[key] = combo.get(key, 0) + c * v
            targets.append(combo)
            targets.append(shifted(rnd, combo, keys))                # mostly inconsistent
            targets.append(dict(combo, z=rnd.choice([-1, 1])))       # unreached key
        assert assert_agree(t, system, gens[:len(columns)], targets) == {True, False}


def test_inconsistent_and_unreached_targets_give_none():
    t = upper_triangular(3, 2)
    gens = t.alg.basis()[:2]
    system = _central_system([{"a": 1, "b": 1}, {"a": 1, "b": 2}])
    assert _central_solution(t, system, gens, {"a": 1, "b": 1}) == gens[0]
    assert _central_solution(t, system, gens, {"a": 1, "b": 1, "c": 1}) is None
    system = _central_system([{"a": 1, "b": 1}, {"a": 2, "b": 2}])
    assert _central_solution(t, system, gens, {"a": 2, "b": 2}) == gens[0].scale(2)
    assert _central_solution(t, system, gens, {"a": 1, "b": 2}) is None
