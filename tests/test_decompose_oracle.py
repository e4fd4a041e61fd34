"""The table-based decomposition agrees with the dense Element reference.

dense_oracle.decompose evaluates every bracket and product through Element
arithmetic; liebider.decompose works on the cached sparse tables.  Both
must return the same parts, or fail with the same exception and witness,
on every basis map, on seeded integer combinations and on maps with one
coefficient changed.
"""

import random

import pytest

import dense_oracle
from liebider import (BilinearMap, MapLaw, NoCentralLambda, NotLieBider,
                      Poset, ResidualNotCentral, block_upper_triangular,
                      decompose, incidence_algebra, solve_space,
                      upper_triangular)

ALGEBRAS = {
    "t3": lambda: upper_triangular(3, 2),
    "t4": lambda: upper_triangular(4, 2),
    "diamond": lambda: incidence_algebra(
        Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), [1, 2, 3]),
    "v": lambda: incidence_algebra(Poset(3, [(1, 3), (2, 3)]), [1, 2]),
    "block21": lambda: block_upper_triangular([2, 1], 1),
    "block22": lambda: block_upper_triangular([2, 2], 1),
}

OBSTRUCTIONS = (NotLieBider, NoCentralLambda, ResidualNotCentral)


def outcome(fn, t, phi):
    try:
        d = fn(t, phi)
    except OBSTRUCTIONS as exc:
        return type(exc).__name__, getattr(exc, "witness", None)
    return "ok", d.lambda0, d.r, tuple(d.mu.items())


def inputs(t, rnd):
    maps = solve_space(t.alg, MapLaw.LIE_BIDER)
    out = [("basis", i, phi) for i, phi in enumerate(maps)]
    for c in range(2):
        phi = BilinearMap(t.alg, {})
        for m in rnd.sample(maps, min(3, len(maps))):
            phi = phi + m.scale(rnd.choice([-3, -2, -1, 1, 2, 3]))
        out.append(("combination", c, phi))
    dim = t.alg.dim
    for c in range(2):
        coeffs = {(i, j, k): v for i, j, k, v in rnd.choice(maps).items()}
        key = (rnd.randrange(dim), rnd.randrange(dim), rnd.randrange(dim))
        coeffs[key] = coeffs.get(key, 0) + rnd.choice([-2, -1, 1, 2])
        out.append(("perturbed", c, BilinearMap(t.alg, coeffs)))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_tables_agree_with_dense_reference(name):
    t = ALGEBRAS[name]()
    rnd = random.Random(f"decompose-oracle-{name}")
    seen = set()
    for kind, idx, phi in inputs(t, rnd):
        got = outcome(decompose, t, phi)
        assert got == outcome(dense_oracle.decompose, t, phi), (name, kind, idx)
        seen.add(got[0])
    assert "ok" in seen
    assert "NotLieBider" in seen
    if name == "v":
        assert "NoCentralLambda" in seen
