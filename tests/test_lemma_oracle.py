"""lemma_suite agrees with the dense Element reference, entry for entry.

dense_oracle.lemma_suite extends every value bilinearly, multiplies through
Element arithmetic and solves alpha0 and tau_inv through linalg.solve; it
also keeps check 3.4's separate antisymmetry witness.  liebider.lemma_suite
reads each value at two basis elements once and solves through the
factored central systems.  Both must give the same entries (id, passed,
witness labels, residual or reason, detail) on every basis map, on seeded
integer combinations and on maps with one to three coefficients changed,
passing and failing entries alike.
"""

import random

import pytest

import dense_oracle
from liebider import (BilinearMap, MapLaw, Poset, block_upper_triangular, incidence_algebra,
                      lemma_suite, solve_space, upper_triangular)

ALGEBRAS = {
    "t2": lambda: upper_triangular(2, 1),
    "t3": lambda: upper_triangular(3, 2),
    "t4": lambda: upper_triangular(4, 2),
    "block22": lambda: block_upper_triangular([2, 2], 1),
    "v": lambda: incidence_algebra(Poset(3, [(1, 3), (2, 3)]), [1, 2]),
    "diamond": lambda: incidence_algebra(
        Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), [1, 2, 3]),
    "crown": lambda: incidence_algebra(Poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)]), [1, 2]),
}


def inputs(t, rnd):
    maps = solve_space(t.alg, MapLaw.LIE_BIDER)
    out = [("basis", i, phi) for i, phi in enumerate(maps)]
    for c in range(3):
        phi = BilinearMap(t.alg, {})
        for m in rnd.sample(maps, min(3, len(maps))):
            phi = phi + m.scale(rnd.choice([-3, -2, -1, 1, 2, 3]))
        out.append(("combination", c, phi))
    dim = t.alg.dim
    for c in range(6):
        coeffs = {(i, j, k): v for i, j, k, v in rnd.choice(maps).items()}
        for _ in range(c % 3 + 1):
            key = (rnd.randrange(dim), rnd.randrange(dim), rnd.randrange(dim))
            coeffs[key] = coeffs.get(key, 0) + rnd.choice([-2, -1, 1, 2])
        out.append(("perturbed", c, BilinearMap(t.alg, coeffs)))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_lemma_suite_agrees_with_dense_reference(name):
    t = ALGEBRAS[name]()
    rnd = random.Random(f"lemma-oracle-{name}")
    failing = set()
    for kind, idx, phi in inputs(t, rnd):
        got = list(lemma_suite(t, phi))
        assert got == dense_oracle.lemma_suite(t, phi), (name, kind, idx)
        failing.update(ent["id"] for ent in got if not ent["passed"])
    # the perturbed maps reach failing entries, so their witnesses are compared
    assert failing
