"""Fraction-only references for the library's exact-value rule.

liebider stores every value as linalg.exact gives it: an int when it is
integral, a Fraction otherwise.  The functions here redo the map and
Element arithmetic with every value a Fraction, on plain dicts and
lists, so the tests can check that the rule changes no value.
rescaled() builds algebras whose tables have denominators, the inputs on
which the library keeps Fractions.
"""

from fractions import Fraction

from liebider import FiniteAlgebra, TriangularAlgebra, upper_triangular


def is_stored(v):
    """The rule: an int, or a Fraction that is not integral."""
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def ref_map(coeffs):
    """{(i, j, k): Fraction} of the nonzero coefficients."""
    return {key: Fraction(v) for key, v in coeffs.items() if v}


def ref_add(a, b, sign=1):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, Fraction(0)) + sign * v
    return {key: v for key, v in out.items() if v}


def ref_scale(a, s):
    return {key: Fraction(s) * v for key, v in a.items() if s}


def ref_items(a):
    return [(i, j, k, a[(i, j, k)]) for i, j, k in sorted(a)]


def ref_value(a, dim, i, j):
    return [a.get((i, j, k), Fraction(0)) for k in range(dim)]


def ref_flat(a, dim):
    vec = [Fraction(0)] * dim ** 3
    for (i, j, k), v in a.items():
        vec[(i * dim + j) * dim + k] = v
    return vec


def ref_call(a, dim, x, y):
    """φ(x, y) by bilinear extension, x and y coordinate lists."""
    out = [Fraction(0)] * dim
    for (i, j, k), v in a.items():
        out[k] += Fraction(x[i]) * Fraction(y[j]) * v
    return out


def ref_multiply(alg, x, y):
    """x·y from the structure constants, read back as Fractions."""
    out = [Fraction(0)] * alg.dim
    for i, j, k, v in alg.structure_items():
        out[k] += Fraction(x[i]) * Fraction(y[j]) * Fraction(v)
    return out


def rescaled(t, factors):
    """t, built by a constructor, on the basis b'_i = s_i·b_i: the
    off-diagonal basis elements take the factors in turn, cycling, and
    the diagonal units keep s_i = 1.  b'_i·b'_j = (s_i·s_j/s_k)·c_ijk·b'_k,
    so the table gets denominators, while the unit and e, sums of
    diagonal units, keep their coordinates."""
    alg = t.alg
    off = [i for i in range(alg.dim) if i not in t.diag_indices]
    scale = [Fraction(1)] * alg.dim
    for n, i in enumerate(off):
        scale[i] = Fraction(factors[n % len(factors)])
    items = [(i, j, k, v * scale[i] * scale[j] / scale[k])
             for i, j, k, v in alg.structure_items()]
    out = FiniteAlgebra(alg.dim, alg.basis_labels, items, alg.unit)
    return TriangularAlgebra(out, out.element(t.e.coords))


def rescaled_t5():
    """T5 k=2 with its off-diagonal basis elements scaled by 1/2 and 3 in
    turn."""
    return rescaled(upper_triangular(5, 2), [Fraction(1, 2), 3])
