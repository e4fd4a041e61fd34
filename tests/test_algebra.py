"""Structure-constant algebras, elements, brackets, centers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liebider import (FiniteAlgebra, MixedAlgebras, RowReducer, center_basis,
                      is_commutative, lie_bracket, multiply, upper_triangular)
from liebider import algebra as algebra_module


def qq():
    return FiniteAlgebra(2, ["u", "v"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 1])


def full_2x2():
    # matrix units E11 E12 E21 E22, E_pq E_rs = [q == r] E_ps
    pos = {(p, q): i for i, (p, q) in enumerate(
        [(0, 0), (0, 1), (1, 0), (1, 1)])}
    structure = {}
    for (p, q), i in pos.items():
        for (r, s), j in pos.items():
            if q == r:
                structure[(i, j, pos[(p, s)])] = 1
    return FiniteAlgebra(4, ["E11", "E12", "E21", "E22"], structure,
                         [1, 0, 0, 1])


coords3 = st.lists(st.integers(-6, 6), min_size=6, max_size=6)


# -- products ---------------------------------------------------------------

def test_matrix_unit_products(t2):
    e11, e12, e22 = t2.alg.basis()
    assert multiply(e11, e12) == e12
    assert multiply(e12, e11).is_zero()
    assert multiply(e12, e22) == e12
    assert multiply(e12, e12).is_zero()


def test_unit_element_is_neutral(t3):
    one = t3.alg.unit_element()
    for b in t3.alg.basis():
        assert multiply(one, b) == b
        assert multiply(b, one) == b


def test_mixed_algebras_rejected(t2, t3):
    with pytest.raises(MixedAlgebras):
        multiply(t2.alg.basis_element(0), t3.alg.basis_element(0))


# -- brackets ---------------------------------------------------------------

def test_bracket_examples(t2):
    e11, e12, e22 = t2.alg.basis()
    assert lie_bracket(e11, e12) == e12
    assert lie_bracket(e12, e22) == e12
    assert lie_bracket(e12, e12).is_zero()


@given(coords3, coords3)
def test_bracket_antisymmetric(xs, ys):
    alg = upper_triangular(3, 2).alg
    x, y = alg.element(xs), alg.element(ys)
    assert lie_bracket(x, y) == -lie_bracket(y, x)


@given(coords3, coords3, coords3)
def test_jacobi_identity(xs, ys, zs):
    alg = upper_triangular(3, 2).alg
    x, y, z = alg.element(xs), alg.element(ys), alg.element(zs)
    s = (lie_bracket(lie_bracket(x, y), z)
         + lie_bracket(lie_bracket(y, z), x)
         + lie_bracket(lie_bracket(z, x), y))
    assert s.is_zero()


# -- center -----------------------------------------------------------------

def test_center_of_t3_is_scalars(t3):
    basis = center_basis(t3.alg)
    assert len(basis) == 1
    assert basis[0] == t3.alg.unit_element()


def test_center_of_product_algebra():
    assert len(center_basis(qq())) == 2


def test_center_of_full_matrix_algebra():
    alg = full_2x2()
    basis = center_basis(alg)
    assert len(basis) == 1
    assert basis[0] == alg.unit_element()


def test_center_elements_commute(t4):
    for z in center_basis(t4.alg):
        for b in t4.alg.basis():
            assert lie_bracket(z, b).is_zero()


def test_one_term_center_rows_never_reach_the_reducer(monkeypatch):
    # row (i, k) of the center system, sum_j z_j [b_j, b_i]_k = 0, has one
    # term when a single b_j brackets b_i into b_k, and then only says that
    # z_j = 0.  On a fresh T16 k=8 that is 1,360 of its 1,480 rows, which
    # all reached the reducer; now at most the 120 others do
    calls, fed = [], []
    build = algebra_module.echelon
    add_row = RowReducer.add_row

    def counted(rows, n, zero=None):
        rows = list(rows)
        before = len(fed)
        system = build(rows, n, zero)
        calls.append((len(rows), sum(len(row) > 1 for row in rows), len(fed) - before))
        return system

    def added(self, row):
        fed.append(1)
        return add_row(self, row)

    monkeypatch.setattr(algebra_module, "echelon", counted)
    monkeypatch.setattr(RowReducer, "add_row", added)
    t = upper_triangular(16, 8)
    assert [call[:2] for call in calls] == [(1480, 120)]
    assert calls[0][2] <= 120
    assert [z.coords for z in t.center] == [t.alg.unit]


def test_is_commutative():
    assert is_commutative(qq())
    assert is_commutative(FiniteAlgebra(1, ["1"], {(0, 0, 0): 1}, [1]))
    assert not is_commutative(upper_triangular(2, 1).alg)
    assert not is_commutative(full_2x2())


# -- construction validation -------------------------------------------------

def test_rejects_bad_unit():
    with pytest.raises(ValueError):
        FiniteAlgebra(2, ["u", "v"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 0])


def test_rejects_non_associative():
    # x*x = y, x*y = x breaks (xx)y = x(xy)
    with pytest.raises(ValueError):
        FiniteAlgebra(3, ["1", "x", "y"],
                      {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                       (0, 2, 2): 1, (2, 0, 2): 1,
                       (1, 1, 2): 1, (1, 2, 1): 1},
                      [1, 0, 0])


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        FiniteAlgebra(2, ["u", "v"], {(0, 0, 5): 1}, [1, 1])


def test_rejects_duplicate_structure_entry():
    with pytest.raises(ValueError):
        FiniteAlgebra(1, ["1"], [(0, 0, 0, 1), (0, 0, 0, 1)], [1])


def test_structure_items_rebuild(t3):
    alg = t3.alg
    again = FiniteAlgebra(alg.dim, alg.basis_labels,
                          [(i, j, k, v) for (i, j, k, v) in alg.structure_items()],
                          alg.unit)
    assert again.structure_items() == alg.structure_items()


# -- element arithmetic -------------------------------------------------------

def test_element_arithmetic(t2):
    alg = t2.alg
    x = alg.element([1, 2, 3])
    y = alg.element([0, 1, 1])
    assert (x + y).coords == (1, 3, 4)
    assert (x - y).coords == (1, 1, 2)
    assert (-x).coords == (-1, -2, -3)
    assert x.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1, Fraction(3, 2))
    assert (2 * x).coords == (2, 4, 6)
    assert x * y == multiply(x, y)
    assert (x * 3).coords == (3, 6, 9)


def test_element_equality_and_zero(t2):
    alg = t2.alg
    assert alg.zero().is_zero()
    assert alg.element([0, 0, 0]) == alg.zero()
    assert alg.basis_element(1) != alg.zero()
    assert "E12" in repr(alg.basis_element(1))
    assert repr(alg.zero()) == "0"


def test_element_coordinate_length_checked(t2):
    with pytest.raises(ValueError):
        t2.alg.element([1, 2])
