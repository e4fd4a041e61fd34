"""Exact linear algebra over the rationals."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_kernel, dense_rref
from matrix_helpers import from_dense, mul_vector, to_dense
from liebider import (Inconsistent, RowReducer, SparseMatrix, SpanChecker,
                      canonical_basis, nullspace, rref, solve)
from liebider.linalg import annihilator, reduce_rows


def mat(rows):
    return from_dense(rows)


matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c),
        min_size=1, max_size=6))


# -- rref -----------------------------------------------------------------

def test_rref_drops_dependent_row():
    r, pivots = rref(mat([[1, 2], [2, 4]]))
    assert to_dense(r) == [[1, 2]]
    assert list(pivots) == [0]


def test_rref_identity_fixed():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    r, pivots = rref(mat(ident))
    assert to_dense(r) == ident
    assert list(pivots) == [0, 1, 2]


def test_rref_sorts_rows_by_pivot():
    r, pivots = rref(mat([[0, 1], [1, 0]]))
    assert to_dense(r) == [[1, 0], [0, 1]]
    assert list(pivots) == [0, 1]


def test_rref_pivot_entries_are_one():
    r, pivots = rref(mat([[3, 6, 1], [0, 0, 5]]))
    d = to_dense(r)
    for i, p in enumerate(pivots):
        assert d[i][p] == 1


@given(matrices)
def test_rref_idempotent(rows):
    r1, p1 = rref(mat(rows))
    r2, p2 = rref(r1)
    assert r1 == r2
    assert p1 == p2


@given(matrices)
def test_rref_deterministic(rows):
    assert rref(mat(rows)) == rref(mat(rows))


# -- nullspace ------------------------------------------------------------

def test_nullspace_injective():
    assert nullspace(mat([[1, 0], [0, 1]])) == []


def test_nullspace_single_relation():
    assert nullspace(mat([[1, 1]])) == [(Fraction(-1), Fraction(1))]


def test_nullspace_zero_matrix():
    basis = nullspace(SparseMatrix(2, 3, []))
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_requires_whole_row_scaling():
    # elimination here runs with pivot value 2; a reducer that scales only
    # the pivot row's support gets this kernel wrong
    basis = nullspace(mat([[2, 3, 0], [3, 0, 5]]))
    assert basis == [(Fraction(-5, 3), Fraction(10, 9), Fraction(1))]
    m = mat([[2, 3, 0], [3, 0, 5]])
    assert mul_vector(m, basis[0]) == (0, 0)


@given(matrices)
def test_nullspace_vectors_are_kernel_members(rows):
    m = mat(rows)
    for v in nullspace(m):
        assert all(x == 0 for x in mul_vector(m, v))


@given(matrices)
def test_rank_plus_nullity(rows):
    m = mat(rows)
    _, pivots = rref(m)
    assert len(pivots) + len(nullspace(m)) == m.cols


def test_nullspace_matches_dense_oracle_on_seeded_sweep():
    for seed in range(160):
        rnd = random.Random(seed)
        r = rnd.randint(1, 7)
        c = rnd.randint(1, 7)
        rows = [[rnd.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        got = nullspace(mat(rows))
        want = dense_kernel([row[:] for row in rows if any(row)], c)
        assert got == want, f"seed {seed}"


# -- solve ----------------------------------------------------------------

def test_solve_identity():
    assert solve(mat([[1, 0], [0, 1]]), [3, 5]) == (3, 5)


def test_solve_zeroes_free_variables():
    assert solve(mat([[1, 1]]), [2]) == (2, 0)


def test_solve_inconsistent():
    with pytest.raises(Inconsistent) as exc:
        solve(mat([[1], [1]]), [1, 2])
    assert exc.value.pivot_row >= 0


def test_solve_rhs_length_checked():
    with pytest.raises(ValueError):
        solve(mat([[1, 0]]), [1, 2])


@given(matrices, st.data())
def test_solve_solution_satisfies_system(rows, data):
    m = mat(rows)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols,
                                max_size=m.cols))
    rhs = mul_vector(m, coeffs)
    x = solve(m, rhs)
    assert mul_vector(m, x) == tuple(rhs)


# -- canonical_basis and SpanChecker ---------------------------------------

def sparse(vec):
    return {c: v for c, v in enumerate(vec) if v}


def test_canonical_basis_recovers_nullspace_form():
    m = mat([[1, 2, 3, 4], [0, 1, 1, 1]])
    kern = nullspace(m)
    # an arbitrary invertible recombination of the same span
    mixed = [tuple(3 * a + b for a, b in zip(kern[0], kern[1])),
             tuple(2 * a - 5 * b for a, b in zip(kern[0], kern[1]))]
    got = canonical_basis([sparse(v) for v in mixed], 4)
    assert got == [sparse(v) for v in kern]
    assert all(list(v) == sorted(v) for v in got)


@given(matrices, st.randoms(use_true_random=False))
def test_canonical_basis_invariant_under_shuffle(rows, rnd):
    kern = nullspace(mat(rows))
    shuffled = [sparse(v) for v in kern]
    rnd.shuffle(shuffled)
    assert canonical_basis(shuffled, len(rows[0])) == [sparse(v) for v in kern]


@given(matrices)
def test_annihilator_is_the_echelon_form_of_the_kernel(rows):
    # the vectors that vanish on the rows' span are the kernel of the
    # matrix of the rows: their echelon rows must be its reduced echelon
    # form, each row gcd-normalized with a positive pivot
    ncols = len(rows[0])
    kernel = [[int(v * lcm(*(x.denominator for x in vec))) for v in vec]
              for vec in dense_kernel(rows, ncols)]
    got = sorted(annihilator([sparse(r) for r in rows], ncols), key=min)
    assert [[row.get(c, 0) for c in range(ncols)] for row in got] == [
        row for _, row in dense_rref(kernel)]


def test_annihilator_of_a_plane():
    # the span of (1, 1, 0) and (0, 2, 1) is cut out by x - y + 2z = 0
    assert annihilator([{0: 1, 1: 1}, {1: 2, 2: 1}], 3) == [{0: 1, 1: -1, 2: 2}]
    assert annihilator([], 2) == [{1: 1}, {0: 1}]


def test_span_checker_membership():
    sc = SpanChecker([(1, 0, 1), (0, 1, 1)], 3)
    assert sc.rank == 2
    assert sc.contains((2, 3, 5))
    assert sc.contains((0, 0, 0))
    assert not sc.contains((1, 0, 0))


def test_span_checker_fractional_vectors():
    sc = SpanChecker([(Fraction(1, 2), Fraction(1, 3))], 2)
    assert sc.contains((3, 2))
    assert not sc.contains((1, 1))


# -- RowReducer internals ---------------------------------------------------

def test_reducer_reports_pivot_or_dependence():
    red = RowReducer(3)
    assert red.add_row({0: 2, 1: 4}) == 0
    assert red.add_row({0: 1, 1: 2}) is None
    assert red.rank == 1


def test_reduce_only_reports_dependence():
    red = RowReducer(2)
    red.add_row({0: 1, 1: 1})
    assert red.reduce_only({0: 2, 1: 2}) == {}
    assert red.reduce_only({0: 1}) != {}


# -- reduce_rows --------------------------------------------------------------

def fed_rows(rows, ncols):
    """reduce_rows on copies of rows, with the rows it feeds to add_row."""
    fed = []
    add_row = RowReducer.add_row

    def counted(self, row):
        fed.append(dict(row))
        return add_row(self, row)

    RowReducer.add_row = counted
    try:
        red = reduce_rows((dict(row) for row in rows), ncols)
    finally:
        RowReducer.add_row = add_row
    return red, fed


def fed_every_row(rows, ncols):
    red = RowReducer(ncols)
    for row in rows:
        red.add_row(dict(row))
    return red


def test_reduce_rows_drops_the_rows_of_a_full_component():
    rows = [{0: 1}, {1: 2, 2: 1}, {0: 3}, {1: 1}, {1: 5, 2: 7}, {2: 1, 3: 1}]
    red, fed = fed_rows(rows, 4)
    # {0: 3} meets the full {0}, {1: 5, 2: 7} the full {1, 2}; the last row
    # brings column 3, so it is fed
    assert fed == [rows[0], rows[1], rows[3], rows[5]]
    full = fed_every_row(rows, 4)
    assert (red.pivrows, red.pivcols) == (full.pivrows, full.pivcols)


@st.composite
def block_systems(draw):
    """(rows, ncols): sparse integer rows over 2 to 4 blocks of columns,
    each row inside one block, interleaved.  Every block but the first
    also gets a nonzero multiple of each of its unit rows, so it fills;
    every row of the first block has one nonzero value at both its first
    and its last column, so it never does."""
    widths = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    nonzero = st.integers(-9, 9).filter(bool)
    rows = []
    start = 0
    for b, w in enumerate(widths):
        cols = list(range(start, start + w))
        block = draw(st.lists(st.dictionaries(st.sampled_from(cols), nonzero, max_size=w),
                              max_size=6))
        if b == 0:
            for row in block:
                row[cols[0]] = row[cols[-1]] = draw(nonzero)
        else:
            block += [{c: draw(nonzero)} for c in cols]
        rows += [row for row in block if row]
        start += w
    return draw(st.permutations(rows)), start


@settings(max_examples=200)
@given(block_systems())
def test_reduce_rows_matches_feeding_every_row(system):
    rows, ncols = system
    red, fed = fed_rows(rows, ncols)
    full = fed_every_row(rows, ncols)
    assert (red.pivrows, red.pivcols) == (full.pivrows, full.pivcols)
    assert len(fed) <= len(rows)
    # the first block's component never fills, so each of its rows is fed
    assert sum(0 in row for row in fed) == sum(0 in row for row in rows)
