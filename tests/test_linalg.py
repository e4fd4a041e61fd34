"""Exact linear algebra over the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_kernel, dense_rref
from matrix_helpers import from_dense, mul_vector, to_dense
from liebider import (Inconsistent, RowReducer, SparseMatrix, SpanChecker,
                      canonical_basis, nullspace, rref, solve)
from liebider.linalg import echelon, kernel, reduce_rows


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


def split_echelon(piv, ncols):
    """Dense (pivot, integer row) pairs in pivot order, as dense_rref gives
    them, in echelon's (zero, rows) format: a one-entry row marks its
    column in zero, every other row is a (columns, values) pair."""
    rows = [tuple(zip(*sparse(row).items())) for _, row in piv]
    zero = {cols[0] for cols, _ in rows if len(cols) == 1}
    return bytes(c in zero for c in range(ncols)), tuple(r for r in rows if len(r[0]) > 1)


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


def test_span_checker_membership():
    sc = SpanChecker([(1, 0, 1), (0, 1, 1)], 3)
    assert sc.rank == 2
    assert sc.contains((2, 3, 5))
    assert sc.contains((0, 0, 0))
    assert not sc.contains((1, 0, 0))
    # reduce is empty iff contains holds; what is left is gcd-normalized
    for vec in [(2, 3, 5), (0, 0, 0), {0: 1, 1: 1, 2: 2}, (1, 0, 0), {2: -3}, (0, 2, 4)]:
        assert (sc.reduce(vec) == {}) == sc.contains(vec)
    assert sc.reduce((1, 0, 0)) == {2: 1}
    assert sc.reduce((0, 2, 4)) == {2: 1}


def test_span_checker_fractional_vectors():
    sc = SpanChecker([(Fraction(1, 2), Fraction(1, 3))], 2)
    assert sc.contains((3, 2))
    assert not sc.contains((1, 1))
    # a vector with Fractions comes back reduced as an int row
    assert sc.reduce((Fraction(3, 2), 1)) == {}
    left = sc.reduce({0: Fraction(1, 2), 1: Fraction(1, 5)})
    assert left == {1: 1} and all(type(v) is int for v in left.values())
    left = sc.reduce((Fraction(2, 3), Fraction(-7, 4)))
    assert left and all(type(v) is int for v in left.values())


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


@st.composite
def reducer_feeds(draw):
    """(rows, ncols): small integer rows, some with one term and some a
    combination of two earlier rows, which cancels in the reducer."""
    ncols = draw(st.integers(1, 6))
    nonzero = st.integers(-6, 6).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["sparse", "one", "combination"]))
        if kind == "combination" and rows:
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(nonzero), draw(st.integers(-3, 3))
            row = {c: a * r.get(c, 0) + b * s.get(c, 0) for c in r.keys() | s.keys()}
            row = {c: v for c, v in row.items() if v}
        elif kind == "one":
            row = {draw(st.integers(0, ncols - 1)): draw(nonzero)}
        else:
            row = draw(st.dictionaries(st.integers(0, ncols - 1), nonzero, min_size=1))
        if row:
            rows.append(row)
    return rows, ncols


@settings(max_examples=200)
@given(reducer_feeds())
def test_add_row_keeps_the_column_index_and_the_echelon_form(feed):
    rows, ncols = feed
    red = RowReducer(ncols)
    for n, row in enumerate(rows):
        piv = red.add_row(dict(row))
        if piv is not None:  # the row just installed is the last
            assert red.pivcols[-1] == piv == min(red.pivrows[-1])
        # every column lists exactly the rows that hold it: a pivot column
        # only its own row, since the rows stay inter-reduced
        holders = {}
        for ri, pr in enumerate(red.pivrows):
            for c in pr:
                holders.setdefault(c, set()).add(ri)
        assert red._col_index == holders
        dense = [[r.get(c, 0) for c in range(ncols)] for r in rows[:n + 1]]
        got = sorted((pc, [pr.get(c, 0) for c in range(ncols)])
                     for pc, pr in zip(red.pivcols, red.pivrows))
        assert got == dense_rref(dense)


# -- reduce_rows, echelon and kernel ------------------------------------------

def fed_rows(rows, ncols, zero=None):
    """reduce_rows and echelon on copies of rows, each with the rows it
    feeds to add_row."""
    fed = []
    add_row = RowReducer.add_row

    def counted(self, row):
        fed.append(dict(row))
        return add_row(self, row)

    RowReducer.add_row = counted
    try:
        red = reduce_rows((dict(row) for row in rows), ncols)
        reduced = fed[:]
        fed.clear()
        system = echelon((dict(row) for row in rows), ncols, zero)
    finally:
        RowReducer.add_row = add_row
    return red, reduced, system, fed


def fed_every_row(rows, ncols):
    red = RowReducer(ncols)
    for row in rows:
        red.add_row(dict(row))
    return red


@st.composite
def zero_column_systems(draw):
    """(rows, ncols, zero): sparse integer rows over 2 to 7 columns,
    possibly none, and a prefilled zero bytes or None.  Some rows have one
    term, and each such row comes after a multi-term row on its column
    whenever there is one.  Some rows are a term off the zero columns plus
    terms on them, so they have one term left once those are dropped."""
    ncols = draw(st.integers(2, 7))
    nonzero = st.integers(-9, 9).filter(bool)
    column = st.integers(0, ncols - 1)
    multi = draw(st.lists(st.dictionaries(column, nonzero, min_size=2, max_size=4), max_size=6))
    singles = draw(st.lists(st.sampled_from(sorted({c for row in multi for c in row}))
                            if multi else column, max_size=3))
    zero = draw(st.none() | st.lists(st.booleans(), min_size=ncols, max_size=ncols).map(bytes))
    zero_cols = sorted(set(singles) | {c for c in range(ncols) if zero and zero[c]})
    rows = multi + [{c: draw(nonzero)} for c in singles]
    if zero_cols:
        for _ in range(draw(st.integers(0, 3))):
            row = {draw(column): draw(nonzero)}
            row.update(draw(st.dictionaries(st.sampled_from(zero_cols), nonzero, min_size=1)))
            rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols, zero


@settings(max_examples=300)
@given(zero_column_systems())
@example(([], 3, None))
@example(([], 2, b"\x00\x01"))
@example(([{0: 1, 1: 2}, {1: 3, 2: 1}, {1: 5}, {0: 2, 1: 1, 2: 4}], 3, None))
def test_reduce_rows_matches_feeding_every_row(system):
    rows, ncols, zero = system
    red, reduced, got, fed = fed_rows(rows, ncols, zero)
    # reduce_rows feeds every row, in order, to one plain RowReducer
    full = fed_every_row(rows, ncols)
    assert (red.pivrows, red.pivcols) == (full.pivrows, full.pivcols)
    assert reduced == rows
    # echelon: the RREF of every row and the prefilled zero columns' unit
    # rows, its one-entry rows split out into zero
    units = [{c: 1} for c in range(ncols) if zero and zero[c]]
    every = rows + units
    want = dense_rref([[row.get(c, 0) for c in range(ncols)] for row in every])
    assert got == split_echelon(want, ncols)
    # no one-term row and no zero column reaches the reducer
    known = {c for row in every if len(row) == 1 for c in row}
    assert all(known.isdisjoint(row) for row in fed)
    assert len(fed) <= sum(len(row) > 1 for row in rows)
    # kernel reads nullspace's basis, each vector an integer multiple
    m = SparseMatrix(len(every), ncols, [(i, c, v) for i, row in enumerate(every)
                                          for c, v in row.items()])
    vecs = kernel(got, ncols)
    assert all(type(v) is int for vec in vecs for v in vec.values())
    assert [tuple(Fraction(vec.get(c, 0), vec[max(vec)]) for c in range(ncols))
            for vec in vecs] == nullspace(m)
