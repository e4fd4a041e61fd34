"""Bilinear maps, law constraint systems, solution spaces, constructors."""

import gc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle
import exact_reference
from matrix_helpers import mul_vector
from liebider import (BilinearMap, FiniteAlgebra, MapLaw, NoCentralLambda,
                      NotCentral, NotLieBider, NotVanishing, Poset,
                      ResidualNotCentral, SpanChecker, TriangularAlgebra,
                      block_upper_triangular, center_basis,
                      constraint_matrix, decompose, hypothesis_report,
                      incidence_algebra, law_residual, lemma31_residual,
                      lie_bracket, make_central, make_extremal, make_inner,
                      multiply, nullspace, solve_space, upper_triangular,
                      verify_decomposition)
from liebider import algebra as algebra_module
from liebider import bider as bider_module
from liebider import linalg as linalg_module
from liebider.bider import lemma31_failures
from liebider.linalg import (RowReducer, canonical_basis, echelon, kernel,
                             nullspace_from_reducer)

ALL_LAWS = list(MapLaw)


def one_dim():
    return FiniteAlgebra(1, ["1"], {(0, 0, 0): 1}, [1])


# -- BilinearMap -----------------------------------------------------------

def test_map_round_trips_through_flat(t2):
    phi = BilinearMap(t2.alg, {(0, 1, 1): Fraction(2, 3), (2, 0, 2): -1})
    assert BilinearMap.from_flat(t2.alg, phi.flat()) == phi
    assert phi.items() == [(0, 1, 1, Fraction(2, 3)), (2, 0, 2, Fraction(-1))]
    assert len(phi.flat()) == 27


def test_map_drops_zero_coefficients(t2):
    phi = BilinearMap(t2.alg, {(0, 0, 0): 0})
    assert phi.is_zero()
    assert phi.items() == []


def test_map_rejects_bad_index(t2):
    with pytest.raises(ValueError):
        BilinearMap(t2.alg, {(0, 0, 3): 1})
    with pytest.raises(ValueError):
        BilinearMap.from_flat(t2.alg, [0] * 26)


def test_map_value_and_call(t2):
    phi = BilinearMap(t2.alg, {(0, 1, 1): 5})
    assert phi.value(0, 1) == t2.alg.basis_element(1).scale(5)
    assert phi.value(1, 0).is_zero()
    x = t2.alg.element([2, 0, 0])
    y = t2.alg.element([0, 3, 0])
    assert phi(x, y) == t2.alg.basis_element(1).scale(30)


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_map_evaluation_is_bilinear(xs, ys, zs):
    t = upper_triangular(2, 1)
    phi = BilinearMap(t.alg, {(0, 1, 1): 2, (1, 2, 1): -3, (2, 2, 2): 1})
    x, y, z = (t.alg.element(c) for c in (xs, ys, zs))
    assert phi(x + z, y) == phi(x, y) + phi(z, y)
    assert phi(x, y + z) == phi(x, y) + phi(x, z)
    assert phi(x.scale(7), y) == phi(x, y).scale(7)


def test_map_arithmetic(t2):
    a = BilinearMap(t2.alg, {(0, 0, 0): 1})
    b = BilinearMap(t2.alg, {(0, 0, 0): 2, (1, 1, 1): 1})
    assert (a + b).items() == [(0, 0, 0, 3), (1, 1, 1, 1)]
    assert (b - a).items() == [(0, 0, 0, 1), (1, 1, 1, 1)]
    assert a.scale(0).is_zero()
    assert (a + a) == a.scale(2)
    assert (b - b).is_zero()
    assert repr(b) == "BilinearMap(2 coefficients)"


# -- constraint_matrix -------------------------------------------------------

def test_abelian_system_is_zero():
    m = constraint_matrix(one_dim(), MapLaw.LIE_BIDER)
    assert m.cols == 1
    assert m.entries == ()


def test_system_shape(t2):
    m = constraint_matrix(t2.alg, MapLaw.LIE_BIDER)
    assert m.cols == 27
    assert m.rows == 2 * 27 * 3
    m1 = constraint_matrix(t2.alg, MapLaw.LIE_DERIV_FIRST)
    assert m1.rows == 27 * 3


def test_assoc_kernel_contains_extremal(t2):
    m = constraint_matrix(t2.alg, MapLaw.ASSOC_BIDER)
    phi = make_extremal(t2, t2.alg.basis_element(1))
    assert all(v == 0 for v in mul_vector(m, phi.flat()))


# -- solve_space ---------------------------------------------------------------

FROZEN_DIMS = {
    ("t2", MapLaw.LIE_BIDER): 8,
    ("t2", MapLaw.ASSOC_BIDER): 4,
    ("t2", MapLaw.LIE_DERIV_FIRST): 12,
    ("t2", MapLaw.LIE_DERIV_SECOND): 12,
    ("t3", MapLaw.LIE_BIDER): 11,
    ("t3", MapLaw.ASSOC_BIDER): 2,
    ("t3", MapLaw.LIE_DERIV_FIRST): 48,
    ("t3", MapLaw.LIE_DERIV_SECOND): 48,
}


@pytest.mark.parametrize("law", ALL_LAWS)
def test_solution_dimensions_t2(t2, law):
    assert len(solve_space(t2.alg, law)) == FROZEN_DIMS[("t2", law)]


@pytest.mark.parametrize("law", ALL_LAWS)
def test_solution_dimensions_t3(t3, law):
    assert len(solve_space(t3.alg, law)) == FROZEN_DIMS[("t3", law)]


@pytest.mark.parametrize("law", ALL_LAWS)
def test_sliced_solver_matches_full_system_t2(t2, law):
    direct = nullspace(constraint_matrix(t2.alg, law))
    assert [phi.flat() for phi in solve_space(t2.alg, law)] == direct


def test_sliced_solver_matches_full_system_t3(t3):
    direct = nullspace(constraint_matrix(t3.alg, MapLaw.LIE_BIDER))
    assert [phi.flat() for phi in solve_space(t3.alg, MapLaw.LIE_BIDER)] == direct


def test_sliced_solver_matches_full_system_block(block21):
    # regression: elimination with pivot values other than 1 used to lose
    # three of these five dimensions
    direct = nullspace(constraint_matrix(block21.alg, MapLaw.LIE_BIDER))
    got = [phi.flat() for phi in solve_space(block21.alg, MapLaw.LIE_BIDER)]
    assert len(got) == 5
    assert got == direct


def t3_scaled():
    """T3 with its basis element E13 doubled: E12·E23 = 1/2·E13', the only
    structure constant that is not an integer."""
    alg = upper_triangular(3, 2).alg
    e13 = alg.basis_labels.index("E13")
    scale = [Fraction(2) if i == e13 else Fraction(1) for i in range(alg.dim)]
    items = [(i, j, k, v * scale[i] * scale[j] / scale[k])
             for i, j, k, v in alg.structure_items()]
    unit = [u / s for u, s in zip(alg.unit, scale)]
    scaled = FiniteAlgebra(alg.dim, alg.basis_labels, items, unit)
    e = scaled.element([1, 0, 0, 1, 0, 0])  # E11 + E22
    return TriangularAlgebra(scaled, e)


SOLVER_ALGEBRAS = {
    "t3": lambda: upper_triangular(3, 2),
    "v": lambda: incidence_algebra(Poset(3, [(1, 3), (2, 3)]), [1, 2]),
    "block21": lambda: block_upper_triangular([2, 1], 1),
    "diamond": lambda: incidence_algebra(
        Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), [1, 2, 3]),
    # no constructor algebra has a non-integer structure constant, so only
    # this one makes the derivation system scale its table to integers
    "t3_scaled": t3_scaled,
}


def test_scaled_t3_has_a_non_integer_table():
    items = t3_scaled().alg.structure_items()
    assert [v for *_, v in items if v.denominator != 1] == [Fraction(1, 2)]


def test_non_integer_table_maps_decompose():
    t = t3_scaled()
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    assert len(space) == 11
    for phi in space:
        d = decompose(t, phi)
        assert verify_decomposition(t, phi, d)
        assert make_inner(t, d.lambda0) + make_extremal(t, d.r) + d.mu == phi


def t3_reversed():
    """T3 with its basis in reverse order: its product rows at the pairs
    a >= c are not implied by those at a < c."""
    alg = upper_triangular(3, 2).alg
    last = alg.dim - 1
    items = [(last - i, last - j, last - k, v) for i, j, k, v in alg.structure_items()]
    return FiniteAlgebra(alg.dim, alg.basis_labels[::-1], items, alg.unit[::-1])


def t3_mixed(x, y):
    """T3 on its basis with b_x replaced by b_x + b_y: a product of two
    basis elements may have two terms, or one on another index."""
    alg = upper_triangular(3, 2).alg
    basis = alg.basis()
    basis[x] = basis[x] + basis[y]

    def coords(v):  # the old b_x is the new b_x - b_y
        c = list(v.coords)
        c[y] -= c[x]
        return c

    items = [(i, j, k, v) for i, bi in enumerate(basis) for j, bj in enumerate(basis)
             for k, v in enumerate(coords(multiply(bi, bj))) if v]
    labels = list(alg.basis_labels)
    labels[x] += "+" + labels[y]
    return FiniteAlgebra(alg.dim, labels, items, coords(alg.unit_element()))


def unitriangular(alg):
    """alg on the basis c_i = b_i + Σ_{j>i} u_ij·b_j, u_ij = (i + j) % 3 - 1:
    a fixed change of basis after which few columns of the derivation
    systems are zero (9 of 100 for T4's bracket, 58 before)."""
    dim = alg.dim
    u = [[int(i == j) or (j > i) * ((i + j) % 3 - 1) for j in range(dim)] for i in range(dim)]
    basis = [alg.element(row) for row in u]

    def coords(v):  # Σ_i c_i·u_ij = v_j, solved for j ascending
        c = []
        for j in range(dim):
            c.append(v.coords[j] - sum(c[i] * u[i][j] for i in range(j)))
        return c

    items = [(i, j, k, v) for i, bi in enumerate(basis) for j, bj in enumerate(basis)
             for k, v in enumerate(coords(multiply(bi, bj))) if v]
    return FiniteAlgebra(dim, alg.basis_labels, items, coords(alg.unit_element()))


ECHELON_ALGEBRAS = {name: lambda make=make: make().alg for name, make in SOLVER_ALGEBRAS.items()}
ECHELON_ALGEBRAS.update(t2=lambda: upper_triangular(2, 1).alg,
                        block22=lambda: block_upper_triangular([2, 2], 1).alg,
                        # a full 2×2 corner: lie-deriv-1 interleaves the
                        # shifted copies of its many derivations
                        block12=lambda: block_upper_triangular([1, 2], 1).alg,
                        one=one_dim, t3_reversed=t3_reversed,
                        t3_e11_plus_e12=lambda: t3_mixed(0, 1),
                        # E12·E23 = E13 is (E13 + E11) - E11, two terms on this basis
                        t3_e13_plus_e11=lambda: t3_mixed(2, 0))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.value)
@pytest.mark.parametrize("name", ECHELON_ALGEBRAS)
def test_sparse_solver_matches_full_system(name, law):
    # of these, only t3_scaled has a derivation basis vector whose trailing
    # entry m is not 1, so only it shows that solve_space divides by m
    alg = ECHELON_ALGEBRAS[name]()
    space = solve_space(alg, law)
    assert [phi.flat() for phi in space] == nullspace(constraint_matrix(alg, law))
    for phi in space:
        assert list(phi._flat) == sorted(phi._flat)
        assert phi == BilinearMap.from_flat(alg, phi.flat())


@pytest.mark.parametrize("lie", [False, True], ids=["product", "bracket"])
@pytest.mark.parametrize("name", ["t3", "v"])
def test_identity_rows_match_constraint_matrix(name, lie):
    # the slot 2 rows of lie-deriv-2 (bracket) or assoc-bider (product,
    # after its dim**4 slot 1 rows) at i = 0 are those of the pair
    # (j, l) = (a, c), over the columns u = a'*dim + k; the dense oracle
    # builds them from Element arithmetic
    alg = ECHELON_ALGEBRAS[name]()
    dim = alg.dim
    tab = algebra_module._table(alg, lie)
    index = algebra_module._factor_index(tab)
    system = constraint_matrix(alg, MapLaw.LIE_DERIV_SECOND if lie else MapLaw.ASSOC_BIDER)
    matrix_rows = system.row_dicts()[0 if lie else dim ** 4:]
    dense = dense_oracle.derivation_rows(alg, lie)
    for a in range(dim):
        for c in range(dim):
            got = dict(algebra_module._identity_rows(tab, index, dim, a, c))
            at = range((a * dim + c) * dim, (a * dim + c + 1) * dim)
            assert got == {q: matrix_rows[n] for q, n in enumerate(at) if matrix_rows[n]}
            assert got == {q: {col: v for col, v in enumerate(dense[n]) if v}
                           for q, n in enumerate(at) if any(dense[n])}


def spanning_route(alg, law):
    """The law space by an independent last step: a spanning set from the
    derivation basis, read by nullspace_from_reducer off the echelon rows,
    rewritten by canonical_basis over all dim³ columns.

    solve_space emits the canonical basis directly instead; this is the
    route it replaced.
    """
    dim = alg.dim
    zero, rows = algebra_module._derivations(alg, law.lie)
    echelon = [((c,), (1,)) for c, z in enumerate(zero) if z] + list(rows)
    red = RowReducer(dim * dim)
    for cols, vals in echelon:
        red.add_row(dict(zip(cols, vals)))
    derivs = [{c: v for c, v in enumerate(x) if v} for x in nullspace_from_reducer(red, dim * dim)]
    nd = len(derivs)
    first, second = law.slots
    if first != second:
        vectors = []
        for l in range(dim):
            for d in derivs:
                vec = {}
                for flat, v in d.items():
                    a, k = divmod(flat, dim)
                    vec[((a * dim + l) * dim if first else (l * dim + a) * dim) + k] = v
                vectors.append(vec)
        return canonical_basis(vectors, dim ** 3)
    # every slice at a fixed second index l is a derivation too
    red = RowReducer(dim * nd)
    for l in range(dim):
        at_k = {}  # k -> [(s, D_s(b_l)_k)]
        for s, d in enumerate(derivs):
            for k in range(dim):
                if l * dim + k in d:
                    at_k.setdefault(k, []).append((s, d[l * dim + k]))
        for cols, vals in echelon:
            out = {}
            for flat, v in zip(cols, vals):
                a, k = divmod(flat, dim)
                for s, w in at_k.get(k, ()):
                    out[a * nd + s] = out.get(a * nd + s, 0) + v * w
            red.add_fraction_row(out)
    vectors = []
    for x in nullspace_from_reducer(red, dim * nd):
        vec = {}
        for col, c in enumerate(x):
            if c:
                a, s = divmod(col, nd)
                for flat, v in derivs[s].items():
                    vec[a * dim * dim + flat] = vec.get(a * dim * dim + flat, 0) + c * v
        vectors.append(vec)
    return canonical_basis(vectors, dim ** 3)


LARGER_ALGEBRAS = {
    "t4": lambda: upper_triangular(4, 2).alg,
    "t5k2": lambda: upper_triangular(5, 2).alg,
    "block221": lambda: block_upper_triangular([2, 2, 1], 1).alg,
    "t6k3": lambda: upper_triangular(6, 3).alg,
    # a table with denominators: some coefficients stay Fractions
    "t5k2_rescaled": lambda: exact_reference.rescaled_t5().alg,
    # dense bases: the two-sided solve's coupled system carries nearly
    # every condition, as few derivation columns are zero
    "t4_unitriangular": lambda: unitriangular(upper_triangular(4, 2).alg),
    "diamond_unitriangular": lambda: unitriangular(SOLVER_ALGEBRAS["diamond"]().alg),
}


@pytest.mark.parametrize("name", LARGER_ALGEBRAS)
def test_solver_matches_spanning_route(name):
    # too large for the dim³ constraint system, but not for the spanning route
    alg = LARGER_ALGEBRAS[name]()
    for law in ALL_LAWS:
        space = solve_space(alg, law)
        assert [list(phi._flat.items()) for phi in space] == [
            list(vec.items()) for vec in spanning_route(alg, law)]
        # linalg.exact's rule: an int, or a Fraction that is not integral
        assert all(type(v) is int or type(v) is Fraction and v.denominator > 1
                   for phi in space for v in phi._flat.values())


@pytest.mark.parametrize("name,lie_cols,assoc_cols", [("t6k3", 89, 53), ("block221", 48, 31)])
def test_two_sided_solve_couples_only_the_zero_column_kernels(monkeypatch, name, lie_cols,
                                                              assoc_cols):
    # the last and largest reduction is the coupled one, over Σ_l dim K_l
    # columns; over the dim·nd slice coordinates it would have 546 and 420
    # on T6 k=3, 323 and 272 on block [2,2,1]
    alg = LARGER_ALGEBRAS[name]()
    ncols = []

    def recorded(rows, n, zero=None):
        ncols.append(n)
        return echelon(rows, n, zero)

    monkeypatch.setattr(bider_module, "echelon", recorded)
    for law, want in ((MapLaw.LIE_BIDER, lie_cols), (MapLaw.ASSOC_BIDER, assoc_cols)):
        ncols.clear()
        solve_space(alg, law)
        assert max(ncols) == ncols[-1] == want


DERIVATION_ALGEBRAS = dict(
    ECHELON_ALGEBRAS, t4=lambda: upper_triangular(4, 2).alg,
    # every unit of the 3×3 block is a one-term product of two others, so
    # the generators can only be found by pinning an index
    block31=lambda: block_upper_triangular([3, 1], 1).alg,
    # the 4-cycle poset 1<3, 1<4, 2<3, 2<4: its order complex is a circle,
    # which gives it one outer derivation
    crown=lambda: incidence_algebra(Poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)]), [1, 2]).alg,
    # dense bases, where few identity rows have one term and terms can
    # cancel, and a table with denominators
    **{name: LARGER_ALGEBRAS[name]
       for name in ("t4_unitriangular", "diamond_unitriangular", "t5k2_rescaled")})


def solution_dim(system, dim):
    """The dimension of the space a (zero, rows) echelon system cuts out of
    the dim*dim coordinates of a linear map."""
    zero, rows = system
    return dim * dim - sum(zero) - len(rows)


def meets(system, vec):
    """Whether the sparse vector vec satisfies the (zero, rows) echelon
    system: 0 at each zero column and a zero sum against every row."""
    zero, rows = system
    return (not any(zero[col] for col in vec)
            and all(sum(v * vec.get(col, 0) for col, v in zip(cols, vals)) == 0
                    for cols, vals in rows))


@pytest.mark.parametrize("lie", [False, True], ids=["product", "bracket"])
@pytest.mark.parametrize("name", sorted(DERIVATION_ALGEBRAS))
def test_derivation_system_matches_dense_reference(name, lie):
    # the reference reduces every (a, c) pair, both orders and a == c
    # included, from Element arithmetic
    alg = DERIVATION_ALGEBRAS[name]()
    system = algebra_module._derivation_system(alg, lie)
    assert system == dense_oracle.derivation_echelon(alg, lie)
    # the standard span ad(T) + central maps, which decompose's law test
    # reads, is every Lie derivation except on the crown, where the outer
    # derivation adds one dimension: dim Der = dim T - dim Z + 1 there.
    # Off the crown, S has W's dimension and holds W's basis; on the
    # crown, S's echelon rows, a basis of S, meet W's system
    dim = alg.dim
    outer = name == "crown"
    if lie:
        standard = algebra_module._standard_span(alg)
        if outer:
            assert solution_dim(system, dim) - standard.rank == 1
            assert all(meets(system, row) for row in standard.red.pivrows)
        else:
            assert standard.rank == solution_dim(system, dim)
            assert all(standard.contains(vec)
                       for vec in algebra_module._derivation_basis(alg, True))
    elif outer:
        assert solution_dim(system, dim) == dim - len(center_basis(alg)) + 1


def test_one_term_identity_rows_never_reach_the_reducer(monkeypatch):
    # a one-term identity row only says that its column is zero, so it is
    # read into the zero bytes and not built.  Building every row handed
    # the reduction 1,847 (bracket) and 1,706 (product) rows on T6 k=3;
    # now 243 and 161 have a term outside the zero columns that echelon is
    # given.  On T12 k=6 it handed 40,427 and 27,688 rows for 8,596 and
    # 6,612 fed to the reducer; now 2,693 and 1,475 such rows
    handed, fed = [], []
    add_row = RowReducer.add_row

    def counted(rows, n, zero=None):
        rows = list(rows)
        handed.append(sum(any(not zero[col] for col in row) for row in rows))
        return echelon(rows, n, zero)

    def added(self, row):
        fed.append(1)
        return add_row(self, row)

    # built first: construction solves the center through echelon too
    t6, t12 = upper_triangular(6, 3).alg, upper_triangular(12, 6).alg
    monkeypatch.setattr(algebra_module, "echelon", counted)
    monkeypatch.setattr(RowReducer, "add_row", added)
    for lie, every in ((True, 1847), (False, 1706)):
        handed.clear()
        algebra_module._derivation_system(t6, lie)
        assert len(handed) == 1 and handed[0] <= every // 4
        # ROADMAP item 7's target: no more than twice the rows fed
        handed.clear()
        fed.clear()
        algebra_module._derivation_system(t12, lie)
        assert len(handed) == 1 and handed[0] <= 2 * len(fed)


@pytest.mark.parametrize("lie", [False, True], ids=["product", "bracket"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_generators_of_tn_are_diagonal_and_superdiagonal(n, lie):
    # E_pq with q > p + 1 is E_p,p+1·E_p+1,q (and their bracket); no
    # product or bracket of two other units is E_pp or E_p,p+1
    alg = upper_triangular(n, 1).alg
    positions = [(p, q) for p in range(n) for q in range(p, n)]
    assert (algebra_module._generators(algebra_module._table(alg, lie), alg.dim)
            == [i for i, (p, q) in enumerate(positions) if q - p <= 1])


def test_block_assoc_dimension(block21):
    assert len(solve_space(block21.alg, MapLaw.ASSOC_BIDER)) == 1


def test_one_dim_space():
    assert len(solve_space(one_dim(), MapLaw.LIE_BIDER)) == 1


def test_solutions_satisfy_law_everywhere(t2):
    basis = t2.alg.basis()
    for law in ALL_LAWS:
        for phi in solve_space(t2.alg, law):
            for x in basis:
                for y in basis:
                    for z in basis:
                        r1, r2 = law_residual(phi, law, (x, y, z))
                        assert r1.is_zero() and r2.is_zero()


# -- constructors ----------------------------------------------------------------

def test_make_inner_examples(t2):
    assert make_inner(t2, t2.alg.zero()).is_zero()
    one = t2.alg.unit_element()
    bracket_map = make_inner(t2, one)
    for i, x in enumerate(t2.alg.basis()):
        for j, y in enumerate(t2.alg.basis()):
            assert bracket_map.value(i, j) == lie_bracket(x, y)
    doubled = make_inner(t2, one.scale(2))
    assert (0, 1, 1, 2) in doubled.items()


def test_make_inner_rejects_non_central(t2):
    with pytest.raises(NotCentral):
        make_inner(t2, t2.e)


def test_make_extremal_examples(t2, t3):
    assert make_extremal(t3, t3.alg.unit_element()).is_zero()
    phi = make_extremal(t3, t3.alg.basis_element(2))   # r = E13
    assert phi.value(0, 0) == t3.alg.basis_element(2)
    phi = make_extremal(t2, t2.alg.basis_element(1))   # r = E12
    assert phi.value(2, 0) == -t2.alg.basis_element(1)


def test_make_central_examples(t3):
    tr = t3.trace_functional()
    one = t3.alg.unit_element()
    phi = make_central(t3, tr, tr, one)
    assert phi.value(0, 0) == one          # tr(E11)tr(E11) = 1
    assert phi(one, one) == one.scale(9)   # tr(1) = 3 on T3
    assert make_central(t3, [0] * 6, tr, one).is_zero()


def test_make_central_rejections(t2, t3):
    e12_functional = [0, 1, 0]
    with pytest.raises(NotVanishing):
        make_central(t2, e12_functional, t2.trace_functional(),
                     t2.alg.unit_element())
    with pytest.raises(NotCentral):
        make_central(t3, t3.trace_functional(), t3.trace_functional(), t3.e)


def test_constructed_maps_lie_in_solved_span(t3, t3_space):
    span = SpanChecker([phi.flat() for phi in t3_space], t3.alg.dim ** 3)
    one = t3.alg.unit_element()
    tr = t3.trace_functional()
    for phi in (make_inner(t3, one),
                make_extremal(t3, t3.alg.basis_element(2)),
                make_central(t3, tr, tr, one)):
        assert span.contains(phi.flat())


def test_extremal_needs_corner_r_to_stay_in_span(t3, t3_space):
    # [x,[y,E12]] obeys the first-slot law by Jacobi alone but picks up
    # [[x,y],[z,r]] - [[x,z],[y,r]] in the second slot, nonzero here
    phi = make_extremal(t3, t3.alg.basis_element(1))
    span = SpanChecker([p.flat() for p in t3_space], t3.alg.dim ** 3)
    assert not span.contains(phi.flat())
    e22, e23 = t3.alg.basis_element(3), t3.alg.basis_element(4)
    r1, r2 = law_residual(phi, MapLaw.LIE_BIDER, (e22, e23, e22))
    assert not (r1.is_zero() and r2.is_zero())


def test_assoc_space_inside_lie_space(t2, t3, t2_space, t3_space):
    for t, space in ((t2, t2_space), (t3, t3_space)):
        span = SpanChecker([phi.flat() for phi in space], t.alg.dim ** 3)
        for phi in solve_space(t.alg, MapLaw.ASSOC_BIDER):
            assert span.contains(phi.flat())


# -- residuals --------------------------------------------------------------------

def test_law_residual_zero_for_solutions(t3, t3_space):
    triple = (t3.alg.basis_element(0), t3.alg.basis_element(3),
              t3.alg.basis_element(4))
    for phi in t3_space:
        r1, r2 = law_residual(phi, MapLaw.LIE_BIDER, triple)
        assert r1.is_zero() and r2.is_zero()


def test_law_residual_detects_violation(t2):
    # phi(E11, E11) = E12, zero elsewhere; z = E22 sees [phi(x,y), z] alone
    phi = BilinearMap(t2.alg, {(0, 0, 1): 1})
    e11, e22 = t2.alg.basis_element(0), t2.alg.basis_element(2)
    r1, r2 = law_residual(phi, MapLaw.LIE_BIDER, (e11, e11, e22))
    assert not (r1.is_zero() and r2.is_zero())
    # at (E11, E11, E12) every term happens to vanish though
    e12 = t2.alg.basis_element(1)
    r1, r2 = law_residual(phi, MapLaw.LIE_BIDER, (e11, e11, e12))
    assert r1.is_zero() and r2.is_zero()


def test_one_sided_law_leaves_other_slot_unchecked(t2):
    phi = BilinearMap(t2.alg, {(0, 0, 1): 1})
    triple = tuple(t2.alg.basis())
    r1, r2 = law_residual(phi, MapLaw.LIE_DERIV_FIRST, triple)
    assert r2.is_zero()
    r1, r2 = law_residual(phi, MapLaw.LIE_DERIV_SECOND, triple)
    assert r1.is_zero()


def test_four_point_identity_examples(t3, t3_space):
    quad = (t3.alg.basis_element(0), t3.alg.basis_element(3),
            t3.alg.basis_element(1), t3.alg.basis_element(4))
    assert lemma31_residual(make_inner(t3, t3.alg.unit_element()), quad).is_zero()
    assert lemma31_residual(BilinearMap(t3.alg, {}), quad).is_zero()
    for phi in t3_space:
        assert lemma31_residual(phi, quad).is_zero()


@given(st.integers(0, 7), st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_four_point_identity_on_solution_combinations(idx, quad_idx):
    t = upper_triangular(3, 2)
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    phi = space[idx % len(space)] + space[(idx + 3) % len(space)].scale(2)
    quad = tuple(t.alg.basis_element(i) for i in quad_idx)
    assert lemma31_residual(phi, quad).is_zero()


# -- the structure-table layer ------------------------------------------------

@pytest.mark.parametrize("name", SOLVER_ALGEBRAS)
def test_bracket_table_matches_lie_bracket(name):
    alg = SOLVER_ALGEBRAS[name]().alg
    table = algebra_module._brackets(alg)
    basis = alg.basis()
    want = {}
    for i, j in product(range(alg.dim), repeat=2):
        br = lie_bracket(basis[i], basis[j])
        if not br.is_zero():
            want[(i, j)] = {k: v for k, v in enumerate(br.coords) if v}
    assert table == want
    assert list(table) == sorted(table)


def test_lie_derivation_system_built_once(monkeypatch):
    # the system and the integer derivation basis read off it are each
    # built once per law kind, whatever laws are solved
    calls, kernels = [], []
    build = algebra_module._derivation_system
    kernel = algebra_module._derivation_kernel

    def counted(alg, lie):
        calls.append(lie)
        return build(alg, lie)

    def counted_kernel(alg, lie):
        kernels.append(lie)
        return kernel(alg, lie)

    monkeypatch.setattr(algebra_module, "_derivation_system", counted)
    monkeypatch.setattr(algebra_module, "_derivation_kernel", counted_kernel)
    t = upper_triangular(3, 2)
    for law in (MapLaw.LIE_BIDER, MapLaw.LIE_DERIV_FIRST, MapLaw.LIE_DERIV_SECOND):
        solve_space(t.alg, law)
    for phi in solve_space(t.alg, MapLaw.LIE_BIDER):
        decompose(t, phi)
    assert calls == kernels == [True]
    solve_space(t.alg, MapLaw.ASSOC_BIDER)
    solve_space(t.alg, MapLaw.ASSOC_BIDER)
    assert calls == kernels == [True, False]


def test_standard_span_is_fed_its_generators_only(monkeypatch):
    # S = ad(T) + central maps is built from its own generators: ad(b_x),
    # one per basis element, and f(x)*z, one per functional f vanishing on
    # [T, T] and central z.  The reducer gets those and nothing more, and
    # the one kernel read is the functionals', over dim columns.  On T12
    # k=6 that is 78 + 12*1 rows for a rank of 89, where the conditions
    # that cut S out would take a kernel over all 6,084 columns
    alg = upper_triangular(12, 6).alg
    dim, nz = alg.dim, len(center_basis(alg))  # construction caches the center
    fed, kernels = [], []
    add_row = RowReducer.add_row

    def added(self, row):
        fed.append(1)
        return add_row(self, row)

    def counted(system, ncols):
        out = kernel(system, ncols)
        kernels.append((ncols, len(out)))
        return out

    monkeypatch.setattr(RowReducer, "add_row", added)
    monkeypatch.setattr(algebra_module, "kernel", counted)
    monkeypatch.setattr(linalg_module, "kernel", counted)
    span = algebra_module._standard(alg)
    assert (dim, nz) == (78, 1)
    assert kernels == [(dim, 12)]
    assert len(fed) <= dim + 12 * nz
    assert span.rank == 89


def test_decompose_builds_no_derivation_system(monkeypatch):
    # decompose's law test reads the standard span, built from the product
    # table and the center; the Lie derivation system is solve_space's
    t = upper_triangular(3, 2)
    maps = solve_space(t.alg, MapLaw.LIE_BIDER)
    del t.alg._cache[("derivations", True)]

    def refuse(alg, lie):
        raise AssertionError("the derivation system was built")

    monkeypatch.setattr(algebra_module, "_derivation_system", refuse)
    for phi in maps:
        decompose(t, phi)
    with pytest.raises(NotLieBider):
        decompose(t, maps[0] + BilinearMap(t.alg, {(0, 1, 1): 1}))


@pytest.mark.parametrize("n,k,whole", [(2, 1, True), (3, 2, True), (4, 2, False)],
                         ids=["t2", "t3", "t4"])
def test_lemma31_sweep_counts_nonzero_residuals(n, k, whole):
    alg = upper_triangular(n, k).alg
    basis = alg.basis()
    quads = list(product(basis, repeat=4))
    space = solve_space(alg, MapLaw.LIE_BIDER)
    # phi(E11, E12) gains E11: off the law, and Lemma 3.1 sees it.  The
    # dense reference takes seconds a map at T4's 10⁴ quadruples, so there
    # the perturbed map alone pins the sweep on the larger table
    perturbed = space[0] + BilinearMap(alg, {(0, 1, 0): 1})
    maps = (space if whole else []) + [perturbed]
    want = [sum(not lemma31_residual(phi, quad).is_zero() for quad in quads)
            for phi in maps]
    assert [lemma31_failures(phi) for phi in maps] == want
    assert want[:-1] == [0] * (len(maps) - 1)
    assert want[-1] > 0


def test_tables_and_decompositions_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        algebras = [upper_triangular(4, 2), upper_triangular(2, 1)]
        for t in algebras:
            spaces = {law: solve_space(t.alg, law) for law in MapLaw}
            for phi in spaces[MapLaw.LIE_BIDER]:
                try:
                    decompose(t, phi)
                except (NotLieBider, NoCentralLambda, ResidualNotCentral):
                    pass
            hypothesis_report(t)
        assert algebras[1].alg._cache and algebras[0]._cache
        del algebras, t, spaces, phi
        assert gc.collect() == 0
    finally:
        gc.enable()
