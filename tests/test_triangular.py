"""Triangular algebra constructors, Peirce structure, tau, hypotheses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liebider import (BadSplit, Disconnected, NotInProjection, Poset,
                      SingleBlock, TriangularAlgebra, bimodule_hom_basis,
                      block_upper_triangular, center_basis, hypothesis_report,
                      incidence_algebra, lie_bracket, multiply, peirce,
                      standard_form_check, tau, tau_inv, upper_triangular)
from liebider.serialize import algebra_fingerprint


# -- upper_triangular ----------------------------------------------------------

def test_t2_layout(t2):
    assert t2.alg.dim == 3
    assert t2.alg.basis_labels == ("E11", "E12", "E22")
    assert t2.e == t2.alg.basis_element(0)
    assert t2.a_indices == (0,)
    assert t2.m_indices == (1,)
    assert t2.b_indices == (2,)


def test_t3_layout(t3):
    assert t3.alg.dim == 6
    assert t3.alg.basis_labels == ("E11", "E12", "E13", "E22", "E23", "E33")
    # e = E11 + E22 puts E13 and E23 in the off-diagonal block
    assert t3.a_indices == (0, 1, 3)
    assert t3.m_indices == (2, 4)
    assert t3.b_indices == (5,)


def test_t4_layout(t4):
    assert t4.alg.dim == 10
    assert len(t4.m_indices) == 4


def test_split_position_validated():
    with pytest.raises(BadSplit):
        upper_triangular(2, 0)
    with pytest.raises(BadSplit):
        upper_triangular(2, 2)
    with pytest.raises(BadSplit):
        upper_triangular(1, 1)


def test_e_is_idempotent_and_f_complements(t3):
    assert multiply(t3.e, t3.e) == t3.e
    assert (t3.e + t3.f) == t3.alg.unit_element()
    for i in t3.m_indices:
        m = t3.alg.basis_element(i)
        assert multiply(multiply(t3.e, m), t3.f) == m


# -- block_upper_triangular ------------------------------------------------------

def test_block_21_dimension(block21):
    assert block21.alg.dim == 7
    assert len(block21.a_indices) == 4   # a full 2x2 corner
    assert len(block21.m_indices) == 2
    assert len(block21.b_indices) == 1


def test_block_11_matches_t2(t2):
    b = block_upper_triangular([1, 1], 1)
    assert b.alg.structure_items() == t2.alg.structure_items()
    assert b.e.coords == t2.e.coords


def test_block_22_dimension():
    b = block_upper_triangular([2, 2], 1)
    assert b.alg.dim == 12
    assert len(b.m_indices) == 4


def test_block_validation():
    with pytest.raises(SingleBlock):
        block_upper_triangular([3], 1)
    with pytest.raises(BadSplit):
        block_upper_triangular([2, 1], 0)
    with pytest.raises(BadSplit):
        block_upper_triangular([2, 1], 2)


# -- incidence_algebra -----------------------------------------------------------

def chain3():
    return Poset(3, [(1, 2), (2, 3)])


def test_chain_incidence_is_triangular(t3):
    t = incidence_algebra(chain3(), {1})
    t31 = upper_triangular(3, 1)
    assert t.alg.structure_items() == t31.alg.structure_items()
    assert t.e.coords == t31.e.coords
    t = incidence_algebra(chain3(), {1, 2})
    assert t.alg.structure_items() == t3.alg.structure_items()
    assert t.e.coords == t3.e.coords


def test_antichain_disconnected():
    with pytest.raises(Disconnected):
        incidence_algebra(Poset(2, []), {1})


def test_downset_required():
    # {2} misses 1 below it
    with pytest.raises(BadSplit):
        incidence_algebra(chain3(), {2})


def test_unfaithful_split_rejected():
    # 1 < 2 and 1 < 3: splitting at {1, 2} leaves e12 annihilating e(1,3)
    with pytest.raises(BadSplit, match="some a in A kills eTf"):
        incidence_algebra(Poset(3, [(1, 2), (1, 3)]), {1, 2})
    # 1 < 3 and 2 < 3: splitting at {1} leaves e22 annihilating e(1,3)
    with pytest.raises(BadSplit, match="some b in B kills eTf"):
        incidence_algebra(Poset(3, [(1, 3), (2, 3)]), {1})


def test_v_poset_incidence():
    t = incidence_algebra(Poset(3, [(1, 3), (2, 3)]), {1, 2})
    assert t.alg.dim == 5
    assert len(t.center) == 1
    rep = hypothesis_report(t)
    # the corner ring Q x Q has a larger center than the projected one
    assert rep.cond_i is False
    assert rep.cond_ii is False
    assert rep.cond_iv == "inconclusive"
    assert rep.details["cond_iv"]["branch"] == "randomized"
    assert rep.details["cond_iv"]["witness"] is not None
    assert not rep.all_pass()


# -- one matrix-unit builder -------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_tn_is_block_algebra_of_unit_blocks(n):
    for k in range(1, n):
        t = upper_triangular(n, k)
        b = block_upper_triangular([1] * n, k)
        assert algebra_fingerprint(t.alg, t.e) == algebra_fingerprint(b.alg, b.e)
        assert t.diag_indices == b.diag_indices


@pytest.mark.parametrize("n", range(2, 9))
def test_chain_incidence_is_tn_up_to_labels(n):
    chain = Poset(n, [(x, x + 1) for x in range(1, n)])
    for k in range(1, n):
        t = upper_triangular(n, k)
        c = incidence_algebra(chain, set(range(1, k + 1)))
        assert c.alg.structure_items() == t.alg.structure_items()
        assert c.alg.unit == t.alg.unit
        assert c.e.coords == t.e.coords
        assert c.diag_indices == t.diag_indices
        assert c.alg.basis_labels != t.alg.basis_labels


@pytest.mark.parametrize("build, error, message", [
    (lambda: upper_triangular(1, 1), BadSplit, "n must be at least 2"),
    (lambda: upper_triangular(2, 0), BadSplit, "split k=0 out of range 1..1"),
    (lambda: upper_triangular(4, 4), BadSplit, "split k=4 out of range 1..3"),
    (lambda: block_upper_triangular([3], 1), SingleBlock,
     "a single block is a full matrix algebra, not triangular"),
    (lambda: block_upper_triangular([], 1), BadSplit, "block sizes must be positive"),
    (lambda: block_upper_triangular([2, 0], 1), BadSplit, "block sizes must be positive"),
    (lambda: block_upper_triangular([2, 1], 0), BadSplit, "split j=0 out of range 1..1"),
    (lambda: block_upper_triangular([2, 1, 1], 3), BadSplit,
     "split j=3 out of range 1..2"),
    (lambda: incidence_algebra(Poset(2, []), {1}), Disconnected,
     "poset comparability graph is not connected"),
    (lambda: incidence_algebra(chain3(), set()), BadSplit,
     "downset must be nonempty and proper"),
    (lambda: incidence_algebra(chain3(), {1, 2, 3}), BadSplit,
     "downset must be nonempty and proper"),
    (lambda: incidence_algebra(chain3(), {1, 4}), BadSplit,
     "downset contains elements outside the poset"),
    (lambda: incidence_algebra(chain3(), {2}), BadSplit, "split set is not a downset"),
    (lambda: incidence_algebra(Poset(3, [(1, 2), (1, 3)]), {1, 2}), BadSplit,
     "bimodule not faithful: some a in A kills eTf"),
    (lambda: incidence_algebra(Poset(3, [(1, 3), (2, 3)]), {1}), BadSplit,
     "bimodule not faithful: some b in B kills eTf"),
    (lambda: Poset(0, []), ValueError, "poset size must be positive"),
    (lambda: Poset(2, [(1, 3)]), ValueError, "relation (1,3) out of range"),
    (lambda: Poset(3, [(1, 2), (2, 3), (3, 1)]), ValueError,
     "not antisymmetric: 1 and 2 lie on a cycle"),
])
def test_constructor_rejections(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def connected_posets(size):
    """Every connected poset on {1..size}, once each, from every set of
    strict relations (those with a cycle are skipped)."""
    strict = [(x, y) for x in range(1, size + 1) for y in range(1, size + 1) if x != y]
    seen = {}
    for mask in range(1 << len(strict)):
        try:
            p = Poset(size, [r for bit, r in enumerate(strict) if mask >> bit & 1])
        except ValueError:
            continue
        key = tuple(map(tuple, p.relation))
        if key not in seen and p.is_connected():
            seen[key] = p
    return list(seen.values())


def test_every_proper_downset_of_a_connected_poset_is_crossed():
    # a connected poset has a comparability x < y with x in the downset and
    # y outside it (y <= x would put y in the downset), so eTf is never
    # zero and incidence_algebra has no zero-bimodule case to reject
    cases = 0
    for size in range(2, 5):
        for p in connected_posets(size):
            for mask in range(1, (1 << size) - 1):
                s = {x for x in range(1, size + 1) if mask >> (x - 1) & 1}
                if not p.is_downset(s):
                    continue
                assert any(x in s and y not in s for x, y in p.pairs())
                try:
                    t = incidence_algebra(p, s)
                except BadSplit as exc:
                    assert str(exc).startswith("bimodule not faithful")
                else:
                    assert t.m_indices
                cases += 1
    # 2 + 12 + 146 connected posets on 2, 3 and 4 points
    assert cases == 2 + 30 + 686


# -- Poset -----------------------------------------------------------------------

def test_poset_closure_and_leq():
    p = chain3()
    assert p.leq(1, 3)
    assert p.leq(2, 2)
    assert not p.leq(3, 1)
    assert (1, 3) in p.pairs()


def test_poset_rejects_cycles():
    with pytest.raises(ValueError):
        Poset(2, [(1, 2), (2, 1)])


def test_poset_rejects_out_of_range():
    with pytest.raises(ValueError):
        Poset(2, [(1, 3)])


def test_poset_connectivity_and_downsets():
    p = Poset(3, [(1, 3), (2, 3)])
    assert p.is_connected()
    assert p.is_downset({1, 2})
    assert not p.is_downset({3})
    assert not Poset(2, []).is_connected()


# -- TriangularAlgebra validation ---------------------------------------------------

def test_non_idempotent_e_rejected(t2):
    with pytest.raises(ValueError):
        TriangularAlgebra(t2.alg, t2.alg.basis_element(1))


def test_zero_bimodule_rejected():
    from liebider import FiniteAlgebra
    alg = FiniteAlgebra(2, ["u", "v"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 1])
    with pytest.raises(BadSplit):
        TriangularAlgebra(alg, alg.basis_element(0))


# -- Peirce projections ----------------------------------------------------------

def test_peirce_examples(t2, t3):
    zero = t2.alg.zero()
    e12 = t2.alg.basis_element(1)
    assert peirce(t2, e12) == (zero, e12, zero)
    one = t2.alg.unit_element()
    assert peirce(t2, one) == (t2.e, zero, t2.f)
    x = t3.alg.basis_element(0) + t3.alg.basis_element(4)   # E11 + E23
    a, m, b = peirce(t3, x)
    assert a == t3.alg.basis_element(0)
    assert m == t3.alg.basis_element(4)
    assert b.is_zero()


@given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_peirce_components_sum_back(coords):
    t = upper_triangular(3, 2)
    x = t.alg.element(coords)
    a, m, b = peirce(t, x)
    assert a + m + b == x
    assert multiply(multiply(t.e, x), t.e) == a
    assert multiply(multiply(t.e, x), t.f) == m
    assert multiply(multiply(t.f, x), t.f) == b


def test_corner_algebras(t3, t2):
    corner_a, glob_a = t3.corner("a")
    assert corner_a.structure_items() == t2.alg.structure_items()
    assert glob_a == t3.a_indices
    corner_b, _ = t3.corner("b")
    assert corner_b.dim == 1


# -- tau -------------------------------------------------------------------------

def test_tau_examples(t2, t3):
    assert tau(t2, t2.e.scale(2)) == t2.f.scale(2)
    assert tau(t2, t2.alg.zero()).is_zero()
    with pytest.raises(NotInProjection):
        tau(t3, t3.alg.basis_element(0))


def test_tau_rejects_element_outside_the_corner(t3):
    m = t3.alg.basis_element(t3.m_indices[0])
    for fn, corner in ((tau, t3.e), (tau_inv, t3.f)):
        for x in (m, corner + m):
            with pytest.raises(NotInProjection, match="does not lie in the corner"):
                fn(t3, x)


def test_tau_intertwines_module_actions(t3, block21):
    for t in (t3, block21):
        for z in t.center:
            a = t.proj_a(z)
            b = tau(t, a)
            assert tau_inv(t, b) == a
            for i in t.m_indices:
                m = t.alg.basis_element(i)
                assert multiply(a, m) == multiply(m, b)


def test_tau_matches_central_complement(t3):
    for z in t3.center:
        assert tau(t3, t3.proj_a(z)) == t3.proj_b(z)


# -- bimodule homs and hypotheses ---------------------------------------------------

def test_hom_basis_is_identity_span(t3):
    homs = bimodule_hom_basis(t3)
    assert len(homs) == 1
    dm = len(t3.m_indices)
    assert homs[0] == tuple(tuple(1 if i == j else 0 for j in range(dm))
                            for i in range(dm))


def test_standard_form(t2, t3, block21):
    assert standard_form_check(t2)
    assert standard_form_check(t3)
    assert standard_form_check(block21)


def test_hypotheses_t3(t3):
    rep = hypothesis_report(t3)
    assert rep.cond_i and rep.cond_ii and rep.cond_iii
    assert rep.cond_iv == "holds"
    assert rep.all_pass()
    assert rep.details["cond_iv"]["branch"] == "scalar-center"


def test_hypotheses_t2(t2):
    rep = hypothesis_report(t2)
    # both corners are 1-dimensional, hence commutative
    assert rep.cond_ii is False
    assert rep.cond_i and rep.cond_iii and rep.cond_iv == "holds"
    assert not rep.all_pass()
    assert rep.details["cond_ii"]["witness"] is None


def test_hypotheses_block21(block21):
    rep = hypothesis_report(block21)
    assert rep.all_pass()
    assert rep.details["cond_ii"]["witness"][0] == "a"


# -- trace functional -----------------------------------------------------------

def test_trace_functional_kills_brackets(t3):
    g = t3.trace_functional()
    assert g == (1, 0, 0, 1, 0, 1)
    for x in t3.alg.basis():
        for y in t3.alg.basis():
            br = lie_bracket(x, y)
            assert sum(c * v for c, v in zip(g, br.coords)) == 0


def test_trace_functional_requires_diagonal_data(t2):
    bare = TriangularAlgebra(t2.alg, t2.e)
    with pytest.raises(ValueError):
        bare.trace_functional()


def test_is_central(t3):
    assert t3.is_central(t3.alg.unit_element())
    assert t3.is_central(t3.alg.zero())
    assert not t3.is_central(t3.e)
