"""Splitting solved maps into inner + extremal + central parts."""

from fractions import Fraction

import pytest

from liebider import (BilinearMap, Decomposition, LemmaReport, MapLaw,
                      NoCentralLambda, NotLieBider, Poset, ResidualNotCentral,
                      SpanChecker, decompose, incidence_algebra, lemma_suite,
                      lie_bracket, make_central, make_extremal, make_inner,
                      multiply, solve_space, verify_decomposition)


def reassemble(t, d):
    return make_inner(t, d.lambda0) + make_extremal(t, d.r) + d.mu


def product_map(t):
    """(x, y) -> x*y, never a Lie biderivation on a triangular algebra."""
    alg = t.alg
    coeffs = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = multiply(alg.basis_element(i), alg.basis_element(j))
            for k, c in enumerate(v.coords):
                if c:
                    coeffs[(i, j, k)] = c
    return BilinearMap(alg, coeffs)


# -- the three worked examples ------------------------------------------------

def test_inner_map_decomposes_to_itself(t3):
    one = t3.alg.unit_element()
    d = decompose(t3, make_inner(t3, one))
    assert d.lambda0 == one
    assert d.r.is_zero()
    assert d.mu.is_zero()


def test_extremal_map_decomposes_to_itself(t3):
    e13 = t3.alg.basis_element(2)
    d = decompose(t3, make_extremal(t3, e13))
    assert d.lambda0.is_zero()
    assert d.r == e13
    assert d.mu.is_zero()


def test_central_map_decomposes_to_central_part(t3):
    tr = t3.trace_functional()
    one = t3.alg.unit_element()
    phi = make_central(t3, tr, tr, one)
    d = decompose(t3, phi)
    assert d.lambda0.is_zero()
    assert d.r == one.scale(4)      # phi(e, e) with tr(e) = 2
    assert d.mu == phi              # r is central, so the extremal part is 0
    assert verify_decomposition(t3, phi, d)


# -- round trips ---------------------------------------------------------------

def test_every_solved_map_round_trips(t3, t3_space):
    for phi in t3_space:
        d = decompose(t3, phi)
        assert verify_decomposition(t3, phi, d)
        assert reassemble(t3, d) == phi
        assert t3.is_central(d.lambda0)
        for (i, j, k, v) in d.mu.items():
            assert t3.is_central(d.mu.value(i, j))


def test_block_maps_round_trip(block21):
    for phi in solve_space(block21.alg, MapLaw.LIE_BIDER):
        d = decompose(block21, phi)
        assert reassemble(block21, d) == phi


def test_mu_kills_commutators_in_both_slots(t3, t3_space):
    basis = t3.alg.basis()
    for phi in t3_space:
        mu = decompose(t3, phi).mu
        for x in basis:
            for y in basis:
                for z in basis:
                    assert mu(lie_bracket(x, y), z).is_zero()
                    assert mu(x, lie_bracket(y, z)).is_zero()


def test_assembled_input_reconstructs(t3):
    one = t3.alg.unit_element()
    tr = t3.trace_functional()
    e13 = t3.alg.basis_element(2)
    # a central summand in r is invisible to the extremal part
    phi = (make_inner(t3, one.scale(Fraction(3, 2)))
           + make_extremal(t3, e13 + one.scale(3))
           + make_central(t3, tr, tr, one).scale(-1))
    d = decompose(t3, phi)
    assert verify_decomposition(t3, phi, d)
    assert reassemble(t3, d) == phi
    assert d.lambda0 == one.scale(Fraction(3, 2))
    # r comes back as phi(e, e): the corner part plus mu's central value
    assert t3.proj_m(d.r) == e13
    assert d.r == e13 + one.scale(-4)


# -- failure paths ---------------------------------------------------------------

def test_non_biderivation_rejected(t3):
    with pytest.raises(NotLieBider) as exc:
        decompose(t3, product_map(t3))
    slot, labels, residual = exc.value.witness
    assert slot in (1, 2)
    assert all(lb in t3.alg.basis_labels for lb in labels)
    assert not residual.is_zero()
    assert "slot" in str(exc.value)


def test_hypothesis_violating_maps_fail_lambda_stage(t2, t2_space):
    outcomes = []
    for phi in t2_space:
        try:
            decompose(t2, phi)
            outcomes.append("ok")
        except NoCentralLambda:
            outcomes.append("no-lambda")
    # T2 violates cond_ii; three of the eight basis maps have off-diagonal
    # components no central lambda0 can match
    assert outcomes == ["ok", "ok", "no-lambda", "no-lambda",
                        "ok", "no-lambda", "ok", "ok"]


def test_law_test_matches_space_membership_at_every_coordinate(t3, t3_space):
    # a unit change at one coordinate leaves the space exactly when the
    # solved basis stops spanning the map, whether the derivation system
    # forces that coordinate to vanish on its own or ties it to others
    dim = t3.alg.dim
    span = SpanChecker([m.flat() for m in t3_space], dim ** 3)
    for f in range(dim ** 3):
        phi = t3_space[0] + BilinearMap.from_flat(t3.alg, [int(x == f) for x in range(dim ** 3)])
        try:
            decompose(t3, phi)
            rejected = False
        except NotLieBider:
            rejected = True
        except (NoCentralLambda, ResidualNotCentral):
            rejected = False
        assert rejected == (not span.contains(phi.flat())), f


@pytest.mark.parametrize("index", [2, 3])
def test_no_central_lambda_chains_no_solver_error(t2, t2_space, index):
    # map 2 is nonzero at an off-diagonal coordinate that no lambda0 reaches,
    # map 3's lambda0 system is inconsistent: neither error may keep the
    # solver's exception (and its frames) as context
    with pytest.raises(NoCentralLambda) as exc:
        decompose(t2, t2_space[index])
    assert exc.value.__context__ is None


def test_verify_rejects_perturbed_mu(t3, t3_space):
    phi = t3_space[0]
    d = decompose(t3, phi)
    bad_mu = d.mu + BilinearMap(t3.alg, {(0, 0, 1): 1})   # E12 is not central
    assert not verify_decomposition(t3, phi, Decomposition(d.lambda0, d.r, bad_mu))


def test_verify_rejects_shifted_lambda(t3, t3_space):
    phi = t3_space[0]
    d = decompose(t3, phi)
    shifted = d.lambda0 + t3.alg.unit_element()   # central but wrong
    assert not verify_decomposition(t3, phi, Decomposition(shifted, d.r, d.mu))


def test_verify_rejects_non_central_lambda(t3, t3_space):
    phi = t3_space[0]
    d = decompose(t3, phi)
    assert not verify_decomposition(t3, phi, Decomposition(t3.e, d.r, d.mu))


def test_verify_rejects_non_central_mu_that_reconstructs(t3, t3_space):
    phi = t3_space[0]
    d = decompose(t3, phi)
    e13 = t3.alg.basis_element(t3.m_indices[0])   # not central
    # move an extremal part from r into mu: phi is rebuilt exactly, but mu
    # now takes values in eTf
    bad = Decomposition(d.lambda0, d.r + e13, d.mu - make_extremal(t3, e13))
    assert reassemble(t3, bad) == phi
    assert not verify_decomposition(t3, phi, bad)


def test_residual_not_central_formatting():
    err = ResidualNotCentral((0, 1, "value"))
    assert err.witness == (0, 1, "value")
    assert "(0, 1)" in str(err)


# -- lemma suite ------------------------------------------------------------------

def test_suite_passes_on_all_solved_maps(t3, t3_space):
    for phi in t3_space:
        rep = lemma_suite(t3, phi)
        assert rep.all_pass(), rep.failures()


def test_suite_passes_on_assoc_maps(t3):
    for phi in solve_space(t3.alg, MapLaw.ASSOC_BIDER):
        assert lemma_suite(t3, phi).all_pass()


def test_suite_order_and_ids(t3, t3_space):
    rep = lemma_suite(t3, t3_space[0])
    assert [ent["id"] for ent in rep] == [
        "3.3.1", "3.3.2", "3.3.3", "3.4", "3.5", "3.6", "3.7"]


def test_suite_failures_on_t2(t2, t2_space):
    fails = {}
    for i, phi in enumerate(t2_space):
        rep = lemma_suite(t2, phi)
        if not rep.all_pass():
            fails[i] = rep.failures()
            for cid in rep.failures():
                wit = rep.entry(cid)["witness"]
                assert wit is not None
                assert "basis" in wit
    assert fails == {2: ["3.6"], 3: ["3.4"], 5: ["3.4"]}


def test_alpha0_solves_mixed_values_or_is_reported_missing(t3, block21):
    v = incidence_algebra(Poset(3, [(1, 3), (2, 3)]), [1, 2])
    missing = {}
    for name, t in (("v", v), ("t3", t3), ("block21", block21)):
        for k, phi in enumerate(solve_space(t.alg, MapLaw.LIE_BIDER)):
            rep = lemma_suite(t, phi)
            alpha0 = rep.entry("3.4")["detail"]["alpha0"]
            if alpha0 is None:
                missing[name, k] = (rep.entry("3.4")["witness"]["reason"],
                                    rep.entry("3.7")["witness"]["reason"])
                assert not rep.passed("3.4") and not rep.passed("3.7")
                continue
            for u in t.m_indices:
                m = t.alg.basis_element(u)
                assert multiply(alpha0, m) == phi(t.e, m), (name, k, u)
    reasons = ("no central alpha0 solves phi(e, m) = alpha0*m",
               "alpha0 unavailable, diagonal relation untestable")
    assert missing == {("v", 11): reasons, ("v", 13): reasons}


def test_sign_conventions_recorded(t3, t3_space):
    seen_b, seen_d = set(), set()
    for phi in t3_space:
        rep = lemma_suite(t3, phi)
        seen_b.add(rep.entry("3.4")["detail"]["b_side_sign"])
        seen_d.add(rep.entry("3.7")["detail"]["diagonal_sign"])
    # maps with nonzero mixed values pin the signs; degenerate ones fit both
    assert seen_b == {"-1", "both"}
    assert seen_d == {"+1", "both"}


def test_zero_map_suite(t3):
    rep = lemma_suite(t3, BilinearMap(t3.alg, {}))
    assert rep.all_pass()
    ent = rep.entry("3.4")["detail"]
    assert ent["alpha0"].is_zero()
    assert ent["b_side_sign"] == "both"


def test_report_helpers(t2, t2_space):
    rep = lemma_suite(t2, t2_space[2])
    assert rep.passed("3.3.1")
    assert not rep.passed("3.6")
    assert rep.failures() == ["3.6"]
    assert "3.6" in repr(rep)
    with pytest.raises(KeyError):
        rep.entry("9.9")
    good = lemma_suite(t2, t2_space[0])
    assert "pass" in repr(good)
