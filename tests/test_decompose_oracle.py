"""The table-based decomposition agrees with the dense Element reference.

dense_oracle.decompose evaluates every bracket and product through Element
arithmetic; liebider.decompose works on the cached sparse tables.  Both
must return the same parts, or fail with the same exception and witness,
on every basis map, on seeded integer combinations and on maps with one
coefficient changed.  verify_decomposition must give the reference's
verdict on corrupted splits, and the law test must reject a unit change
at a coordinate exactly when it leaves the solved space, naming the
reference's witness.  The law test's candidate slices, which bound the
witness scan, must match a dense per-slice check at every failing unit
change on small algebras; on the crown, whose outer derivation lies
outside the standard span the law test reads, they must hold every
failing slice, and decompose must still give the reference's outcome on
every basis map and on a perturbation of each.  The one builder of
product rows, algebra._times_basis, must equal Element multiplication on
both sides; it and the bracket table must not depend on the order in
which the structure constants were given; and both indexes of the
brackets by right factor must hold plain (i, row) pairs that add up to
the bracket table.
verify_decomposition reads a table of its own: a fault in the table
decompose reads must be stopped by it, and a fault in its own table must
fail a correct split.  A bracket row doubled in
decompose's table must raise ResidualNotCentral at that row's pair, and
the CLI must render that witness.
"""

import random

import pytest

import dense_oracle
from liebider import cli
from liebider import (BilinearMap, Decomposition, FiniteAlgebra, MapLaw, NoCentralLambda,
                      NotLieBider, Poset, ResidualNotCentral, SpanChecker,
                      block_upper_triangular, decompose, incidence_algebra, law_residual,
                      lie_bracket, make_extremal, make_inner, multiply, solve_space,
                      upper_triangular, verify_decomposition)
from liebider.algebra import _bracket_table, _brackets, _combine, _times_basis
from liebider.decomp import _brackets_by_right, _candidate_slices, _verify_brackets
from liebider.linalg import exact

import exact_reference

ALGEBRAS = {
    "t3": lambda: upper_triangular(3, 2),
    "t4": lambda: upper_triangular(4, 2),
    "diamond": lambda: incidence_algebra(
        Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), [1, 2, 3]),
    "v": lambda: incidence_algebra(Poset(3, [(1, 3), (2, 3)]), [1, 2]),
    "block21": lambda: block_upper_triangular([2, 1], 1),
    "block22": lambda: block_upper_triangular([2, 2], 1),
}

# the 4-cycle poset 1<3, 1<4, 2<3, 2<4 split at {1, 2}: its order complex is
# a circle, so it has one outer derivation and its Lie derivations are one
# dimension more than the standard span that the law test reads
CROWN = lambda: incidence_algebra(Poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)]), [1, 2])

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


def perturbations(t, maps):
    """Basis map n with 1 added at the coefficient n/len(maps) of the way
    through the tensor, one per map."""
    dim = t.alg.dim
    out = []
    for n, phi in enumerate(maps):
        f = n * dim ** 3 // len(maps)
        out.append(phi + BilinearMap(t.alg, {(f // dim // dim, f // dim % dim, f % dim): 1}))
    return out


def test_crown_agrees_with_dense_reference():
    # the slices of a valid map may lie outside the standard span here (the
    # outer derivation), so the witness scan must clear them: every basis
    # map and one perturbation of each gives the reference's outcome
    t = CROWN()
    maps = solve_space(t.alg, MapLaw.LIE_BIDER)
    seen = set()
    for kind, phis in (("basis", maps), ("perturbed", perturbations(t, maps))):
        for n, phi in enumerate(phis):
            got = outcome(decompose, t, phi)
            assert got == outcome(dense_oracle.decompose, t, phi), (kind, n)
            seen.add((kind, got[0]))
    assert ("basis", "NotLieBider") not in seen
    assert ("perturbed", "NotLieBider") in seen
    # some valid map has a slice outside the standard span
    assert any(_candidate_slices(t.alg, phi._rows()) for phi in maps)


def corruptions(t, phi, d, rnd):
    """(kind, phi, split) triples, each breaking one part of the valid
    split d of phi."""
    alg = t.alg
    dim = alg.dim
    b = alg.basis_element(rnd.randrange(dim))
    m = alg.basis_element(rnd.choice(t.m_indices))
    mu = {(i, j, k): v for i, j, k, v in d.mu.items()}
    key = rnd.choice(sorted(mu)) if mu else (rnd.randrange(dim), rnd.randrange(dim), rnd.randrange(dim))
    mu[key] = mu.get(key, 0) + rnd.choice([-1, 1])
    coeffs = {(i, j, k): v for i, j, k, v in phi.items()}
    key = (rnd.randrange(dim), rnd.randrange(dim), rnd.randrange(dim))
    coeffs[key] = coeffs.get(key, 0) + rnd.choice([-1, 1])
    return [
        ("r shifted", phi, Decomposition(d.lambda0, d.r + b, d.mu)),
        ("lambda0 shifted", phi, Decomposition(d.lambda0 + rnd.choice(t.center), d.r, d.mu)),
        ("mu changed", phi, Decomposition(d.lambda0, d.r, BilinearMap(alg, mu))),
        ("phi changed", BilinearMap(alg, coeffs), d),
        # the extremal part of m moved from r into mu: phi is rebuilt
        # exactly, but mu takes values in eTf
        ("mu not central", phi, Decomposition(d.lambda0, d.r + m, d.mu - make_extremal(t, m))),
    ]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_verify_agrees_with_dense_reference(name):
    t = ALGEBRAS[name]()
    rnd = random.Random(f"verify-oracle-{name}")
    checked = 0
    for kind, idx, phi in inputs(t, rnd):
        if outcome(decompose, t, phi)[0] != "ok":
            continue
        d = decompose(t, phi)
        assert dense_oracle.verify_decomposition(t, phi, d), (kind, idx)
        for what, psi, bad in corruptions(t, phi, d, rnd):
            got = verify_decomposition(t, psi, bad)
            assert got == dense_oracle.verify_decomposition(t, psi, bad), (kind, idx, what)
            assert not got, (kind, idx, what)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_law_test_matches_space_membership_at_every_coordinate(name):
    # a unit change at one coordinate leaves the space exactly when the
    # solved basis stops spanning the map, whether the derivation system
    # forces that coordinate to vanish on its own or ties it to others.
    # The dense scan takes up to 0.1 s a map, so the witness is compared
    # with it at about 32 coordinates spread evenly over the tensor.
    t = ALGEBRAS[name]()
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    dim = t.alg.dim
    span = SpanChecker([m.flat() for m in space], dim ** 3)
    step = max(1, dim ** 3 // 32)
    compared = 0
    for f in range(dim ** 3):
        ij, k = divmod(f, dim)
        phi = space[0] + BilinearMap(t.alg, {(*divmod(ij, dim), k): 1})
        try:
            decompose(t, phi)
            witness = None
        except NotLieBider as exc:
            witness = exc.witness
        except (NoCentralLambda, ResidualNotCentral):
            witness = None
        assert (witness is not None) == (not span.contains(phi.flat())), f
        if witness is not None and f % step == 0:
            assert witness == dense_oracle.law_witness(phi), f
            compared += 1
    assert compared


# -- the witness scan over the failing slices ------------------------------------

WITNESS_ALGEBRAS = {
    "t2": lambda: upper_triangular(2, 1),
    "t3": ALGEBRAS["t3"],
    "block21": ALGEBRAS["block21"],
    "crown": CROWN,
}


def slice_fails(phi, s):
    """Dense check that slice s is not a Lie derivation: phi(., b_s) for
    s < dim (the slot 1 law), phi(b_{s - dim}, .) otherwise (slot 2)."""
    basis = phi.algebra.basis()
    dim = len(basis)
    for x in range(dim):
        for z in range(dim):
            if s < dim:
                res = law_residual(phi, MapLaw.LIE_BIDER, (basis[x], basis[s], basis[z]))[0]
            else:
                res = law_residual(phi, MapLaw.LIE_BIDER, (basis[s - dim], basis[x], basis[z]))[1]
            if not res.is_zero():
                return True
    return False


@pytest.mark.parametrize("name", sorted(WITNESS_ALGEBRAS))
def test_witness_matches_dense_scan_at_every_failing_coordinate(name):
    # a unit change at (i, j, k) of a basis map touches the slices
    # phi(., b_j) and phi(b_i, .) only; the law test must name exactly those
    # of them that fail, and the witness scan, which visits only the
    # candidate slices, must name the dense scan's first triple and residual.
    # On the crown a candidate may be an outer Lie derivation, so there the
    # failing slices need only be among the candidates
    t = WITNESS_ALGEBRAS[name]()
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    dim = t.alg.dim
    failing = 0
    for f in range(dim ** 3):
        ij, k = divmod(f, dim)
        i, j = divmod(ij, dim)
        phi = space[0] + BilinearMap(t.alg, {(i, j, k): 1})
        candidates = _candidate_slices(t.alg, phi._rows())
        bad = {s for s in (j, dim + i) if slice_fails(phi, s)}
        if name == "crown":
            assert bad <= candidates, f
        else:
            assert bad == candidates, f
        if bad:
            with pytest.raises(NotLieBider) as exc:
                decompose(t, phi)
            assert exc.value.witness == dense_oracle.law_witness(phi), f
            failing += 1
        else:
            assert outcome(decompose, t, phi)[0] != "NotLieBider", f
    assert failing


# -- one builder of product rows, plain rows by factor ---------------------------

TABLE_ALGEBRAS = {**ALGEBRAS, "t2": lambda: upper_triangular(2, 1), "crown": CROWN,
                  "rescaled_t5": exact_reference.rescaled_t5}


def assert_times_basis_equals_multiply(alg, e, rnd):
    seeded = alg.element([exact(f"{rnd.randint(-5, 5)}/{rnd.randint(1, 3)}")
                          for _ in range(alg.dim)])
    for x in alg.basis() + [alg.unit_element(), e, seeded]:
        for left in (True, False):
            rows = _times_basis(alg, x.coords, left)
            assert len(rows) == alg.dim
            for p, row in enumerate(rows):
                b = alg.basis_element(p)
                want = multiply(x, b) if left else multiply(b, x)
                assert row == {k: v for k, v in enumerate(want.coords) if v}, (x, left, p)


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_times_basis_equals_multiply(name):
    t = TABLE_ALGEBRAS[name]()
    assert_times_basis_equals_multiply(t.alg, t.e, random.Random(f"times-basis-{name}"))


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_product_rows_do_not_depend_on_table_order(name):
    # the same algebra from its structure constants in a shuffled order:
    # the one-pass row builder and the bracket table read the product
    # table in its insertion order, and must give the same rows
    t = TABLE_ALGEBRAS[name]()
    rnd = random.Random(f"table-order-{name}")
    items = t.alg.structure_items()
    rnd.shuffle(items)
    alg = FiniteAlgebra(t.alg.dim, t.alg.basis_labels, items, t.alg.unit)
    assert list(alg._prod) != sorted(alg._prod)
    assert_times_basis_equals_multiply(alg, alg.element(t.e.coords), rnd)
    basis = alg.basis()
    want = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            br = lie_bracket(x, y)
            if not br.is_zero():
                want[(i, j)] = {k: v for k, v in enumerate(br.coords) if v}
    table = _bracket_table(alg)
    assert table == want
    assert list(table) == sorted(table)


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_rows_by_right_factor_sum_to_the_bracket_table(name):
    # each by-factor index holds plain (i, row) pairs under p, and the rows
    # under p for one i add up to [b_i, b_p]
    alg = TABLE_ALGEBRAS[name]().alg
    table = _bracket_table(alg)
    for index in (_brackets_by_right(alg), _verify_brackets(alg)):
        sums = {}
        for p, terms in index.items():
            for i, row in terms:
                sums.setdefault((i, p), []).append((1, row))
        got = {key: _combine(terms) for key, terms in sums.items()}
        assert {key: row for key, row in got.items() if row} == table


# -- verify_decomposition shares no table with decompose -------------------------


def faulted(t, table, key):
    """A copy of a bracket table with the unit added to the row at key."""
    unit = {k: v for k, v in enumerate(t.alg.unit) if v}
    return {k: (_combine([(1, row), (1, unit)]) if k == key else row)
            for k, row in table.items()}


def test_verify_catches_a_fault_in_the_table_decompose_reads():
    # one bracket row shifted by the unit in the cached table decompose
    # reads: the lambda0 system (off-diagonal coordinates only) and the
    # centrality test cannot see a central shift, so decompose builds a
    # wrong mu, and only verify_decomposition, on its own table, stops it.
    # Every split decompose still returns must be a true one by the dense
    # reference.  The law test's rows are built at the first decompose,
    # after the fault; they stay out of its reach because they are read
    # from alg._prod, not from the faulted bracket cache.
    caught = 0
    for key in _brackets(upper_triangular(3, 2).alg):
        t = upper_triangular(3, 2)
        maps = solve_space(t.alg, MapLaw.LIE_BIDER)
        t.alg._cache["brackets"] = faulted(t, _bracket_table(t.alg), key)
        for n, phi in enumerate(maps):
            try:
                d = decompose(t, phi)
            except RuntimeError:
                caught += 1
                continue
            assert dense_oracle.verify_decomposition(t, phi, d), (key, n)
    assert caught


def test_verify_rejects_a_correct_split_with_a_fault_in_its_own_table():
    # lambda0 = 1 and r = E13 reach every bracket pair, so the unit added
    # to any one product row of verify's own table changes the rebuilt map
    t = upper_triangular(3, 2)
    one = t.alg.unit_element()
    unit = {k: v for k, v in enumerate(t.alg.unit) if v}
    phi = make_inner(t, one) + make_extremal(t, t.alg.basis_element(t.m_indices[0]))
    d = decompose(t, phi)
    assert any(d.lambda0.coords) and any(d.r.coords)
    own = _verify_brackets(t.alg)
    faults = 0
    for p, terms in own.items():
        for n, (i, row) in enumerate(terms):
            bad = terms[:n] + ((i, _combine([(1, row), (1, unit)])),) + terms[n + 1:]
            t.alg._cache["verify brackets"] = {**own, p: bad}
            assert not verify_decomposition(t, phi, d), (p, n)
            faults += 1
    t.alg._cache["verify brackets"] = own
    assert faults and verify_decomposition(t, phi, d)


def test_residual_not_central_names_the_pair_of_a_doubled_bracket_row():
    # one bracket row doubled in the cached table decompose reads (the law
    # test's rows, built at the first decompose, read alg._prod and do not
    # see it): the lambda0 system cannot absorb it, so the
    # residual at that pair, in its (i, j) order, is the first non-central
    # value; basis map 8 of T3 shows it at four of the rows
    raised = {}
    for key in _brackets(upper_triangular(3, 2).alg):
        t = upper_triangular(3, 2)
        maps = solve_space(t.alg, MapLaw.LIE_BIDER)
        t.alg._cache["brackets"] = {k: ({c: 2 * v for c, v in row.items()} if k == key else row)
                                    for k, row in _bracket_table(t.alg).items()}
        for n, phi in enumerate(maps):
            try:
                decompose(t, phi)
            except NoCentralLambda:
                continue
            except ResidualNotCentral as exc:
                i, j, value = exc.witness
                assert (i, j) == key
                assert value.algebra is t.alg and not t.is_central(value)
                raised[key] = (n, exc)
    assert {key: n for key, (n, _) in raised.items()} == {
        (0, 1): 8, (1, 0): 8, (1, 3): 8, (3, 1): 8}
    exc = raised[(1, 0)][1]
    assert str(exc) == "residual at basis pair (1, 0) is not central: -1*E12"
    assert cli._witness_lines(exc) == ["witness_pair: 1 0", "witness_value: 0 -1 0 0 0 0"]
    assert cli._witness_doc(exc) == {
        "pair": [1, 0], "value": [[0, 1], [-1, 1], [0, 1], [0, 1], [0, 1], [0, 1]]}
