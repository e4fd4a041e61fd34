"""Splitting a Lie biderivation into inner, extremal, and central parts.

On a triangular algebra every solved map phi decomposes as

    phi(x, y) = lambda0*[x, y] + [x, [y, r]] + mu(x, y)

with lambda0 central, r = phi(e, e) taken verbatim, and mu valued in the
center.  decompose() extracts the triple exactly: lambda0 comes from a
linear system over center coordinates built from the off-diagonal
components (the only block where the center acts faithfully enough to pin
it down), r is read off directly, and mu is the full residual, checked
for centrality value by value.  verify_decomposition() rechecks the
defining identities from scratch, and lemma_suite() runs the battery of
structural identities on the Peirce components that any such map must
satisfy, solving for the scalar alpha0 once and testing every basis pair.

decompose(), verify_decomposition(), the law witness and lemma_suite()
work on sparse {coordinate: value} rows, never on dense Elements; the
first three visit only the terms that can be nonzero: each map pays for
its own terms, on tables built once per algebra.  The law test and the
extraction read the algebra's structure tables (see algebra.py): the
bracket table [b_i, b_j], here also indexed by right factor, and the
integer echelon rows of the standard span S of Lie derivations, ad(T)
plus the maps x -> f(x)*z with z central and f vanishing on [T, T]
(algebra._standard).
S is read off the product table and the cached center, far more cheaply
than the Lie derivation space W is solved; decompose() never builds W.
The law test reads S's rows through their column index: one pass over
the map's nonzero coefficients sums every slice's products with the rows
that meet it, and returns the candidate slices, those outside S.  Every
failing slice is a candidate, since S holds Lie derivations only, and
where S = W the candidates are exactly the failing slices.  The witness
scan visits the candidates only and settles them exactly: decompose()
raises NotLieBider with the first failing basis triple, and when there
is none every candidate is an outer Lie derivation and the map goes on,
so no verdict rests on S = W.  On an algebra with an outer derivation
the scan is the price: on the crown (the 4-cycle poset split at {1, 2},
dim S = 11, dim W = 12) valid maps have candidates, and their scan runs.
r = phi(e, e) is read from phi's rows at the pairs where e is nonzero,
by _at, which lemma_suite() uses for its values at 1, e and f.
lambda0, like alpha0 and tau_inv in lemma_suite(), is the central z with
prescribed products z*row, solved as a sparse row by
triangular._center_system and _central_solution; the rows are the
off-diagonal parts of the brackets (_lambda_system), the m_u for alpha0
and f for tau_inv, whose answers are z's A-part.  Each system depends on
the triangular structure only; it is factored once, on first use, into
its pivot columns and the inverse of an invertible square of them, and
cached in the triangular algebra's _cache.  Each map then only supplies
its right-hand side: one product with the inverse, and a check of the
equation at the keys the target and the used columns reach.
[b_i, [b_j, r]] and lambda0*[b_i, b_j] are read off the bracket table,
linear in the support of r and lambda0, and mu is formed at the pairs
where the residual or, for a nonzero lambda0, the bracket is nonzero.
mu values, and lambda0 in verify_decomposition(), are tested for
centrality on their sparse rows; an Element is built only for a
ResidualNotCentral witness.  Every value here is held as linalg.exact
stores it, mu's coefficients included: an int when it is integral, a
Fraction only when it is not.  The constructors' tables and nearly every
solved map are integral, so the law test, the extraction, the
re-verification and lemma_suite() run in int arithmetic there, and a
table or map with denominators takes the same code with Fractions.
Rows of x*b_p over the basis come from algebra._times_basis.
lemma_suite() works on the same rows: phi(b_i, b_j) is phi's row at
(i, j), a product x*y of rows is _at on the product table, Peirce parts
keep the coordinates of their block, and centrality is the center
span's membership test, as in decompose(); it evaluates no Element
product and never calls phi.  verify_decomposition() reads
[b_i, b_p] as the product row b_i*b_p plus the row b_p*b_i negated,
indexed once per algebra by right factor p from the product table
itself, by a function of its own (_verify_brackets) under a cache key of
its own, so it shares no cached data with what it checks; its entries
are plain (i, row) pairs, as in the bracket table by right factor that
decompose() reads.  It adds up
lambda0*[b_i, b_j], [b_i, [b_j, r]] and mu at the pairs these terms reach
and compares with phi there and at phi's own pairs; at every other pair
both sides vanish, so the check covers every basis pair.  decompose()
runs the same check (_verify_rows) on phi's and mu's rows as it has just
grouped them, instead of grouping them again.

Where the literature shows sign discrepancies between a statement and its
proof, the suite tests both candidate signs and records which one holds,
instead of silently picking a side.
"""

from math import lcm

from .algebra import (_brackets, _cached, _combine, _standard, _standard_columns,
                      _times_basis)
from .bider import BilinearMap
from .linalg import _sparse, exact
from .triangular import _central_part, _central_solution, _center_system, _element


class NotLieBider(Exception):
    """The map fails the Lie biderivation law.

    witness is (slot, labels, residual): the slot number (1 or 2), the
    basis labels of the triple where the law breaks, and the nonzero
    residual element.
    """

    def __init__(self, witness):
        self.witness = witness
        slot, labels, residual = witness
        super().__init__(
            f"not a Lie biderivation: slot {slot} law fails at "
            f"({', '.join(labels)}) with residual {residual!r}")


class NoCentralLambda(Exception):
    """No central lambda0 matches the off-diagonal components of phi."""


class ResidualNotCentral(Exception):
    """mu takes a non-central value; witness is (i, j, value)."""

    def __init__(self, witness):
        self.witness = witness
        i, j, value = witness
        super().__init__(
            f"residual at basis pair ({i}, {j}) is not central: {value!r}")


class Decomposition:
    """The extracted triple (lambda0, r, mu)."""

    __slots__ = ("lambda0", "r", "mu")

    def __init__(self, lambda0, r, mu):
        self.lambda0 = lambda0
        self.r = r
        self.mu = mu

    def __repr__(self):
        return (f"Decomposition(lambda0={self.lambda0!r}, r={self.r!r}, "
                f"mu with {len(self.mu.items())} coefficients)")


def _at(rows, x, y):
    """The bilinear map with rows {(i, j): {k: coefficient}} at sparse rows
    x and y, by bilinear extension over their supports: phi(x, y) for
    phi._rows(), and the product x*y for the product table alg._prod."""
    empty = {}
    return _combine([(a * b, rows.get((i, j), empty)) for i, a in x.items() for j, b in y.items()])


def _lambda_system(t):
    """The lambda0 equations, a _center_system on the off-diagonal parts of
    the brackets [b_i, b_j]: z*pi_M([b_i, b_j]) = pi_M(z*[b_i, b_j]) at each
    key ((i, j), o).  At an off-diagonal coordinate no column reaches, no
    lambda0 contributes, so the residual itself has to vanish there."""
    m_set = frozenset(t.m_indices)
    return _center_system(t, [(key, {o: c for o, c in row.items() if o in m_set})
                              for key, row in _brackets(t.alg).items()])


def _brackets_by_right(alg):
    """The bracket table by right factor, in the form _extremal reads:
    {p: [(i, [b_i, b_p]), ...]}, i ascending, built once per algebra."""
    return _cached(alg, "brackets by right", _by_right)


def _by_right(alg):
    out = {}
    for (i, p), row in _brackets(alg).items():
        out.setdefault(p, []).append((i, row))
    return out


def _extremal(by_right, r):
    """{(i, j): [b_i, [b_j, r]]}, nonzero values only, from r's coordinates
    and the brackets by right factor: by_right[p] lists (i, row) pairs, and
    [b_i, b_p] is the sum of the rows for i.  [b_j, r] comes from the
    entries under each k with r_k nonzero, then [b_i, [b_j, r]] from those
    under each p in its support.  Costs nothing when r is zero."""
    inner = {}  # j -> [(r_k, row)]
    for k, c in enumerate(r):
        if c:
            for j, row in by_right.get(k, ()):
                inner.setdefault(j, []).append((c, row))
    out = {}
    for j, terms in inner.items():
        outer = {}
        for p, c in _combine(terms).items():
            for i, row in by_right.get(p, ()):
                outer.setdefault(i, []).append((c, row))
        for i, terms in outer.items():
            row = _combine(terms)
            if row:
                out[i, j] = row
    return out


def _law_witness(t, c, bad):
    """First basis triple where a slot identity breaks, for the error.

    c is the map as rows {(i, j): {k: coefficient}} and bad its candidate
    slices, as _candidate_slices numbers them.  Scans (i, j, l) in order
    and tests slot 1 before slot 2, as
    law_residual(phi, MapLaw.LIE_BIDER, (b_i, b_j, b_l)) would, but slot 1
    only where the slice phi(., b_j) is a candidate and slot 2 only where
    phi(b_i, .) is: a slice outside the candidates is a Lie derivation,
    with a zero residual at every pair.  None when no triple breaks the
    law: every candidate is then an outer Lie derivation."""
    alg = t.alg
    dim = alg.dim
    br = _brackets(alg)
    labels = alg.basis_labels
    empty = {}
    for i in range(dim):
        slot2 = dim + i in bad
        for j in range(dim):
            slot1 = j in bad
            if not (slot1 or slot2):
                continue
            pij = c.get((i, j), empty)
            for l in range(dim):
                # phi([b_i, b_l], b_j) - [phi(b_i, b_j), b_l] - [b_i, phi(b_l, b_j)]
                if slot1:
                    r1 = _combine(
                        [(v, c.get((p, j), empty)) for p, v in br.get((i, l), empty).items()]
                        + [(-v, br.get((k, l), empty)) for k, v in pij.items()]
                        + [(-v, br.get((i, k), empty)) for k, v in c.get((l, j), empty).items()])
                    if r1:
                        return (1, (labels[i], labels[j], labels[l]), _element(alg, r1))
                # phi(b_i, [b_j, b_l]) - [phi(b_i, b_j), b_l] - [b_j, phi(b_i, b_l)]
                if slot2:
                    r2 = _combine(
                        [(v, c.get((i, p), empty)) for p, v in br.get((j, l), empty).items()]
                        + [(-v, br.get((k, l), empty)) for k, v in pij.items()]
                        + [(-v, br.get((j, k), empty)) for k, v in c.get((i, l), empty).items()])
                    if r2:
                        return (2, (labels[i], labels[j], labels[l]), _element(alg, r2))
    return None


def _candidate_slices(alg, coeffs):
    """The slices of the map, given as rows {(i, j): {k: coefficient}},
    that lie outside the standard span S of Lie derivations: j for
    phi(., b_j), whose law is slot 1, and dim + i for phi(b_i, .), whose
    law is slot 2.  Every slice that is not a Lie derivation is among
    them, since S holds Lie derivations only; a candidate may still be an
    outer Lie derivation, which _law_witness tells apart.  Where S is the
    whole Lie derivation space, as on every algebra but those with an
    outer derivation, the candidates are exactly the failing slices.

    A slice lies in S iff it is zero at each column S's system forces to
    vanish and meets every other echelon row in a zero sum.  Coefficient
    (i, j, k) sits at column i*dim + k of the slice with j fixed and
    j*dim + k of the slice with i fixed; the column index gives the rows
    it meets.  The map is scaled to integers, which leaves each sum's
    vanishing as is."""
    zero, _ = _standard(alg)
    index = _standard_columns(alg)
    dim = alg.dim
    den = lcm(*(v.denominator for row in coeffs.values() for v in row.values()))
    none = ()
    bad = set()
    sums = {}
    for (i, j), row in coeffs.items():
        for k, v in row.items():
            v = v.numerator * (den // v.denominator)
            for s, col in ((j, i * dim + k), (dim + i, j * dim + k)):
                if zero[col]:
                    bad.add(s)
                for p, w in index.get(col, none):
                    sums[s, p] = sums.get((s, p), 0) + v * w
    bad.update(s for (s, _), v in sums.items() if v)
    return bad


def _verify_brackets(alg):
    """[b_i, b_p] = b_i*b_p - b_p*b_i by right factor p, in the form
    _extremal reads, for verify_decomposition alone: under p the entries
    (i, b_i*b_p) and (i, -b_p*b_i) for the nonzero products, the first
    row the product table's own and the second its negation.  Built by
    this function from alg._prod, once per algebra, into a cache entry of
    its own, so a fault in the bracket table decompose reads, or in the
    function that fills it, does not reach both sides of the check."""
    def build(alg):
        out = {}
        for (i, j), row in alg._prod.items():
            if i != j:
                out.setdefault(j, []).append((i, row))
                out.setdefault(i, []).append((j, {k: -v for k, v in row.items()}))
        return {p: tuple(terms) for p, terms in out.items()}
    return _cached(alg, "verify brackets", build)


def decompose(t, phi):
    """Extract (lambda0, r, mu) with phi = lambda0*[.,.] + [.,[.,r]] + mu.

    r is phi(e, e) verbatim.  lambda0 is the canonical central solution of
    the system asking the off-diagonal component of
    phi(b_i, b_j) - lambda0*[b_i, b_j] - [b_i, [b_j, r]] to vanish at all
    basis pairs, free center directions zeroed.  mu is the full residual;
    a non-central residual value aborts with its witness, which is how a
    failed structural hypothesis shows up here.
    """
    if phi.algebra is not t.alg:
        raise ValueError("map does not live on this algebra")
    alg = t.alg
    coeffs = phi._rows()
    bad = _candidate_slices(alg, coeffs)
    witness = _law_witness(t, coeffs, bad) if bad else None
    if witness:
        raise NotLieBider(witness)

    empty = {}
    e = _sparse(t.e.coords)
    r = _element(alg, _at(coeffs, e, e))
    ext = _extremal(_brackets_by_right(alg), r.coords)
    # phi minus its extremal part: what lambda0*[., .] + mu must account for
    rest = {}
    for key in coeffs.keys() | ext.keys():
        row = _combine([(1, coeffs.get(key, empty)), (-1, ext.get(key, empty))])
        if row:
            rest[key] = row

    m_set = frozenset(t.m_indices)
    target = {(key, o): v for key, row in rest.items() for o, v in row.items() if o in m_set}
    lambda0 = _central_solution(t, _cached(t, "lambda0", _lambda_system), target)
    if lambda0 is None:
        raise NoCentralLambda("no central element matches the off-diagonal residual")
    lambda0 = _element(alg, lambda0)

    # lambda0*[b_i, b_j] is nonzero only at the bracket table's pairs, and
    # only if lambda0 is
    br = {}
    if any(lambda0.coords):
        br = _brackets(alg)
        neg_lam_b = _times_basis(alg, [-c for c in lambda0.coords], True)
    central = t._center_span
    dim = alg.dim
    flat = {}  # mu's coefficients by flat index (i*dim + j)*dim + k
    mu_rows = {}  # and by pair, as mu._rows() would group them
    # a pair outside both tables has a zero residual; sorted, so the first
    # non-central value is the first in (i, j) order
    for key in sorted(rest.keys() | br.keys()):
        if key in br:
            val = _combine([(1, rest.get(key, empty))]
                           + [(v, neg_lam_b[p]) for p, v in br[key].items()])
            if not val:
                continue
        else:
            val = rest[key]
        i, j = key
        if not central.contains(val):
            raise ResidualNotCentral((i, j, _element(alg, val)))
        base = (i * dim + j) * dim
        flat.update((base + k, exact(v)) for k, v in val.items())
        mu_rows[key] = val
    mu = BilinearMap._of(alg, flat)

    d = Decomposition(lambda0, r, mu)
    if not _verify_rows(t, coeffs, d, mu_rows):
        raise RuntimeError("internal error: extracted parts fail verification")
    return d


def verify_decomposition(t, phi, d):
    """True iff lambda0 and all mu values are central and the
    reconstruction phi(b_i,b_j) = lambda0*[b_i,b_j] + [b_i,[b_j,r]] + mu(b_i,b_j)
    holds exactly at every basis pair."""
    alg = t.alg
    if phi.algebra is not alg or d.mu.algebra is not alg:
        return False
    if d.lambda0.algebra is not alg or d.r.algebra is not alg:
        return False
    return _verify_rows(t, phi._rows(), d, d.mu._rows())


def _verify_rows(t, rows, d, mu):
    """verify_decomposition on phi and mu already grouped by pair, as
    _rows() gives them; decompose() passes the rows it has built."""
    alg = t.alg
    central = t._center_span
    lam = {k: c for k, c in enumerate(d.lambda0.coords) if c}
    if not (central.contains(lam) and all(central.contains(row) for row in mu.values())):
        return False
    by_right = _verify_brackets(alg)
    # the terms of the rebuilt value at each pair that one of them reaches;
    # phi's own pairs are compared too, so both sides vanish at every pair
    # left out
    rebuilt = {}
    if lam:
        lam_b = _times_basis(alg, d.lambda0.coords, True)
        for q, terms in by_right.items():
            for i, row in terms:
                rebuilt.setdefault((i, q), []).extend((v, lam_b[p]) for p, v in row.items())
    for part in (_extremal(by_right, d.r.coords), mu):
        for key, row in part.items():
            rebuilt.setdefault(key, []).append((1, row))
    empty = {}
    return all(_combine(rebuilt.get(key, ())) == rows.get(key, empty)
               for key in rebuilt.keys() | rows.keys())


class LemmaReport:
    """Ordered pass/fail entries for the structural identity checks.

    Each entry is a dict with keys id, passed, witness, detail.  A failing
    entry always carries a witness: the basis labels involved plus either
    the residual element or a reason string.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def entry(self, check_id):
        for ent in self.entries:
            if ent["id"] == check_id:
                return ent
        raise KeyError(check_id)

    def passed(self, check_id):
        return self.entry(check_id)["passed"]

    def all_pass(self):
        return all(ent["passed"] for ent in self.entries)

    def failures(self):
        return [ent["id"] for ent in self.entries if not ent["passed"]]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        bad = self.failures()
        if not bad:
            return f"LemmaReport(all {len(self.entries)} checks pass)"
        return f"LemmaReport(failing: {', '.join(bad)})"


def _solve_alpha0(t, rows, e):
    """The element alpha0 of the center's A-projection with
    phi(e, m) = alpha0*m for every m in the off-diagonal block, as a sparse
    row, or None; phi given by its rows, e as a sparse row.  It is the
    A-part of the central z with z*m_u = phi(e, m_u), as z*m = pi_A(z)*m."""
    system = _cached(t, "alpha0", lambda t: _center_system(t, [(u, {u: 1}) for u in t.m_indices]))
    target = {(u, o): c for u in t.m_indices for o, c in _at(rows, e, {u: 1}).items()}
    z = _central_solution(t, system, target)
    return None if z is None else {k: v for k, v in z.items() if k in t.a_indices}


def _sign(plus_all, minus_all):
    """The sign a relation tested with both signs holds with: "both",
    "+1", "-1", or None if neither holds everywhere."""
    return {(True, True): "both", (True, False): "+1", (False, True): "-1"}.get(
        (plus_all, minus_all))


def lemma_suite(t, phi):
    """Run the structural identity checks on phi over the Peirce basis.

    Checks, in report order:
      3.3.1  phi vanishes when either argument is zero
      3.3.2  phi(1, x) and phi(x, 1) are central with zero off-diagonal part
      3.3.3  the four corner values e*phi(., .)*f agree up to the stated signs
      3.4    a scalar alpha0 in the A-projection of the center drives the
             mixed diagonal/off-diagonal values, antisymmetrically; the
             A-side scalar is tested as stated and the B-side scalar is
             tested with both signs, the surviving one recorded
      3.5    the (a, b) and (b, a) values split into a central diagonal part
             minus a*phi(e,e)*b (resp. a*phi(f,f)*b)
      3.6    phi vanishes on pairs from the off-diagonal block
      3.7    values on A-pairs have off-diagonal part a1*a2*phi(e,e)*f in
             both argument orders, and the diagonal parts match through the
             central correspondence up to alpha0*[a1, a2], sign recorded

    3.3.1 holds for every BilinearMap: phi is its coefficient tensor,
    extended bilinearly, so a zero argument leaves an empty sum.  It is
    recorded as passing without a test.
    """
    alg = t.alg
    if phi.algebra is not alg:
        raise ValueError("map does not live on this algebra")
    labels = alg.basis_labels
    rows = phi._rows()
    prod = alg._prod
    central = t._center_span
    a_idx, m_idx, b_idx = t.a_indices, t.m_indices, t.b_indices
    a_set, m_set, b_set = frozenset(a_idx), frozenset(m_idx), frozenset(b_idx)
    diag = a_set | b_set
    e, f, one = _sparse(t.e.coords), _sparse(t.f.coords), _sparse(alg.unit)
    empty = {}
    pee = _at(rows, e, e)
    pff = _at(rows, f, f)
    entries = []

    def record(cid, passed, witness=None, detail=None):
        entries.append({"id": cid, "passed": passed,
                        "witness": witness, "detail": detail or {}})

    def part(row, keys):
        return {k: v for k, v in row.items() if k in keys}

    def value(i, j):
        return rows.get((i, j), empty)

    def residual(tag, row, **reason):
        return {"basis": tag, "residual": _element(alg, row), **reason}

    # 3.3.1 holds by construction, as the docstring says
    record("3.3.1", True)

    # 3.3.2
    wit = next((residual(tag, v) for j, lb in enumerate(labels)
                for x, y, tag in ((one, {j: 1}, ("1", lb)), ({j: 1}, one, (lb, "1")))
                for v in [_at(rows, x, y)]
                if not m_set.isdisjoint(v) or not central.contains(v)), None)
    record("3.3.2", wit is None, wit)

    # 3.3.3: e phi(e,e) f = -e phi(f,e) f = -e phi(e,f) f = e phi(f,f) f
    c_ee = part(pee, m_set)
    wit = next((residual(("e", "e") + tag, diff)
                for other, sign, tag in ((_at(rows, f, e), -1, ("f", "e")),
                                         (_at(rows, e, f), -1, ("e", "f")), (pff, 1, ("f", "f")))
                for diff in [_combine([(1, c_ee), (-sign, part(other, m_set))])] if diff), None)
    record("3.3.3", wit is None, wit)

    # 3.4: the A-side relations make phi antisymmetric on A x M, and either
    # sign of the B-side relation makes it antisymmetric on B x M, so a
    # failure of antisymmetry always shows as wit or as no consistent sign
    a0 = _solve_alpha0(t, rows, e)
    if a0 is None:
        record("3.4", False,
               {"basis": ("e", "m"),
                "reason": "no central alpha0 solves phi(e, m) = alpha0*m"},
               {"alpha0": None, "b_side_sign": None})
    else:
        wit = None
        for ga in a_idx:
            for gm in m_idx:
                want = _at(prod, a0, prod.get((ga, gm), empty))
                for x, y, sign in ((ga, gm, -1), (gm, ga, 1)):
                    diff = _combine([(1, value(x, y)), (sign, want)])
                    if diff and wit is None:
                        wit = residual((labels[x], labels[y]), diff)
        plus_all = minus_all = True
        for gb in b_idx:
            for gm in m_idx:
                want = _at(prod, a0, prod.get((gm, gb), empty))
                neg = {k: -v for k, v in want.items()}
                bm, mb = value(gb, gm), value(gm, gb)
                plus_all &= bm == want and mb == neg
                minus_all &= bm == neg and mb == want
        sign = _sign(plus_all, minus_all)
        if sign is None and wit is None:
            wit = {"basis": ("b", "m"),
                   "reason": "no consistent sign for phi(b, m) = ±alpha0*m*b"}
        record("3.4", wit is None, wit, {"alpha0": _element(alg, a0), "b_side_sign": sign})

    # 3.5: phi(a, b) + a*phi(e, e)*b and phi(b, a) + a*phi(f, f)*b have no
    # off-diagonal part, and the diagonal parts of phi(a, b) and phi(b, a)
    # are central
    def mixed(ga, gb):
        for x, y, p in ((ga, gb, pee), (gb, ga, pff)):
            v = value(x, y)
            tag = (labels[x], labels[y])
            apb = _at(prod, _at(prod, {ga: 1}, p), {gb: 1})
            if not m_set.isdisjoint(_combine([(1, v), (1, apb)])):
                return residual(tag, v)
            if not central.contains(part(v, diag)):
                return residual(tag, v, reason="diagonal part not central")
        return None

    wit = next(filter(None, (mixed(ga, gb) for ga in a_idx for gb in b_idx)), None)
    record("3.5", wit is None, wit)

    # 3.6
    wit = next((residual((labels[u], labels[w]), rows[u, w])
                for u in m_idx for w in m_idx if (u, w) in rows), None)
    record("3.6", wit is None, wit)

    # 3.7
    if a0 is None:
        record("3.7", False,
               {"basis": ("a1", "a2"),
                "reason": "alpha0 unavailable, diagonal relation untestable"},
               {"diagonal_sign": None})
    else:
        br = _brackets(alg)
        # the algebra is associative: (a1*a2)*phi(e, e)*f is a1*a2 times
        # the one row phi(e, e)*f
        pef = _at(prod, pee, f)
        wit = None
        plus_all = minus_all = True
        for g1 in a_idx:
            for g2 in a_idx:
                tag = (labels[g1], labels[g2])
                v = value(g1, g2)
                off = part(v, m_set)
                t12 = _at(prod, prod.get((g1, g2), empty), pef)
                t21 = _at(prod, prod.get((g2, g1), empty), pef)
                if off != t12 or off != t21:
                    if wit is None:
                        wit = residual(tag, _combine([(1, off), (-1, t12)]))
                    continue
                fvf = part(v, b_set)
                # tau_inv(fvf) is z's A-part; tau_inv is linear: tau_inv(0) = 0
                z = _central_part(t, fvf, "b") if fvf else {}
                if z is None:
                    if wit is None:
                        wit = residual(tag, fvf,
                                       reason="diagonal part outside the center's B-projection")
                    continue
                eta = part(z, a_set)
                eae = part(v, a_set)
                shift = _at(prod, a0, br.get((g1, g2), empty))
                plus_all &= eae == _combine([(1, eta), (1, shift)])
                minus_all &= eae == _combine([(1, eta), (-1, shift)])
        sign = _sign(plus_all, minus_all)
        if sign is None and wit is None:
            wit = {"basis": ("a1", "a2"),
                   "reason": "no consistent sign for the diagonal relation"}
        record("3.7", wit is None, wit, {"diagonal_sign": sign})

    return LemmaReport(entries)
