"""Bilinear maps and the linear systems cut out by derivation-style laws.

A bilinear map is the rank-3 tensor t[i][j][k] with φ(b_i, b_j) = Σ_k
t[i][j][k] b_k.  Each law (Lie biderivation, associative biderivation, Lie
derivation in one argument) is a homogeneous linear condition on the tensor,
so the full solution space is a nullspace.  constraint_matrix assembles the
naive system over all dim³ unknowns; solve_space exploits the slice
structure of the laws (each one says certain dim²-slices are single-argument
derivations), keeps every vector a sparse {flat index: value} dict up to the
stored maps, and emits its answer straight in the canonical kernel basis, so
both routes agree exactly.  Both read the algebra's cached structure tables
(algebra.py): the bracket or product table, and for solve_space the integer
echelon rows of the derivation system and the derivation basis read off
them, both cached per law kind.  solve_space solves a two-sided law on
that basis, through linalg.echelon and linalg.kernel in integers, so
everything stays in ints until each map is divided by its trailing
entry.  That division is linalg.exact's, as is every
coefficient a BilinearMap stores: an int where the trailing entry
divides the value, which it nearly always does, and a Fraction only
where it does not.  A one-sided law's maps are shifted copies of the
derivation basis, so each derivation is divided by its trailing entry
once and then shifted to every fixed index.
lemma31_failures sweeps the four-term identity of Lemma 3.1 over every
basis quadruple, each term's bracket read by algebra._at on the bracket
table; lemma31_residual is the Element-arithmetic reference it is tested
against.
"""

import enum
from .algebra import (Element, _at, _brackets, _combine, _derivation_basis, _derivations,
                      _factor_index, _identity_rows, _table, lie_bracket, multiply)
from .linalg import SparseMatrix, echelon, exact, kernel


class NotCentral(Exception):
    pass


class NotVanishing(Exception):
    pass


class MapLaw(enum.Enum):
    LIE_BIDER = "lie-bider"
    ASSOC_BIDER = "assoc-bider"
    LIE_DERIV_FIRST = "lie-deriv-1"
    LIE_DERIV_SECOND = "lie-deriv-2"

    @property
    def lie(self):
        return self is not MapLaw.ASSOC_BIDER

    @property
    def slots(self):
        """Which argument slots carry the derivation law: (first, second)."""
        if self is MapLaw.LIE_DERIV_FIRST:
            return (True, False)
        if self is MapLaw.LIE_DERIV_SECOND:
            return (False, True)
        return (True, True)


class BilinearMap:
    """Sparse rank-3 coefficient tensor of a bilinear map on an algebra.

    The nonzero coefficients live in one dict keyed by the flat tensor
    index (i*dim + j)*dim + k, the order flat() uses; _rows() groups them
    by basis pair for code that works slice by slice.  Each is stored by
    linalg.exact: an int when it is integral, else a Fraction.
    """

    __slots__ = ("algebra", "_flat")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        dim = algebra.dim
        store = {}
        items = coeffs.items() if hasattr(coeffs, "items") else ((t[:3], t[3]) for t in coeffs)
        for (i, j, k), v in items:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"coefficient index ({i},{j},{k}) out of range")
            v = exact(v)
            if not v:
                continue
            store[(i * dim + j) * dim + k] = v
        self._flat = store

    @classmethod
    def from_flat(cls, algebra, vec):
        if len(vec) != algebra.dim ** 3:
            raise ValueError("flat vector length mismatch")
        flat = {f: exact(v) for f, v in enumerate(vec) if v}
        return cls._of(algebra, {f: v for f, v in flat.items() if v})

    @classmethod
    def _of(cls, algebra, flat):
        """Wrap a {flat index: nonzero exact() value} dict as is, without
        checks."""
        phi = cls.__new__(cls)
        phi.algebra = algebra
        phi._flat = flat
        return phi

    def flat(self):
        vec = [0] * self.algebra.dim ** 3
        for f, v in self._flat.items():
            vec[f] = v
        return tuple(vec)

    def _rows(self):
        """{(i, j): {k: coefficient}} over the pairs with a nonzero value."""
        dim = self.algebra.dim
        rows = {}
        for f, v in self._flat.items():
            ij, k = divmod(f, dim)
            rows.setdefault(divmod(ij, dim), {})[k] = v
        return rows

    def items(self):
        dim = self.algebra.dim
        out = []
        for f in sorted(self._flat):
            ij, k = divmod(f, dim)
            i, j = divmod(ij, dim)
            out.append((i, j, k, self._flat[f]))
        return out

    def value(self, i, j):
        """φ(b_i, b_j) as an Element."""
        dim = self.algebra.dim
        base = (i * dim + j) * dim
        return Element(self.algebra, [self._flat.get(base + k, 0) for k in range(dim)])

    def __call__(self, x, y):
        """Evaluate φ(x, y) by bilinear extension."""
        if x.algebra is not self.algebra or y.algebra is not self.algebra:
            raise ValueError("arguments from a different algebra")
        dim = self.algebra.dim
        xc, yc = x.coords, y.coords
        out = [0] * dim
        for f, v in self._flat.items():
            ij, k = divmod(f, dim)
            i, j = divmod(ij, dim)
            if xc[i] and yc[j]:
                out[k] += xc[i] * yc[j] * v
        return Element(self.algebra, out)

    def is_zero(self):
        return not self._flat

    def __add__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("maps on different algebras")
        out = dict(self._flat)
        for f, v in other._flat.items():
            out[f] = out.get(f, 0) + v
        return BilinearMap._of(self.algebra, {f: exact(v) for f, v in out.items() if v})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = exact(s)
        return BilinearMap._of(self.algebra, {f: exact(s * v) for f, v in self._flat.items()} if s else {})

    def __eq__(self, other):
        return (isinstance(other, BilinearMap) and self.algebra is other.algebra
                and self._flat == other._flat)

    def __hash__(self):
        return hash((id(self.algebra), tuple(self.items())))

    def __repr__(self):
        return f"BilinearMap({len(self._flat)} coefficients)"


def constraint_matrix(alg, law):
    """Full linear system over the dim³ tensor unknowns for the given law.

    One block of rows per law identity (first slot, then second slot for the
    two-sided laws), within a block one row per lexicographic basis triple
    and output coordinate.  The kernel is exactly the set of maps obeying
    the law.
    """
    dim = alg.dim
    tab = _table(alg, law.lie)
    index = _factor_index(tab)
    entries = []
    nrow = 0
    for slot_first, on in zip((True, False), law.slots):
        if not on:
            continue
        for i in range(dim):
            for j in range(dim):
                for l in range(dim):
                    # slot 1 at (x, z, y) = (b_i, b_j, b_l) is the derivation
                    # identity of the slice φ(., b_l) at (b_i, b_j); slot 2 at
                    # (x, y, z) = (b_i, b_j, b_l) that of φ(b_i, .) at (b_j, b_l)
                    a, c = (i, j) if slot_first else (j, l)
                    for q, row in _identity_rows(tab, index, dim, a, c):
                        for u, v in row.items():
                            a2, k = divmod(u, dim)
                            col = (a2 * dim + l if slot_first else i * dim + a2) * dim + k
                            entries.append((nrow + q, col, v))
                    nrow += dim  # row index advances even when a row is empty
    return SparseMatrix(nrow, dim ** 3, entries)


def solve_space(alg, law):
    """Canonical basis of all bilinear maps satisfying the law.

    A slot obeys its law iff every slice of the tensor along that slot's
    fixed index l is a single-argument derivation, so every solution is
    Σ x[l][s]·D_s, D_s placed at l, over the integer derivation basis D_s.
    That basis is cached next to the algebra's derivation system, so it is
    read off the echelon rows once per law kind, not once per law.  A
    one-sided law leaves x free: its kernel is every unit vector (l, s).
    A two-sided law is solved in two stages on the derivations themselves
    (_two_sided_maps): per l, the zero columns of the derivation system
    cut x[l] down to a small kernel K_l, and the other echelon rows then
    couple the K_l in one system of Σ dim K_l columns.  Nothing is reduced
    over the dim·nd slice coordinates or the dim³ tensor entries.

    No dim³ reduction follows: x is nonzero at its last free column (l, s)
    and 0 at the other free ones, D_s is m_s at its last nonzero column f_s
    and 0 at the other free ones, and (l, s) → (l, f_s) keeps the column
    order for a fixed l.  So each map, divided by its last entry, is a
    canonical kernel vector of nullspace(constraint_matrix(alg, law)), and
    sorting by last column orders them (only lie-deriv-1, whose l is the
    middle index, interleaves).  Maps are sparse {flat index: value} dicts
    in ascending index order, each value divided by exact().
    """
    dim = alg.dim
    zero, rows = _derivations(alg, law.lie)
    derivs = _derivation_basis(alg, law.lie)
    first, second = law.slots
    if first == second:
        maps = _two_sided_maps(zero, rows, derivs, dim)
    else:
        # D_s(b_a)_k lands at l·l_step + a·a_step + k: the fixed index l is
        # the first tensor index, except for lie-deriv-1; either way the
        # placing keeps the order of D_s's entries, so its last entry m_s
        # stays last.  The kernel is every unit vector (l, s), and its map
        # is D_s shifted by l·l_step: each D_s is divided by m_s once
        l_step, a_step = (dim, dim * dim) if first else (dim * dim, dim)
        placed = [sorted((flat // dim * a_step + flat % dim, v) for flat, v in d.items())
                  for d in derivs]
        normed = [(d[-1][0], [(off, exact(v, d[-1][1])) for off, v in d]) for d in placed]
        maps = [(base + last, {base + off: q for off, q in d})
                for base in range(0, dim * l_step, l_step) for last, d in normed]
    maps.sort(key=lambda pair: pair[0])
    return [BilinearMap._of(alg, vec) for _, vec in maps]


def _two_sided_maps(zero, rows, derivs, dim):
    """The (last flat index, map) pairs of a two-sided law, each map
    Σ_l G_l placed at the first index l, with G_l = Σ_s x[l][s]·D_s.

    Every slice φ(., b_a) must be a derivation too.  Stage 1, per l: at
    a zero column (l, k) of the derivation system, G_l(b_a) has no b_k
    term for any a.  D_s is the one derivation nonzero at its free column
    f_s = (a_s, k_s), so x[l][s] = 0 wherever (l, k_s) is a zero column,
    a zero column of the system over x[l] before any row is read; the
    other D_s meet the rest of these conditions in a system of at most nd
    columns, whose integer kernel is K_l.  Stage 2: each other
    echelon row, at each b_a, is one row over the coordinates y of the
    G_y spanning all the K_l, placed at their l: Σ dim K_l columns.  y
    runs over l, then K_l's free column, so a y-kernel vector is nonzero
    at its last free y and 0 at the other free ones, and so is its x at
    the matching (l, s): it is the canonical x-kernel vector up to a
    scalar, which the division by the last entry removes.
    """
    nd = len(derivs)
    free_k = [max(d) % dim for d in derivs]  # k_s of the free column f_s
    gs = []  # y -> G_y placed at its l, {flat index: int}
    for l in range(dim):
        zeros = zero[l * dim:(l + 1) * dim]
        forced = bytes(zeros[k] for k in free_k)
        at = {}  # (a, k) with (l, k) a zero column -> {s: D_s[a][k]}
        for s, d in enumerate(derivs):
            if not forced[s]:
                for f, w in d.items():
                    if zeros[f % dim]:
                        at.setdefault(f, {})[s] = w
        base = l * dim * dim
        for x in kernel(echelon(at.values(), nd, forced), nd):
            g = _combine([(c, derivs[s]) for s, c in x.items()])
            gs.append({base + f: w for f, w in g.items()})
    by_col = {}  # (l, k) -> [(a, y, G_y(b_l, b_a)_k)]
    for y, g in enumerate(gs):
        for f, w in g.items():
            la, k = divmod(f, dim)
            l, a = divmod(la, dim)
            by_col.setdefault(l * dim + k, []).append((a, y, w))

    def coupled():
        for cols, vals in rows:
            sums = {}  # a -> the row at b_a
            for col, v in zip(cols, vals):
                for a, y, w in by_col.get(col, ()):
                    acc = sums.setdefault(a, {})
                    acc[y] = acc[y] + v * w if y in acc else v * w
            for acc in sums.values():
                out = {y: v for y, v in acc.items() if v}
                if out:
                    yield out

    maps = []
    for x in kernel(echelon(coupled(), len(gs)), len(gs)):
        vec = _combine([(c, gs[y]) for y, c in x.items()])
        last = max(vec)
        maps.append((last, {f: exact(vec[f], vec[last]) for f in sorted(vec)}))
    return maps


def make_inner(t, lam):
    """(x, y) → λ·[x, y] for a central λ."""
    if not t.is_central(lam):
        raise NotCentral("λ is not in the center")
    alg = t.alg
    coeffs = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            val = multiply(lam, lie_bracket(alg.basis_element(i), alg.basis_element(j)))
            for k, v in enumerate(val.coords):
                if v:
                    coeffs[(i, j, k)] = v
    return BilinearMap(alg, coeffs)


def make_extremal(t, r):
    """(x, y) → [x, [y, r]].  A central r just gives the zero map."""
    alg = t.alg
    coeffs = {}
    for j in range(alg.dim):
        inner = lie_bracket(alg.basis_element(j), r)
        if inner.is_zero():
            continue
        for i in range(alg.dim):
            val = lie_bracket(alg.basis_element(i), inner)
            for k, v in enumerate(val.coords):
                if v:
                    coeffs[(i, j, k)] = v
    return BilinearMap(alg, coeffs)


def make_central(t, g, h, z):
    """(x, y) → g(x)·h(y)·z with g, h killing all brackets and z central.

    Such a map is central-valued and vanishes whenever either argument is a
    commutator, which is exactly what keeps it inside the Lie-biderivation
    space.
    """
    alg = t.alg
    if len(g) != alg.dim or len(h) != alg.dim:
        raise ValueError("functional length mismatch")
    g = tuple(exact(c) for c in g)
    h = tuple(exact(c) for c in h)
    if not t.is_central(z):
        raise NotCentral("z is not in the center")
    for i in range(alg.dim):
        for j in range(alg.dim):
            br = lie_bracket(alg.basis_element(i), alg.basis_element(j))
            gv = sum(c * x for c, x in zip(g, br.coords))
            hv = sum(c * x for c, x in zip(h, br.coords))
            if gv != 0 or hv != 0:
                raise NotVanishing(f"functional does not vanish on [b_{i}, b_{j}]")
    coeffs = {}
    for i, gi in enumerate(g):
        if gi == 0:
            continue
        for j, hj in enumerate(h):
            if hj == 0:
                continue
            for k, zk in enumerate(z.coords):
                if zk:
                    coeffs[(i, j, k)] = gi * hj * zk
    return BilinearMap(alg, coeffs)


def law_residual(phi, law, triple):
    """The two slot-identity residuals of the law at an element triple.

    Triple is (x, y, z).  First-slot residual: φ(x∘z, y) − [φ(x,y), z]-type
    right side; second-slot residual: φ(x, y∘z) − its right side; ∘ is the
    bracket for the Lie laws and the product for the associative law.  A slot
    the law does not constrain reports the zero element.
    """
    x, y, z = triple
    alg = phi.algebra
    op = lie_bracket if law.lie else multiply
    first, second = law.slots
    zero = alg.zero()
    r1 = zero
    r2 = zero
    if first:
        r1 = phi(op(x, z), y) - op(phi(x, y), z) - op(x, phi(z, y))
    if second:
        r2 = phi(x, op(y, z)) - op(phi(x, y), z) - op(y, phi(x, z))
    return r1, r2


def lemma31_residual(phi, quad):
    """Residual of the four-term bracket identity at (x, y, a, b).

    Computes [φ(x,a),[b,y]] + [φ(x,b),[y,a]] + [φ(y,a),[x,b]] − [φ(y,b),[x,a]],
    which vanishes for every Lie biderivation.
    """
    x, y, a, b = quad
    return (lie_bracket(phi(x, a), lie_bracket(b, y))
            + lie_bracket(phi(x, b), lie_bracket(y, a))
            + lie_bracket(phi(y, a), lie_bracket(x, b))
            - lie_bracket(phi(y, b), lie_bracket(x, a)))


def lemma31_failures(phi):
    """The number of basis quadruples (x, y, a, b), out of all dim⁴, at
    which lemma31_residual(phi, ...) is nonzero.

    The residual is a signed sum of four terms [φ(b_p, b_q), [b_s, b_t]],
    and such a term vanishes unless φ(b_p, b_q) and [b_s, b_t] are both
    nonzero.  So the sweep visits only those pairs, on the bracket table,
    and adds each term to the residuals of the quadruples it enters: a
    quadruple that no term reaches has residual zero.
    """
    br = _brackets(phi.algebra)
    residuals = {}
    for (p, q), val in phi._rows().items():
        for (s, t), row in br.items():
            term = _at(br, val, row)
            if not term:
                continue
            # the term at (x, a, b, y), (x, b, y, a), (y, a, x, b) and,
            # subtracted, at (y, b, x, a) of the quadruple (x, y, a, b)
            for quad, sign in (((p, t, q, s), 1), ((p, s, t, q), 1),
                               ((s, p, q, t), 1), ((s, p, t, q), -1)):
                acc = residuals.setdefault(quad, {})
                for o, v in term.items():
                    acc[o] = acc[o] + sign * v if o in acc else sign * v
    return sum(1 for acc in residuals.values() if any(acc.values()))
