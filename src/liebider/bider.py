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
echelon rows of the derivation system and their column index.  solve_space
reads the kernels of that system and of the two-sided slice system off
their echelon rows as integer vectors, through linalg.integer_kernel, so
everything stays in ints until each map is divided by its trailing entry,
the one step that makes Fractions.  A one-sided law's maps are shifted
copies of the derivation basis, so each derivation is divided by its
trailing entry once and then shifted to every fixed index.  The
two-sided slice system goes through linalg.reduce_rows, which reduces
no row of a component of columns that is already full.
lemma31_failures sweeps the four-term identity of Lemma 3.1 over every
basis quadruple on the bracket table; lemma31_residual is the
Element-arithmetic reference it is tested against.
"""

import enum
from fractions import Fraction

from .algebra import (Element, _brackets, _combine, _derivation_columns, _derivations,
                      _factor_index, _identity_rows, _table, lie_bracket, multiply)
from .linalg import SparseMatrix, integer_kernel, reduce_rows


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
    by basis pair for code that works slice by slice.
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
            if type(v) is not Fraction:
                v = Fraction(v)
            if v == 0:
                continue
            store[(i * dim + j) * dim + k] = v
        self._flat = store

    @classmethod
    def from_flat(cls, algebra, vec):
        if len(vec) != algebra.dim ** 3:
            raise ValueError("flat vector length mismatch")
        flat = {f: Fraction(v) for f, v in enumerate(vec) if v}
        return cls._of(algebra, {f: v for f, v in flat.items() if v})

    @classmethod
    def _of(cls, algebra, flat):
        """Wrap a {flat index: nonzero Fraction} dict as is, without checks."""
        phi = cls.__new__(cls)
        phi.algebra = algebra
        phi._flat = flat
        return phi

    def flat(self):
        vec = [Fraction(0)] * self.algebra.dim ** 3
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
        zero = Fraction(0)
        return Element(self.algebra, [self._flat.get(base + k, zero) for k in range(dim)])

    def __call__(self, x, y):
        """Evaluate φ(x, y) by bilinear extension."""
        if x.algebra is not self.algebra or y.algebra is not self.algebra:
            raise ValueError("arguments from a different algebra")
        dim = self.algebra.dim
        xc, yc = x.coords, y.coords
        out = [Fraction(0)] * dim
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
        return BilinearMap._of(self.algebra, {f: v for f, v in out.items() if v})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = Fraction(s)
        return BilinearMap._of(self.algebra, {f: s * v for f, v in self._flat.items()} if s else {})

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
    Σ x[l][s]·D_s, D_s placed at l, over the integer derivation basis D_s
    (from the algebra's cached derivation system).  A one-sided law leaves
    x free: its kernel is every unit vector (l, s).  A two-sided law cuts x
    out by a system over the dim·nd slice coordinates, far smaller than the
    naive dim³ system: one row per fixed index l and echelon row of the
    derivation system, which is zero unless the echelon row has an entry at
    some (a, k) with D_s(b_l) nonzero at k for some s.  The echelon rows are
    read through their cached column index (algebra._derivation_columns),
    so only the rows that meet l are built.

    No dim³ reduction follows: x is nonzero at its last free column (l, s)
    and 0 at the other free ones, D_s is m_s at its last nonzero column f_s
    and 0 at the other free ones, and (l, s) → (l, f_s) keeps the column
    order for a fixed l.  So each map, divided by its last entry, is a
    canonical kernel vector of nullspace(constraint_matrix(alg, law)), and
    sorting by last column orders them (only lie-deriv-1, whose l is the
    middle index, interleaves).  Maps are sparse {flat index: Fraction}
    dicts in ascending index order.
    """
    dim = alg.dim
    zero, rows = _derivations(alg, law.lie)
    pivots = {cols[0] for cols, _ in rows}.union(c for c, z in enumerate(zero) if z)
    derivs = integer_kernel([(cols[0], dict(zip(cols, vals))) for cols, vals in rows],
                            pivots, dim * dim)
    nd = len(derivs)
    first, second = law.slots
    # D_s(b_a)_k lands at l·l_step + a·a_step + k: the fixed index l is the
    # first tensor index, except for lie-deriv-1; either way the placing
    # keeps the order of D_s's entries, so its last entry m_s stays last
    l_step, a_step = (dim, dim * dim) if first and not second else (dim * dim, dim)
    placed = [sorted((flat // dim * a_step + flat % dim, v) for flat, v in d.items())
              for d in derivs]
    if first != second:
        # the kernel is every unit vector (l, s), and its map is D_s
        # shifted by l·l_step: each D_s is divided by m_s once
        normed = [(d[-1][0], [(off, Fraction(v, d[-1][1])) for off, v in d]) for d in placed]
        maps = [(base + last, {base + off: q for off, q in d})
                for base in range(0, dim * l_step, l_step) for last, d in normed]
    else:
        red = reduce_rows(_slice_rows(_derivation_columns(alg, law.lie), zero, derivs, dim),
                          dim * nd)
        maps = []
        quotients = {}  # (v, m) -> Fraction(v, m): the maps share few distinct values
        for x in integer_kernel(zip(red.pivcols, red.pivrows), set(red.pivcols), dim * nd):
            vec = {}
            for col, c in x.items():
                l, s = divmod(col, nd)
                base = l * l_step
                for off, v in placed[s]:
                    f = base + off
                    vec[f] = vec[f] + c * v if f in vec else c * v
            last = max(vec)
            m = vec[last]
            maps.append((last, {f: quotients.get((v, m)) or quotients.setdefault((v, m), Fraction(v, m))
                                for f, v in sorted(vec.items()) if v}))
    maps.sort(key=lambda pair: pair[0])
    return [BilinearMap._of(alg, vec) for _, vec in maps]


def _slice_rows(index, zero, derivs, dim):
    """The rows of the two-sided slice system, in integers: every
    second-index slice Σ_s x[l][s]·D_s must itself be a derivation.  For
    each fixed index l and echelon row of the derivation system (zero
    columns as the row ((col, 1),)), the row sums v·D_s[l][k] over its
    entries v at (a, k) into column a·nd + s.  The echelon rows are read
    through their column index, so a row is built only where it meets
    some k with D_s[l] nonzero at k; the rest are zero."""
    nd = len(derivs)
    at = [{} for _ in range(dim)]  # at[l][k] = [(s, D_s[l][k])]
    for s, d in enumerate(derivs):
        for flat, w in d.items():
            l, k = divmod(flat, dim)
            at[l].setdefault(k, []).append((s, w))
    for by_k in at:
        sums = {}  # pivot of the echelon row -> its row at this l
        for k, terms in by_k.items():
            for a in range(dim):
                col = a * dim + k
                for p, v in ((col, 1),) if zero[col] else index.get(col, ()):
                    acc = sums.setdefault(p, {})
                    for s, w in terms:
                        c = a * nd + s
                        acc[c] = acc[c] + v * w if c in acc else v * w
        for p in sorted(sums):
            out = {c: v for c, v in sums[p].items() if v}
            if out:
                yield out


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
    g = tuple(Fraction(c) for c in g)
    h = tuple(Fraction(c) for c in h)
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
            term = _combine([(c * w, br[(k, m)]) for k, c in val.items()
                             for m, w in row.items() if (k, m) in br])
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
