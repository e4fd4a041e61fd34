"""Bilinear maps and the linear systems cut out by derivation-style laws.

A bilinear map is the rank-3 tensor t[i][j][k] with φ(b_i, b_j) = Σ_k
t[i][j][k] b_k.  Each law (Lie biderivation, associative biderivation, Lie
derivation in one argument) is a homogeneous linear condition on the tensor,
so the full solution space is a nullspace.  constraint_matrix assembles the
naive system over all dim³ unknowns; solve_space exploits the slice
structure of the laws (each one says certain dim²-slices are single-argument
derivations), keeps every vector a sparse {flat index: value} dict up to the
stored maps, and rewrites its answer in the canonical kernel basis, so both
routes agree exactly.
"""

import enum
from fractions import Fraction

from .algebra import Element, lie_bracket, multiply
from .linalg import RowReducer, SparseMatrix, canonical_basis, nullspace_from_reducer


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


def _pair_table(alg, lie):
    """Products (or brackets) of basis pairs as {(i,j): {k: coeff}}."""
    dim = alg.dim
    tab = {}
    for i in range(dim):
        for j in range(dim):
            if lie:
                row = dict(alg._mul_basis(i, j))
                for k, v in alg._mul_basis(j, i).items():
                    nv = row.get(k, Fraction(0)) - v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
            else:
                row = dict(alg._mul_basis(i, j))
            if row:
                tab[(i, j)] = row
    return tab


def _slot_rows(dim, tab, i, j, l, first_slot):
    """Constraint rows (one per output coordinate) for one law identity.

    first_slot: φ(x∘z, y) − φ(x,y)∘z − x∘φ(z,y) at x=b_i, z=b_j, y=b_l.
    second slot: φ(x, y∘z) − φ(x,y)∘z − y∘φ(x,z) at x=b_i, y=b_j, z=b_l.
    ∘ is the bracket or the product depending on the table.  Returns
    {q: {flat unknown: coeff}} with zero rows omitted.
    """
    rows = {}

    def put(q, col, v):
        rows.setdefault(q, {})
        rows[q][col] = rows[q].get(col, Fraction(0)) + v

    if first_slot:
        for p, v in tab.get((i, j), {}).items():
            base = (p * dim + l) * dim
            for q in range(dim):
                put(q, base + q, v)
        for k in range(dim):
            row = tab.get((k, j))
            if row:
                base = (i * dim + l) * dim + k
                for q, v in row.items():
                    put(q, base, -v)
            row = tab.get((i, k))
            if row:
                base = (j * dim + l) * dim + k
                for q, v in row.items():
                    put(q, base, -v)
    else:
        for p, v in tab.get((j, l), {}).items():
            base = (i * dim + p) * dim
            for q in range(dim):
                put(q, base + q, v)
        for k in range(dim):
            row = tab.get((k, l))
            if row:
                base = (i * dim + j) * dim + k
                for q, v in row.items():
                    put(q, base, -v)
            row = tab.get((j, k))
            if row:
                base = (i * dim + l) * dim + k
                for q, v in row.items():
                    put(q, base, -v)
    return {q: {c: v for c, v in r.items() if v} for q, r in rows.items()}


def constraint_matrix(alg, law):
    """Full linear system over the dim³ tensor unknowns for the given law.

    One block of rows per law identity (first slot, then second slot for the
    two-sided laws), within a block one row per lexicographic basis triple
    and output coordinate.  The kernel is exactly the set of maps obeying
    the law.
    """
    dim = alg.dim
    tab = _pair_table(alg, law.lie)
    first, second = law.slots
    entries = []
    nrow = 0
    for slot_first in ([True] if not second else ([True, False] if first else [False])):
        for i in range(dim):
            for j in range(dim):
                for l in range(dim):
                    rows = _slot_rows(dim, tab, i, j, l, slot_first)
                    for q in range(dim):
                        for col, v in rows.get(q, {}).items():
                            entries.append((nrow + q, col, v))
                        # row index advances even when the row is empty
                    nrow += dim
    return SparseMatrix(nrow, dim ** 3, entries)


def _derivation_system(alg, lie):
    """RREF rows and kernel basis of the single-argument derivation law.

    Unknowns d[a][k] flat a·dim+k with d(b_a) = Σ_k d[a][k] b_k; constraint
    d(b_a ∘ b_c) = d(b_a)∘b_c + b_a∘d(b_c) at all pairs.  Returns (echelon
    rows as dicts, kernel basis as flat tuples).
    """
    dim = alg.dim
    tab = _pair_table(alg, lie)
    red = RowReducer(dim * dim)
    for a in range(dim):
        for c in range(dim):
            rows = {}
            for p, v in tab.get((a, c), {}).items():
                for q in range(dim):
                    rows.setdefault(q, {})
                    rows[q][p * dim + q] = rows[q].get(p * dim + q, 0) + v
            for k in range(dim):
                row = tab.get((k, c))
                if row:
                    for q, v in row.items():
                        rows.setdefault(q, {})
                        rows[q][a * dim + k] = rows[q].get(a * dim + k, 0) - v
                row = tab.get((a, k))
                if row:
                    for q, v in row.items():
                        rows.setdefault(q, {})
                        rows[q][c * dim + k] = rows[q].get(c * dim + k, 0) - v
            for q in sorted(rows):
                r = {c2: v for c2, v in rows[q].items() if v}
                if r:
                    red.add_fraction_row(r)
    kernel = nullspace_from_reducer(red, dim * dim)
    return red.echelon_rows(), kernel


def solve_space(alg, law):
    """Canonical basis of all bilinear maps satisfying the law.

    Uses the slice structure: a slot obeys its law iff every slice of the
    tensor along that slot's fixed index is a single-argument derivation.
    The two-sided laws reduce to a system over slice coordinates in the
    derivation space, far smaller than the naive dim³ system.  Both routes
    emit sparse {flat index: value} vectors, canonicalized (still sparse) to
    equal nullspace(constraint_matrix(alg, law)) and stored as the maps.
    """
    dim = alg.dim
    ech, deriv = _derivation_system(alg, law.lie)
    slices = []  # slices[s][a] = {k: v}: d_s(b_a) = Σ_k v·b_k
    for d in deriv:
        sl = [dict() for _ in range(dim)]
        for flat, v in enumerate(d):
            if v:
                a, k = divmod(flat, dim)
                sl[a][k] = v
        slices.append(sl)
    nd = len(slices)
    first, second = law.slots
    vectors = []
    if first != second:
        # one-sided law: independent derivation slices along the free index
        for l in range(dim):
            for sl in slices:
                vec = {}
                for a, part in enumerate(sl):
                    base = (a * dim + l) * dim if first else (l * dim + a) * dim
                    vec.update((base + k, v) for k, v in part.items())
                vectors.append(vec)
    elif nd:
        # t[i][j][k] = Σ_s x[i][s]·D_s[j][k]; impose that every second-index
        # slice is itself a derivation, via the echelon rows of the system
        grouped = []  # each echelon row as [(a, [(k, v)])]
        for row in ech:
            parts = {}
            for flat, v in row.items():
                a, k = divmod(flat, dim)
                parts.setdefault(a, []).append((k, v))
            grouped.append(list(parts.items()))
        red = RowReducer(dim * nd)
        for l in range(dim):
            by_k = {}  # k -> [(s, D_s[l][k])]
            for s, sl in enumerate(slices):
                for k, w in sl[l].items():
                    by_k.setdefault(k, []).append((s, w))
            for parts in grouped:
                out = {}
                for a, part in parts:
                    acc = {}
                    for k, v in part:
                        for s, w in by_k.get(k, ()):
                            acc[s] = acc[s] + v * w if s in acc else v * w
                    for s, c in acc.items():
                        if c:
                            out[a * nd + s] = c
                if out:
                    red.add_fraction_row(out)
        for x in nullspace_from_reducer(red, dim * nd):
            vec = {}
            for flat, c in enumerate(x):
                if c:
                    a, s = divmod(flat, nd)
                    for j, part in enumerate(slices[s]):
                        base = (a * dim + j) * dim
                        for k, v in part.items():
                            vec[base + k] = vec.get(base + k, 0) + c * v
            vectors.append(vec)
    return [BilinearMap._of(alg, vec) for vec in canonical_basis(vectors, dim ** 3)]


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
