"""Finite-dimensional associative unital algebras given by structure constants.

An algebra is a basis b_0..b_{dim-1} plus the sparse tensor c[i][j][k] with
b_i b_j = sum_k c[i][j][k] b_k and the coordinates of the unit.  Construction
validates associativity on all basis triples and the unit law, so anything
that survives the constructor really is an associative unital algebra.

This module is also the structure-table layer that the solver, the
decomposition and the checks share.  The product table {(i, j): {k: c}} is
the algebra's own _prod.  Each algebra keeps one lazily filled cache, _cache,
for what is derived from it: the bracket table [b_i, b_j] (_brackets), the
integer echelon form of the single-argument derivation system of each law
kind (_derivations, built once per kind) and the center's coordinates.
Cached values are ints, Fractions, bytes, dicts and tuples only, never
Elements or the algebra itself, so an algebra stays free of reference
cycles.  They are shared, not copied: callers read them and never change
them.  Element arithmetic (multiply, lie_bracket) stays independent of the
tables, for the checks that recompute from the structure constants.

A TriangularAlgebra keeps one such _cache too, filled through _cached, for
what depends on its splitting: its two corner algebras, the bimodule hom
basis and the central-coefficient systems of tau and lambda0.  Its entries
may hold Elements of the underlying algebra, which never refers back to
the TriangularAlgebra.  A corner is a FiniteAlgebra of its own, built once
per side, so its tables and center sit in its own _cache and last as long
as the triangular algebra does.
"""

from fractions import Fraction

from .linalg import RowReducer, SparseMatrix, nullspace


class MixedAlgebras(Exception):
    """Operands belong to different algebra instances."""


class FiniteAlgebra:

    __slots__ = ("dim", "basis_labels", "unit", "_prod", "_cache")

    def __init__(self, dim, basis_labels, structure, unit):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if len(basis_labels) != dim:
            raise ValueError("basis_labels length mismatch")
        self.dim = dim
        self.basis_labels = tuple(str(s) for s in basis_labels)
        prod = {}
        items = structure.items() if hasattr(structure, "items") else ((t[:3], t[3]) for t in structure)
        for (i, j, k), v in items:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure index ({i},{j},{k}) out of range")
            v = Fraction(v)
            if v == 0:
                continue
            row = prod.setdefault((i, j), {})
            if k in row:
                raise ValueError(f"duplicate structure constant at ({i},{j},{k})")
            row[k] = v
        self._prod = prod
        if len(unit) != dim:
            raise ValueError("unit length mismatch")
        self.unit = tuple(Fraction(u) for u in unit)
        self._cache = {}
        self._validate()

    def _mul_basis(self, i, j):
        return self._prod.get((i, j), {})

    def _validate(self):
        dim = self.dim
        # unit law on basis vectors
        for i in range(dim):
            left = {}
            right = {}
            for j, u in enumerate(self.unit):
                if u == 0:
                    continue
                for k, v in self._mul_basis(j, i).items():
                    left[k] = left.get(k, 0) + u * v
                for k, v in self._mul_basis(i, j).items():
                    right[k] = right.get(k, 0) + u * v
            want = {i: Fraction(1)}
            if {k: v for k, v in left.items() if v} != want:
                raise ValueError(f"unit fails on the left at basis {i}")
            if {k: v for k, v in right.items() if v} != want:
                raise ValueError(f"unit fails on the right at basis {i}")
        # associativity on all basis triples
        for i in range(dim):
            for j in range(dim):
                ij = self._mul_basis(i, j)
                for l in range(dim):
                    lhs = {}
                    for k, v in ij.items():
                        for m, w in self._mul_basis(k, l).items():
                            lhs[m] = lhs.get(m, 0) + v * w
                    rhs = {}
                    for k, v in self._mul_basis(j, l).items():
                        for m, w in self._mul_basis(i, k).items():
                            rhs[m] = rhs.get(m, 0) + v * w
                    if {m: v for m, v in lhs.items() if v} != {m: v for m, v in rhs.items() if v}:
                        raise ValueError(f"not associative at basis triple ({i},{j},{l})")

    def structure_items(self):
        """Structure constants as a sorted list of (i, j, k, value)."""
        out = []
        for (i, j), row in self._prod.items():
            for k, v in row.items():
                out.append((i, j, k, v))
        out.sort(key=lambda t: t[:3])
        return out

    def element(self, coords):
        return Element(self, coords)

    def basis_element(self, i):
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Element(self, coords)

    def zero(self):
        return Element(self, [Fraction(0)] * self.dim)

    def unit_element(self):
        return Element(self, self.unit)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim})"


class Element:
    """An algebra element as a coordinate vector over the basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length mismatch")
        self.algebra = algebra
        self.coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise MixedAlgebras("operands from different algebras")

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        self._check(other)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coords])

    def scale(self, s):
        s = Fraction(s)
        return Element(self.algebra, [s * a for a in self.coords])

    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def __repr__(self):
        alg = self.algebra
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            parts.append(alg.basis_labels[i] if c == 1 else f"{c}*{alg.basis_labels[i]}")
        return " + ".join(parts) if parts else "0"


def multiply(x, y):
    """Product x·y via the structure tensor."""
    x._check(y)
    alg = x.algebra
    out = [Fraction(0)] * alg.dim
    for i, xi in enumerate(x.coords):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coords):
            if yj == 0:
                continue
            s = xi * yj
            for k, v in alg._mul_basis(i, j).items():
                out[k] += s * v
    return Element(alg, out)


def lie_bracket(x, y):
    """[x, y] = xy - yx."""
    return multiply(x, y) - multiply(y, x)


def _combine(terms):
    """sum of c*row over (c, row) pairs of sparse rows, zeros dropped.

    A value with coefficient 1 that meets no other term is stored as it
    is: Fractions are immutable, so the result may share it."""
    out = {}
    for c, row in terms:
        for k, v in row.items():
            if c != 1:
                v = c * v
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


def _cached(alg, key, build):
    value = alg._cache.get(key)
    if value is None:
        value = alg._cache[key] = build(alg)
    return value


def _bracket_table(alg):
    prod = alg._prod
    tab = {}
    for i, j in sorted(prod.keys() | {(j, i) for i, j in prod}):
        row = _combine([(1, prod.get((i, j), {})), (-1, prod.get((j, i), {}))])
        if row:
            tab[(i, j)] = row
    return tab


def _brackets(alg):
    """The bracket table {(i, j): {k: c}} of [b_i, b_j], nonzero rows only,
    in lexicographic (i, j) order."""
    return _cached(alg, "brackets", _bracket_table)


def _table(alg, lie):
    """The table of the law kind: brackets if lie, else the products."""
    return _brackets(alg) if lie else alg._prod


def _identity_rows(tab, dim, a, c):
    """The derivation identity d(b_a o b_c) - d(b_a) o b_c - b_a o d(b_c),
    o read from tab, over the unknowns d[a'][k] (flat a'*dim + k, with
    d(b_a') = sum_k d[a'][k] b_k): one (q, {unknown: coefficient}) row per
    output coordinate q, ascending, zero rows left out."""
    rows = {}

    def put(q, col, v):
        row = rows.setdefault(q, {})
        row[col] = row[col] + v if col in row else v

    for p, v in tab.get((a, c), {}).items():
        for q in range(dim):
            put(q, p * dim + q, v)
    for k in range(dim):
        for q, v in tab.get((k, c), {}).items():
            put(q, a * dim + k, -v)
        for q, v in tab.get((a, k), {}).items():
            put(q, c * dim + k, -v)
    out = []
    for q in sorted(rows):
        row = {col: v for col, v in rows[q].items() if v}
        if row:
            out.append((q, row))
    return out


def _derivation_system(alg, lie):
    """Echelon form of the single-argument derivation law, in integers.

    The identity rows at all basis pairs (a, c), o the bracket or the
    product, reduced.  Returns (zero, rows).  An echelon row with one entry
    only says that its column vanishes: zero[col] is 1 for those columns
    and 0 elsewhere.  rows are the other echelon rows, in pivot order, as
    (columns, values) pairs with the columns ascending (pivot first) and
    the RowReducer's gcd-normalized integer values (pivot positive): each
    is an integer multiple of its RREF row.
    """
    dim = alg.dim
    tab = _table(alg, lie)
    red = RowReducer(dim * dim)
    for a in range(dim):
        for c in range(dim):
            for _, row in _identity_rows(tab, dim, a, c):
                red.add_fraction_row(row)
    rows = [tuple(zip(*sorted(row.items()))) for row in red.pivrows]
    zero = {cols[0] for cols, _ in rows if len(cols) == 1}
    return (bytes(c in zero for c in range(dim * dim)),
            tuple(sorted(row for row in rows if len(row[0]) > 1)))


def _derivations(alg, lie):
    """_derivation_system(alg, lie), built once per algebra and law kind."""
    return _cached(alg, ("derivations", lie), lambda a: _derivation_system(a, lie))


def center_basis(alg):
    """Canonical basis of {z : [z, b_i] = 0 for every basis element}.

    Assembles the stacked adjoint-action matrix (one row per basis element
    and output coordinate) from the bracket table and returns its nullspace
    as Elements.
    """
    # the cache holds coordinates, not Elements: an Element refers back to
    # its algebra, and that cycle would keep every algebra alive until the
    # cyclic garbage collector runs
    return [Element(alg, vec) for vec in _cached(alg, "center", _center_coords)]


def _center_coords(alg):
    dim = alg.dim
    # row (i, k): sum_j z_j [b_j, b_i]_k = 0
    entries = [(i * dim + k, j, v)
               for (j, i), row in _brackets(alg).items() for k, v in row.items()]
    return tuple(nullspace(SparseMatrix(dim * dim, dim, entries)))


def is_commutative(alg):
    return not _brackets(alg)
