"""Finite-dimensional associative unital algebras given by structure constants.

An algebra is a basis b_0..b_{dim-1} plus the sparse tensor c[i][j][k] with
b_i b_j = sum_k c[i][j][k] b_k and the coordinates of the unit.  Construction
checks the unit law and then associativity on every basis triple, so anything
that survives the constructor really is an associative unital algebra.  The
associativity check runs on an integer copy of the sparse table, one left
factor at a time, and visits only the chains of nonzero products, so its cost
grows with the number of nonzero (b_i b_j) b_l and b_i (b_j b_l) terms.  The table, the
unit and every Element coordinate hold their values as linalg.exact
stores them: an int when the value is integral, as every constructor's
table is, and a Fraction only when it is not.  So the checks, the
derived tables and Element arithmetic run in ints wherever the values
allow it.

This module is also the structure-table layer that the solver, the
decomposition and the checks share.  The product table {(i, j): {k: c}} is
the algebra's own _prod.  Each algebra keeps one lazily filled cache, _cache,
for what is derived from it: the bracket table [b_i, b_j] (_brackets), the
integer echelon form of the single-argument derivation system of each law
kind (_derivations, built once per kind, from an integer copy of the table,
whose zero columns and rows the solver reads as they are) and the integer
derivation basis read off it (_derivation_basis, also once per kind), the
center's coordinates and, for decomp.py, the bracket table by right
factor, verify_decomposition's own index of the products by right factor
(b_i*b_p, and b_p*b_i negated), and the standard span S of Lie
derivations (ad(T) plus the central maps) as a linalg.SpanChecker fed
S's own generators (_standard, read by the law test), read off the
product table and the center with no identity rows to solve.  One
helper, _times_basis, builds every row of x*b_p or b_p*x over the basis
that any module needs.  The derivation identity is fed only at the pairs
that meet a generating set G, read off the table's one-term products
(_generators): the x at which a map obeys the identity against every y
form a subalgebra (by associativity, or by the Jacobi identity for the
bracket), so the rows at G span all the others.  Each identity row is
read from an index of the table by factor and output coordinate, made
once per table (_factor_index), so it visits only the nonzero products
and its terms are counted before it is built.  A row of one term only
says that its column is zero: it sets that column and is not built.
The other rows go through linalg.echelon, which builds every echelon
system here (the derivation systems, the standard span's functionals,
the center), and linalg.kernel reads each kernel off it.  Cached values
are ints, Fractions, bytes, dicts, lists and tuples only, and S's
SpanChecker, which holds only such rows; never Elements or the algebra
itself, so an algebra stays free of reference cycles.  They are shared,
not copied: callers read them and never change them.  Element
arithmetic (multiply, lie_bracket) stays
independent of the tables, for the checks that recompute from the
structure constants.

A TriangularAlgebra keeps one such _cache too, filled through _cached, for
what depends on its splitting: its two corner algebras, the bimodule hom
basis and the central systems of tau, tau_inv, lambda0 and alpha0, each
one tagged SpanChecker reduced once per nonzero right-hand side.  Its
entries hold no Element: a central system's solution is a sparse row of
the center.  A corner is a FiniteAlgebra of its own, built once per
side, so its tables and center sit in its own _cache and last as long as
the triangular algebra does.
"""

from math import lcm

from .linalg import SpanChecker, canonical_vector, echelon, exact, kernel


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
        seen = set()
        items = structure.items() if hasattr(structure, "items") else ((t[:3], t[3]) for t in structure)
        for (i, j, k), v in items:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure index ({i},{j},{k}) out of range")
            # a second entry is refused even when either value is zero
            if (i, j, k) in seen:
                raise ValueError(f"duplicate structure constant at ({i},{j},{k})")
            seen.add((i, j, k))
            v = exact(v)
            if v:
                prod.setdefault((i, j), {})[k] = v
        self._prod = prod
        if len(unit) != dim:
            raise ValueError("unit length mismatch")
        self.unit = tuple(exact(u) for u in unit)
        self._cache = {}
        self._validate()

    def _mul_basis(self, i, j):
        return self._prod.get((i, j), {})

    def _validate(self):
        # unit law on basis vectors, over the unit's support
        lefts = _times_basis(self, self.unit, True)
        rights = _times_basis(self, self.unit, False)
        for i, (left, right) in enumerate(zip(lefts, rights)):
            want = {i: 1}
            if left != want:
                raise ValueError(f"unit fails on the left at basis {i}")
            if right != want:
                raise ValueError(f"unit fails on the right at basis {i}")
        # associativity on the integer table, the table times the lcm den
        # of its denominators: both sides of (b_i b_j) b_l = b_i (b_j b_l)
        # carry two table factors, so both scale by den**2.  One left
        # factor i at a time, ascending, over the i with a nonzero b_i b_j:
        # diff[j, l, m] is coordinate m of the left side, from each
        # b_i b_j = sum c_k b_k and b_k b_l, minus the right side, from each
        # b_i b_k and the b_j b_l with a b_k term (makers[k]).  The smallest
        # (j, l) with a nonzero entry is the first failing triple.
        tab = _integer_table(self._prod)
        rows_of, makers = {}, {}
        for (j, l), row in tab.items():
            rows_of.setdefault(j, []).append((l, row))
            for k, v in row.items():
                makers.setdefault(k, []).append((j, l, v))
        none = ()
        for i in sorted(rows_of):
            diff = {}
            for j, row in rows_of[i]:
                for k, v in row.items():
                    for l, krow in rows_of.get(k, none):
                        for m, w in krow.items():
                            diff[j, l, m] = diff.get((j, l, m), 0) + v * w
            for k, irow in rows_of[i]:
                for j, l, v in makers.get(k, none):
                    for m, w in irow.items():
                        diff[j, l, m] = diff.get((j, l, m), 0) - v * w
            bad = [key for key, v in diff.items() if v]
            if bad:
                j, l, _ = min(bad)
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
        coords = [0] * self.dim
        coords[i] = 1
        return Element(self, coords)

    def zero(self):
        return Element(self, [0] * self.dim)

    def unit_element(self):
        return Element(self, self.unit)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim})"


class Element:
    """An algebra element as a coordinate vector over the basis, each
    coordinate stored by linalg.exact: an int when it is integral."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length mismatch")
        self.algebra = algebra
        # the int test inline: nearly every coordinate is one, and this is
        # the hottest constructor
        self.coords = tuple(c if type(c) is int else exact(c) for c in coords)

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
        s = exact(s)
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
    out = [0] * alg.dim
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
    is: values are immutable, so the result may share it."""
    out = {}
    for c, row in terms:
        for k, v in row.items():
            if c != 1:
                v = c * v
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


def _times_basis(alg, x, left):
    """[x*b_p for every p] as sparse rows if left, else [b_p*x], x given
    by its coordinates: the one builder of such rows, in one pass over the
    product table."""
    out = [{} for _ in range(alg.dim)]
    for (a, p), row in alg._prod.items():
        if not left:
            a, p = p, a
        c = x[a]
        if c:
            acc = out[p]
            for k, v in row.items():
                acc[k] = acc[k] + c * v if k in acc else c * v
    return [{k: v for k, v in acc.items() if v} for acc in out]


def _cached(alg, key, build):
    value = alg._cache.get(key)
    if value is None:
        value = alg._cache[key] = build(alg)
    return value


def _integer_table(tab):
    """A {key: {k: value}} table times the lcm of its denominators, as
    {key: {k: int}}."""
    den = lcm(*(v.denominator for row in tab.values() for v in row.values()))
    return {key: {k: v.numerator * (den // v.denominator) for k, v in row.items()}
            for key, row in tab.items()}


def _bracket_table(alg):
    prod = alg._prod
    tab = {}
    for i, j in sorted(prod.keys() | {(j, i) for i, j in prod}):
        row = dict(prod.get((i, j), {}))
        for k, v in prod.get((j, i), {}).items():
            row[k] = row[k] - v if k in row else -v
        row = {k: v for k, v in row.items() if v}
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


def _factor_index(tab):
    """The entries of tab by factor and output coordinate, for
    _identity_rows: (left, right) with left[a][q] the (k, (b_a o b_k)_q)
    and right[c][q] the (k, (b_k o b_c)_q) over tab's nonzero entries, k
    ascending.  Each such list is the terms that one side of the identity
    puts in the row at q, so the terms of a row are counted before it is
    built."""
    left, right = {}, {}
    for (i, j), row in sorted(tab.items()):
        for q, v in row.items():
            left.setdefault(i, {}).setdefault(q, []).append((j, v))
            right.setdefault(j, {}).setdefault(q, []).append((i, v))
    return left, right


def _identity_rows(tab, index, dim, a, c, zero=None):
    """The derivation identity d(b_a o b_c) - d(b_a) o b_c - b_a o d(b_c),
    o read from tab, over the unknowns d[a'][k] (flat a'*dim + k, with
    d(b_a') = sum_k d[a'][k] b_k): one (q, {unknown: coefficient}) row per
    output coordinate q, ascending, zero rows left out.  index is
    _factor_index(tab), made once per table by the caller, so only the
    nonzero b_k o b_c and b_a o b_k are visited.

    Row q has one term per entry of b_a o b_c and of the two lists at q in
    index.  When zero (a bytearray over the unknowns) is given, a row of
    exactly one term is not built: it only says that its unknown is 0, so
    its column is set in zero instead."""
    left, right = index
    none = {}
    prod = tab.get((a, c), none)
    by_k, by_a = right.get(c, none), left.get(a, none)
    out = []
    for q in range(dim) if prod else sorted(by_k.keys() | by_a.keys()):
        rk, ra = by_k.get(q, ()), by_a.get(q, ())
        if zero is not None and len(prod) + len(rk) + len(ra) == 1:
            zero[next(iter(prod)) * dim + q if prod else
                 a * dim + rk[0][0] if rk else c * dim + ra[0][0]] = 1
            continue
        row = {p * dim + q: v for p, v in prod.items()}
        for base, terms in ((a * dim, rk), (c * dim, ra)):
            for k, v in terms:
                col = base + k
                row[col] = row[col] - v if col in row else -v
        row = {col: v for col, v in row.items() if v}
        if row:
            out.append((q, row))
    return out


def _generators(tab, dim):
    """Indices G whose basis elements generate the algebra under the
    table's operation o, read off its one-term products.

    An index a is covered once some b_i o b_j = c·b_a, with i, j != a and
    c != 0 the only term, has both i and j covered.  The indices no such
    product reaches start in G; when the covering stalls (on a cycle of
    such products), the smallest uncovered index joins G.  Every covered
    b_a is then a product of generators.  Returns G ascending.
    """
    makers = {}  # a -> [(i, j)] over the one-term products c·b_a = b_i o b_j
    for (i, j), row in tab.items():
        if len(row) == 1:
            (a,) = row
            if a != i and a != j:
                makers.setdefault(a, []).append((i, j))
    gens = [a for a in range(dim) if a not in makers]
    covered = set(gens)
    while len(covered) < dim:
        new = [a for a, pairs in makers.items() if a not in covered
               and any(i in covered and j in covered for i, j in pairs)]
        if not new:
            new = [min(set(range(dim)) - covered)]
            gens.extend(new)
        covered.update(new)
    return sorted(gens)


def _derivation_system(alg, lie):
    """Echelon form of the single-argument derivation law, in integers.

    The identity rows at the basis pairs (a, c) with a in the _generators G
    of the table, o the bracket or the product; for the bracket, the pairs
    a < c with a or c in G (the (c, a) rows are the (a, c) rows negated,
    and the (a, a) rows vanish).  These span every identity row: for a
    linear d, the x with d(x o y) = d(x) o y + x o d(y) for every y form a
    subspace closed under o, by associativity for the product and by the
    Jacobi identity for the bracket.  It holds G, so it is the whole
    algebra, and a d that meets the G rows is a derivation.  The unique
    reduced echelon form is therefore that of all dim² pairs.  The rows
    are built from an integer copy of the table, the table times the lcm
    of its denominators: each identity term carries exactly one table
    factor, so every row scales by that one factor and its span is
    unchanged.

    Most rows have one term, counted off _factor_index's per-coordinate
    lists before the row is built, and only say that its column is zero:
    _identity_rows sets that column and builds no row.  The other rows go
    to linalg.echelon with those zero columns, and its (zero, rows) is
    returned.
    """
    dim = alg.dim
    tab = _integer_table(_table(alg, lie))
    index = _factor_index(tab)
    gens = set(_generators(tab, dim))
    zero = bytearray(dim * dim)
    rows = [row for a in range(dim) for c in range(a + 1 if lie else 0, dim)
            if a in gens or lie and c in gens
            for _, row in _identity_rows(tab, index, dim, a, c, zero)]
    return echelon(rows, dim * dim, zero)


def _derivations(alg, lie):
    """_derivation_system(alg, lie), built once per algebra and law kind."""
    return _cached(alg, ("derivations", lie), lambda a: _derivation_system(a, lie))


def _derivation_kernel(alg, lie):
    """The integer derivation basis D_s of the law kind, read off
    _derivations(alg, lie) by linalg.kernel: one {col: int} vector per
    free column, ascending, nonzero at that column and 0 at the other free
    ones."""
    return kernel(_derivations(alg, lie), alg.dim * alg.dim)


def _derivation_basis(alg, lie):
    """_derivation_kernel(alg, lie), built once per algebra and law kind."""
    return _cached(alg, ("derivation basis", lie), lambda a: _derivation_kernel(a, lie))


def _standard_span(alg):
    """The standard span S of Lie derivations, as a linalg.SpanChecker
    over the dim² coordinates of a linear map, fed S's own generators.

    S is ad(T) + {x -> f(x)*z : z central, f vanishing on [T, T]}.  Every
    element of S is a Lie derivation, so S lies in the Lie derivation
    space W; the two are equal wherever every Lie derivation is a
    derivation plus a central map and every derivation is inner.  The
    generators are ad(b_x), one per x, and f(x)*z for each f of a kernel
    basis and each z of the center basis.  ad(b_x) is read off the product
    table as b_x*b_a - b_a*b_x at column a*dim + k, not off the cached
    bracket table.  This is an invariant: S is built at the first
    decompose, which may come after the cached bracket table has been
    filled, so reading alg._prod alone is what keeps a fault in that table
    out of the law test.  The f come from one echelon system over the
    brackets [b_x, b_a], x < a, and z from the center cache.  The table is
    scaled to integers by the lcm of its denominators, which leaves every
    span as it is; the checker clears each f(x)*z of its own."""
    dim = alg.dim
    brackets = {}  # (x, a) with x < a -> [b_x, b_a], from both products
    for (i, j), row in _integer_table(alg._prod).items():
        if i != j:
            key, s = ((i, j), 1) if i < j else ((j, i), -1)
            acc = brackets.setdefault(key, {})
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + s * v
    span = [{} for _ in range(dim)]  # ad(b_x)
    for (x, a), row in brackets.items():
        for k, v in row.items():
            if v:
                span[x][a * dim + k] = v
                span[a][x * dim + k] = -v
    functionals = kernel(echelon(({k: v for k, v in row.items() if v}
                                  for row in brackets.values()), dim), dim)
    for z in _cached(alg, "center", _center_coords):
        span.extend({a * dim + k: v * c for a, v in f.items() for k, c in enumerate(z) if c}
                    for f in functionals)
    return SpanChecker(span, dim * dim)


def _standard(alg):
    """_standard_span(alg), built once per algebra."""
    return _cached(alg, "standard span", _standard_span)


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
    # row (i, k): sum_j z_j [b_j, b_i]_k = 0, on the integer bracket table
    # (one common factor scales every row, so the kernel is unchanged)
    rows = {}
    for (j, i), row in _integer_table(_brackets(alg)).items():
        for k, v in row.items():
            rows.setdefault((i, k), {})[j] = v
    return tuple(canonical_vector(vec, alg.dim)
                 for vec in kernel(echelon(rows.values(), alg.dim), alg.dim))


def is_commutative(alg):
    return not _brackets(alg)
