"""Exact sparse linear algebra over the rationals.

Everything downstream (center computation, constraint solving, the
decomposition) reduces to computing reduced row echelon forms, nullspace
bases, and canonical solutions of sparse linear systems with rational
entries.  The elimination engine keeps rows as gcd-normalized integer
dictionaries and maintains a fully inter-reduced pivot set, so adding a row
costs one elimination pass and the final form is the unique RREF.
reduce_rows feeds a whole system to one such reducer and passes over
every row whose connected component of columns already has a pivot in
each of its columns: that row is dependent, so the reducer ends as
feeding every row would leave it.  One reader, integer_kernel, reads
every kernel off such a form; nullspace_from_reducer is its rational
view.

Every value the library stores, here and in the other modules, follows
one rule, exact(): an int when it is integral, a Fraction only when it
is not.  Both are numbers.Rational and compare, hash and print alike, so
the rule changes no result and no printed byte, while the integral
values, nearly all of them, stay in int arithmetic.  No floating point
anywhere: the library has no true division, so an int never turns into
a float.
"""

from fractions import Fraction
from math import gcd, lcm


def exact(value, den=1):
    """value / den as the library stores it: an int when the quotient is
    integral, else a Fraction in lowest terms.  value is anything
    Fraction() accepts (an int, a Fraction, a float, a string) and den a
    nonzero int; the result is never a float or a bool."""
    if type(value) is int:
        if den == 1:
            return value
    else:
        value = Fraction(value)
        value, den = value.numerator, value.denominator * den
    q, r = divmod(value, den)
    return q if not r else Fraction(value, den)


class Inconsistent(Exception):
    """Raised by solve() when the system has no solution.

    pivot_row is the index (in the reduced form) of the row whose only
    surviving entry sits in the augmented column.
    """

    def __init__(self, pivot_row):
        self.pivot_row = pivot_row
        super().__init__(f"inconsistent system: contradiction at reduced row {pivot_row}")


class SparseMatrix:
    """Immutable sparse matrix: entry list sorted by (row, col), no zeros."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        seen = set()
        norm = []
        for (r, c, v) in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
            v = exact(v)
            if v:
                norm.append((r, c, v))
        norm.sort(key=lambda e: (e[0], e[1]))
        self.rows = rows
        self.cols = cols
        self.entries = tuple(norm)

    def row_dicts(self):
        """Rows as {col: value} dicts, empty rows included."""
        out = [dict() for _ in range(self.rows)]
        for (r, c, v) in self.entries:
            out[r][c] = v
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def _normalize(row):
    """gcd-normalize an integer row dict in place; pivot (min col) made positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v if v >= 0 else -v)
        if g == 1:
            break
    piv = row[min(row)]
    if g > 1:
        if piv < 0:
            g = -g
        for c in row:
            row[c] //= g
    elif piv < 0:
        for c in row:
            row[c] = -row[c]
    return row


class RowReducer:
    """Incremental RREF over integer rows.

    Pivot rows are kept fully inter-reduced: a pivot row's support contains
    its own pivot column and otherwise only non-pivot columns.  Hence an
    incoming row is reduced by a single pass over the pivot columns in its
    support, and installing a new pivot only touches rows listed in the
    column index.  Single-threaded and input-order driven, so results are
    reproducible by construction.
    """

    __slots__ = ("ncols", "pivrows", "pivcols", "_row_of_col", "_col_index")

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivrows = []          # list of {col: int}, gcd-normalized
        self.pivcols = []          # pivot column of each row
        self._row_of_col = {}      # pivot col -> row index
        self._col_index = {}       # col -> set of row indices with support there

    def reduce_only(self, row):
        """Reduce an integer row dict against the pivot set without installing it."""
        # pivot rows hold no other pivot columns, so the initial hit list is
        # complete; eliminations only ever add non-pivot columns
        hits = [c for c in row if c in self._row_of_col]
        for n, c in enumerate(hits):
            rc = row.get(c)
            if not rc:
                continue
            pr = self.pivrows[self._row_of_col[c]]
            pc = pr[c]
            # row := pc*row - rc*pr; the whole row must scale, not only the
            # columns pr touches
            if pc != 1:
                for cc in row:
                    row[cc] *= pc
            for cc, vv in pr.items():
                nv = row.get(cc, 0) - vv * rc
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
            if n % 8 == 7:
                _normalize(row)  # keep integers small on long reduction chains
        return _normalize(row)

    def add_row(self, row):
        """Reduce and, if independent, install an integer row dict.

        Returns the new pivot column, or None when the row was dependent.
        The row dict is consumed.
        """
        row = self.reduce_only(row)
        if not row:
            return None
        piv = min(row)
        ri = len(self.pivrows)
        # eliminate the new pivot column from every older row that has it.
        # Only row's columns can enter or leave such a row, so the column
        # index is updated there as each one changes; piv leaves every
        # holder, so its entry empties and goes
        index = self._col_index
        holders = index.get(piv)
        if holders:
            pv = row[piv]
            for rj in sorted(holders):
                old = self.pivrows[rj]
                oc = old[piv]
                # old := pv*old - oc*row, scaling all of old first
                if pv != 1:
                    for cc in old:
                        old[cc] *= pv
                for cc, vv in row.items():
                    nv = old.get(cc, 0) - vv * oc
                    if nv:
                        if cc not in old:
                            index.setdefault(cc, set()).add(rj)
                        old[cc] = nv
                    else:
                        del old[cc]
                        held = index[cc]
                        held.discard(rj)
                        if not held:
                            del index[cc]
                _normalize(old)
        self.pivrows.append(row)
        self.pivcols.append(piv)
        self._row_of_col[piv] = ri
        for cc in row:
            index.setdefault(cc, set()).add(ri)
        return piv

    @staticmethod
    def integer_row(row):
        """A {col: Fraction or int} dict times the lcm of its denominators,
        as {col: int} without zeros."""
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}

    def add_fraction_row(self, row):
        """add_row for a {col: Fraction or int} dict: clears denominators
        first."""
        return self.add_row(self.integer_row(row))

    @property
    def rank(self):
        return len(self.pivrows)

    def echelon_rows(self):
        """Final RREF rows as {col: value} with pivot 1, sorted by pivot col."""
        order = sorted(range(len(self.pivrows)), key=lambda i: self.pivcols[i])
        out = []
        for i in order:
            row = self.pivrows[i]
            pv = row[self.pivcols[i]]
            out.append({c: exact(v, pv) for c, v in row.items()})
        return out

    def sorted_pivcols(self):
        return sorted(self.pivcols)


def reduce_rows(rows, ncols):
    """A RowReducer fed the integer row dicts of rows in order, less the
    rows that cannot add rank.

    The columns fall into connected components, two columns joined when
    some row meets both: a union-find over the row supports, grown as the
    rows arrive.  Elimination never mixes rows of different components,
    so a component's pivots come from its own rows and lie in its own
    columns.  Once it has a pivot in every column, its rows span every
    vector on those columns, and a later row inside it is dependent: such
    a row is dropped without being reduced.  Feeding it would leave the
    reducer as it was, so the result is the reducer that feeding every row
    gives.  A row that brings a new column is always fed.  rows may be any
    iterable; each row is consumed or dropped when it is reached.
    """
    red = RowReducer(ncols)
    parent = [-1] * ncols  # parent column, a root its own, -1 before a row meets it
    size = [0] * ncols     # at a root: the columns of its component
    pivots = [0] * ncols   # and its pivots
    for row in rows:
        root = -1
        for c in row:
            r = parent[c]
            if r < 0:
                parent[c] = r = c
                size[c] = 1
            else:
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
            if root < 0:
                root = r
            elif r != root:
                # the smaller component joins the larger
                if size[r] > size[root]:
                    root, r = r, root
                parent[r] = root
                size[root] += size[r]
                pivots[root] += pivots[r]
        if root >= 0 and pivots[root] < size[root] and red.add_row(row) is not None:
            pivots[root] += 1
    return red


def _reduce_matrix(m):
    red = RowReducer(m.cols)
    for row in m.row_dicts():
        if row:
            red.add_fraction_row(row)
    return red


def rref(m):
    """Unique reduced row echelon form of m, with its pivot-column list.

    Zero rows are dropped; pivot columns come back strictly increasing.
    """
    red = _reduce_matrix(m)
    pivs = red.sorted_pivcols()
    entries = []
    for i, row in enumerate(red.echelon_rows()):
        for c, v in row.items():
            entries.append((i, c, v))
    return SparseMatrix(len(pivs), m.cols, entries), pivs


def nullspace(m):
    """Canonical basis of the kernel of m.

    One vector per free column, in ascending free-column order: the free
    variable is set to 1, the other free variables to 0, and the pivot
    variables back-solved.  Returns tuples of exact() values.
    """
    red = _reduce_matrix(m)
    return nullspace_from_reducer(red, m.cols)


def nullspace_from_reducer(red, ncols):
    """nullspace() of the rows reduced so far: the integer_kernel of the
    reducer's echelon form, each vector divided by its entry at its free
    column."""
    basis = []
    for vec in integer_kernel(zip(red.pivcols, red.pivrows), set(red.pivcols), ncols):
        m = vec[max(vec)]
        v = [0] * ncols
        for c, x in vec.items():
            v[c] = exact(x, m)
        basis.append(tuple(v))
    return basis


def integer_kernel(rows, pivots, ncols):
    """Kernel basis of an integer echelon system, read off its rows.

    rows are (pivot p, {col: int}) pairs of a fully inter-reduced echelon
    form, pivots every pivot column.  One {col: int} vector per free column
    f, ascending: 1 at f, 0 at the other free columns and -row[f]/row[p] at
    each pivot p, all times the lcm m of those row[p].  Each such p is
    below f, so m at f is the last nonzero entry.
    """
    return _kernel(rows, pivots, ncols, range(ncols))


def annihilator(rows, ncols):
    """The echelon rows of the annihilator of the span of rows, the dual
    of integer_kernel.

    rows are {col: int} vectors.  Returns the {col: int} rows r with
    r.s = 0 for every s in the span, as gcd-normalized integer multiples
    of its unique reduced echelon form, pivot (the least column) positive,
    in descending pivot order.  The span is reduced in reversed column
    order, where the annihilator is the kernel of its echelon form:
    integer_kernel's vectors there, each with its last entry, m > 0, at
    its free column, are its rows once the columns are turned back, and
    that entry is then the pivot.
    """
    last = ncols - 1
    red = reduce_rows(({last - c: v for c, v in row.items()} for row in rows), ncols)
    return [_normalize(vec) if len(vec) > 1 else vec
            for vec in _kernel(zip(red.pivcols, red.pivrows), set(red.pivcols), ncols,
                               range(last, -1, -1))]


def _kernel(rows, pivots, ncols, names):
    """integer_kernel's vectors with each column c named names[c]."""
    solved = {}  # free column f -> [(pivot p, -row[f], row[p])]
    for p, row in rows:
        pv = row[p]
        for c, v in row.items():
            if c != p:
                solved.setdefault(c, []).append((p, -v, pv))
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            entries = solved.get(f)
            if entries is None:
                kernel.append({names[f]: 1})
                continue
            m = lcm(*(pv for _, _, pv in entries))
            kernel.append({names[p]: v * (m // pv) for p, v, pv in entries} | {names[f]: m})
    return kernel


def solve(m, rhs):
    """Canonical solution of m·x = rhs with all free variables zero.

    Raises Inconsistent when no solution exists.  Works on the augmented
    system so the contradiction row is available for the error report.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = m.cols  # augmented column index
    red = RowReducer(m.cols + 1)
    rows = m.row_dicts()
    for i, row in enumerate(rows):
        if rhs[i]:
            row[aug] = exact(rhs[i])
        if row:
            red.add_fraction_row(row)
    pivs = red.sorted_pivcols()
    rows_out = red.echelon_rows()
    x = [0] * m.cols
    for idx, (p, row) in enumerate(zip(pivs, rows_out)):
        if p == aug:
            raise Inconsistent(idx)
        x[p] = row.get(aug, 0)
    return tuple(x)


class SpanChecker:
    """Membership oracle for the span of a fixed list of vectors, each a
    coordinate sequence or a sparse {col: value} dict of ints and
    Fractions."""

    __slots__ = ("red", "ncols")

    def __init__(self, vectors, ncols):
        self.ncols = ncols
        self.red = RowReducer(ncols)
        for vec in vectors:
            self.red.add_fraction_row(_sparse(vec))

    @property
    def rank(self):
        return self.red.rank

    def contains(self, vec):
        """True iff vec lies in the span."""
        return not self.red.reduce_only(self.red.integer_row(_sparse(vec)))


def _sparse(vec):
    """A vector as a {col: value} dict: a dict as it is, a coordinate
    sequence by its nonzero entries."""
    return vec if isinstance(vec, dict) else {c: exact(v) for c, v in enumerate(vec) if v}


def canonical_basis(rows, ncols):
    """Rewrite a spanning list of sparse vectors as the canonical kernel-style basis.

    rows are {col: value} dicts with int or Fraction values, taken as they
    are (an int is its own numerator).  The output is the unique basis of their
    span in which each vector has trailing coordinate 1 at a distinct
    column, zeros at the other vectors' trailing columns, and the list is
    sorted by trailing column; each vector is a {col: value} dict of its
    nonzero entries in ascending column order.  For the kernel of any matrix
    this is what nullspace() returns, so a solver may produce a kernel basis
    by any route and canonicalize here.  RREF under reversed column order.
    """
    red = RowReducer(ncols)
    last = ncols - 1
    for row in rows:
        red.add_fraction_row({last - c: v for c, v in row.items() if v})
    out = [dict(sorted((last - c, v) for c, v in row.items())) for row in red.echelon_rows()]
    out.reverse()  # engine pivot ascending = trailing column descending
    return out
