"""Dense views of liebider.SparseMatrix that only the tests need.

The library builds its sparse matrices from entry lists and never reads
them back densely or multiplies them by a vector; the tests do both, to
state examples by hand and to check kernels and solutions.
"""

from fractions import Fraction

from liebider import SparseMatrix


def from_dense(rows_of_values):
    """SparseMatrix of a list of equal-length rows."""
    rows = len(rows_of_values)
    cols = len(rows_of_values[0]) if rows else 0
    entries = []
    for i, row in enumerate(rows_of_values):
        if len(row) != cols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            if v != 0:
                entries.append((i, j, Fraction(v)))
    return SparseMatrix(rows, cols, entries)


def to_dense(m):
    """The rows of m as lists of Fractions."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (r, c, v) in m.entries:
        out[r][c] = v
    return out


def mul_vector(m, vec):
    """m·vec as a tuple of Fractions."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    out = [Fraction(0)] * m.rows
    for (r, c, v) in m.entries:
        if vec[c]:
            out[r] += v * vec[c]
    return tuple(out)
