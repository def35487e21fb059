"""Dense reference for the sparse solving path: a textbook Gauss-Jordan on
dense tuples, with solve, kernel_basis and Quotient built on it.

Vectors here are dense tuples; ``to_sparse`` and ``to_dense`` convert them to
and from the sparse vectors {index: nonzero} of leafcoh.linalg.  The
elimination is this module's own and imports none from leafcoh.linalg:
columns go left to right, the lowest remaining row holding a column
supplies its pivot, and the column is cleared in every other row.  The
reduced echelon form of a matrix is unique, so kernel vectors and solutions
(free variables zero) must equal linalg's exactly, whatever its pivot rule.
"""

from __future__ import annotations

from leafcoh.algebra import ONE, ZERO
from leafcoh.linalg import LinearAlgebraError, Matrix


def to_sparse(values) -> dict:
    """The sparse vector of a dense tuple."""
    return {i: v for i, v in enumerate(values) if v}


def to_dense(vec: dict, n: int) -> tuple:
    """The length-n dense tuple of a sparse vector."""
    out = [ZERO] * n
    for i, v in vec.items():
        out[i] = v
    return tuple(out)


def from_dense_columns(columns, rows: int) -> Matrix:
    entries = {}
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            if v:
                entries[(i, j)] = v
    return Matrix(rows, len(columns), entries)


def dense_rows(M: Matrix) -> list:
    """M as a list of dense rows."""
    rows = [[ZERO] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    return rows


def dense_product(A: Matrix, B: Matrix) -> list:
    """The dense rows of A * B, summed entry by entry."""
    a, b = dense_rows(A), dense_rows(B)
    return [[sum((a[i][k] * b[k][j] for k in range(A.cols)), ZERO) for j in range(B.cols)] for i in range(A.rows)]


def dense_rref(M: Matrix, extra=()) -> tuple:
    """The reduced echelon rows of [M | extra columns] and M's pivot columns.

    Only M's columns are pivoted on; the extra columns (dense tuples of
    length M.rows) ride along.
    """
    rows = [[ZERO] * (M.cols + len(extra)) for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    for j, col in enumerate(extra):
        for r, v in enumerate(col):
            rows[r][M.cols + j] = v
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        sel = next((i for i in range(r, M.rows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c].inverse()
        piv = rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            a = row[c]
            if i != r and a:
                rows[i] = [x - a * y for x, y in zip(row, piv)]
        pivots.append(c)
    return rows, pivots


def dense_solve(M: Matrix, b) -> tuple | None:
    """The solution of M x = b with free variables zero, or None when none exists."""
    if len(b) != M.rows:
        raise LinearAlgebraError("right-hand side length does not match rows")
    rows, pivots = dense_rref(M, [b])
    if any(row[M.cols] for row in rows[len(pivots) :]):
        return None
    x = [ZERO] * M.cols
    for row, c in zip(rows, pivots):
        x[c] = row[M.cols]
    return tuple(x)


def dense_kernel_basis(M: Matrix) -> list:
    """One dense kernel vector per free column j, in ascending order: a 1 at
    j and the negated reduced-row entries at the pivot columns."""
    rows, pivots = dense_rref(M)
    basis = []
    for j in range(M.cols):
        if j in pivots:
            continue
        vec = [ZERO] * M.cols
        vec[j] = ONE
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[j]
        basis.append(tuple(vec))
    return basis


class DenseQuotient:
    """ker(d) / span(image_basis) on dense tuples, reps and coordinates included."""

    def __init__(self, d: Matrix, image_basis=()):
        image_basis = list(image_basis)
        if image_basis and not d.mul(from_dense_columns(image_basis, d.cols)).is_zero:
            raise LinearAlgebraError("image is not contained in the kernel: broken complex")
        self.d = d
        self.kernel = dense_kernel_basis(d)
        self.image = image_basis
        self.dim = len(self.kernel) - len(image_basis)
        self._span = from_dense_columns(self.image + self.kernel, d.cols)
        skip = len(image_basis)
        self._pivots = dense_rref(self._span)[1]
        self.reps = [self.kernel[j - skip] for j in self._pivots[skip:]]

    def d_image(self) -> list:
        """d's pivot columns, dense: the columns that are no kernel vector's last nonzero."""
        free = set()
        for vec in self.kernel:
            j = len(vec) - 1
            while not vec[j]:
                j -= 1
            free.add(j)
        by_col = [[ZERO] * self.d.rows for _ in range(self.d.cols)]
        for (r, c), v in self.d.entries.items():
            by_col[c][r] = v
        return [tuple(by_col[j]) for j in range(self.d.cols) if j not in free]

    def class_coords(self, vec) -> tuple:
        x = dense_solve(self._span, vec)
        if x is None:
            raise ValueError("vector is not a cycle of the complex")
        return tuple(x[j] for j in self._pivots[len(self.image) :])
