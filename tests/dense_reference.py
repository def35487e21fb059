"""Dense reference for the sparse solving path: the former dense-tuple
Factorization.solve, kernel_basis and Quotient.

Vectors here are dense tuples; ``to_sparse`` and ``to_dense`` convert them to
and from the sparse vectors {index: nonzero} of leafcoh.linalg.  The
elimination is linalg's own; its positional steps are replayed as they were
before the solving path moved to sparse vectors and steps recorded on row
identities.  The differential tests compare leafcoh.linalg against these on
the same matrices and right-hand sides.
"""

from __future__ import annotations

from leafcoh import linalg
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


class DenseFactorization:
    """Replays every recorded step on a dense right-hand side, swaps included."""

    def __init__(self, M: Matrix):
        self.rows = M.rows
        self.cols = M.cols
        self.steps = []
        self.pivots = linalg._echelon(M, self.steps)[1]

    def solve(self, b) -> tuple | None:
        if len(b) != self.rows:
            raise LinearAlgebraError("right-hand side length does not match rows")
        y = [v if v else ZERO for v in b]
        for r, (sel, inv, eliminated) in enumerate(self.steps):
            y[r], y[sel] = y[sel], y[r]
            v = y[r]
            if not v:
                continue
            if inv != ONE:
                v = y[r] = v * inv
            for i, a in eliminated:
                y[i] = y[i] - a * v
        nz = len(self.pivots)
        if any(y[nz:]):
            return None
        x = [ZERO] * self.cols
        for i, pc in enumerate(self.pivots):
            if y[i]:
                x[pc] = y[i]
        return tuple(x)


def dense_kernel_basis(M: Matrix) -> list:
    """One dense kernel vector per free column, in ascending order."""
    rows, pivots = linalg._echelon(M)
    held = {}
    for pc, row in zip(pivots, rows):
        for j, v in row.items():
            if j != pc:
                held.setdefault(j, []).append((pc, v))
    pivot_set = set(pivots)
    basis = []
    for j in range(M.cols):
        if j in pivot_set:
            continue
        vec = [ZERO] * M.cols
        vec[j] = ONE
        for pc, v in held.get(j, ()):
            vec[pc] = -v
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
        self._span = DenseFactorization(from_dense_columns(self.image + self.kernel, d.cols))
        skip = len(image_basis)
        self.reps = [self.kernel[j - skip] for j in self._span.pivots[skip:]]

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
        x = self._span.solve(vec)
        if x is None:
            raise ValueError("vector is not a cycle of the complex")
        return tuple(x[j] for j in self._span.pivots[len(self.image) :])
