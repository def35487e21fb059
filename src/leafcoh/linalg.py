"""Exact sparse linear algebra over the Gaussian rationals.

Everything reduces to one deterministic Gauss-Jordan elimination: columns are
scanned in ascending order and, among the not-yet-pivoted rows, the lowest
row index supplies the pivot.  A column index keeps, for each column, the
rows holding an entry in it, so a pivot step touches only those rows.  Its
forward mode, which ``rank`` uses, stops at echelon form: it eliminates only
the rows below each pivot and records nothing.
Scalars are Gaussian rationals in canonical form (algebra.GaussianRational:
integers over one gcd-reduced denominator), so results are exact and
reproducible across platforms; there is no floating point anywhere.

Linear systems go through a Factorization: the elimination of M is recorded
once and replayed on each right-hand side.  The pivot choice depends only on
M, so a replay gives exactly the values an elimination of [M | b] would.

Matrices are sparse maps (row, col) -> scalar; vectors are dense tuples.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import GaussianRational, ONE, ZERO


class LinearAlgebraError(ValueError):
    pass


class Matrix:
    """A rows x cols matrix with a sparse entry map; no zero entries stored.

    The constructor checks bounds and drops zeros; products, stacks and the
    operator assembly build their clean results with ``_raw_matrix``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinearAlgebraError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not 0 <= r < rows or not 0 <= c < cols:
                raise LinearAlgebraError(f"entry ({r},{c}) out of bounds {rows}x{cols}")
            if not isinstance(v, GaussianRational):
                v = GaussianRational(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_columns(cls, columns, rows: int):
        entries = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v is not ZERO and v:
                    entries[(i, j)] = v
        return cls(rows, len(columns), entries)

    @classmethod
    def from_rows_list(cls, data):
        rows = len(data)
        cols = len(data[0]) if data else 0
        entries = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                entries[(i, j)] = v if isinstance(v, GaussianRational) else GaussianRational(v)
        return cls(rows, cols, entries)

    def row_dicts(self) -> list:
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def column(self, j) -> tuple:
        return self.columns([j])[0]

    def columns(self, js=None) -> list:
        """Dense tuples of the columns js (default: all), in one pass over the entries."""
        js = range(self.cols) if js is None else js
        sparse = {j: [] for j in js}
        for (r, c), v in self.entries.items():
            hit = sparse.get(c)
            if hit is not None:
                hit.append((r, v))
        out = []
        for j in js:
            col = [ZERO] * self.rows
            for r, v in sparse[j]:
                col[r] = v
            out.append(tuple(col))
        return out

    def matvec(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise LinearAlgebraError("vector length does not match column count")
        out = [ZERO] * self.rows
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x:
                out[r] = out[r] + v * x
        return tuple(out)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinearAlgebraError("shape mismatch in matrix product")
        other_rows = other.row_dicts()
        acc: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in other_rows[k].items():
                key = (r, c)
                s = acc.get(key, ZERO) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return _raw_matrix(self.rows, other.cols, acc)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def __neg__(self):
        return Matrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinearAlgebraError("shape mismatch in matrix sum")
        acc = dict(self.entries)
        for k, v in other.entries.items():
            s = acc.get(k, ZERO) + v
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return Matrix(self.rows, self.cols, acc)

    def __sub__(self, other):
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise LinearAlgebraError("vstack needs equal column counts")
    entries = dict(top.entries)
    for (r, c), v in bottom.entries.items():
        entries[(top.rows + r, c)] = v
    return _raw_matrix(top.rows + bottom.rows, top.cols, entries)


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.rows != right.rows:
        raise LinearAlgebraError("hstack needs equal row counts")
    entries = dict(left.entries)
    for (r, c), v in right.entries.items():
        entries[(r, left.cols + c)] = v
    return _raw_matrix(left.rows, left.cols + right.cols, entries)


def _raw_matrix(rows: int, cols: int, entries: dict) -> Matrix:
    """A Matrix over entries that are in bounds and nonzero GaussianRationals, taken without a copy."""
    M = object.__new__(Matrix)
    M.rows = rows
    M.cols = cols
    M.entries = entries
    return M


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def _gauss_jordan(
    rows: list, ncols: int, steps: list | None = None, forward: bool = False
) -> list:
    """In-place reduced echelon form on sparse row dicts.

    Returns the pivot columns in order; after the call row i holds pivot i
    with a leading 1 and zeros above and below it.  Pivot choice: ascending
    column, then the lowest remaining row.  With ``steps`` given, one
    (swapped-in row, pivot inverse, [(row, multiplier), ...]) entry per pivot
    is appended to it, enough to replay the elimination on a vector.

    With ``forward`` set the elimination stops at echelon form: a pivot row
    leaves the column index once its step is done, so each step eliminates
    only the rows below it and the entries above the pivots stay.  The
    pivots are the same, since clearing above a pivot moves no later pivot.

    ``where`` maps each column to the positions of the rows holding an entry
    in it, kept up to date through swaps, fill-in and cancellation in the
    columns still ahead, so a pivot step visits only those rows, in ascending
    order, as a scan of every row would.  Rows may hold keys at or beyond
    ``ncols``; they are carried along but never pivoted on.
    """
    where: dict = {}
    for i, row in enumerate(rows):
        for k in row:
            where.setdefault(k, set()).add(i)
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        # a column nobody holds never gains an entry: fill-in copies the
        # pivot row's columns, which are held already
        at = where.get(c)
        if not at:
            continue
        sel = min((i for i in at if i >= r), default=None)
        if sel is None:
            continue
        if sel != r:
            # a column held by only one of the two rows moves with that row
            for k in rows[r].keys() ^ rows[sel].keys():
                where[k].symmetric_difference_update((r, sel))
            rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r]
        inv = piv[c].inverse()
        if inv != ONE:
            for k in list(piv):
                piv[k] = piv[k] * inv
        pairs = [(k, v) for k, v in piv.items() if k != c]
        eliminated = [] if steps is not None else None
        for i in sorted(at):
            if i == r:
                continue
            row = rows[i]
            a = row.pop(c)
            if eliminated is not None:
                eliminated.append((i, a))
            minus_a = -a
            for k, v in pairs:
                s = row.get(k)
                if s is None:
                    row[k] = minus_a * v
                    where[k].add(i)
                else:
                    s = s + minus_a * v
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        where[k].discard(i)
        if steps is not None:
            steps.append((sel, inv, eliminated))
        if forward:
            for k in piv:
                where[k].discard(r)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _echelon(M: Matrix, steps: list | None = None, forward: bool = False) -> tuple:
    """M's rows in (reduced, unless ``forward``) echelon form and its pivot columns.

    A matrix without entries is reduced already and is not scanned.
    """
    rows = M.row_dicts()
    if not M.entries:
        return rows, []
    return rows, _gauss_jordan(rows, M.cols, steps, forward)


class Factorization:
    """The elimination of M, recorded once and replayed on right-hand sides.

    solve(b) applies the recorded row swaps, pivot scalings and eliminations
    to b, which is what eliminating [M | b] does to its last column.
    """

    __slots__ = ("rows", "cols", "pivots", "steps")

    def __init__(self, M: Matrix):
        self.rows = M.rows
        self.cols = M.cols
        self.steps = []
        self.pivots = _echelon(M, self.steps)[1]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, b) -> tuple | None:
        """One exact solution of M x = b, or None when none exists.

        Deterministic: free variables are set to zero.  None means a zero
        row of M's echelon form meets a nonzero entry of the replayed b.
        """
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


def rank(M: Matrix) -> int:
    """The pivot count of M's forward elimination to echelon form."""
    return len(_echelon(M, forward=True)[1])


class Subspace:
    """A subspace of coordinate space given by a linearly independent basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis):
        basis = [tuple(v) for v in basis]
        for v in basis:
            if len(v) != ambient_dim:
                raise LinearAlgebraError("basis vector length does not match ambient")
        if basis:
            got = rank(Matrix.from_columns(basis, ambient_dim))
            if got != len(basis):
                raise LinearAlgebraError(
                    f"basis is not independent (rank {got} of {len(basis)})"
                )
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def _independent(cls, ambient_dim: int, basis: list) -> "Subspace":
        """A subspace on a basis that is independent by construction (not re-ranked)."""
        sub = cls.__new__(cls)
        sub.ambient_dim = ambient_dim
        sub.basis = basis
        return sub

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        if not self.basis:
            return all(not v for v in vec)
        M = Matrix.from_columns(self.basis, self.ambient_dim)
        return solve(M, vec) is not None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel_basis(M: Matrix) -> Subspace:
    """Null space basis; each vector satisfies M v = 0 exactly.

    Deterministic: one kernel vector per free column, in ascending order.
    """
    rows, pivots = _echelon(M)
    # a reduced pivot row holds its pivot and entries in free columns only
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
    return Subspace._independent(M.cols, basis)


def solve(M: Matrix, b) -> tuple | None:
    """One exact solution of M x = b, or None when none exists (Factorization.solve)."""
    return Factorization(M).solve(b)


class Quotient:
    """ker(d) / image: a cohomology group with class representatives.

    It serves the long exact sequences (leafcoh.sequences), which need
    representatives and class coordinates; the cohomology grids count
    dimensions from ranks instead.  ``image`` is a Subspace of the source of
    d, or None for zero.  The inclusion image <= ker(d) is proved by the
    exact product d * image == 0; kernel_basis spans ker(d), so this is as
    strong as a rank test on the combined basis.  A failure means the complex
    is broken (d*d != 0 or budgets misconfigured) and raises
    LinearAlgebraError.

    Representatives are chosen only when asked for: the kernel pivot columns
    of [image | kernel], in order.  That one elimination also serves every
    class_coords call.
    """

    def __init__(self, d: Matrix, image: Subspace | None = None):
        if image is None:
            image = Subspace._independent(d.cols, [])
        if image.dim and not d.mul(Matrix.from_columns(image.basis, d.cols)).is_zero:
            raise LinearAlgebraError("image is not contained in the kernel: broken complex")
        self.d = d
        self.kernel = kernel_basis(d)
        self.image = image
        self.dim = self.kernel.dim - image.dim

    @cached_property
    def d_image(self) -> Subspace:
        """im(d), read off the elimination that found the kernel.

        kernel_basis gives one vector per free column of d, with its last
        nonzero entry there; the other columns are the pivots, and d's
        pivot columns are a basis of its column space.
        """
        free = set()
        for vec in self.kernel.basis:
            j = len(vec) - 1
            while not vec[j]:
                j -= 1
            free.add(j)
        pivots = [j for j in range(self.d.cols) if j not in free]
        return Subspace._independent(self.d.rows, self.d.columns(pivots))

    @cached_property
    def _span(self) -> Factorization:
        """[image | kernel], eliminated once: its pivots pick the reps.

        Columns that are not pivots never steer an elimination, so replaying
        it solves over [image | reps], which has full column rank; the
        solution is read off at the pivots.
        """
        return Factorization(
            Matrix.from_columns(self.image.basis + self.kernel.basis, self.kernel.ambient_dim)
        )

    @cached_property
    def reps(self) -> list:
        skip = self.image.dim
        return [self.kernel.basis[j - skip] for j in self._span.pivots[skip:]]

    def class_coords(self, vec) -> tuple:
        """Coordinates of [vec] over the chosen representatives.

        vec must be a cycle; a failed solve signals a non-cycle input.
        """
        x = self._span.solve(vec)
        if x is None:
            raise ValueError("vector is not a cycle of the complex")
        return tuple(x[j] for j in self._span.pivots[self.image.dim :])
