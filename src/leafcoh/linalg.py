"""Exact sparse linear algebra over the Gaussian rationals.

Everything reduces to one deterministic Gauss-Jordan elimination: columns are
scanned in ascending order and, among the not-yet-pivoted rows, the lowest
row index supplies the pivot.  A column index keeps, for each column, the
rows holding an entry in it, so a pivot step touches only those rows.  Its
forward mode stops at echelon form: it eliminates only the rows below each
pivot, takes the sparsest row holding the pivot column and records nothing.
Ranks come from ``pivot_columns``, which runs it on each connected block of
a matrix on its own.
Scalars are Gaussian rationals in canonical form (algebra.GaussianRational:
integers over one gcd-reduced denominator), so results are exact and
reproducible across platforms; there is no floating point anywhere.

Linear systems go through a Factorization: the elimination of M is recorded
once and replayed on each right-hand side.  The pivot choice depends only on
M, so a replay gives exactly the values an elimination of [M | b] would.

Matrices are sparse maps (row, col) -> scalar.  Vectors are sparse maps
index -> nonzero scalar, a plain dict with no length of its own: the matrix
or subspace a vector goes with fixes its dimension.  Forms are vectorised
straight into this format (cohomology.vectorize / form_from_vector).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .algebra import GaussianRational, ONE, ZERO


class LinearAlgebraError(ValueError):
    pass


class Matrix:
    """A rows x cols matrix with a sparse entry map; no zero entries stored.

    The constructor checks bounds and drops zeros; products, stacks and the
    operator assembly build their clean results with ``_raw_matrix``.
    """

    __slots__ = ("rows", "cols", "entries", "_by_col")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinearAlgebraError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self._by_col = None
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
        """The matrix whose column j is the sparse vector columns[j]."""
        entries = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
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

    def _column_index(self) -> dict:
        """col -> {row: value}, built on first use; a Matrix is not mutated once made."""
        by_col = self._by_col
        if by_col is None:
            by_col = self._by_col = {}
            for (r, c), v in self.entries.items():
                col = by_col.get(c)
                if col is None:
                    by_col[c] = {r: v}
                else:
                    col[r] = v
        return by_col

    def columns(self, js=None) -> list:
        """The columns js (default: all) as sparse vectors."""
        by_col = self._column_index()
        js = range(self.cols) if js is None else js
        return [dict(by_col.get(j, ())) for j in js]

    def matvec(self, vec: dict) -> dict:
        """M vec for a sparse vec; visits only the columns vec holds."""
        by_col = self._column_index()
        out: dict = {}
        for c, x in vec.items():
            col = by_col.get(c)
            if col is None:
                if not 0 <= c < self.cols:
                    raise LinearAlgebraError(f"vector index {c} out of range for {self.cols} columns")
                continue
            for r, v in col.items():
                s = out.get(r)
                out[r] = v * x if s is None else s + v * x
        return {r: v for r, v in out.items() if v}

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
        negated = {}  # entries that are one shared scalar share one negation
        return _raw_matrix(
            self.rows, self.cols, {k: negated.get(id(v)) or negated.setdefault(id(v), -v) for k, v in self.entries.items()}
        )

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
    M._by_col = None
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
    only the rows below it and the entries above the pivots stay.  The pivot
    row is then the one with the fewest entries among those holding the
    column, the lowest on a tie, which keeps the fill-in down.  The pivots
    are the same: the pivot columns of a left-to-right elimination are the
    columns that raise the rank of the columns before them, whatever the row
    operations, and clearing above a pivot moves no later pivot.

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
    # a column nobody holds never gains an entry: fill-in copies the pivot
    # row's columns, which are held already; so a block of a wider matrix
    # costs only its own columns
    for c in sorted(k for k in where if k < ncols):
        at = where[c]
        if not at:
            continue
        if forward:
            # the rows above r have left the index: at holds rows below it only
            sel = min(at, key=lambda i: (len(rows[i]), i))
        else:
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


def _echelon(M: Matrix, steps: list | None = None) -> tuple:
    """M's rows in reduced echelon form and its pivot columns.

    A matrix without entries is reduced already and is not scanned.
    """
    rows = M.row_dicts()
    if not M.entries:
        return rows, []
    return rows, _gauss_jordan(rows, M.cols, steps)


def pivot_columns(M: Matrix, order=None) -> list:
    """The pivot columns of M's forward elimination, ascending.

    Columns go left to right in ``order`` (a list of M's columns, default
    ascending), and a pivot is given as its place in that order.  Pivots are
    the columns that raise the rank of those before them, whatever the row
    operations, so each connected block (columns joined by a row, found by
    union-find) is eliminated on its own rows, its fill-in freed before the
    next.  A block of one row or one column needs no elimination: its first
    column is its one pivot.
    """
    place = range(M.cols)
    if order is not None:
        place = [0] * M.cols
        for j, c in enumerate(order):
            place[c] = j
    rows = [None] * M.rows
    for (r, c), v in M.entries.items():
        row = rows[r]
        if row is None:
            rows[r] = {place[c]: v}
        else:
            row[place[c]] = v
    parent = list(range(M.cols))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in rows:
        if row is None:
            continue
        it = iter(row)
        a = find(next(it))
        for j in it:
            b = find(j)
            if a != b:
                parent[b] = a
    blocks = {}
    for row in rows:
        if row is not None:
            blocks.setdefault(find(next(iter(row))), []).append(row)
    del rows
    pivots = []
    while blocks:
        block = blocks.popitem()[1]
        # a joined block of rows that hold one entry each is one column
        if len(block) == 1 or max(map(len, block)) == 1:
            pivots.append(min(block[0]))
        else:
            pivots += _gauss_jordan(block, M.cols, forward=True)
    return sorted(pivots)


class Factorization:
    """The elimination of M, recorded once and replayed on right-hand sides.

    The steps are recorded on row identities (the rows of M), with the row
    swaps folded in once here: one (pivot row, pivot inverse or None for 1,
    [(row, negated multiplier), ...]) entry per pivot, in step order.
    solve(b) replays them on a sparse b, which is what eliminating [M | b]
    does to its last column.
    """

    __slots__ = ("rows", "cols", "pivots", "steps", "_step_of")

    def __init__(self, M: Matrix):
        self.rows = M.rows
        self.cols = M.cols
        positional = []
        self.pivots = _echelon(M, positional)[1]
        # at[k]: the row of M that the swaps so far have moved to position k
        at = list(range(M.rows))
        steps = []
        for r, (sel, inv, eliminated) in enumerate(positional):
            at[r], at[sel] = at[sel], at[r]
            steps.append((at[r], None if inv == ONE else inv, [(at[i], -a) for i, a in eliminated]))
        self.steps = steps
        self._step_of = {row: r for r, (row, _, _) in enumerate(steps)}

    def solve(self, b: dict) -> dict | None:
        """One exact solution of M x = b for a sparse b, or None when none exists.

        Deterministic: free variables are set to zero.  Only the steps whose
        pivot row holds a nonzero when their turn comes are replayed, in step
        order; the others change nothing.  None means a row of M that is no
        pivot row ends up holding a nonzero.
        """
        step_of = self._step_of
        for i in b:
            if not 0 <= i < self.rows:
                raise LinearAlgebraError(f"right-hand side index {i} out of range for {self.rows} rows")
        y = dict(b)
        due = [step_of[i] for i in y if i in step_of]
        heapify(due)
        queued = set(due)
        steps = self.steps
        while due:
            r = heappop(due)
            row, inv, eliminated = steps[r]
            v = y[row]
            if not v:
                continue
            if inv is not None:
                v = y[row] = v * inv
            for i, minus_a in eliminated:
                s = y.get(i)
                y[i] = minus_a * v if s is None else s + minus_a * v
                k = step_of.get(i)
                if k is not None and k > r and k not in queued:
                    queued.add(k)
                    heappush(due, k)
        x = {}
        pivots = self.pivots
        for i, v in y.items():
            if v:
                k = step_of.get(i)
                if k is None:
                    return None
                x[pivots[k]] = v
        return x


def rank(M: Matrix) -> int:
    """The pivot count of M's forward elimination to echelon form."""
    return len(pivot_columns(M))


class Subspace:
    """A subspace of coordinate space given by a linearly independent basis.

    The basis vectors are sparse; ``ambient_dim`` is their dimension.  The
    basis is taken as given: the one builder in the package, kernel_basis,
    makes it independent by construction.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: list):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel_basis(M: Matrix) -> Subspace:
    """Null space basis; each vector satisfies M v = 0 exactly.

    Deterministic: one kernel vector per free column j, in ascending order,
    with a 1 at j and the negated reduced-row entries at the pivot columns
    before j.
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
        vec = {pc: -v for pc, v in held.get(j, ())}
        vec[j] = ONE
        basis.append(vec)
    return Subspace(M.cols, basis)


def check_inclusion(d: Matrix, image: Matrix):
    """im(image) <= ker(d), proved by the exact product d * image == 0.

    A failure means the complex is broken (d*d != 0 or budgets
    misconfigured) and raises LinearAlgebraError.
    """
    if not d.mul(image).is_zero:
        raise LinearAlgebraError("image is not contained in the kernel: broken complex")


def solve(M: Matrix, b: dict) -> dict | None:
    """One exact solution of M x = b, or None when none exists (Factorization.solve)."""
    return Factorization(M).solve(b)
