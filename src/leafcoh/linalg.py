"""Exact sparse linear algebra over the Gaussian rationals.

Everything reduces to one deterministic elimination, ``_gauss_jordan``:
columns are taken in ascending order, the sparsest row holding a column
supplies its pivot, and the elimination stops at echelon form.  A column
index keeps, for each column, the rows holding an entry in it, so a pivot
step touches only those rows.  Ranks come from ``pivot_columns``, which runs
it on each connected block of a matrix on its own; ``kernel_basis`` and
``solve`` read their answers off the reduced echelon form of ``_reduced``,
which clears each pivot column above its pivot after the forward pass.
Scalars are Gaussian rationals in canonical form (algebra.GaussianRational:
integers over one gcd-reduced denominator), so results are exact and
reproducible across platforms; there is no floating point anywhere.

Matrices are sparse maps (row, col) -> scalar.  Vectors are sparse maps
index -> nonzero scalar, a plain dict with no length of its own: the matrix
or subspace a vector goes with fixes its dimension.  Forms are vectorised
straight into this format (cohomology.vectorize / form_from_vector).
"""

from __future__ import annotations

# LinearAlgebraError lives in algebra, so that cli.main catches it without
# loading this module; it is the same class under both names.
from .algebra import GaussianRational, LinearAlgebraError, ONE, ZERO


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


def _gauss_jordan(rows: list, ncols: int) -> list:
    """In-place forward elimination to echelon form on sparse row dicts.

    Returns the pivot columns in order; row i then holds pivot i with a
    leading 1 and nothing left of it, and the rows past the last pivot hold
    no column below ``ncols``.  Columns go in ascending order, and the pivot
    row of a column is the one with the fewest entries among those holding
    it, the lowest on a tie, which keeps the fill-in down.  The pivot rule
    moves no pivot: the pivot columns of a left-to-right elimination are
    the columns that raise the rank of those before them.

    ``where`` maps each column to the rows holding an entry in it, kept up
    to date through swaps, fill-in and cancellation; a pivot row leaves it
    once its step is done, so a step visits only the rows below it that
    hold the column.  Keys at or beyond ``ncols`` are carried along but
    never pivoted on.
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
        # the rows above r have left the index: at holds rows below it only
        sel = min(at, key=lambda i: (len(rows[i]), i))
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
        for i in sorted(at):
            if i == r:
                continue
            row = rows[i]
            minus_a = -row.pop(c)
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
        for k in piv:
            where[k].discard(r)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduced(rows: list, ncols: int) -> list:
    """In-place reduced echelon form on sparse row dicts; the pivot columns.

    After the forward pass each pivot column is cleared above its pivot,
    last pivot first.  The rows holding a pivot column are found once:
    clearing adds only columns of a pivot row, which holds nothing left of
    its pivot and, once cleared, no later pivot column.  The reduced echelon
    form is unique, so the pivot rule changes none of these rows.
    """
    pivots = _gauss_jordan(rows, ncols)
    step_of = {c: k for k, c in enumerate(pivots)}
    above = {}
    for i, row in enumerate(rows[: len(pivots)]):
        for c in row:
            k = step_of.get(c, i)
            if k != i:
                above.setdefault(k, []).append(i)
    for k in sorted(above, reverse=True):
        c = pivots[k]
        pairs = [(j, v) for j, v in rows[k].items() if j != c]
        for i in above[k]:
            row = rows[i]
            minus_a = -row.pop(c)
            for j, v in pairs:
                s = row.get(j)
                if s is None:
                    row[j] = minus_a * v
                else:
                    s = s + minus_a * v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
    return pivots


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
            pivots += _gauss_jordan(block, M.cols)
    return sorted(pivots)


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
    rows = M.row_dicts()
    pivots = _reduced(rows, M.cols)
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
    """One exact solution of M x = b for a sparse b, or None when none exists.

    b rides along as column ``M.cols`` of the reduced elimination of
    [M | b]; M alone steers the pivots, so x is read at them and free
    variables are zero.  None means a row that is no pivot row holds b.
    """
    rows = M.row_dicts()
    n = M.cols
    for i, v in b.items():
        if not 0 <= i < M.rows:
            raise LinearAlgebraError(f"right-hand side index {i} out of range for {M.rows} rows")
        if v:
            rows[i][n] = v
    pivots = _reduced(rows, n)
    if any(n in row for row in rows[len(pivots) :]):
        return None
    return {c: row[n] for c, row in zip(pivots, rows) if n in row}
