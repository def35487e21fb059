"""Exact sparse linear algebra over the Gaussian rationals, eliminated on ints.

Everything reduces to one deterministic elimination, ``_gauss_jordan``:
columns are taken in ascending order, the sparsest row holding a column
supplies its pivot, and the elimination stops at echelon form.  It runs
fraction-free on int rows (``_integer_rows``), and a column index keeps,
for each column, the rows holding an entry in it, so a pivot step touches
only those rows.  Ranks come from ``pivot_columns``, which runs it on each
connected block of a matrix on its own; ``kernel_basis`` and ``solve`` read
their answers off the reduced echelon form of ``_reduced``, which clears
each pivot column above its pivot and divides by the pivots only as it
hands GaussianRationals (algebra, canonical) back.  ``check_inclusion``
proves K * M = 0 on ints too.  Results are exact and reproducible across
platforms; there is no floating point anywhere.

Matrices are sparse maps (row, col) -> scalar.  Vectors are sparse maps
index -> nonzero scalar, a plain dict with no length of its own: the matrix
or subspace a vector goes with fixes its dimension.  Forms are vectorised
straight into this format (cohomology.vectorize / form_from_vector).
"""

from __future__ import annotations

from itertools import accumulate, groupby
from math import gcd, lcm
from operator import itemgetter

# LinearAlgebraError lives in algebra, so that cli.main catches it without
# loading this module; it is the same class under both names.
from .algebra import GaussianRational, LinearAlgebraError, ONE, ZERO, _normal


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
            if len(row) != cols:
                raise LinearAlgebraError(f"row {i} has {len(row)} entries, row 0 has {cols}")
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


def _integer_rows(entries, step: int, den: int) -> list:
    """The int rows of ((row, col), GaussianRational) pairs times den, a common
    denominator, in the order of their first entries.  With step 2 a row w
    becomes the rows (Re w, -Im w) and (Im w, Re w), the parts of column c at
    2c and 2c + 1, which span w and i*w: a column raises the complex rank
    exactly when its two real columns raise the real rank, and a real row
    (a, -b) at 2c, 2c + 1 reads back as the entry a + b*i."""
    rows = {}
    for (r, c), v in entries:
        s = den // v.d
        if step == 1:
            rows.setdefault(r, {})[c] = v.a * s
        else:
            re, im = rows.setdefault(2 * r, {}), rows.setdefault(2 * r + 1, {})
            a, b, c = v.a * s, v.b * s, 2 * c
            if a:
                re[c] = im[c + 1] = a
            if b:
                re[c + 1], im[c] = -b, b
    return list(rows.values())


def _index(rows: list) -> dict:
    """column -> the set of rows holding an entry in it."""
    where: dict = {}
    for i, row in enumerate(rows):
        for k in row:
            where.setdefault(k, set()).add(i)
    return where


def _combine(row: dict, c, p: int, pairs: list, where: dict, i: int):
    """row i := (p*row - a*pivot row) / gcd(p, a) over its content, a = row[c]: the pivot
    p and its row's other entries ``pairs`` clear c; ``where`` follows the fill-in."""
    a = row.pop(c)
    g = gcd(p, a) if p > 0 else -gcd(p, a)
    scale, a = p // g, a // g
    if scale != 1:
        for k in row:
            row[k] *= scale
    for k, v in pairs:
        s = row.get(k)
        if s is None:
            row[k] = -a * v
            where[k].add(i)
        else:
            s -= a * v
            if s:
                row[k] = s
            else:
                del row[k]
                where[k].discard(i)
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _gauss_jordan(rows: list, ncols: int) -> list:
    """In-place fraction-free forward elimination to echelon form on sparse int rows.

    Returns the pivot columns in order; row i then holds pivot i with
    nothing left of it, and the rows past the last pivot hold no column
    below ``ncols``; keys from ``ncols`` on are carried, never pivoted on.
    Columns go in ascending order, the pivot row of a column is the one with
    the fewest entries among those holding it, the lowest on a tie, which
    keeps the fill-in down, and ``_combine`` clears the column below it.
    Neither moves a pivot: the pivot columns of a left-to-right elimination
    are the columns that raise the rank of those before them.  ``where``
    also follows swaps, and a pivot row leaves it once its step is done.
    """
    where = _index(rows)
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
        pairs = [(k, v) for k, v in piv.items() if k != c]
        for i in sorted(at - {r}):
            _combine(rows[i], c, piv[c], pairs, where, i)
        for k in piv:
            where[k].discard(r)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduced(rows: list, ncols: int) -> list:
    """In-place reduced echelon form on sparse rows of GaussianRationals; the pivot columns.

    The int rows (``_integer_rows``) are eliminated in every column, keys
    from ``ncols`` on too, and cleared above each pivot below ``ncols``.
    Only then are the rows whose pivot is a real(-part) column divided by
    it and read back: the pivot rows, those of the carried keys, then empty
    rows.  The reduced echelon form is unique, so neither the pivot rule nor
    the integer arithmetic changes the pivot rows below ``ncols``.
    """
    values = [v for row in rows for v in row.values()]
    step, den = (2 if any(v.b for v in values) else 1), lcm(*{v.d for v in values})
    ints = _integer_rows((((i, c), v) for i, row in enumerate(rows) for c, v in row.items()), step, den)
    pivots = _gauss_jordan(ints, 1 + max((k for row in ints for k in row), default=0))
    rank = sum(c < step * ncols for c in pivots)
    where = _index(ints[:rank])
    for k in range(rank - 1, -1, -1):
        c = pivots[k]
        pairs = [(j, v) for j, v in ints[k].items() if j != c]
        for i in where[c] - {k}:
            _combine(ints[i], c, ints[k][c], pairs, where, i)
    out = []
    for c, row in zip(pivots, ints):
        if c % step == 0:
            parts, p = {}, row[c]
            for k, v in row.items():
                parts.setdefault(k // step, [0, 0])[k % step] = v if p > 0 else -v
            out.append({j: _normal(a, -b, abs(p)) for j, (a, b) in parts.items()})
    rows[:] = out + [{} for _ in range(len(rows) - len(out))]
    return [c // step for c in pivots[:rank] if c % step == 0]


def pivot_columns(M: Matrix, order=None) -> list:
    """The pivot columns of M's forward elimination, ascending.

    Columns go left to right in ``order`` (a list of M's columns, default
    ascending), and a pivot is given as its place in that order.  Pivots are
    the columns that raise the rank of those before them, whatever the row
    operations, so each connected block (columns joined by a row, found by
    union-find over M's entries) is eliminated on its own int rows, built
    only then.  A block of one row or one column has its first column as
    its pivot.
    """
    place = range(M.cols)
    if order is not None:
        place = [0] * M.cols
        for j, c in enumerate(order):
            place[c] = j
    entries = M.entries
    parent = list(range(M.cols))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first = [None] * M.rows  # the place of a column each row holds
    for r, c in entries:
        if first[r] is None:
            first[r] = place[c]
        else:
            parent[find(place[c])] = find(first[r])
    blocks = {}
    for key in entries:
        blocks.setdefault(find(place[key[1]]), []).append(key)
    pivots = []
    step, den = (2 if any(v.b for v in entries.values()) else 1), lcm(*{v.d for v in entries.values()})
    while blocks:
        keys = blocks.popitem()[1]
        # a block of one row, or of rows of one entry each, has one column
        if len(keys) == 1 or len({r for r, _ in keys}) in (1, len(keys)):
            pivots.append(min(place[c] for _, c in keys))
        else:
            rows = _integer_rows((((key[0], place[key[1]]), entries[key]) for key in keys), step, den)
            pivots += [c // step for c in _gauss_jordan(rows, step * M.cols) if c % step == 0]
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
    """im(image) <= ker(d), proved by d * image == 0 on ints, each factor times
    a common denominator, one row of the product at a time: image's row k is
    the run ``starts[k]:starts[k + 1]`` of (key, value), the real part of
    column c at key 2c and the imaginary at 2c + 1.  A failure means the
    complex is broken (d*d != 0 or budgets misconfigured) and raises
    LinearAlgebraError."""
    if d.cols != image.rows:
        raise LinearAlgebraError("shape mismatch in matrix product")
    den = lcm(*{v.d for v in image.entries.values()})
    counts, keys, values = [0] * image.rows, [], []
    for k, c in sorted(image.entries):
        v = image.entries[(k, c)]
        for part, x in enumerate((v.a, v.b)):
            if x:
                counts[k] += 1
                keys.append(2 * c + part)
                values.append(x * (den // v.d))
    starts = list(accumulate(counts, initial=0))
    den = lcm(*{v.d for v in d.entries.values()})
    # an entry of d at a column whose row of image is empty adds nothing
    for _, run in groupby(sorted(key for key in d.entries if counts[key[1]]), itemgetter(0)):
        acc = {}
        for key in run:
            v = d.entries[key]
            x, y, k = v.a * (den // v.d), v.b * (den // v.d), key[1]
            for j in range(starts[k], starts[k + 1]):
                c, u = keys[j], values[j]
                acc[c] = acc.get(c, 0) + x * u
                if y:  # i times a real part at 2c is imaginary, at 2c + 1; i*i = -1
                    c ^= 1
                    acc[c] = acc.get(c, 0) + (y * u if c & 1 else -y * u)
        if any(acc.values()):
            raise LinearAlgebraError("image is not contained in the kernel: broken complex")


def solve(M: Matrix, b: dict) -> dict | None:
    """One exact solution of M x = b for a sparse b, or None when none exists.

    b rides along as column ``M.cols`` of the reduced elimination of
    [M | b]; M alone steers the pivots, so x is read at them and free
    variables are zero.  None means a row that is no pivot row holds b.
    b's values are taken as Matrix takes entries: an int or a Fraction
    becomes a GaussianRational, a float raises TypeError.
    """
    rows = M.row_dicts()
    n = M.cols
    for i, v in b.items():
        if not 0 <= i < M.rows:
            raise LinearAlgebraError(f"right-hand side index {i} out of range for {M.rows} rows")
        if not isinstance(v, GaussianRational):
            v = GaussianRational(v)
        if v:
            rows[i][n] = v
    pivots = _reduced(rows, n)
    if any(n in row for row in rows[len(pivots) :]):
        return None
    return {c: row[n] for c, row in zip(pivots, rows) if n in row}
