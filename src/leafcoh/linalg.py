"""Exact sparse linear algebra over the Gaussian rationals, held and eliminated on ints.

A Matrix is one column-compressed store (Davis, Direct Methods for Sparse
Linear Systems, 2006, ch. 2) of den * M, den the least common denominator;
with an i among the entries it stores the realification (an entry a + b*i
becomes the block [[a, -b], [b, a]]), a ring map, so products, stacks,
restrictions and the K * M = 0 proof of ``check_inclusion`` run on ints
alike.  GaussianRationals appear only where vectors leave (``kernel_basis``,
``solve``, ``Matrix.columns``, ``Matrix.matvec``) and in the read-only
``entries`` view.

Everything reduces to one deterministic elimination, ``_gauss_jordan``:
columns are taken in ascending order, the sparsest row holding a column
supplies its pivot, and the elimination stops at echelon form.  It runs
fraction-free (Bareiss, 1968) on int rows read off the store, and a column
index keeps, for each column, the rows holding an entry in it, so a pivot
step touches only those rows.  Ranks come from ``pivot_columns``, which
runs it on each connected block of a matrix on its own; ``kernel_basis``
and ``solve`` read their answers off the reduced echelon form of
``_reduced``, which clears each pivot column above its pivot and divides
by the pivots only as it hands GaussianRationals back.  There is no
floating point anywhere.

Vectors are sparse maps index -> nonzero scalar, a plain dict with no
length of its own: the matrix or subspace a vector goes with fixes its
dimension.  Forms are vectorised straight into this format
(cohomology.vectorize / form_from_vector).
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from math import gcd, lcm
from operator import attrgetter

# LinearAlgebraError lives in algebra, so that cli.main catches it without
# loading this module; it is the same class under both names.
from .algebra import GaussianRational, LinearAlgebraError, ONE, _normal


class Matrix:
    """A rows x cols matrix over the Gaussian rationals, column-compressed on ints.

    Stored column c holds the rows ``idx[ptr[c]:ptr[c + 1]]`` (an
    array('q')), ascending, with the nonzero int values
    ``val[ptr[c]:ptr[c + 1]]`` over ``den``; with ``step`` 2 the store is the
    realification, column c of M its columns 2c and 2c + 1 = i * (2c).  The
    constructor takes a map (row, col) -> scalar, checks bounds and drops
    zeros; assembly, products, stacks and restrictions write the store
    (``_store``).  A Matrix is not mutated once made.
    """

    __slots__ = ("rows", "cols", "step", "den", "ptr", "idx", "val")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinearAlgebraError("negative matrix dimensions")
        by_col = {}
        for (r, c), v in (entries or {}).items():
            if not 0 <= r < rows or not 0 <= c < cols:
                raise LinearAlgebraError(f"entry ({r},{c}) out of bounds {rows}x{cols}")
            if not isinstance(v, GaussianRational):
                v = GaussianRational(v)
            if v:
                by_col.setdefault(c, []).append((r, v))
        _from_gaussian(rows, [sorted(by_col.get(c, ())) for c in range(cols)], self)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return _store(n, n, 1, 1, array("q", range(n + 1)), array("q", range(n)), [1] * n) if n >= 0 else cls(n, n)

    @classmethod
    def from_columns(cls, columns, rows: int):
        """The matrix whose column j is the sparse vector columns[j]."""
        return cls(rows, len(columns), {(i, j): v for j, col in enumerate(columns) for i, v in col.items()})

    @classmethod
    def from_rows_list(cls, data):
        cols = len(data[0]) if data else 0
        for i, row in enumerate(data):
            if len(row) != cols:
                raise LinearAlgebraError(f"row {i} has {len(row)} entries, row 0 has {cols}")
        return cls(len(data), cols, {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)})

    def _column(self, c) -> list:
        """Column c as (row, GaussianRational) pairs, rows ascending."""
        s, parts = self.step, {}
        for r, v in zip(self.idx[self.ptr[s * c] : self.ptr[s * c + 1]], self.val[self.ptr[s * c] : self.ptr[s * c + 1]]):
            parts.setdefault(r // s, [0, 0])[r % s] = v
        return [(r, _normal(a, b, self.den)) for r, (a, b) in parts.items()]

    @property
    def entries(self) -> dict:
        """A read-only view: a fresh dict (row, col) -> nonzero GaussianRational, column by column."""
        return {(r, c): v for c in range(self.cols) for r, v in self._column(c)}

    def columns(self, js=None) -> list:
        """The columns js (default: all) as sparse vectors."""
        return [dict(self._column(j)) for j in (range(self.cols) if js is None else js)]

    def matvec(self, vec: dict) -> dict:
        """M vec for a sparse vec; visits only the columns vec holds."""
        out: dict = {}
        for c, x in vec.items():
            if not 0 <= c < self.cols:
                raise LinearAlgebraError(f"vector index {c} out of range for {self.cols} columns")
            for r, v in self._column(c):
                s = out.get(r)
                out[r] = v * x if s is None else s + v * x
        return {r: v for r, v in out.items() if v}

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinearAlgebraError("shape mismatch in matrix product")
        A, B = _common_step(self, other)
        ptr, idx, val = array("q", [0]), array("q"), []
        for acc in _product_columns(A, B):
            for r in sorted(acc):
                if acc[r]:
                    idx.append(r)
                    val.append(acc[r])
            ptr.append(len(idx))
        return _store(self.rows, other.cols, A.step, A.den * B.den, ptr, idx, val)

    def restricted(self, rows=None, cols=None) -> "Matrix":
        """The submatrix on the rows and the columns listed, each ascending (None keeps all)."""
        s, ptr, idx, val = self.step, self.ptr, self.idx, self.val
        stored = lambda keep, n: range(s * n) if keep is None else keep if s == 1 else [s * k + h for k in keep for h in range(s)]
        at = array("q", [-1]) * (s * self.rows)
        for i, r in enumerate(stored(rows, self.rows)):
            at[r] = i
        new_ptr, new_idx, new_val = array("q", [0]), array("q"), []
        for k in stored(cols, self.cols):
            for r, v in zip(idx[ptr[k] : ptr[k + 1]], val[ptr[k] : ptr[k + 1]]):
                if at[r] >= 0:
                    new_idx.append(at[r])
                    new_val.append(v)
            new_ptr.append(len(new_idx))
        shape = (self.rows if rows is None else len(rows), self.cols if cols is None else len(cols))
        return _store(*shape, s, self.den, new_ptr, new_idx, new_val)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def __neg__(self):
        return _store(self.rows, self.cols, self.step, self.den, self.ptr, self.idx, [-v for v in self.val])

    def __add__(self, other: "Matrix") -> "Matrix":
        """[A | B] * [I; I], one int product."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinearAlgebraError("shape mismatch in matrix sum")
        return hstack(self, other).mul(vstack(Matrix.identity(self.cols), Matrix.identity(self.cols)))

    def __sub__(self, other):
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return not self.val

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # the least denominator makes the store of a matrix at a step unique
        A, B = _common_step(self, other)
        return (A.rows, A.cols, A.den, A.ptr, A.idx, A.val) == (B.rows, B.cols, B.den, B.ptr, B.idx, B.val)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def _store(rows: int, cols: int, step: int, den: int, ptr, idx, val: list, M=None) -> Matrix:
    """M (default: a new Matrix) over a store, taken unchecked, its values over the least denominator."""
    g = gcd(den, *val) if den > 1 else 1
    if g > 1:
        den, val = den // g, [v // g for v in val]
    M = object.__new__(Matrix) if M is None else M
    M.rows, M.cols, M.step, M.den, M.ptr, M.idx, M.val = rows, cols, step, den, ptr, idx, val
    return M


def _realified_column(col: list) -> list:
    """Stored columns 2c, 2c + 1 = i * (2c) as (row, int) pairs of a column of (row, a, b) for (a + b*i) / den."""
    return [
        [(2 * r + h, x) for r, a, b in col for h, x in ((0, a), (1, b)) if x],
        [(2 * r + h, x) for r, a, b in col for h, x in ((0, -b), (1, a)) if x],
    ]


def _from_gaussian(rows: int, columns: list, M=None) -> Matrix:
    """M (default: a new Matrix) with columns of (row, nonzero GaussianRational) pairs, rows ascending."""
    values = [v for col in columns for _, v in col]
    step, den = (2 if any(map(attrgetter("b"), values)) else 1), lcm(*set(map(attrgetter("d"), values)))
    if step == 2:
        columns = [part for col in columns for part in _realified_column([(r, v.a * (den // v.d), v.b * (den // v.d)) for r, v in col])]
    ptr = array("q", accumulate(map(len, columns), initial=0))
    idx = array("q", [r for col in columns for r, _ in col])
    val = [v for col in columns for _, v in col] if step == 2 else [v.a * (den // v.d) for v in values]
    return _store(rows, len(columns) // step, step, den, ptr, idx, val, M)


def _common_step(A: Matrix, B: Matrix) -> tuple:
    """A and B at one step: a real store is realified (a at (r, c) to (2r, 2c), (2r + 1, 2c + 1)) to meet an i."""
    if A.step == B.step:
        return A, B
    M = A if A.step == 1 else B
    cols = [[(2 * r + h, v) for r, v in zip(M.idx[lo:hi], M.val[lo:hi])] for lo, hi in zip(M.ptr, M.ptr[1:]) for h in (0, 1)]
    ptr, idx = array("q", accumulate(map(len, cols), initial=0)), array("q", [r for col in cols for r, _ in col])
    M = _store(M.rows, M.cols, 2, M.den, ptr, idx, [v for col in cols for _, v in col])
    return (M, B) if A.step == 1 else (A, M)


def _product_columns(A: Matrix, B: Matrix):
    """The stored columns of A * B (A and B at one step) as maps row -> int, one at a time."""
    a_ptr, a_idx, a_val = A.ptr, A.idx, A.val
    for lo, hi in zip(B.ptr, B.ptr[1:]):
        acc = {}
        for k, w in zip(B.idx[lo:hi], B.val[lo:hi]):
            for r, v in zip(a_idx[a_ptr[k] : a_ptr[k + 1]], a_val[a_ptr[k] : a_ptr[k + 1]]):
                acc[r] = acc.get(r, 0) + v * w
        yield acc


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise LinearAlgebraError("vstack needs equal column counts")
    A, B = _common_step(top, bottom)
    den = lcm(A.den, B.den)
    a_val, b_val = [v * (den // A.den) for v in A.val], [v * (den // B.den) for v in B.val]
    b_idx = array("q", [r + A.step * A.rows for r in B.idx])
    ptr, idx, val = array("q", [0]), array("q"), []
    for a, b, a_end, b_end in zip(A.ptr, B.ptr, A.ptr[1:], B.ptr[1:]):
        idx += A.idx[a:a_end]
        idx += b_idx[b:b_end]
        val += a_val[a:a_end] + b_val[b:b_end]
        ptr.append(len(idx))
    return _store(top.rows + bottom.rows, top.cols, A.step, den, ptr, idx, val)


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.rows != right.rows:
        raise LinearAlgebraError("hstack needs equal row counts")
    A, B = _common_step(left, right)
    den = lcm(A.den, B.den)
    ptr = A.ptr + array("q", [p + len(A.idx) for p in B.ptr[1:]])
    val = [v * (den // A.den) for v in A.val] + [v * (den // B.den) for v in B.val]
    return _store(left.rows, left.cols + right.cols, A.step, den, ptr, A.idx + B.idx, val)


def _int_rows(M: Matrix, cols, place) -> list:
    """The int rows of M's stored columns ``cols``, column c keyed place[c], in order of first entries."""
    rows = {}
    for c in cols:
        for r, v in zip(M.idx[M.ptr[c] : M.ptr[c + 1]], M.val[M.ptr[c] : M.ptr[c + 1]]):
            rows.setdefault(r, {})[place[c]] = v
    return list(rows.values())


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


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


def _reduced(M: Matrix, ncols: int) -> tuple:
    """(pivots, rows): M's pivot columns, ascending, and its reduced pivot rows of GaussianRationals.

    M's int rows are eliminated in every column, columns from ``ncols`` on
    too, and cleared above each pivot below ``ncols``.  Only then are the
    rows whose pivot is a real(-part) column divided by it and read back.
    The reduced echelon form is unique, so neither the pivot rule nor the
    integer arithmetic changes the rows of the pivots below ``ncols``.
    """
    s = M.step
    ints = _int_rows(M, range(s * M.cols), range(s * M.cols))
    pivots = _gauss_jordan(ints, s * M.cols)
    rank = sum(c < s * ncols for c in pivots)
    where = _index(ints[:rank])
    for k in range(rank - 1, -1, -1):
        c = pivots[k]
        pairs = [(j, v) for j, v in ints[k].items() if j != c]
        for i in where[c] - {k}:
            _combine(ints[i], c, ints[k][c], pairs, where, i)
    out = []
    for c, row in zip(pivots, ints):
        if c % s == 0:
            # a realified row holds (a, -b) at 2j, 2j + 1 for the entry a + b*i
            parts, p = {}, row[c]
            for k, v in row.items():
                parts.setdefault(k // s, [0, 0])[k % s] = v if p > 0 else -v
            out.append({j: _normal(a, -b, abs(p)) for j, (a, b) in parts.items()})
    return [c // s for c in pivots if c % s == 0], out


def pivot_columns(M: Matrix, order=None) -> list:
    """The pivot columns of M's forward elimination, ascending.

    Columns go left to right in ``order`` (a list of M's columns, default
    ascending), and a pivot is given as its place in that order.  Pivots are
    the columns that raise the rank of those before them, whatever the row
    operations, so each connected block of the stored columns (joined by a
    row, found by union-find over the store) is eliminated on its own int
    rows, built only then.  A block of one row or one column has its first
    column as its pivot.
    """
    s, ptr, idx = M.step, M.ptr, M.idx
    n = s * M.cols
    place = range(n)
    if order is not None:
        place = array("q", bytes(8 * n))
        for j, c in enumerate(order if s == 1 else [2 * c + h for c in order for h in (0, 1)]):
            place[c] = j
    parent = array("q", range(n))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first = array("q", [-1]) * (s * M.rows)  # the place of a column each row holds
    for c in range(n):
        for r in idx[ptr[c] : ptr[c + 1]]:
            if first[r] < 0:
                first[r] = place[c]
            else:
                parent[find(place[c])] = find(first[r])
    # each block's columns as a chain through ``after``, from ``head`` at its root
    head, after = array("q", [-1]) * n, array("q", [-1]) * n
    for c in range(n - 1, -1, -1):
        if ptr[c] < ptr[c + 1]:
            root = find(place[c])
            after[c], head[root] = head[root], c
    pivots = []
    for c in filter((-1).__lt__, head):
        cols = [c]
        while (c := after[c]) >= 0:
            cols.append(c)
        rows = _int_rows(M, cols, place) if len(cols) > 1 else ()
        pivots += _gauss_jordan(rows, n) if len(rows) > 1 else [min(place[c] for c in cols)]
    return sorted(p // s for p in pivots if p % s == 0)


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
    pivots, rows = _reduced(M, M.cols)
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
    """im(image) <= ker(d), proved by d * image == 0 on the stored ints, one
    column of the product at a time.  A failure means the complex is broken
    (d*d != 0 or budgets misconfigured) and raises LinearAlgebraError."""
    if d.cols != image.rows:
        raise LinearAlgebraError("shape mismatch in matrix product")
    if any(any(acc.values()) for acc in _product_columns(*_common_step(d, image))):
        raise LinearAlgebraError("image is not contained in the kernel: broken complex")


def solve(M: Matrix, b: dict) -> dict | None:
    """One exact solution of M x = b for a sparse b, or None when none exists.

    b rides along as column ``M.cols`` of the reduced elimination of
    [M | b]; M alone steers the pivots, so x is read at them and free
    variables are zero.  None means b's column holds a pivot.  b's values
    are taken as Matrix takes entries: an int or a Fraction becomes a
    GaussianRational, a float raises TypeError.
    """
    n = M.cols
    for i in b:
        if not 0 <= i < M.rows:
            raise LinearAlgebraError(f"right-hand side index {i} out of range for {M.rows} rows")
    pivots, rows = _reduced(hstack(M, Matrix(M.rows, 1, {(i, 0): v for i, v in b.items()})), n)
    if pivots and pivots[-1] >= n:
        return None
    return {c: row[n] for c, row in zip(pivots, rows) if n in row}
