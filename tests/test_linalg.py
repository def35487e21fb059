import random
from fractions import Fraction

import pytest

from leafcoh import linalg
from leafcoh.algebra import ZERO, GaussianRational, parse_series
from leafcoh.cohomology import operator_matrix
from leafcoh.forms import FoliationModel
from leafcoh.linalg import (
    LinearAlgebraError,
    Matrix,
    hstack,
    kernel_basis,
    rank,
    solve,
    vstack,
)

from leafcoh.sequences import make_relative_complex

from dense_reference import (
    DenseQuotient,
    dense_kernel_basis,
    dense_product,
    dense_rows,
    dense_rref,
    dense_solve,
    to_dense,
    to_sparse as sp,
)
from factories import cone_sweep_scene
from quotient_reference import FactorOnce, Quotient, contains, subspace
from quotient_rows import column_space, from_span


def G(x, y=0):
    return GaussianRational(Fraction(x), Fraction(y))


def dense(x, n):
    """A sparse result as the dense tuple the assertions compare; None stays None."""
    return None if x is None else to_dense(x, n)


def _row_dicts(M):
    """M's rows as sparse dicts of GaussianRationals."""
    rows = [{} for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    return rows


def _stored_rows(M):
    """The int rows of M's store (realified when M holds an i), in order of their first entries."""
    rows = {}
    for c in range(M.step * M.cols):
        for k in range(M.ptr[c], M.ptr[c + 1]):
            rows.setdefault(M.idx[k], {})[c] = M.val[k]
    return list(rows.values())


def _random_matrix(rng, rows, cols, density=0.5):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = G(rng.randint(-4, 4), rng.randint(-2, 2))
    return Matrix(rows, cols, entries)


def test_rank_examples():
    assert rank(Matrix.zero(3, 4)) == 0
    assert rank(Matrix.identity(5)) == 5
    M = Matrix.from_rows_list([[1, 2], [2, 4]])
    assert rank(M) == 1


@pytest.mark.parametrize("seed", range(30))
def test_rank_transpose_and_permutation_invariance(seed):
    rng = random.Random(seed)
    M = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert rank(M) == rank(M.transpose())
    rows = list(range(M.rows))
    cols = list(range(M.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = Matrix(
        M.rows,
        M.cols,
        {(rows[r], cols[c]): v for (r, c), v in M.entries.items()},
    )
    assert rank(M) == rank(permuted)


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(4)).dim == 0
    assert kernel_basis(Matrix.zero(2, 3)).dim == 3
    M = Matrix.from_rows_list([[1, 1]])
    K = kernel_basis(M)
    assert K.dim == 1
    # spans (1, -1): the stored representative is its negative
    assert dense(K.basis[0], 2) in ((G(1), G(-1)), (G(-1), G(1)))
    assert contains(K, sp((G(1), G(-1))))


@pytest.mark.parametrize("seed", range(40))
def test_rank_nullity_and_kernel_exactness(seed):
    rng = random.Random(100 + seed)
    M = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    K = kernel_basis(M)
    assert rank(M) + K.dim == M.cols
    for v in K.basis:
        assert all(not x for x in dense(M.matvec(v), M.rows))


def test_solve_examples():
    b = (G(3), G(-1, 2))
    assert dense(solve(Matrix.identity(2), sp(b)), 2) == b
    assert solve(Matrix.zero(2, 2), sp(b)) is None
    M = Matrix.from_rows_list([[2]])
    assert dense(solve(M, sp((G(3),))), 1) == (G(Fraction(3, 2)),)


@pytest.mark.parametrize("seed", range(40))
def test_solve_verifies_or_certifies(seed):
    rng = random.Random(200 + seed)
    M = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    b = tuple(G(rng.randint(-3, 3)) for _ in range(M.rows))
    x = solve(M, sp(b))
    if x is None:
        # certified: the augmented matrix gains rank
        aug = hstack(M, Matrix.from_columns([sp(b)], M.rows))
        assert rank(aug) == rank(M) + 1
    else:
        assert dense(M.matvec(x), M.rows) == b


def _augmented_solve(M, b):
    """Reference solve: the row-scanning elimination of [M | b]."""
    rows = _row_dicts(M)
    for i, v in enumerate(b):
        if v:
            rows[i][M.cols] = v
    pivots = _scanning_gauss_jordan(rows, M.cols)
    if any(rows[len(pivots) :]):
        return None
    x = [ZERO] * M.cols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i].get(M.cols, ZERO)
    return tuple(x)


def _gaussian_rational(rng):
    return G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


SHAPES = ("tall", "wide", "rank_deficient", "zero", "no_rows")


def _rational_matrix(rng, rows, cols, density=0.6):
    entries = {
        (i, j): _gaussian_rational(rng)
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    }
    return Matrix(rows, cols, entries)


def _shaped_matrix(rng, shape):
    if shape == "tall":
        return _rational_matrix(rng, rng.randint(4, 8), rng.randint(1, 3))
    if shape == "wide":
        return _rational_matrix(rng, rng.randint(1, 3), rng.randint(4, 8))
    if shape == "zero":
        return Matrix.zero(rng.randint(1, 5), rng.randint(1, 5))
    if shape == "no_rows":
        return Matrix.zero(0, rng.randint(0, 5))
    # a product through a narrower middle has rank below both sides
    rows, cols = rng.randint(3, 7), rng.randint(3, 7)
    inner = rng.randint(1, min(rows, cols) - 1)
    return _rational_matrix(rng, rows, inner, 1.0).mul(_rational_matrix(rng, inner, cols, 1.0))


@pytest.mark.parametrize("seed", range(50))
def test_factorization_matches_augmented_solve(seed):
    # the factor-once reference of the test engines, [M | I] eliminated once,
    # serves every right-hand side as solve(M, b) and the row-scanning
    # elimination of [M | b] do
    rng = random.Random(900 + seed)
    M = _shaped_matrix(rng, SHAPES[seed % len(SHAPES)])
    F = FactorOnce(M)
    assert len(F.pivots) == rank(M)
    consistent = dense(M.matvec(sp(tuple(_gaussian_rational(rng) for _ in range(M.cols)))), M.rows)
    arbitrary = tuple(_gaussian_rational(rng) for _ in range(M.rows))
    for b in (consistent, arbitrary, tuple(G(0) for _ in range(M.rows))):
        want = _augmented_solve(M, b)
        assert dense(F.solve(sp(b)), M.cols) == want
        assert dense(solve(M, sp(b)), M.cols) == want
    assert F.solve(sp(consistent)) is not None
    if M.rows > rank(M):
        # a vector off the column space: the first zero row of the echelon form
        # is reached by some unit vector
        units = [tuple(G(int(i == j)) for i in range(M.rows)) for j in range(M.rows)]
        assert any(F.solve(sp(e)) is None for e in units)
        assert all(dense(F.solve(sp(e)), M.cols) == _augmented_solve(M, e) for e in units)


@pytest.mark.parametrize("seed", range(50))
def test_sparse_path_matches_dense_reference(seed):
    # the inputs of test_factorization_matches_augmented_solve, drawn alike,
    # through the sparse path and the dense Gauss-Jordan on tuples
    rng = random.Random(900 + seed)
    M = _shaped_matrix(rng, SHAPES[seed % len(SHAPES)])
    consistent = dense(M.matvec(sp(tuple(_gaussian_rational(rng) for _ in range(M.cols)))), M.rows)
    arbitrary = tuple(_gaussian_rational(rng) for _ in range(M.rows))
    units = [tuple(G(int(i == j)) for i in range(M.rows)) for j in range(M.rows)]
    pivots = dense_rref(M)[1]
    assert linalg._reduced(M, M.cols)[0] == pivots
    outcomes = []
    for b in [consistent, arbitrary, tuple(G(0) for _ in range(M.rows))] + units:
        want = dense_solve(M, b)
        assert dense(solve(M, sp(b)), M.cols) == want
        outcomes.append(want is None)
    # inconsistent right-hand sides are among the inputs whenever M is rank-deficient in rows
    assert any(outcomes) == (M.rows > len(pivots))
    K = kernel_basis(M)
    assert [dense(v, M.cols) for v in K.basis] == dense_kernel_basis(M)
    # ker M modulo the span of its first kernel vectors: reps and coordinates
    cut = K.dim // 2
    H = Quotient(M, subspace(M.cols, K.basis[:cut]))
    want = DenseQuotient(M, dense_kernel_basis(M)[:cut])
    assert [dense(v, M.cols) for v in H.reps] == want.reps
    assert [dense(v, M.rows) for v in H.d_image.basis] == want.d_image()
    for _ in range(3):
        coeffs = [_gaussian_rational(rng) for _ in want.kernel]
        cycle = tuple(
            sum((c * v[i] for c, v in zip(coeffs, want.kernel)), G(0)) for i in range(M.cols)
        )
        assert dense(H.class_coords(sp(cycle)), H.dim) == want.class_coords(cycle)


def _scanning_gauss_jordan(rows, ncols):
    """Reference elimination: the former row-scanning, lowest-row Gauss-Jordan.

    For each column it scans every row for the pivot and for the rows to
    eliminate, and leaves the reduced echelon form; _reduced must agree
    with it on pivots and rows.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if c in rows[i]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r]
        inv = piv[c].inverse()
        if inv != G(1):
            for k in list(piv):
                piv[k] = piv[k] * inv
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            a = row.get(c)
            if a is None:
                continue
            for k, v in piv.items():
                s = row.get(k, ZERO) - a * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


ELIMINATION_SHAPES = (
    "sparse", "dense", "tall", "wide", "rank_deficient", "zero_rows", "entryless", "beyond_ncols"
)


def _elimination_input(rng, shape):
    """Sparse row dicts and a column count of the given shape."""
    if shape == "sparse":
        M = _rational_matrix(rng, rng.randint(8, 14), rng.randint(8, 14), 0.15)
    elif shape == "dense":
        M = _rational_matrix(rng, rng.randint(3, 7), rng.randint(3, 7), 1.0)
    elif shape in ("tall", "wide", "rank_deficient"):
        M = _shaped_matrix(rng, shape)
    elif shape == "zero_rows":
        M = _rational_matrix(rng, rng.randint(4, 9), rng.randint(3, 8), 0.5)
        dropped = set(rng.sample(range(M.rows), M.rows // 2))
        M = Matrix(M.rows, M.cols, {k: v for k, v in M.entries.items() if k[0] not in dropped})
    elif shape == "entryless":
        M = Matrix.zero(rng.randint(0, 4), rng.randint(0, 4))
    else:
        # an augmented system: keys at ncols and beyond ride along unpivoted
        M = _rational_matrix(rng, rng.randint(3, 8), rng.randint(2, 7), 0.5)
        rows = _row_dicts(M)
        for row in rows:
            for extra in (M.cols, M.cols + 1):
                if rng.random() < 0.6:
                    row[extra] = _gaussian_rational(rng) or G(1)
        return rows, M.cols
    return _row_dicts(M), M.cols


def _as_matrix(rows, ncols):
    """The matrix of sparse rows whose keys from ncols on ride along as two more columns."""
    return Matrix(len(rows), ncols + 2, {(i, c): v for i, row in enumerate(rows) for c, v in row.items()})


def _in_columns(rows, ncols):
    """The rows cut down to the columns below ncols."""
    return [{k: v for k, v in row.items() if k < ncols} for row in rows]


@pytest.mark.parametrize("seed", range(64))
def test_gauss_jordan_matches_row_scanning_reference(seed):
    # the reduced form is unique, so the sparsest-row forward pass and
    # _reduced's clearing above the pivots give the reference's rows; keys
    # carried beyond ncols follow the row operations, which differ, so only
    # the columns below ncols are compared, and the rows of pivots carried
    # beyond ncols hold none of them
    rng = random.Random(4200 + seed)
    rows, ncols = _elimination_input(rng, ELIMINATION_SHAPES[seed % len(ELIMINATION_SHAPES)])
    want_rows = [dict(row) for row in rows]
    want = _scanning_gauss_jordan(want_rows, ncols)
    pivots, reduced = linalg._reduced(_as_matrix(rows, ncols), ncols)
    assert pivots[: len(want)] == want and all(c >= ncols for c in pivots[len(want) :])
    assert _in_columns(reduced, ncols) == _in_columns(want_rows[: len(reduced)], ncols)
    assert not any(_in_columns(want_rows[len(reduced) :], ncols))
    assert all(v for row in reduced for v in row.values())


def test_forward_elimination_stops_at_echelon_form():
    # [[1, 1], [1, 2]]: the second pivot is found, but nothing is cleared above it
    rows = [{0: 1, 1: 1}, {0: 1, 1: 2}]
    assert linalg._gauss_jordan(rows, 2) == [0, 1]
    assert rows == [{0: 1, 1: 1}, {1: 1}]
    assert linalg._reduced(Matrix.from_rows_list([[1, 1], [1, 2]]), 2) == ([0, 1], [{0: G(1)}, {1: G(1)}])


@pytest.mark.parametrize("seed", range(64))
def test_forward_rank_matches_row_scanning_reference(seed, monkeypatch):
    # the same inputs: the forward pass finds the reference's pivots and
    # leaves an echelon form, and rank is the pivot count, through _gauss_jordan
    rng = random.Random(4200 + seed)
    rows, ncols = _elimination_input(rng, ELIMINATION_SHAPES[seed % len(ELIMINATION_SHAPES)])
    want = _scanning_gauss_jordan([dict(row) for row in rows], ncols)
    # the int rows of the input, realified when it holds an i: a column c
    # is then the pair 2c, 2c + 1, and pivots come in such pairs
    stored = _as_matrix(rows, ncols)
    step, start = stored.step, _stored_rows(stored)
    echelon = [dict(row) for row in start]
    pivots = linalg._gauss_jordan(echelon, step * ncols)
    assert pivots == [step * c + j for c in want for j in range(step)]
    for i, row in enumerate(echelon):
        lead = min((c for c in row if c < step * ncols), default=None)
        assert lead == (pivots[i] if i < len(pivots) else None)
        assert all(type(v) is int and v for v in row.values())
    # fraction-free row operations keep the row space, carried keys included:
    # the echelon rows and the input rows have one reduced echelon form
    width = step * (ncols + 2)
    start, echelon = ([{c: G(v) for c, v in row.items()} for row in rs] for rs in (start, echelon))
    assert _scanning_gauss_jordan(start, width) == _scanning_gauss_jordan(echelon, width)
    assert start == echelon
    M = Matrix(
        len(rows), ncols, {(i, c): v for i, row in enumerate(rows) for c, v in row.items() if c < ncols}
    )
    entered, eliminations = [], []
    real_pivots, real_elimination = linalg.pivot_columns, linalg._gauss_jordan

    def entering(M, order=None):
        entered.append(order)
        return real_pivots(M, order)

    def eliminating(rows, ncols):
        eliminations.append(ncols)
        return real_elimination(rows, ncols)

    monkeypatch.setattr(linalg, "pivot_columns", entering)
    monkeypatch.setattr(linalg, "_gauss_jordan", eliminating)
    assert rank(M) == len(want)
    # one pivot_columns call in M's own column order; each block it eliminates
    # is an elimination over M's columns, or over their realification, twice
    # as many, when the block holds an i; an entry-less matrix needs none
    assert entered == [None]
    complex_entries = any(v.b for v in M.entries.values())
    assert all(n == M.cols or n == 2 * M.cols and complex_entries for n in eliminations)
    assert M.entries or not eliminations


def test_forward_elimination_takes_the_sparsest_row():
    # column 0 is held by every row: the forward pass swaps in the sparsest,
    # row 2, where the row-scanning reference keeps the lowest, row 0; the
    # reduced forms agree all the same
    data = [[1, 1, 1], [2, 2, 0], [3, 0, 0]]
    rows = [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2}, {0: 3}]
    assert linalg._gauss_jordan(rows, 3) == [0, 1, 2]
    # 3*(2, 2, 0) - 2*(3, 0, 0) and 3*(1, 1, 1) - (3, 0, 0), each over its
    # content, then (0, 1, 1) less (0, 1, 0)
    assert rows == [{0: 3}, {1: 1}, {2: 1}]
    pivots, reduced = linalg._reduced(Matrix.from_rows_list(data), 3)
    want = _row_dicts(Matrix.from_rows_list(data))
    assert pivots == _scanning_gauss_jordan(want, 3) == [0, 1, 2]
    assert reduced == want == [{0: G(1)}, {1: G(1)}, {2: G(1)}]
    # on a tie in entry count the lowest row stays
    tie = [{0: 1, 1: 1}, {0: 2, 2: 1}]
    assert linalg._gauss_jordan(tie, 3) == [0, 1]
    assert tie[0] == {0: 1, 1: 1}


def _block_sum(rng):
    """A row- and column-permuted block-diagonal sum of random blocks with i
    and fractional entries, some rank-deficient, plus empty rows and columns."""
    blocks = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.25:
            blocks.append(_shaped_matrix(rng, "rank_deficient"))
        else:
            blocks.append(_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), rng.choice((0.3, 0.6, 1.0))))
    nrows = sum(b.rows for b in blocks) + rng.randint(0, 3)
    ncols = sum(b.cols for b in blocks) + rng.randint(0, 3)
    row_at, col_at = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    entries, r0, c0 = {}, 0, 0
    for b in blocks:
        for (i, j), v in b.entries.items():
            entries[(row_at[r0 + i], col_at[c0 + j])] = v
        r0, c0 = r0 + b.rows, c0 + b.cols
    return Matrix(nrows, ncols, entries)


@pytest.mark.parametrize("seed", range(60))
def test_blockwise_pivots_match_global_row_scanning_reference(seed):
    # the pivots of the block-by-block, sparsest-row elimination are those of
    # one global lowest-row elimination, in M's column order and in another
    rng = random.Random(7300 + seed)
    M = _block_sum(rng)
    assert linalg.pivot_columns(M) == _scanning_gauss_jordan(_row_dicts(M), M.cols)
    order = rng.sample(range(M.cols), M.cols)
    place = {c: j for j, c in enumerate(order)}
    renamed = [{place[c]: v for c, v in row.items()} for row in _row_dicts(M)]
    assert linalg.pivot_columns(M, order) == _scanning_gauss_jordan(renamed, M.cols)


BROKEN = "^image is not contained in the kernel: broken complex$"


@pytest.mark.parametrize("seed", range(40))
def test_integer_ranks_and_inclusion_proof_match_gaussian_references(seed):
    # the fraction-free ranks and the int proof of K*M = 0 against the dense
    # Gauss-Jordan on GaussianRationals and Matrix.mul, on block sums with i
    # and fractional entries: the left kernel of M annihilates it, a unit row
    # at one of M's rows does not, and a random extra row does exactly when
    # the GaussianRational product is nonzero
    rng = random.Random(8100 + seed)
    M = _block_sum(rng)
    pivots = dense_rref(M)[1]
    assert linalg.pivot_columns(M) == linalg._reduced(M, M.cols)[0] == pivots
    assert rank(M) == len(pivots)
    K = Matrix.from_columns(kernel_basis(M.transpose()).basis, M.rows).transpose()
    assert K.mul(M).is_zero
    linalg.check_inclusion(K, M)
    for r in sorted({r for r, _ in M.entries})[:2]:
        with pytest.raises(LinearAlgebraError, match=BROKEN):
            linalg.check_inclusion(vstack(K, Matrix(1, M.rows, {(0, r): G(1, -1)})), M)
    for _ in range(3):
        extra = vstack(K, _rational_matrix(rng, 1, M.rows, 0.4))
        if extra.mul(M).is_zero:
            linalg.check_inclusion(extra, M)
        else:
            with pytest.raises(LinearAlgebraError, match=BROKEN):
                linalg.check_inclusion(extra, M)


@pytest.mark.parametrize("twist", ["1+i*z1", "1/3+z1*zb2"])
@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_integer_paths_on_twisted_operator_matrices(twist, p, q):
    # dbar_f twice is zero, so the int proof passes; dbar_f after partial_f
    # is not, and raises the broken-complex error; every rank and pivot list
    # is the dense GaussianRational reference's, in two column orders
    f = parse_series(twist, 2, 0, 2)
    model = FoliationModel(2, 0, 4, f)
    D, gap = 3, max(f.degree - 1, 0)
    first = operator_matrix("dbar_f", model, p, q, D - gap, D)
    second = operator_matrix("dbar_f", model, p, q + 1, D, D + gap)
    linalg.check_inclusion(second, first)
    assert second.mul(first).is_zero
    mixed = operator_matrix("partial_f", model, p, q, D - gap, D)
    after = operator_matrix("dbar_f", model, p + 1, q, D, D + gap)
    assert not after.mul(mixed).is_zero
    with pytest.raises(LinearAlgebraError, match=BROKEN):
        linalg.check_inclusion(after, mixed)
    for M in (first, second, mixed):
        pivots = dense_rref(M)[1]
        assert linalg.pivot_columns(M) == pivots and rank(M) == len(pivots)
        order = random.Random(M.cols).sample(range(M.cols), M.cols)
        renamed = Matrix(M.rows, M.cols, {(r, order.index(c)): v for (r, c), v in M.entries.items()})
        assert linalg.pivot_columns(M, order) == dense_rref(renamed)[1]


def test_ragged_rows_are_rejected():
    # a short row was taken as padded with zeros
    with pytest.raises(LinearAlgebraError, match="^row 1 has 1 entries, row 0 has 2$"):
        Matrix.from_rows_list([[1, 2], [3]])
    with pytest.raises(LinearAlgebraError, match="^row 2 has 3 entries, row 0 has 2$"):
        Matrix.from_rows_list([[1, 2], [3, 4], [5, 6, 7]])


def test_solve_takes_its_right_hand_side_as_matrix_entries():
    # int and Fraction values become GaussianRationals, so every solution
    # value is one; a float raises TypeError
    x = solve(Matrix.identity(2), {0: 1, 1: Fraction(1, 2)})
    assert x == {0: G(1), 1: G(Fraction(1, 2))}
    assert all(type(v) is GaussianRational for v in x.values())
    with pytest.raises(TypeError, match="not float"):
        solve(Matrix.identity(2), {0: 0.5})


def test_class_coords_eliminate_once(monkeypatch):
    rng = random.Random(31)
    d = Matrix(2, 6, {(0, j): _gaussian_rational(rng) for j in range(6)})
    boundary = kernel_basis(d).basis[2]
    H = Quotient(d, subspace(6, [boundary]))
    boundary = dense(boundary, 6)
    calls = []
    real = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert len(H.reps) == H.dim == 4
    for coeffs in ([1, 0, 2, 0], [0, 1, 1, -1], [2, 2, 2, 2], [0, 0, 0, 3], [0, 0, 0, 0]):
        # a cycle in the class sum(coeffs * reps), shifted by a boundary
        terms = [(G(3), boundary)] + [(G(c), dense(rep, 6)) for c, rep in zip(coeffs, H.reps)]
        vec = tuple(sum((c * v[i] for c, v in terms), G(0)) for i in range(6))
        assert dense(H.class_coords(sp(vec)), 4) == tuple(G(c) for c in coeffs)
    # the reps and every class_coords call share one elimination
    assert len(calls) == 1


def test_solve_dimension_mismatch():
    # a sparse vector has no length: an index beyond the matrix is the mismatch
    with pytest.raises(LinearAlgebraError, match="index 2 out of range for 2 rows"):
        solve(Matrix.identity(2), {2: G(1)})
    with pytest.raises(LinearAlgebraError, match="index -1 out of range for 2 rows"):
        solve(Matrix.identity(2), {-1: G(1)})
    with pytest.raises(LinearAlgebraError, match="index 2 out of range for 2 columns"):
        Matrix.identity(2).matvec({2: G(1)})


def test_quotient_examples():
    # d = (0 0 1) has the kernel plane span(e1, e2)
    d = Matrix.from_rows_list([[0, 0, 1]])
    plane = subspace(3, [sp((G(1), G(0), G(0))), sp((G(0), G(1), G(0)))])
    line = subspace(3, [sp((G(1), G(1), G(0)))])
    assert Quotient(d, line).dim == 1
    assert Quotient(d, plane).dim == 0
    assert Quotient(d, subspace(3, [])).dim == 2
    assert Quotient(d).dim == 2
    H = Quotient(d, line)
    assert (H.kernel.dim, H.image.dim) == (2, 1)
    # kernel pivot columns of [(1,1,0) | e1, e2]: e1 is kept, e2 is dependent
    assert [dense(rep, 3) for rep in H.reps] == [(G(1), G(0), G(0))]
    assert dense(H.class_coords(sp((G(1), G(0), G(0)))), 1) == (G(1),)
    assert dense(H.class_coords(sp((G(0), G(1), G(0)))), 1) == (G(-1),)  # e2 = (1,1,0) - e1
    with pytest.raises(ValueError, match="not a cycle"):
        H.class_coords(sp((G(0), G(0), G(1))))


def test_quotient_inclusion_violation():
    d = Matrix.from_rows_list([[0, 0, 1]])
    out = subspace(3, [sp((G(0), G(0), G(1)))])
    with pytest.raises(LinearAlgebraError, match="not contained in the kernel: broken complex"):
        Quotient(d, out)


def test_quotient_top_grade_uses_standard_basis():
    # a 0 x n map: the kernel is the standard basis, in order
    H = Quotient(Matrix.zero(0, 3))
    assert H.dim == 3
    assert [dense(rep, 3) for rep in H.reps] == [tuple(G(int(i == j)) for i in range(3)) for j in range(3)]


@pytest.mark.parametrize("seed", range(40))
def test_internal_bases_are_independent(seed):
    # kernel_basis and the reference column_space and from_span build their
    # Subspace unchecked, so their independence is checked here
    rng = random.Random(700 + seed)
    M = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), density=rng.random())
    vectors = M.columns() + M.columns(range(min(2, M.cols)))
    for sub in (kernel_basis(M), column_space(M), from_span(vectors, M.rows)):
        if sub.basis:
            assert rank(Matrix.from_columns(sub.basis, sub.ambient_dim)) == sub.dim
        assert all(0 <= i < sub.ambient_dim for v in sub.basis for i in v)
    assert column_space(M).dim == rank(M) == from_span(vectors, M.rows).dim
    # the image a Quotient reads off its kernel elimination is column_space's
    assert Quotient(M).d_image.basis == column_space(M).basis


def test_subspace_independence_check():
    with pytest.raises(LinearAlgebraError, match="independent"):
        subspace(2, [sp((G(1), G(2))), sp((G(2), G(4)))])
    with pytest.raises(LinearAlgebraError, match=r"entry \(2,0\) out of bounds 2x1"):
        subspace(2, [{2: G(1)}])
    span = from_span([sp((G(1), G(2))), sp((G(2), G(4))), sp((G(0), G(1)))], 2)
    assert span.dim == 2


def test_column_space():
    M = Matrix.from_rows_list([[1, 2, 0], [2, 4, 1]])
    cs = column_space(M)
    assert cs.dim == 2
    # pivot columns are the original first and third columns
    assert dense(cs.basis[0], 2) == (G(1), G(2))
    assert dense(cs.basis[1], 2) == (G(0), G(1))


def test_stacking():
    A = Matrix.from_rows_list([[1, 0]])
    B = Matrix.from_rows_list([[0, 1]])
    assert vstack(A, B) == Matrix.identity(2)
    C = hstack(Matrix.identity(2), Matrix.zero(2, 1))
    assert C.cols == 3 and rank(C) == 2


def test_matmul_matvec():
    A = Matrix.from_rows_list([[1, 2], [0, 1]])
    B = Matrix.from_rows_list([[1, 0], [3, 1]])
    assert A.mul(B) == Matrix.from_rows_list([[7, 2], [3, 1]])
    assert dense(A.matvec(sp((G(1), G(1)))), 2) == (G(3), G(1))


def test_deterministic_outputs():
    rng = random.Random(5)
    M = _random_matrix(rng, 5, 5)
    assert kernel_basis(M).basis == kernel_basis(M).basis
    b = sp(tuple(G(1) for _ in range(5)))
    assert solve(M, b) == solve(M, b)


def test_gaussian_entries():
    i = GaussianRational(0, 1)
    M = Matrix(2, 2, {(0, 0): i, (0, 1): G(1), (1, 0): G(1), (1, 1): -i})
    # second row = -i * first row, so rank 1
    assert rank(M) == 1


# ---------------------------------------------------------------------------
# The column-compressed store against the dense reference
# ---------------------------------------------------------------------------


STORE_KINDS = ("real", "gaussian", "mixed_denominators", "no_rows", "no_cols", "empty_lines", "one_row_blocks", "one_col_blocks")


def _scalar(rng, kind):
    if kind == "real":
        return rng.randint(-5, 5)
    if kind == "mixed_denominators":
        return G(Fraction(rng.randint(-6, 6), rng.randint(1, 6)), Fraction(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 4)))
    return G(rng.randint(-4, 4), rng.randint(-3, 3))


def _store_input(rng, kind):
    """(rows, cols, entries) of a seeded matrix of the given kind; zeros among the values are dropped by Matrix."""
    if kind == "no_rows":
        return 0, rng.randint(0, 5), {}
    if kind == "no_cols":
        return rng.randint(0, 5), 0, {}
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    if kind in ("one_row_blocks", "one_col_blocks"):
        # permuted blocks of one row (or of one column) each, beside empty lines
        row_at, col_at = rng.sample(range(12), 12), rng.sample(range(12), 12)
        entries, r, c = {}, 0, 0
        while r < 10 and c < 10:
            width = rng.randint(1, 3)
            for k in range(width):
                key = (row_at[r], col_at[c + k]) if kind == "one_row_blocks" else (row_at[r + k], col_at[c])
                entries[key] = _scalar(rng, "gaussian")
            r, c = (r + 1, c + width) if kind == "one_row_blocks" else (r + width, c + 1)
        return 12, 12, entries
    entries = {(i, j): _scalar(rng, kind) for i in range(rows) for j in range(cols) if rng.random() < 0.5}
    if kind == "empty_lines":
        dead_rows, dead_cols = set(rng.sample(range(rows), rows // 2)), set(rng.sample(range(cols), cols // 2))
        entries = {k: v for k, v in entries.items() if k[0] not in dead_rows and k[1] not in dead_cols}
    return rows, cols, entries


@pytest.mark.parametrize("seed", range(48))
def test_store_matches_dense_reference(seed):
    rng = random.Random(9900 + seed)
    kind = STORE_KINDS[seed % len(STORE_KINDS)]
    rows, cols, entries = _store_input(rng, kind)
    M = Matrix(rows, cols, entries)
    # the view holds every nonzero input value, none else, and round-trips
    want = {k: v if isinstance(v, GaussianRational) else G(v) for k, v in entries.items() if v}
    view = M.entries
    assert view == want and all(v for v in view.values())
    assert all(0 <= r < M.rows and 0 <= c < M.cols for r, c in view)
    assert Matrix(M.rows, M.cols, view) == M and M.step == (2 if any(v.b for v in want.values()) else 1)
    # ranks and pivots, in M's column order and in another
    pivots = dense_rref(M)[1]
    assert linalg.pivot_columns(M) == pivots and rank(M) == len(pivots)
    order = rng.sample(range(M.cols), M.cols)
    renamed = Matrix(M.rows, M.cols, {(r, order.index(c)): v for (r, c), v in view.items()})
    assert linalg.pivot_columns(M, order) == dense_rref(renamed)[1]
    # kernel, solve and matvec
    assert [dense(v, M.cols) for v in kernel_basis(M).basis] == dense_kernel_basis(M)
    x = tuple(_scalar(rng, "mixed_denominators") for _ in range(M.cols))
    b = dense(M.matvec(sp(x)), M.rows)
    assert list(b) == [sum((v * w for v, w in zip(row, x)), G(0)) for row in dense_rows(M)]
    for rhs in (b, tuple(_scalar(rng, "gaussian") for _ in range(M.rows))):
        assert dense(solve(M, sp(rhs)), M.cols) == dense_solve(M, rhs)
    # products with a second store of any kind, sums, stacks and restrictions
    _, inner, other = _store_input(rng, STORE_KINDS[rng.randrange(3)])
    B = Matrix(M.cols, inner, {(r % M.cols, c): v for (r, c), v in other.items()} if M.cols else {})
    assert dense_rows(M.mul(B)) == dense_product(M, B)
    N = Matrix(M.rows, M.cols, {k: _scalar(rng, "mixed_denominators") for k in view if rng.random() < 0.5})
    assert dense_rows(M + N) == [[a + b for a, b in zip(x, y)] for x, y in zip(dense_rows(M), dense_rows(N))]
    assert (M - M).is_zero and -(-M) == M
    assert dense_rows(vstack(M, N)) == dense_rows(M) + dense_rows(N)
    assert dense_rows(hstack(M, N)) == [x + y for x, y in zip(dense_rows(M), dense_rows(N))]
    keep_rows = sorted(rng.sample(range(M.rows), rng.randint(0, M.rows)))
    keep_cols = sorted(rng.sample(range(M.cols), rng.randint(0, M.cols)))
    full = dense_rows(M)
    assert dense_rows(M.restricted(keep_rows, keep_cols)) == [[full[r][c] for c in keep_cols] for r in keep_rows]
    assert dense_rows(M.restricted(keep_rows)) == [full[r] for r in keep_rows]
    assert dense_rows(M.restricted(None, keep_cols)) == [[row[c] for c in keep_cols] for row in full]
    # the proof: the left kernel annihilates M, and one corrupted entry of it
    # at a nonzero row of M does not
    K = Matrix.from_columns(kernel_basis(M.transpose()).basis, M.rows).transpose()
    linalg.check_inclusion(K, M)
    held = sorted({r for r, _ in view})
    if K.rows and held:
        bad = K + Matrix(K.rows, K.cols, {(rng.randrange(K.rows), rng.choice(held)): G(1, rng.randint(-1, 1))})
        assert any(v for row in dense_product(bad, M) for v in row)
        with pytest.raises(LinearAlgebraError, match=BROKEN):
            linalg.check_inclusion(bad, M)


@pytest.mark.parametrize("seed", range(12))
def test_store_matches_dense_reference_on_twisted_cone_families(seed):
    # the relative complexes of the seeded morphisms and twists of the
    # cone sweeps: twisted dbar blocks, pullbacks and their stacks
    mu, p, rng = cone_sweep_scene(seed)
    diffs = make_relative_complex(mu, p, 1).middle.diffs
    for q, d in enumerate(diffs):
        pivots = dense_rref(d)[1]
        assert linalg.pivot_columns(d) == pivots and rank(d) == len(pivots)
        order = rng.sample(range(d.cols), d.cols)
        renamed = Matrix(d.rows, d.cols, {(r, order.index(c)): v for (r, c), v in d.entries.items()})
        assert linalg.pivot_columns(d, order) == dense_rref(renamed)[1]
        assert [dense(v, d.cols) for v in kernel_basis(d).basis] == dense_kernel_basis(d)
        assert Matrix(d.rows, d.cols, d.entries) == d
        if q:
            assert dense_rows(d.mul(diffs[q - 1])) == dense_product(d, diffs[q - 1])
            linalg.check_inclusion(d, diffs[q - 1])
            held = sorted({r for r, _ in diffs[q - 1].entries})
            if d.rows and held:
                bad = d + Matrix(d.rows, d.cols, {(rng.randrange(d.rows), rng.choice(held)): G(1)})
                with pytest.raises(LinearAlgebraError, match=BROKEN):
                    linalg.check_inclusion(bad, diffs[q - 1])
