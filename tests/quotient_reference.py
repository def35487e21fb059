"""Reference kernel-modulo-image groups with class representatives.

``Quotient`` and ``complex_cohomology`` were leafcoh's second
kernel-modulo-image engine, beside the rank-only ``_Grid.group`` of the
cohomology grids and the rank-only long exact sequences.  They served
``sequence --kind delta``, which compared the connecting map with the
pullback class by class; that report now rests on the mapping cone's
chain-level identity delta[r] = [mu* r].  They live on here as the test
references that the rank-only paths are compared with: the former
quotient-basis cohomology rows (quotient_rows.py) and the former snake
engine with induced and connecting matrices (snake_reference.py).  Their
many solves against one matrix go through ``FactorOnce``, which eliminates
the matrix once; linalg.solve eliminates afresh on every call.
"""

from __future__ import annotations

from functools import cached_property

from leafcoh import linalg
from leafcoh.linalg import (
    LinearAlgebraError,
    Matrix,
    Subspace,
    check_inclusion,
    hstack,
    kernel_basis,
    rank,
    solve,
)


class FactorOnce:
    """M eliminated once, then solved against any number of right-hand sides.

    The reduced elimination of [M | I], the identity carried as keys from
    M.cols on, gives the invertible E with E M = R, M's reduced echelon
    form.  M x = b then has a solution exactly when E b vanishes past the
    rank, and x is E b read at the pivots with free variables zero, which
    is what linalg.solve(M, b) returns.
    """

    def __init__(self, M: Matrix):
        n = M.cols
        self.rows = M.rows
        pivots, rows = linalg._reduced(hstack(M, Matrix.identity(M.rows)), n)
        self.pivots = [c for c in pivots if c < n]
        # column i of E as (row, value) pairs
        self._e_cols = [[] for _ in range(M.rows)]
        for k, row in enumerate(rows):
            for j, v in row.items():
                if j >= n:
                    self._e_cols[j - n].append((k, v))

    def solve(self, b: dict) -> dict | None:
        """One exact solution of M x = b for a sparse b, or None when none exists."""
        y = {}
        for i, v in b.items():
            if not 0 <= i < self.rows:
                raise LinearAlgebraError(f"right-hand side index {i} out of range for {self.rows} rows")
            for k, e in self._e_cols[i]:
                s = y.get(k)
                y[k] = e * v if s is None else s + e * v
        rank = len(self.pivots)
        x = {}
        for k, v in y.items():
            if v:
                if k >= rank:
                    return None
                x[self.pivots[k]] = v
        return x


def subspace(ambient_dim: int, basis) -> Subspace:
    """A Subspace on a basis that is re-ranked first: a dependent basis, or an
    index beyond ambient_dim, raises LinearAlgebraError."""
    basis = [dict(v) for v in basis]
    if basis:
        # the Matrix constructor rejects an index beyond the ambient dimension
        got = rank(Matrix.from_columns(basis, ambient_dim))
        if got != len(basis):
            raise LinearAlgebraError(f"basis is not independent (rank {got} of {len(basis)})")
    return Subspace(ambient_dim, basis)


def contains(sub: Subspace, vec: dict) -> bool:
    """vec lies in the subspace: it solves against the basis."""
    if not sub.basis:
        return not any(vec.values())
    return solve(Matrix.from_columns(sub.basis, sub.ambient_dim), vec) is not None


class Quotient:
    """ker(d) / image: a cohomology group with class representatives.

    ``image`` is a Subspace of the source of d, or None for zero.  The
    inclusion image <= ker(d) is proved by check_inclusion; kernel_basis
    spans ker(d), so this is as strong as a rank test on the combined basis.

    Representatives are chosen only when asked for: the kernel pivot columns
    of [image | kernel], in order.  That one elimination also serves every
    class_coords call.  Representatives, the image basis and class
    coordinates are sparse vectors.
    """

    def __init__(self, d: Matrix, image: Subspace | None = None):
        if image is None:
            image = Subspace(d.cols, [])
        if image.dim:
            check_inclusion(d, Matrix.from_columns(image.basis, d.cols))
        self.d = d
        self.kernel = kernel_basis(d)
        self.image = image
        self.dim = self.kernel.dim - image.dim

    @cached_property
    def d_image(self) -> Subspace:
        """im(d), read off the elimination that found the kernel.

        kernel_basis gives one vector per free column of d, with its largest
        index there; the other columns are the pivots, and d's pivot columns
        are a basis of its column space.
        """
        free = {max(vec) for vec in self.kernel.basis}
        pivots = [j for j in range(self.d.cols) if j not in free]
        return Subspace(self.d.rows, self.d.columns(pivots))

    @cached_property
    def _span(self) -> FactorOnce:
        """[image | kernel], eliminated once: its pivots pick the reps.

        A solution with free variables zero lives on the pivots, so it is
        the solution over [image | reps], which has full column rank.
        """
        return FactorOnce(
            Matrix.from_columns(self.image.basis + self.kernel.basis, self.kernel.ambient_dim)
        )

    @cached_property
    def _rep_of(self) -> dict:
        """Pivot column of [image | kernel] -> index of the rep it picks."""
        return {j: k for k, j in enumerate(self._span.pivots[self.image.dim :])}

    @cached_property
    def reps(self) -> list:
        skip = self.image.dim
        return [self.kernel.basis[j - skip] for j in self._rep_of]

    def class_coords(self, vec: dict) -> dict:
        """Coordinates of [vec] over the chosen representatives, as a sparse vector.

        vec must be a cycle; a failed solve signals a non-cycle input.
        """
        x = self._span.solve(vec)
        if x is None:
            raise ValueError("vector is not a cycle of the complex")
        rep_of = self._rep_of
        return {rep_of[j]: v for j, v in x.items() if j in rep_of}


def complex_cohomology(cx: CochainComplex) -> list:
    """H^q = ker d_q / im d_{q-1} at every grade (d_top is the zero map).

    im d_{q-1} comes from the elimination that found ker d_{q-1}, so each
    differential is eliminated once.  Its basis is d_{q-1}'s pivot columns,
    so Quotient's proof that d_q kills it is d_q d_{q-1} = 0.
    """
    groups = []
    for q in range(len(cx.dims)):
        image = groups[-1].d_image if q else None
        groups.append(Quotient(cx.differential(q), image))
    return groups
