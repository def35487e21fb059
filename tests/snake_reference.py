"""Reference long exact sequences: the former snake engine with induced matrices.

Every group of all three complexes was a linalg.Quotient with
representatives, the maps i* and p* were matrices of class coordinates, the
connecting map came from the zig-zag, and exactness at each node was checked
by a product of consecutive maps plus a rank count.  The rank-only nodes of
leafcoh.sequences must agree with these on every dimension and rank; the
golden test reads the representatives and matrices off this engine.
"""

from __future__ import annotations

from leafcoh.linalg import LinearAlgebraError, Matrix, rank
from leafcoh.sequences import complex_cohomology


class ReferenceSnake:
    """Cohomology of all three complexes plus the induced and connecting maps."""

    def __init__(self, grades, left, middle, right, induced_inject, induced_project, connecting):
        self.grades = grades
        self.left = left
        self.middle = middle
        self.right = right
        self.induced_inject = induced_inject  # H_q(L) -> H_q(M)
        self.induced_project = induced_project  # H_q(M) -> H_q(R)
        self.connecting = connecting  # H_q(R) -> H_{q+1}(L); zero map at the top grade


def _induced_matrix(comp: Matrix, src, dst) -> Matrix:
    return Matrix.from_columns([dst.class_coords(comp.matvec(rep)) for rep in src.reps], dst.dim)


def _connect_class(ses, q, rep: dict, hl_next) -> dict:
    """Zig-zag: lift through project, apply d_M, pull back through inject."""
    x = ses.factor("project", q).solve(rep)
    w = ses.middle.differential(q).matvec(x)
    return hl_next.class_coords(ses.factor("inject", q + 1).solve(w))


def reference_snake(ses) -> ReferenceSnake:
    grades = len(ses.middle.dims)
    hl = complex_cohomology(ses.left)
    hm = complex_cohomology(ses.middle)
    hr = complex_cohomology(ses.right)
    ind_i = [_induced_matrix(ses.inject.components[q], hl[q], hm[q]) for q in range(grades)]
    ind_p = [_induced_matrix(ses.project.components[q], hm[q], hr[q]) for q in range(grades)]
    connecting = []
    for q in range(grades):
        if q + 1 >= grades:
            connecting.append(Matrix.zero(0, hr[q].dim))
            continue
        cols = [_connect_class(ses, q, rep, hl[q + 1]) for rep in hr[q].reps]
        connecting.append(Matrix.from_columns(cols, hl[q + 1].dim))
    return ReferenceSnake(grades, hl, hm, hr, ind_i, ind_p, connecting)


def reference_nodes(ses, labels=("L", "M", "R")) -> list:
    """(group, dim, rank of the outgoing map) at every node, each node checked
    exact by the product of its two maps and the rank count."""
    data = reference_snake(ses)
    nodes = []
    for q in range(data.grades):
        nodes.append((f"H^{q}({labels[0]})", data.left[q].dim, data.induced_inject[q]))
        nodes.append((f"H^{q}({labels[1]})", data.middle[q].dim, data.induced_project[q]))
        nodes.append((f"H^{q}({labels[2]})", data.right[q].dim, data.connecting[q]))
    out = []
    prev_map, in_rank = None, 0
    for label, dim, out_matrix in nodes:
        out_rank = rank(out_matrix)
        composes = prev_map is None or out_matrix.mul(prev_map).is_zero
        if not (composes and in_rank == dim - out_rank):
            raise LinearAlgebraError(f"long exact sequence is not exact at {label}")
        out.append((label, dim, out_rank))
        prev_map, in_rank = out_matrix, out_rank
    return out
