"""Reference long exact sequences: the former snake engine with induced matrices.

Every group of all three complexes is a Quotient (quotient_reference.py)
with representatives, the maps i* and p* are matrices of class coordinates,
the connecting map comes from the zig-zag, and exactness at each node is
checked by a product of consecutive maps plus a rank count.  The rank-only
nodes of leafcoh.sequences must agree with these on every dimension and
rank; the golden test reads the representatives and matrices off this
engine.  reference_delta_check is the former --kind delta report, which
compared the zig-zag with the pullback class by class.
"""

from __future__ import annotations

from leafcoh.cohomology import form_from_vector, vectorize
from leafcoh.linalg import LinearAlgebraError, Matrix, rank
from leafcoh.operators import pullback

from factories import relative_ses
from quotient_reference import FactorOnce, complex_cohomology


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


def _connecting(ses, hl: list, hr: list) -> list:
    """delta_q: H^q(R) -> H^{q+1}(L), one zig-zag per class, and the zero map at the top grade.

    Each class lifts through project, goes through d_M and pulls back through
    inject, each step a solve against one FactorOnce per component.
    """
    connecting = []
    for q in range(len(hr) - 1):
        lift = FactorOnce(ses.project.components[q])
        pull = FactorOnce(ses.inject.components[q + 1])
        d = ses.middle.differential(q)
        cols = [hl[q + 1].class_coords(pull.solve(d.matvec(lift.solve(rep)))) for rep in hr[q].reps]
        connecting.append(Matrix.from_columns(cols, hl[q + 1].dim))
    connecting.append(Matrix.zero(0, hr[-1].dim))
    return connecting


def reference_snake(ses) -> ReferenceSnake:
    grades = len(ses.middle.dims)
    hl = complex_cohomology(ses.left)
    hm = complex_cohomology(ses.middle)
    hr = complex_cohomology(ses.right)
    ind_i = [_induced_matrix(ses.inject.components[q], hl[q], hm[q]) for q in range(grades)]
    ind_p = [_induced_matrix(ses.project.components[q], hm[q], hr[q]) for q in range(grades)]
    return ReferenceSnake(grades, hl, hm, hr, ind_i, ind_p, _connecting(ses, hl, hr))


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


def reference_delta_check(rc) -> dict:
    """The --kind delta report of a relative complex, class by class.

    For every class of the target at grade q the zig-zag class in the source
    cohomology at grade q+1 must equal the class of the pulled back
    representative; equality is equality of cosets, certified by the shared
    representative coordinates.
    """
    ses = relative_ses(rc)
    hl, hr = complex_cohomology(ses.left), complex_cohomology(ses.right)
    connecting = _connecting(ses, hl, hr)
    per_grade = []
    all_equal = True
    for q in range(len(hr) - 1):
        verdicts = []
        for rep, delta_coords in zip(hr[q].reps, connecting[q].columns()):
            form = form_from_vector(rc.mu.target, rc.p, q, rc.target_budgets[q], rep)
            mu_coords = hl[q + 1].class_coords(vectorize(pullback(rc.mu, form), rc.source_budgets[q + 1]))
            same = delta_coords == mu_coords
            all_equal = all_equal and same
            verdicts.append(bool(same))
        per_grade.append({"grade": q, "classes": len(hr[q].reps), "equal": verdicts})
    return {"check": "delta_equals_pullback", "grades": per_grade, "all_equal": all_equal}
