"""Reference cohomology rows: the former quotient-basis engine.

Every group was a Quotient (quotient_reference.py): kernel vectors, an
image basis and the inclusion checked by a product with that basis.  The
rank-only rows in leafcoh.cohomology must agree with these on every count;
the helpers that only these rows used (column spaces, spans, the
restriction of an image to a smaller budget block) live here with them.
Ranks are the pivot counts of the whole matrix's reduced echelon form
(linalg._reduced), not of the block-by-block pivot_columns the engine uses.
"""

from __future__ import annotations

from leafcoh import linalg
from leafcoh.cohomology import inclusion_positions, operator_matrix
from leafcoh.forms import basis_dimension
from leafcoh.linalg import Matrix, Subspace, kernel_basis, vstack
from leafcoh.operators import twist_gap

from quotient_reference import Quotient

_OPS = {"dbar_f": (0, 1), "partial_f": (1, 0), "dbar_f_k": (0, 1)}


def _pivots(M: Matrix) -> list:
    return linalg._reduced(M, M.cols)[0]


def rref_rank(M: Matrix) -> int:
    return len(_pivots(M))


def column_space(M: Matrix) -> Subspace:
    """Basis of the column space: the original pivot columns."""
    keep = _pivots(M)
    return Subspace(M.rows, M.columns(keep))


def from_span(vectors, ambient_dim: int) -> Subspace:
    """Deterministic independent basis of a span (pivot columns kept)."""
    vectors = [dict(v) for v in vectors]
    if not vectors:
        return Subspace(ambient_dim, [])
    keep = _pivots(Matrix.from_columns(vectors, ambient_dim))
    return Subspace(ambient_dim, [vectors[j] for j in keep])


def span_restricted_to(vectors, keep: list, ambient_dim: int) -> Subspace:
    """Vectors of span(vectors) supported on the coordinates in ``keep``.

    Returns the subspace in the restricted coordinate order keep[0], keep[1],
    ...; used to intersect an image with a smaller budget block.
    """
    vectors = [dict(v) for v in vectors]
    if not vectors:
        return Subspace(len(keep), [])
    keep_set = set(keep)
    outside = [i for i in range(ambient_dim) if i not in keep_set]
    M = Matrix.from_columns(vectors, ambient_dim)
    entries = M.entries
    restricted_rows = Matrix(
        len(outside),
        len(vectors),
        {
            (ri, j): entries[(i, j)]
            for ri, i in enumerate(outside)
            for j in range(len(vectors))
            if (i, j) in entries
        },
    )
    combos = kernel_basis(restricted_rows)
    candidates = []
    for c in combos.basis:
        full = M.matvec(c)
        candidates.append({k: full[i] for k, i in enumerate(keep) if i in full})
    # input vectors may be dependent, so reduce the candidates to a basis
    return from_span(candidates, len(keep))


def composed_matrix(model, p, q, in_budget):
    """partial_f after dbar_f from (p,q), as a plain product of operator matrices."""
    gap = twist_gap(model.f)
    B = operator_matrix("dbar_f", model, p, q, in_budget, in_budget + gap)
    A = operator_matrix("partial_f", model, p, q + 1, in_budget + gap, in_budget + 2 * gap)
    return A.mul(B)


def _image_subspace(tag, model, p, q, src_budget, target_budget, slack, k=None):
    """Image of the operator from (p,q) sources at src_budget + slack,
    expressed in the target-bidegree basis at target_budget; None when there
    are no sources."""
    if p < 0 or q < 0 or src_budget + slack < 0:
        return None
    dp, dq = _OPS[tag]
    src = src_budget + slack
    gap = twist_gap(model.f)
    out = max(target_budget, src + gap)
    M = operator_matrix(tag, model, p, q, src, out, k)
    img = column_space(M)
    if out == target_budget:
        return img
    keep = inclusion_positions(model, p + dp, q + dq, target_budget, out)
    return span_restricted_to(img.basis, keep, img.ambient_dim)


def _bott_chern(model, p, q, D, Md) -> Quotient:
    gap = twist_gap(model.f)
    Mp = operator_matrix("partial_f", model, p, q, D, D + gap)
    image = None
    if p and q and D >= 2 * gap:
        image = column_space(composed_matrix(model, p - 1, q - 1, D - 2 * gap))
    return Quotient(vstack(Mp, Md), image)


def _row(p, q, D, H: Quotient, image_source: int) -> dict:
    return {
        "p": p,
        "q": q,
        "D": D,
        "ker": H.kernel.dim,
        "im": H.image.dim,
        "dim": H.dim,
        "budgets": {"kernel": D, "image_source": image_source},
    }


def dolbeault_row(model, p, q, D, slack=0, k=None) -> dict:
    tag = "dbar_f" if k is None else "dbar_f_k"
    gap = twist_gap(model.f)
    H = Quotient(
        operator_matrix(tag, model, p, q, D, D + gap, k),
        _image_subspace(tag, model, p, q - 1, D - gap, D, slack, k),
    )
    row = _row(p, q, D, H, max(D - gap + slack, -1))
    if k is not None:
        row["k"] = k
    return row


def bott_chern_row(model, p, q, D) -> dict:
    gap = twist_gap(model.f)
    H = _bott_chern(model, p, q, D, operator_matrix("dbar_f", model, p, q, D, D + gap))
    return _row(p, q, D, H, D - 2 * gap)


def aeppli_row(model, p, q, D) -> dict:
    gap = twist_gap(model.f)
    columns = []
    if p >= 1 and D - gap >= 0:
        columns.extend(operator_matrix("partial_f", model, p - 1, q, D - gap, D).columns())
    if q >= 1 and D - gap >= 0:
        columns.extend(operator_matrix("dbar_f", model, p, q - 1, D - gap, D).columns())
    H = Quotient(
        composed_matrix(model, p, q, D),
        from_span(columns, basis_dimension(model, p, q, D)),
    )
    return _row(p, q, D, H, D - gap)


def canonical_map_row(model, p, q, D) -> dict:
    gap = twist_gap(model.f)
    Md = operator_matrix("dbar_f", model, p, q, D, D + gap)
    bc = _bott_chern(model, p, q, D, Md)
    dolb = Quotient(Md, _image_subspace("dbar_f", model, p, q - 1, D - gap, D, 0))
    I_d = dolb.image
    if bc.image.dim:
        both = Matrix.from_columns(I_d.basis + bc.image.basis, Md.cols)
        if rref_rank(both) != I_d.dim:
            raise AssertionError(
                "canonical map ill-defined: Bott-Chern image escapes the Dolbeault image"
            )
    if bc.kernel.dim:
        mixed = Matrix.from_columns(I_d.basis + bc.kernel.basis, Md.cols)
        image_rank = rref_rank(mixed) - I_d.dim
    else:
        image_rank = 0
    return {
        "p": p,
        "q": q,
        "D": D,
        "rank": image_rank,
        "domain": bc.dim,
        "codomain": dolb.dim,
    }


def variant_row(model, variant, p, q, D, slack=0, k=None) -> dict:
    if variant == "dolbeault":
        return dolbeault_row(model, p, q, D, slack)
    if variant == "k":
        return dolbeault_row(model, p, q, D, slack, k)
    if variant == "bc":
        return bott_chern_row(model, p, q, D)
    if variant == "aeppli":
        return aeppli_row(model, p, q, D)
    if variant == "canonical":
        return canonical_map_row(model, p, q, D)
    raise ValueError(f"unknown variant {variant!r}")
