"""Cohomology dimensions by exact rank computations.

Forms at a fixed budget are vectorised into sparse vectors over the
deterministic basis of ``forms.enumerate_basis``; operator matrices are
written down column by column from the closed-form monomial rule in
``operator_matrix``, and every dimension is counted from exact ranks of
sparse matrices, building no basis: each kernel K modulo image M is one
``_Grid.group`` (dims cols - rk K and rk M, with im M <= ker K proved).

Budget semantics ("truncation cohomology"): the group at budget D uses the
kernel on budget-D forms and the image of sources at budget D - gap (gap =
max(deg f - 1, 0)), so the image lands inside budget D with no truncation and
the inclusion image <= kernel is exact.  An optional nonnegative ``slack``
lets the Dolbeault image (variants dolbeault and k only) come from deeper
sources (budget D - gap + slack), then intersected with the budget-D block;
untwisted exactness needs it, as antiderivatives gain a degree.  All of this
approximates the smooth theory: stabilisation is reported, never assumed.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add

from .algebra import Series, expo_degree
from .forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    _basis_cached,
    _basis_index,
    basis_dimension,
    basis_form,
    count_monomials,
    inclusion_positions,
    insert_index,
)
from .operators import (
    FoliatedMorphism,
    dbar,
    dbar_f,
    dbar_f_k,
    partial,
    partial_f,
    pullback,
    tilde_dbar,
    twist_gap,
)
from . import linalg
from .linalg import (
    LinearAlgebraError,
    Matrix,
    _raw_matrix,
    check_inclusion,
    hstack,
    rank,
    solve,
    vstack,
)


class BudgetContractError(ValueError):
    pass


class NotClosedError(ValueError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# Vectorisation
# ---------------------------------------------------------------------------


def vectorize(phi: FoliatedForm, budget: int) -> dict:
    """Coordinates of phi over the (p,q) basis at the given budget: {position: nonzero}."""
    model = phi.model
    idx = _basis_index(model.m, model.n, phi.p, phi.q, budget)
    out = {}
    for (A, B), series in phi.coeffs.items():
        for expo, coeff in series.terms.items():
            pos = idx.get((A, B, expo))
            if pos is None:
                raise BudgetContractError(
                    f"form term {(A, B, expo)} does not fit the budget-{budget} basis"
                )
            out[pos] = coeff
    return out


def form_from_vector(model: FoliationModel, p: int, q: int, budget: int, vec: dict) -> FoliatedForm:
    """The form with the sparse coordinates vec over the (p,q) basis at the given budget."""
    basis = _basis_cached(model.m, model.n, p, q, budget)
    terms: dict = {}
    for pos, coeff in vec.items():
        A, B, expo = basis[pos]
        terms.setdefault((A, B), {})[expo] = coeff
    coeffs = {key: Series(model.m, model.n, budget, t) for key, t in terms.items()}
    return FoliatedForm(model, p, q, coeffs, budget)


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------

_OPS = {
    "dbar": (0, 1, False),
    "partial": (1, 0, False),
    "dbar_f": (0, 1, True),
    "partial_f": (1, 0, True),
    "dbar_f_k": (0, 1, True),
}


def apply_operator(tag: str, phi: FoliatedForm, k: int | None = None) -> FoliatedForm:
    if tag == "dbar_f_k":
        if k is None:
            raise ValueError("dbar_f_k needs the integer k")
        return dbar_f_k(phi, k)
    ops = {"dbar": dbar, "partial": partial, "dbar_f": dbar_f, "partial_f": partial_f}
    if tag not in ops:
        raise ValueError(f"unknown operator tag {tag!r}")
    return ops[tag](phi)


def operator_gap(tag: str, model: FoliationModel) -> int:
    return twist_gap(model.f) if _OPS[tag][2] else 0


def operator_matrix(
    tag: str,
    model: FoliationModel,
    p: int,
    q: int,
    in_budget: int,
    out_budget: int,
    k: int | None = None,
) -> Matrix:
    """Matrix of the operator from the (p,q) basis at in_budget.

    Column j holds the coordinates of the operator applied to basis element
    j, over the target-bidegree basis at out_budget.  Requires
    out_budget >= in_budget + gap so no term ever falls outside the target
    basis.

    Columns are written down in closed form.  For a basis element
    z^e dz^A ^ dzb^B and the twist f = sum_t f_t z^t (e and t exponent
    triples over z, zb and x),

        dbar_f(z^e dz^A dzb^B) = sum_{a not in B} sum_t (-1)^p sgn(a, B) f_t
                                 (e_{beta,a} - w t_{beta,a})
                                 z^(e + t - eps_a) dz^A ^ dzb^(B + a)

    where e_{beta,a} is the zb_a exponent, eps_a lowers it by one and
    sgn(a, B) is the sign of merging a into B.  partial_f mirrors this with
    sgn(a, A), the z_a exponents and dz^(A + a), without (-1)^p.  The weight
    w is p+q for dbar_f/partial_f and p+q-k for dbar_f_k; dbar/partial take
    f = 1.  Distinct (a, t) land on distinct output entries, so every entry
    is a single product, and every entry is nonzero and indexed by the bases.
    """
    if tag not in _OPS:
        raise ValueError(f"unknown operator tag {tag!r}")
    if tag == "dbar_f_k" and k is None:
        raise ValueError("dbar_f_k needs the integer k")
    dp, dq, twisted = _OPS[tag]
    gap = operator_gap(tag, model)
    if out_budget < in_budget + gap:
        raise BudgetContractError(
            f"budget contract violated: out {out_budget} < in {in_budget} + gap {gap}"
        )
    m, n = model.m, model.n
    # exponent triples flattened to z + zb + x; the derivative lowers z_a or zb_a
    f = model.f if twisted else Series.one(m, n)
    f_terms = [(x + y + z, ft) for (x, y, z), ft in f.terms.items()]
    weight = p + q - (k if tag == "dbar_f_k" else 0)  # f = 1 has t = 0 only
    in_basis = _basis_cached(m, n, p, q, in_budget)
    if not in_basis:
        return _raw_matrix(basis_dimension(model, p + dp, q + dq, out_budget), 0, {})
    n_in, n_out = count_monomials(m, n, in_budget), count_monomials(m, n, out_budget)
    out_basis = _basis_cached(m, n, p + dp, q + dq, out_budget)
    # Positions are arithmetic (forms.inclusion_positions): (A, B, e) sits at
    # pair rank * N + monomial rank.  The monomial map z^e -> z^(e + t - eps_a)
    # and its factor do not depend on (A, B), so shifts tabulates them once per
    # variable and sign: per input monomial, the (target monomial rank, entry)
    # of each term with an entry.  Each (A, B) block places a copy; equal
    # entries f_t * c are one shared scalar, and a row is one shared int.
    mono_rank = {x + y + z: r for r, (_, _, (x, y, z)) in enumerate(out_basis[:n_out])}
    pair_at = {(A, B): r * n_out for r, (A, B, _) in enumerate(out_basis[::n_out])}
    entries, tables, shared = {}, {}, {}
    row_ints = list(range(len(out_basis)))

    def shifts(i, sign):
        table = []
        for _, _, (x, y, z) in in_basis[:n_in]:
            e, row = x + y + z, []
            for t, ft in f_terms:
                c = sign * (e[i] - weight * t[i])
                if c:
                    expo = list(map(add, e, t))
                    expo[i] -= 1
                    row.append((mono_rank[tuple(expo)], shared.get((t, c)) or shared.setdefault((t, c), ft * c)))
            table.append(row)
        return table

    for j, (A, B, _) in enumerate(in_basis[::n_in]):
        placed = []
        for a in range(1, m + 1):
            s, merged = insert_index(a, B if dq else A)
            if s:
                key = (a - 1 + m * dq, -s if dq and p % 2 else s)  # flat index lowered, sign
                if key not in tables:
                    tables[key] = shifts(*key)
                placed.append((tables[key], pair_at[(A, merged) if dq else (merged, B)]))
        for u in range(n_in):
            col = j * n_in + u
            for table, row0 in placed:
                for r, v in table[u]:
                    entries[(row_ints[row0 + r], col)] = v
    return _raw_matrix(len(out_basis), len(in_basis), entries)


def _applied_matrix(apply, model: FoliationModel, p, q, in_budget, out_idx: dict) -> Matrix:
    """Column j: apply(basis element j of (p,q,in_budget)) over the basis index out_idx."""
    in_basis = _basis_cached(model.m, model.n, p, q, in_budget)
    entries = {}
    for j, elem in enumerate(in_basis):
        for (A, B), series in apply(basis_form(model, elem, in_budget)).coeffs.items():
            for expo, coeff in series.terms.items():
                entries[(out_idx[(A, B, expo)], j)] = coeff
    return _raw_matrix(len(out_idx), len(in_basis), entries)


def pullback_matrix(
    mu: FoliatedMorphism, p: int, q: int, in_budget: int, out_budget: int
) -> Matrix:
    """Matrix of mu* from target (p,q,in_budget) to source (p,q,out_budget)."""
    if out_budget < mu.substitution_budget(in_budget, p, q):
        raise BudgetContractError(
            "pullback out budget too small for exact substitution"
        )
    out_idx = _basis_index(mu.source.m, mu.source.n, p, q, out_budget)
    return _applied_matrix(lambda phi: pullback(mu, phi), mu.target, p, q, in_budget, out_idx)


def _composed_matrix(grid: "_Grid", p, q, in_budget):
    """partial_f after dbar_f from (p,q) at in_budget, the product of grid's factor
    matrices; checked against the operators applied to each basis form, unless
    the target basis is empty and the product has no entry to compare."""
    model, gap = grid.model, grid.gap
    B = grid.matrix("dbar_f", p, q, in_budget, in_budget + gap)
    A = grid.matrix("partial_f", p, q + 1, in_budget + gap, in_budget + 2 * gap)
    C = A.mul(B)
    out_idx = _basis_index(model.m, model.n, p + 1, q + 1, in_budget + 2 * gap)
    if out_idx and _applied_matrix(lambda phi: partial_f(dbar_f(phi)), model, p, q, in_budget, out_idx) != C:
        raise AssertionError("composed operator disagrees with matrix product")
    return C


# ---------------------------------------------------------------------------
# Dimension computations
# ---------------------------------------------------------------------------


def _blocks(tag, p, q) -> tuple:
    """(column bidegrees, row bidegrees) of a grid matrix, in stacking order."""
    if tag == "composed":
        return ((p, q),), ((p + 1, q + 1),)
    if tag == "stacked":
        return ((p, q),), ((p + 1, q), (p, q + 1))
    if tag == "image":
        return ((p - 1, q), (p, q - 1)), ((p, q),)
    dp, dq, _ = _OPS[tag]
    return ((p, q),), ((p + dp, q + dq),)


class _Family:
    """One operator at every budget: its matrix at the largest one and the
    monomial degrees of the pivot columns of that matrix's elimination."""

    __slots__ = ("budget", "matrix", "pivot_degrees")

    def __init__(self, budget: int, matrix: Matrix):
        self.budget = budget
        self.matrix = matrix
        self.pivot_degrees = None


class _Grid:
    """Operator matrices of one model and their ranks, each family computed once.

    Matrices are keyed (tag, p, q, in_budget, out_budget, k) as in
    operator_matrix, plus the derived tags "composed" (partial_f after
    dbar_f), "stacked" (partial_f over dbar_f) and "image" ([partial_f from
    (p-1,q) | dbar_f from (p,q-1)] into (p,q)).  Keys that differ only in
    in_budget, at one out_budget - in_budget, form a family, assembled (a
    composition re-checked) at the largest in_budget asked for and rebuilt
    if a larger one is asked for later.  A column does not depend on the
    budget, so a lower budget's matrix is the restriction to the lower bases.
    Ranks come from one forward elimination of the family's matrix, columns
    in stable ascending monomial degree: the budget-b columns are a prefix,
    whose rank is the elimination's pivot count in it.  Each kernel modulo
    image is one group(kernel key, image key).  cohomology_grid shares one
    instance between its rows.
    """

    def __init__(self, model: FoliationModel):
        self.model = model
        self.gap = twist_gap(model.f)
        self._families: dict = {}
        self._matrices: dict = {}

    def _family(self, key) -> _Family:
        tag, p, q, b, out, k = key
        fkey = (tag, p, q, k, out - b)
        family = self._families.get(fkey)
        if family is None or family.budget < b:
            family = self._families[fkey] = _Family(b, self._build(key))
        return family

    def _build(self, key) -> Matrix:
        tag, p, q, b, out, k = key
        if tag == "composed":
            return _composed_matrix(self, p, q, b)
        if tag == "stacked":
            return vstack(self.matrix("partial_f", p, q, b, out), self.matrix("dbar_f", p, q, b, out))
        if tag == "image":
            return hstack(self.matrix("partial_f", p - 1, q, b, out), self.matrix("dbar_f", p, q - 1, b, out))
        return operator_matrix(tag, self.model, p, q, b, out, k)

    def _positions(self, blocks, small: int, big: int) -> list:
        """Positions of the budget-small bases of blocks inside the budget-big ones, stacked."""
        out, offset = [], 0
        for p, q in blocks:
            out += [offset + i for i in inclusion_positions(self.model, p, q, small, big)]
            offset += basis_dimension(self.model, p, q, big)
        return out

    def matrix(self, tag, p, q, in_budget, out_budget, k=None) -> Matrix:
        key = (tag, p, q, in_budget, out_budget, k)
        M = self._matrices.get(key)
        if M is None:
            family = self._family(key)
            top = family.budget
            M = family.matrix
            if top != in_budget:
                col_blocks, row_blocks = _blocks(tag, p, q)
                top_out = top + out_budget - in_budget
                cols = {c: j for j, c in enumerate(self._positions(col_blocks, in_budget, top))}
                rows = {r: i for i, r in enumerate(self._positions(row_blocks, out_budget, top_out))}
                entries = {(rows[r], cols[c]): v for (r, c), v in M.entries.items() if c in cols}
                M = _raw_matrix(len(rows), len(cols), entries)
            self._matrices[key] = M
        return M

    def rank(self, key) -> int:
        """Rank of the matrix under ``key``: the pivots of degree <= in_budget of its family."""
        family = self._family(key)
        if family.pivot_degrees is None:
            tag, p, q = key[:3]
            degrees = [
                expo_degree(e)
                for bp, bq in _blocks(tag, p, q)[0]
                for _, _, e in _basis_cached(self.model.m, self.model.n, bp, bq, family.budget)
            ]
            order = sorted(range(len(degrees)), key=degrees.__getitem__)
            at = sorted(range(len(order)), key=order.__getitem__)  # column -> its place in order
            M = family.matrix
            rows = [{} for _ in range(M.rows)]
            for (r, c), v in M.entries.items():
                rows[r][at[c]] = v
            pivots = linalg._gauss_jordan(rows, M.cols, forward=True) if M.entries else []
            family.pivot_degrees = [degrees[order[j]] for j in pivots]
        return bisect_right(family.pivot_degrees, key[3])

    def group(self, kernel_key, image_key) -> tuple:
        """(dim ker K, dim im M), K and M under the keys (no image_key: M = 0),
        with im M <= ker K proved.  When M's out budget is K's in budget, by the
        product K * M = 0.  Else (slack) M's rows split into pos, K's basis, and
        out: the part of im M in K's basis is M[pos] on ker M[out], of dimension
        rk M - rk M[out], and lies in ker K iff rk [M[out]; K * M[pos]] == rk M[out]."""
        K = self.matrix(*kernel_key)
        kernel = K.cols - self.rank(kernel_key)
        if image_key is None:
            return kernel, 0
        M = self.matrix(*image_key)
        image = self.rank(image_key)
        D, top = kernel_key[3], image_key[4]
        if top == D:
            check_inclusion(K, M)
        else:
            pos = {r: i for i, r in enumerate(self._positions(_blocks(*image_key[:3])[1], D, top))}
            out = {r: i for i, r in enumerate(r for r in range(M.rows) if r not in pos)}
            block = _raw_matrix(len(pos), M.cols, {(pos[r], c): v for (r, c), v in M.entries.items() if r in pos})
            rest = _raw_matrix(len(out), M.cols, {(out[r], c): v for (r, c), v in M.entries.items() if r in out})
            outside = rank(rest)
            if rank(vstack(rest, K.mul(block))) != outside:
                raise LinearAlgebraError("image is not contained in the kernel: broken complex")
            image -= outside
        return kernel, image


def _bott_chern(grid: _Grid, p: int, q: int, D: int) -> tuple:
    """(dim ker, dim im) of ker partial_f & ker dbar_f modulo im partial_f dbar_f at (p,q,D)."""
    gap = grid.gap
    # with no partial_f entries the stack eliminates, and annihilates, as dbar_f alone
    kernel = ("stacked" if grid.matrix("partial_f", p, q, D, D + gap).entries else "dbar_f", p, q, D, D + gap, None)
    image = ("composed", p - 1, q - 1, D - 2 * gap, D, None) if p and q and D >= 2 * gap else None
    return grid.group(kernel, image)


def _row(p, q, D, kernel: int, image: int, image_source: int) -> dict:
    row = {"p": p, "q": q, "D": D, "ker": kernel, "im": image, "dim": kernel - image}
    row["budgets"] = {"kernel": D, "image_source": image_source}
    return row


def dolbeault_row(
    model: FoliationModel, p: int, q: int, D: int, slack: int = 0, k: int | None = None, *, grid=None
) -> dict:
    """One table row of twisted Dolbeault dimensions at budget D.

    Kernel at budget D, image from budget D - gap (+ slack); the value is a
    truncation approximation of the smooth-theory group.  ker = cols - rk d
    and im = rk M for the image matrix M, cut down to the budget-D block
    when there is slack.  ``grid``, in every row function, is the memo
    cohomology_grid shares between its rows.
    """
    grid = grid or _Grid(model)
    tag = "dbar_f" if k is None else "dbar_f_k"
    src = D - grid.gap + slack
    M_key = (tag, p, q - 1, src, max(D, src + grid.gap), k) if q >= 1 and src >= 0 else None
    row = _row(p, q, D, *grid.group((tag, p, q, D, D + grid.gap, k), M_key), max(src, -1))
    if k is not None:
        row["k"] = k
    return row


def bott_chern_row(model: FoliationModel, p: int, q: int, D: int, *, grid=None) -> dict:
    """Bott-Chern dimensions: ker = nullity (partial_f; dbar_f), im = rk partial_f dbar_f."""
    grid = grid or _Grid(model)
    return _row(p, q, D, *_bott_chern(grid, p, q, D), D - 2 * grid.gap)


def aeppli_row(model: FoliationModel, p: int, q: int, D: int, *, grid=None) -> dict:
    """Aeppli dimensions: kernel of the composition modulo the two images.

    ker = nullity partial_f dbar_f; im = rk [partial_f from (p-1,q) | dbar_f from (p,q-1)].
    """
    grid = grid or _Grid(model)
    gap = grid.gap
    image = None
    if D >= gap and (p >= 1 or q >= 1):
        source = ("partial_f", p - 1, q) if p >= 1 else ("dbar_f", p, q - 1)
        image = (("image", p, q) if p >= 1 and q >= 1 else source) + (D - gap, D, None)
    return _row(p, q, D, *grid.group(("composed", p, q, D, D + 2 * gap, None), image), D - gap)


def canonical_map_row(model: FoliationModel, p: int, q: int, D: int, *, grid=None) -> dict:
    """Rank of the canonical homomorphism Bott-Chern -> Dolbeault at (p,q,D).

    Representatives of a Bott-Chern class are already dbar_f-closed; the map
    sends the class to its Dolbeault class.  With M the Dolbeault image
    matrix, the classes that die span ker partial_f on im M, so rank =
    nullity(partial_f; dbar_f) - (rk M - rk partial_f M).  Well-definedness
    (the Bott-Chern image lies in the Dolbeault image) is asserted by the
    exact product M P + partial_f dbar_f = 0, with P the partial_f matrix
    from (p-1,q-1): it exhibits partial_f dbar_f = M (-P), so its image lies
    in im M.
    """
    grid = grid or _Grid(model)
    gap = grid.gap
    bc_kernel, bc_image = _bott_chern(grid, p, q, D)
    M_key = ("dbar_f", p, q - 1, D - gap, D, None) if q >= 1 and D >= gap else None
    dolb_kernel, dolb_image = grid.group(("dbar_f", p, q, D, D + gap, None), M_key)
    image_rank = bc_kernel
    if bc_image:  # then q >= 1 and D >= 2 gap, so M_key is set
        P = grid.matrix("partial_f", p - 1, q - 1, D - 2 * gap, D - gap)
        if not (grid.matrix(*M_key).mul(P) + grid.matrix("composed", p - 1, q - 1, D - 2 * gap, D)).is_zero:
            raise AssertionError(
                "canonical map ill-defined: Bott-Chern image escapes the Dolbeault image"
            )
    if bc_kernel and M_key:
        # partial_f M is the composition from (p, q-1)
        composed = ("composed", p, q - 1, D - gap, D + gap, None)
        image_rank -= dolb_image - grid.rank(composed)
    row = {"p": p, "q": q, "D": D, "rank": image_rank, "domain": bc_kernel - bc_image}
    row["codomain"] = dolb_kernel - dolb_image
    return row


VARIANTS = ("dolbeault", "k", "bc", "aeppli", "canonical")


def variant_row(model, variant, p, q, D, slack=0, k=None, *, grid=None) -> dict:
    if variant == "dolbeault":
        return dolbeault_row(model, p, q, D, slack, grid=grid)
    if variant == "k":
        if k is None:
            raise ValueError("variant 'k' needs the integer k")
        return dolbeault_row(model, p, q, D, slack, k, grid=grid)
    row = {"bc": bott_chern_row, "aeppli": aeppli_row, "canonical": canonical_map_row}.get(variant)
    if row is None:
        raise ValueError(f"unknown variant {variant!r}")
    return row(model, p, q, D, grid=grid)


def cohomology_grid(
    model: FoliationModel,
    variant: str,
    p_range,
    q_range,
    d_range,
    slack: int = 0,
    k: int | None = None,
) -> list:
    """Grid of rows in deterministic (p, q, D) order with stabilisation flags.

    A row is flagged stable when its value does not change from budget D to
    D + 1; instability is a diagnostic, not an error.  Each (p, q, D) is
    computed once: the D + 1 probe of one row is the next row.  The rows
    share one _Grid: the image matrix of row (p, q, D) is the differential
    of row (p, q - 1, D - gap), and no operator family is assembled or
    eliminated twice.  Each (p, q) computes its budgets from the top down,
    so the first request of a family is normally its largest budget.
    """
    key = "rank" if variant == "canonical" else "dim"
    grid = _Grid(model)
    budgets = sorted({b for D in d_range for b in (D, D + 1)}, reverse=True)
    rows = []
    for p in p_range:
        for q in q_range:
            by_budget = {b: variant_row(model, variant, p, q, b, slack, k, grid=grid) for b in budgets}
            for D in d_range:
                row = by_budget[D]
                row["stable"] = row[key] == by_budget[D + 1][key]
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Primitive solving
# ---------------------------------------------------------------------------


def solve_primitive(
    tag: str,
    model: FoliationModel,
    target: FoliatedForm,
    slack: int = 0,
    k: int | None = None,
) -> FoliatedForm | None:
    """A certified preimage of ``target`` under the named operator, or None.

    The target must be closed (checked first).  The source space is the
    target budget minus the operator gap, enlarged by ``slack``; a None
    answer only reports budget exhaustion, never a disproof.
    """
    residual = apply_operator(tag, target, k)
    if not residual.is_zero:
        raise NotClosedError("target is not closed under the operator", residual)
    dp, dq, _ = _OPS[tag]
    sp, sq = target.p - dp, target.q - dq
    gap = operator_gap(tag, model)
    if sp < 0 or sq < 0:
        return FoliatedForm.zero(model, max(sp, 0), max(sq, 0)) if target.is_zero else None
    src = max(target.budget - gap, 0) + slack
    out = max(target.budget, src + gap)
    M = operator_matrix(tag, model, sp, sq, src, out, k)
    x = solve(M, vectorize(target, out))
    if x is None:
        return None
    primitive = form_from_vector(model, sp, sq, src, x)
    if apply_operator(tag, primitive, k) != target:
        raise AssertionError("primitive certification failed")
    return primitive


def cone_blocks(
    mu: FoliatedMorphism, p: int, q: int, in_budgets: tuple, out_budgets: tuple
) -> tuple[Matrix, Matrix, Matrix]:
    """The mapping-cone differential of mu from grade q and its diagonal blocks.

    Grade q is target-(p,q) + source-(p,q-1) at in_budgets (target, source);
    its image is target-(p,q+1) + source-(p,q) at out_budgets.  The cone
    matrix is [[dbar_{f'}, 0], [mu*, -dbar_{mu* f'}]] with f' the twist of
    mu's target; returned as (dbar_{f'}, -dbar_{mu* f'}, cone).  At q = 0
    the source block has no columns.
    """
    (in_t, in_s), (out_t, out_s) = in_budgets, out_budgets
    source_model = mu.source.with_twist(mu.pulled_twist)
    m11 = operator_matrix("dbar_f", mu.target, p, q, in_t, out_t)
    m21 = pullback_matrix(mu, p, q, in_t, out_s)
    m22 = -operator_matrix("dbar_f", source_model, p, q - 1, in_s, out_s)
    cone = vstack(hstack(m11, Matrix.zero(m11.rows, m22.cols)), hstack(m21, m22))
    return m11, m22, cone


def solve_primitive_tilde(
    mu: FoliatedMorphism,
    phi: FoliatedForm,
    psi: FoliatedForm,
    slack: int = 0,
) -> tuple[FoliatedForm, FoliatedForm] | None:
    """A certified tilde-primitive of a closed cone pair, or None.

    Solves tilde(phi1, psi1) = (phi, psi) with phi1 on the target at
    (p, q-1) and psi1 on the source at (p, q-2), searching budgets enlarged
    by ``slack``.
    """
    c1, c2 = tilde_dbar(phi, psi, mu)
    if not (c1.is_zero and c2.is_zero):
        raise NotClosedError("cone pair is not tilde-closed", (c1, c2))
    p, q = phi.p, phi.q
    # the pair's bidegrees fix the matrix shapes; a zero psi has none of its own
    if psi.is_zero:
        psi = FoliatedForm.zero(mu.source, p, q - 1, psi.budget)
    elif (psi.p, psi.q) != (p, q - 1):
        raise FormError(
            f"cone pair bidegrees must be (p,q) and (p,q-1); "
            f"got ({p},{q}) and ({psi.p},{psi.q})"
        )
    gap_t = twist_gap(mu.target.f)
    gap_s = twist_gap(mu.pulled_twist)
    s_phi = max(phi.budget - gap_t, 0) + slack
    s_psi = max(psi.budget - gap_s, 0) + slack
    out_phi = max(phi.budget, s_phi + gap_t)
    out_psi = max(psi.budget, mu.substitution_budget(s_phi, p, q - 1), s_psi + gap_s)

    m11, _, M = cone_blocks(mu, p, q - 1, (s_phi, s_psi), (out_phi, out_psi))
    b = vectorize(phi, out_phi)
    b.update((m11.rows + i, v) for i, v in vectorize(psi, out_psi).items())
    x = solve(M, b)
    if x is None:
        return None
    source_model = mu.source.with_twist(mu.pulled_twist)
    phi1 = form_from_vector(mu.target, p, q - 1, s_phi, {j: v for j, v in x.items() if j < m11.cols})
    psi_x = {j - m11.cols: v for j, v in x.items() if j >= m11.cols}
    psi1 = form_from_vector(source_model, p, max(q - 2, 0), s_psi if q >= 2 else 0, psi_x)
    r1, r2 = tilde_dbar(phi1, psi1, mu)
    if r1 != phi or r2 != psi:
        raise AssertionError("tilde primitive certification failed")
    return phi1, psi1
