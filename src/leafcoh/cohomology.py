"""Cohomology dimensions by exact rank computations.

Forms at a fixed budget are vectorised into sparse vectors at positions
read off the monomial and pair tables of ``forms`` (pair rank * N(budget) +
monomial rank); operator matrices are written down column by column from
the closed-form monomial rule in ``operator_matrix``, and every dimension
is counted from exact ranks of sparse matrices, building no basis: each
kernel K modulo image M is one ``_Grid.group`` (dims cols - rk K and rk M,
with im M <= ker K proved once per pair of families, at their top budgets).

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

from array import array
from bisect import bisect_right
from math import lcm

from .algebra import MAX_DEGREE, ONE, Series, _raw_series, unpack, variable_field
from .forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    _basis_keys,
    _raw_form,
    basis_dimension,
    count_monomials,
    inclusion_positions,
    insert_index,
    monomial_table,
    pair_table,
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
    Matrix,
    _from_gaussian,
    _store,
    _realified_column,
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
    m, n = phi.model.m, phi.model.n
    N, ranks = count_monomials(m, n, budget), monomial_table(m, n, budget)[1]
    row0 = {pair: r * N for r, pair in enumerate(pair_table(m, phi.p, phi.q))}
    out = {}
    for (A, B), series in phi.coeffs.items():
        r0 = row0[(A, B)]
        for key, coeff in series.packed.items():
            u = ranks.get(key, N)
            if u >= N:
                raise BudgetContractError(
                    f"form term {(A, B, unpack(m, n, key))} does not fit the budget-{budget} basis"
                )
            out[r0 + u] = coeff
    return out


def form_from_vector(model: FoliationModel, p: int, q: int, budget: int, vec: dict) -> FoliatedForm:
    """The form with the sparse coordinates vec (nonzero values) over the (p,q) basis at the given budget."""
    m, n = model.m, model.n
    N, pairs = count_monomials(m, n, budget), pair_table(m, p, q)
    keys = monomial_table(m, n, budget)[0]
    terms: dict = {}
    for pos, coeff in vec.items():
        r, u = divmod(pos, N)
        terms.setdefault(pairs[r], {})[keys[u]] = coeff
    coeffs = {pair: _raw_series(m, n, budget, t) for pair, t in terms.items()}
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
    f = model.f if twisted else Series.one(m, n)
    weight = p + q - (k if tag == "dbar_f_k" else 0)  # f = 1 has t = 0 only
    in_pairs, n_in = pair_table(m, p, q), count_monomials(m, n, in_budget)
    if not in_pairs or not n_in:
        return Matrix(basis_dimension(model, p + dp, q + dq, out_budget), 0)
    n_out, out_pairs = count_monomials(m, n, out_budget), pair_table(m, p + dp, q + dq)
    monos, mono_rank = monomial_table(m, n, out_budget)
    coeffs = f.packed.values()
    step, den = (2 if any(v.b for v in coeffs) else 1), lcm(*{v.d for v in coeffs})
    # Positions are arithmetic (forms.inclusion_positions): (A, B, e) sits at
    # pair rank * N + monomial rank, the ranks read off forms' shared table of
    # packed keys.  In a packed key z^e -> z^(e + t - eps_a) is e + t - unit,
    # and e_a, t_a are read off the variable's field (algebra.variable_field).
    # The map and its factor do not depend on (A, B), so shifts tabulates them
    # once per variable and sign: per stored column of each input monomial,
    # its (target monomial rank, int entry over den) pairs, rows ascending.
    # Each (A, B) block places a copy, the blocks in row order, straight
    # into the store (linalg.Matrix).
    pair_at = {pair: step * r * n_out for r, pair in enumerate(out_pairs)}
    tables, ptr, idx, val = {}, array("q", [0]), array("q"), []
    add_row, add_val = idx.append, val.append

    def shifts(i, sign):
        offset, unit = variable_field(m, n, i)
        # ranks ascend with packed keys, so with t ascending a column's rows do
        f_terms = [(t, t >> offset & MAX_DEGREE, v.a * (den // v.d), v.b * (den // v.d)) for t, v in sorted(f.packed.items())]
        table = []
        for e in monos[:n_in]:
            e_i, col = e >> offset & MAX_DEGREE, []
            for t, t_i, a, b in f_terms:
                c = sign * (e_i - weight * t_i)
                if c:
                    r = mono_rank[e + t - unit]
                    col.append((r, a * c) if step == 1 else (r, a * c, b * c))
            table += [col] if step == 1 else _realified_column(col)
        return table

    for A, B in in_pairs:
        placed = []
        for a in range(1, m + 1):
            s, merged = insert_index(a, B if dq else A)
            if s:
                key = (a - 1 + m * dq, -s if dq and p % 2 else s)  # flat index lowered, sign
                if key not in tables:
                    tables[key] = shifts(*key)
                placed.append((pair_at[(A, merged) if dq else (merged, B)], tables[key]))
        placed.sort()  # row offsets differ, so no table is compared
        for k in range(step * n_in):
            for row0, table in placed:
                for r, v in table[k]:
                    add_row(row0 + r)
                    add_val(v)
            ptr.append(len(idx))
    return _store(len(out_pairs) * n_out, len(in_pairs) * n_in, step, den, ptr, idx, val)


def _applied_matrix(apply, source: tuple, target: tuple) -> Matrix:
    """Column j: apply(basis form j of source) over the target basis, each a (model, p, q, budget).

    Each entry is placed through an (A, B, key) -> position dict of the
    target basis, built for this call by enumerating it: no position
    arithmetic of operator_matrix is shared, and nothing outlives the call.
    """
    model, budget = source[0], source[3]
    out_idx = {elem: i for i, elem in enumerate(_basis_keys(*target))}
    columns = []
    for A, B, key in _basis_keys(*source):
        phi = _raw_form(model, len(A), len(B), {(A, B): _raw_series(model.m, model.n, budget, {key: ONE})}, budget)
        image = apply(phi).coeffs.items()
        columns.append(sorted((out_idx[(*pair, k)], c) for pair, s in image for k, c in s.packed.items()))
    return _from_gaussian(len(out_idx), columns)


def pullback_matrix(
    mu: FoliatedMorphism, p: int, q: int, in_budget: int, out_budget: int
) -> Matrix:
    """Matrix of mu* from target (p,q,in_budget) to source (p,q,out_budget)."""
    if out_budget < mu.substitution_budget(in_budget, p, q):
        raise BudgetContractError(
            "pullback out budget too small for exact substitution"
        )
    source, target = (mu.target, p, q, in_budget), (mu.source, p, q, out_budget)
    return _applied_matrix(lambda phi: pullback(mu, phi), source, target)


def _composed_matrix(grid: "_Grid", p, q, in_budget):
    """partial_f after dbar_f from (p,q) at in_budget, the product of grid's factor
    matrices; checked against the operators applied to each basis form, unless
    the target basis is empty and the product has no entry to compare."""
    model, gap = grid.model, grid.gap
    B = grid.matrix("dbar_f", p, q, in_budget, in_budget + gap)
    A = grid.matrix("partial_f", p, q + 1, in_budget + gap, in_budget + 2 * gap)
    C = A.mul(B)
    target = (model, p + 1, q + 1, in_budget + 2 * gap)
    if C.rows and _applied_matrix(lambda phi: partial_f(dbar_f(phi)), (model, p, q, in_budget), target) != C:
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
    """One operator at every budget: its key, its matrix at the top budget, and its pivot
    columns' degrees with the budget they cover (kept when the family is rebuilt higher)."""

    __slots__ = ("key", "budget", "matrix", "ranked", "pivot_degrees")

    def __init__(self, key: tuple, budget: int, matrix: Matrix, ranked: int = -1, pivot_degrees=()):
        self.key, self.budget, self.matrix = key, budget, matrix
        self.ranked, self.pivot_degrees = ranked, pivot_degrees


class _Grid:
    """Operator families of one model, with their ranks and proofs, each made once.

    Matrices are keyed (tag, p, q, in_budget, out_budget, k) as in
    operator_matrix, plus the derived tags "composed" (partial_f after
    dbar_f), "stacked" (partial_f over dbar_f) and "image" ([partial_f from
    (p-1,q) | dbar_f from (p,q-1)] into (p,q)).  Keys that differ only in
    in_budget, at one out_budget - in_budget, form a family, assembled (a
    composition re-checked) at the largest in_budget asked for and rebuilt
    if a larger one is asked for later.  A column does not depend on the
    budget, so a lower budget's matrix is the restriction to the lower bases
    (built per call), and a product checked at the family tops holds at every
    lower budget: prove runs each check once per set of families.  Ranks come
    from the pivot columns (linalg.pivot_columns) of the family's matrix,
    columns in stable ascending monomial degree: the budget-b columns are a
    prefix, whose rank is the pivot count in it, before and after a rebuild.
    Each kernel modulo image is one group(kernel key, image key), and
    cohomology_grid shares one instance between its rows.
    """

    def __init__(self, model: FoliationModel):
        self.model = model
        self.gap = twist_gap(model.f)
        self._families: dict = {}
        self._proved: set = set()

    def _family(self, key) -> _Family:
        tag, p, q, b, out, k = key
        fkey = (tag, p, q, k, out - b)
        family = self._families.get(fkey)
        if family is None or family.budget < b:
            kept = (family.ranked, family.pivot_degrees) if family else ()  # a column prefix keeps its pivots
            family = self._families[fkey] = _Family(fkey, b, self._build(key), *kept)
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
        """The matrix under the key: the family's own at its top, else a restriction of it."""
        family = self._family((tag, p, q, in_budget, out_budget, k))
        top, M = family.budget, family.matrix
        if top == in_budget:
            return M
        col_blocks, row_blocks = _blocks(tag, p, q)
        rows = self._positions(row_blocks, out_budget, top + out_budget - in_budget)
        return M.restricted(rows, self._positions(col_blocks, in_budget, top))

    def rank(self, key) -> int:
        """Rank of the matrix under ``key``: the pivots of degree <= in_budget of its family."""
        family = self._family(key)
        if key[3] > family.ranked:
            # every column block is at the family budget, so the columns run
            # through (A, B) pairs of N(budget) monomials each, and in every
            # pair the monomials of degree d are the range [N(d - 1), N(d))
            sizes = [count_monomials(self.model.m, self.model.n, d) for d in range(family.budget + 1)]
            starts = range(0, family.matrix.cols, sizes[-1]) if sizes else ()
            order = array("q", (s + u for lo, hi in zip([0] + sizes, sizes) for s in starts for u in range(lo, hi)))
            ends = [len(starts) * hi for hi in sizes]  # the places in order of degree <= d
            family.pivot_degrees = [bisect_right(ends, j) for j in linalg.pivot_columns(family.matrix, order)]
            family.ranked = family.budget
        return bisect_right(family.pivot_degrees, key[3])

    def prove(self, check, *keys) -> None:
        """Run check(*matrices under keys) once per check and set of (family key, family
        budget), each key's budgets raised by the most all the families allow: the families
        fix the keys' offsets, so each lower budget's product is a block of the one checked."""
        families = [self._family(key) for key in keys]
        proof = (check, *((family.key, family.budget) for family in families))
        if proof not in self._proved:
            up = min(family.budget - key[3] for family, key in zip(families, keys))
            check(*(self.matrix(tag, p, q, b + up, out + up, k) for tag, p, q, b, out, k in keys))
            self._proved.add(proof)

    def group(self, kernel_key, image_key) -> tuple:
        """(dim ker K, dim im M), K and M under the keys (no image_key: M = 0), with
        im M <= ker K proved by prove: K at M's out budget times M is 0.  With slack
        M's out budget is above D, and the part of im M in K's budget-D basis is M on
        the kernel of its outside rows, of dimension rk M - rk M[outside]."""
        tag, p, q, D = kernel_key[:4]
        kernel = sum(basis_dimension(self.model, *pq, D) for pq in _blocks(tag, p, q)[0]) - self.rank(kernel_key)
        if image_key is None:
            return kernel, 0
        image, top = self.rank(image_key), image_key[4]
        self.prove(check_inclusion, (tag, p, q, top, top + kernel_key[4] - D, kernel_key[5]), image_key)
        if top > D:
            M, held = self.matrix(*image_key), set(self._positions(_blocks(*image_key[:3])[1], D, top))
            image -= rank(M.restricted([r for r in range(M.rows) if r not in held]))
        return kernel, image


def _bott_chern(grid: _Grid, p: int, q: int, D: int) -> tuple:
    """(dim ker, dim im) of ker partial_f & ker dbar_f modulo im partial_f dbar_f at (p,q,D)."""
    gap = grid.gap
    # with no partial_f entries the stack ranks as dbar_f alone (read at the family top: equal ranks at D)
    kernel = ("dbar_f" if grid._family(("partial_f", p, q, D, D + gap, None)).matrix.is_zero else "stacked", p, q, D, D + gap, None)
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


def _dolbeault_image_holds(M: Matrix, P: Matrix, C: Matrix) -> None:
    if M.mul(P) != -C:
        raise AssertionError("canonical map ill-defined: Bott-Chern image escapes the Dolbeault image")


def canonical_map_row(model: FoliationModel, p: int, q: int, D: int, *, grid=None) -> dict:
    """Rank of the canonical homomorphism Bott-Chern -> Dolbeault at (p,q,D).

    Representatives of a Bott-Chern class are already dbar_f-closed; the map
    sends the class to its Dolbeault class.  With M the Dolbeault image
    matrix, the classes that die span ker partial_f on im M, so rank =
    nullity(partial_f; dbar_f) - (rk M - rk partial_f M).  Well-definedness
    (the Bott-Chern image lies in the Dolbeault image) is asserted by the
    exact product M P + partial_f dbar_f = 0, with P the partial_f matrix
    from (p-1,q-1), once per set of the three families (_Grid.prove): it
    exhibits partial_f dbar_f = M (-P), so its image lies in im M.
    """
    grid = grid or _Grid(model)
    gap = grid.gap
    bc_kernel, bc_image = _bott_chern(grid, p, q, D)
    M_key = ("dbar_f", p, q - 1, D - gap, D, None) if q >= 1 and D >= gap else None
    dolb_kernel, dolb_image = grid.group(("dbar_f", p, q, D, D + gap, None), M_key)
    image_rank = bc_kernel
    if bc_image:  # then q >= 1 and D >= 2 gap, so M_key is set
        P_key = ("partial_f", p - 1, q - 1, D - 2 * gap, D - gap, None)
        grid.prove(_dolbeault_image_holds, M_key, P_key, ("composed", p - 1, q - 1, D - 2 * gap, D, None))
    if bc_kernel and M_key:
        # partial_f M is the composition from (p, q-1)
        composed = ("composed", p, q - 1, D - gap, D + gap, None)
        image_rank -= dolb_image - grid.rank(composed)
    row = {"p": p, "q": q, "D": D, "rank": image_rank, "domain": bc_kernel - bc_image}
    row["codomain"] = dolb_kernel - dolb_image
    return row


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
    the source block has no columns and is the empty matrix at any budgets.
    """
    (in_t, in_s), (out_t, out_s) = in_budgets, out_budgets
    source_model = mu.source.with_twist(mu.pulled_twist)
    m11 = operator_matrix("dbar_f", mu.target, p, q, in_t, out_t)
    m21 = pullback_matrix(mu, p, q, in_t, out_s)
    if q == 0:
        m22 = Matrix.zero(m21.rows, 0)
    else:
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
