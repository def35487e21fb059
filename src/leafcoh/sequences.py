"""Short exact sequences of cochain complexes and their long exact sequences.

The engine works on bare matrix data: a CochainComplex is a graded family of
exact matrices with d.d = 0, a ChainMap commutes with the differentials, and
a ShortExactSequence is verified grade by grade (injectivity, surjectivity,
kernel = image).  Each fact is proved once: d.d = 0 by one product per grade
on the middle complex, which the exact sequence carries to the outer two
(_prove_squares), and commutation by the ChainMap constructor, or by block
algebra for the Mayer-Vietoris inject and project maps (ChainMap._commuting).
The relative complex builds no sequence: its cone [[d_R, 0], [mu*, d_L]] is
0 -> L -> cone -> R -> 0 by its blocks.

The long exact sequence is read off the ranks of the three differentials
(_les_nodes): the dimensions, rk delta from rk d_M = rk d_L + rk d_R + rk
delta grade by grade, and the ranks of i* and p* from exactness at H(L)
and H(R).  It builds no quotient, no representative, no induced matrix and
no mapping cone, so no product of consecutive maps checks a node: every
node is exact by arithmetic, and a negative rank is the one contradiction
the ranks can show.  delta_equals_pullback_check solves nothing either: in
the mapping cone the connecting map is the pullback at chain level, so once
d.d = 0 is proved it counts the target's classes off the same ranks.  A
broken complex or a node that is not exact is a fault of the engine and
raises LinearAlgebraError, never an input error or a finding, as the engine
builds every complex and map from the scene.

On top of the abstract engine sit the two paper-shaped constructions: the
relative (mapping-cone) complex of a morphism of twisted models, and the
algebraic Mayer-Vietoris cover with its Laurent-window flagship fixture.
"""

from __future__ import annotations

from .algebra import GaussianRational
from .forms import basis_dimension
from .operators import FoliatedMorphism, twist_gap
from .linalg import LinearAlgebraError, Matrix, check_inclusion, hstack, rank, vstack
from .cohomology import cone_blocks


class SESValidationError(ValueError):
    def __init__(self, findings):
        super().__init__(f"short exact sequence invalid: {findings}")
        self.findings = findings


class CoverValidationError(SESValidationError):
    """The algebraic cover does not produce a short exact sequence.

    This is a meaningful finding about the cover model (for instance a
    degenerate cover whose difference map cannot be surjective), not a crash.
    """


class CochainComplex:
    """Grades 0..T with differentials d_q: grade q -> grade q+1, d.d = 0.

    The constructor checks shapes; _prove_squares proves d.d = 0.
    """

    __slots__ = ("dims", "diffs")

    def __init__(self, dims, diffs):
        dims = tuple(dims)
        diffs = tuple(diffs)
        if len(diffs) != max(len(dims) - 1, 0):
            raise LinearAlgebraError("need exactly one differential per adjacent grade pair")
        for q, d in enumerate(diffs):
            if d.cols != dims[q] or d.rows != dims[q + 1]:
                raise LinearAlgebraError(
                    f"differential {q} has shape {d.rows}x{d.cols}, expected "
                    f"{dims[q + 1]}x{dims[q]}"
                )
        self.dims = dims
        self.diffs = diffs

    def differential(self, q: int) -> Matrix:
        """d_q, with the zero map past the top grade."""
        if q < len(self.diffs):
            return self.diffs[q]
        return Matrix.zero(0, self.dims[q] if q < len(self.dims) else 0)


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    if len(a.dims) != len(b.dims):
        raise LinearAlgebraError("direct sum needs equal grade counts")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    diffs = []
    for q in range(len(a.dims) - 1):
        da, db = a.diffs[q], b.diffs[q]
        lower = [{da.rows + r: v for r, v in col.items()} for col in db.columns()]
        diffs.append(Matrix.from_columns(da.columns() + lower, dims[q + 1]))
    return CochainComplex(dims, diffs)


class ChainMap:
    """A per-grade matrix family commuting with the differentials, exactly."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: CochainComplex, target: CochainComplex, components):
        components = tuple(components)
        if len(components) != len(source.dims) or len(source.dims) != len(target.dims):
            raise LinearAlgebraError("chain map needs one component per grade")
        for q, comp in enumerate(components):
            if comp.cols != source.dims[q] or comp.rows != target.dims[q]:
                raise LinearAlgebraError(f"component {q} shape mismatch")
        for q in range(len(source.dims) - 1):
            left = target.diffs[q].mul(components[q])
            right = components[q + 1].mul(source.diffs[q])
            if left != right:
                raise LinearAlgebraError(f"chain map does not commute with d at grade {q}")
        self.source = source
        self.target = target
        self.components = components

    @classmethod
    def _commuting(cls, source: CochainComplex, target: CochainComplex, components) -> "ChainMap":
        """A chain map whose components commute with d by construction (not re-multiplied)."""
        cm = cls.__new__(cls)
        cm.source = source
        cm.target = target
        cm.components = tuple(components)
        return cm


class ShortExactSequence:
    """left -> middle -> right with inject and project chain maps."""

    __slots__ = ("left", "middle", "right", "inject", "project", "_findings")

    def __init__(self, left, middle, right, inject: ChainMap, project: ChainMap):
        if inject.source is not left or inject.target is not middle:
            raise ValueError("inject must map left -> middle")
        if project.source is not middle or project.target is not right:
            raise ValueError("project must map middle -> right")
        self.left = left
        self.middle = middle
        self.right = right
        self.inject = inject
        self.project = project
        self._findings = None

    def validate(self) -> list:
        """Per-grade findings; empty means the sequence is exact.

        They are found once: make_mv_ses validates the sequence it builds and
        snake_les validates the sequence it is given, often the same one.
        """
        if self._findings is None:
            self._findings = self._find()
        return self._findings

    def _find(self) -> list:
        findings = []
        for q in range(len(self.middle.dims)):
            inj = self.inject.components[q]
            prj = self.project.components[q]
            r_inj = rank(inj)
            if r_inj != self.left.dims[q]:
                findings.append(
                    {
                        "grade": q,
                        "condition": "inject_injective",
                        "detail": f"rank {r_inj} < dim {self.left.dims[q]}",
                    }
                )
            r_prj = rank(prj)
            if r_prj != self.right.dims[q]:
                findings.append(
                    {
                        "grade": q,
                        "condition": "project_surjective",
                        "detail": f"rank {r_prj} < dim {self.right.dims[q]}",
                    }
                )
            if not prj.mul(inj).is_zero:
                findings.append(
                    {
                        "grade": q,
                        "condition": "composition_zero",
                        "detail": "project . inject != 0",
                    }
                )
            elif self.middle.dims[q] - r_prj != r_inj:
                findings.append(
                    {
                        "grade": q,
                        "condition": "kernel_equals_image",
                        "detail": (
                            f"dim ker(project) = {self.middle.dims[q] - r_prj}, "
                            f"dim im(inject) = {r_inj}"
                        ),
                    }
                )
        return findings


# ---------------------------------------------------------------------------
# The long exact sequence from ranks
# ---------------------------------------------------------------------------


def _prove_squares(middle: CochainComplex):
    """d_M d_M = 0 on the middle complex, one exact product per grade.

    With the sequence exact this proves the outer complexes too: i d_L d_L =
    d_M d_M i = 0 with i injective, and d_R d_R p = p d_M d_M = 0 with p
    surjective.  On the relative cone [[d_R, 0], [mu*, d_L]] its diagonal
    blocks are d_R d_R and d_L d_L, and its corner is the proof that mu*
    commutes with the differentials, up to the cone's sign.
    """
    d = middle.diffs
    for q in range(1, len(d)):
        check_inclusion(d[q], d[q - 1])


def _cohomology_dims(cx: CochainComplex, ranks: list) -> list:
    """dim H^q = dim C^q - rk d_q - rk d_{q-1}, from ranks[q] = rk d_q."""
    return [n - ranks[q] - (ranks[q - 1] if q else 0) for q, n in enumerate(cx.dims)]


def _les_nodes(left: CochainComplex, middle: CochainComplex, right: CochainComplex, labels) -> list:
    """(group, dim, rank of the outgoing map) at every node of the long exact sequence.

    The nodes of 0 -> L -> M -> R -> 0 (a validated sequence, or the
    relative cone) are H^q(L), H^q(M), H^q(R) for q = 0..T, left by i*, p*
    and the connecting map delta, zero at the top grade.  Over a field the
    sequence splits grade by grade: in a basis i(L^q) + S^q, d_M^q is
    block-triangular with d_L^q and d_R^q on the diagonal, and its corner,
    read from ker d_R^q to coker d_L^q, is delta_q.  So rk d_M^q = rk d_L^q
    + rk d_R^q + rk delta_q (Marsaglia & Styan, 1974; Weibel, An
    Introduction to Homological Algebra, 1.3).  Exactness at H^q(R) and
    H^q(L) gives rk p*_q = dim H^q(R) - rk delta_q and rk i*_q = dim H^q(L)
    - rk delta_{q-1}; with dim M^q = dim L^q + dim R^q every node is then
    exact by arithmetic.  A negative rank is what is left to contradict the
    sequence, a fault of the engine: LinearAlgebraError names the first node
    it leaves.
    """
    _prove_squares(middle)
    cxs = (left, middle, right)
    ranks = [[rank(d) for d in cx.diffs] + [0] for cx in cxs]
    h_l, h_m, h_r = (_cohomology_dims(cx, r) for cx, r in zip(cxs, ranks))
    delta = [m - l - r for l, m, r in zip(*ranks)]
    nodes = []
    for q in range(len(h_m)):
        nodes.append((f"H^{q}({labels[0]})", h_l[q], h_l[q] - (delta[q - 1] if q else 0)))
        nodes.append((f"H^{q}({labels[1]})", h_m[q], h_r[q] - delta[q]))
        nodes.append((f"H^{q}({labels[2]})", h_r[q], delta[q]))
    for label, _, out_rank in nodes:
        if out_rank < 0:
            raise LinearAlgebraError(f"long exact sequence is not exact at {label}")
    return nodes


def snake_les(
    ses: ShortExactSequence,
    labels=("L", "M", "R"),
    map_labels=("i*", "p*", "delta"),
) -> dict:
    """Long exact sequence report for a validated short exact sequence.

    The engine refuses to emit a report for an invalid input; for a valid one
    it reads every dimension and map rank off _les_nodes, which derives them
    from the ranks of d_L, d_M and d_R and so makes every node exact.
    """
    findings = ses.validate()
    if findings:
        raise SESValidationError(findings)
    return _les_report(_les_nodes(ses.left, ses.middle, ses.right, labels), map_labels)


def _les_report(nodes: list, map_labels) -> dict:
    """The report of the nodes of _les_nodes, every one exact, and their alternating sum."""
    return {
        "nodes": [
            {"group": label, "dim": dim, "out_map": map_labels[k % 3], "out_map_rank": out_rank, "exact": True}
            for k, (label, dim, out_rank) in enumerate(nodes)
        ],
        "exact_everywhere": True,
        "alternating_sum_zero": sum(dim if k % 2 == 0 else -dim for k, (_, dim, _) in enumerate(nodes)) == 0,
    }


# ---------------------------------------------------------------------------
# The relative (mapping cone) complex of a morphism
# ---------------------------------------------------------------------------


class RelativeComplex:
    """Mapping cone of mu with the two complexes it joins.

    Grade q of the middle complex is target-(p,q) + source-(p,q-1), and its
    differential is [[d_R, 0], [mu*, d_L]]; the left complex is the regraded
    source (with differential negated so the inclusion psi -> (0, psi) is a
    chain map; the sign does not change cohomology), the right complex is
    the target.  So 0 -> left -> middle -> right -> 0 is exact, by [0; I]
    and [I 0], and no map of it is built.
    """

    def __init__(
        self,
        mu: FoliatedMorphism,
        p: int,
        target_budgets: list,
        source_budgets: list,
        left: CochainComplex,
        middle: CochainComplex,
        right: CochainComplex,
    ):
        self.mu = mu
        self.p = p
        self.target_budgets = target_budgets
        self.source_budgets = source_budgets
        self.left = left
        self.middle = middle
        self.right = right

    @property
    def m_source(self) -> int:
        return self.mu.source.m

    @property
    def m_target(self) -> int:
        return self.mu.target.m


def make_relative_complex(mu: FoliatedMorphism, p: int, D: int) -> RelativeComplex:
    """Assemble the cone complex of mu with exact per-grade budgets.

    f' is the twist of mu's target.  Budgets grow so that no differential
    ever truncates: the target side gains the twist gap of f' per grade, the
    source side accommodates both the pullback of the target grade below and
    its own twisted gap (of mu* f').  The grade range extends one step past
    max(m_target, m_source + 1) so the boundary statements of the relative
    sequence are observable.
    """
    gap_t = twist_gap(mu.target.f)
    gap_s = twist_gap(mu.pulled_twist)
    m_t, m_s = mu.target.m, mu.source.m
    top = max(m_t, m_s + 1) + 1
    grades = top + 1

    tb = [D + q * gap_t for q in range(grades + 1)]
    sb = [0] * (grades + 1)
    for q in range(1, grades + 1):
        cand = mu.substitution_budget(tb[q - 1], p, q - 1)
        if q >= 2:
            cand = max(cand, sb[q - 1] + gap_s)
        sb[q] = cand

    t_dim = [basis_dimension(mu.target, p, q, tb[q]) for q in range(grades)]
    s_dim = [basis_dimension(mu.source, p, q - 1, sb[q]) for q in range(grades)]

    right_diffs, left_diffs, middle_diffs = zip(
        *(cone_blocks(mu, p, q, (tb[q], sb[q]), (tb[q + 1], sb[q + 1])) for q in range(grades - 1))
    )
    right = CochainComplex(t_dim, right_diffs)
    left = CochainComplex(s_dim, left_diffs)
    middle = CochainComplex([t + s for t, s in zip(t_dim, s_dim)], middle_diffs)
    return RelativeComplex(mu, p, tb, sb, left, middle, right)


_RELATIVE_LABELS = ("F", "mu", "F'")


def relative_les(rc: RelativeComplex) -> dict:
    """The long exact sequence of the relative complex, paper-ordered.

    Nodes read H^{p,q-1}(source), H^{p,q}(cone), H^{p,q}(target) per grade,
    with maps alpha*, beta* and the connecting homomorphism (which agrees
    with the pullback).
    """
    return _les_report(_les_nodes(rc.left, rc.middle, rc.right, _RELATIVE_LABELS), ("alpha*", "beta*", "delta*"))


def delta_equals_pullback_check(rc: RelativeComplex) -> dict:
    """delta = mu* on cohomology, grade by grade, from the cone's chain-level identity.

    The relative sequence injects by [0; I] and projects by [I 0], so a
    cycle r of the target complex lifts to (r, 0), and the cone differential
    [[d_R, 0], [mu*, d_L]] sends it to (0, mu* r): the zig-zag pulls back
    mu* r itself, and delta[r] = [mu* r] for every class.  Another lift
    (r, s) pulls back mu* r + d_L s, the same class (Weibel, An Introduction
    to Homological Algebra, 1.3.2 and 1.5).  The cone's mu* block is
    pullback_matrix, the pullback of each basis form, and pullback is
    linear, so the block is the pullback on every cycle.  What is left to
    prove at run time is that mu* is a chain map, so that it passes to
    cohomology: _prove_squares proves d_M d_M = 0, whose lower-left block is
    mu* d_R + d_L mu*.  Each grade below the top reports its dim H^q(target)
    classes, every one equal, counted off the ranks of d_R.
    """
    _prove_squares(rc.middle)
    classes = _cohomology_dims(rc.right, [rank(d) for d in rc.right.diffs] + [0])
    per_grade = [{"grade": q, "classes": n, "equal": [True] * n} for q, n in enumerate(classes[:-1])]
    return {"check": "delta_equals_pullback", "grades": per_grade, "all_equal": True}


def corollary_boundary_report(rc: RelativeComplex) -> dict:
    """Boundary behaviour of the relative long exact sequence.

    With m = source leaf dimension and m' = target leaf dimension, checks
    with ranks as witnesses: (i) beta* is epi at grade m + 1 (the source
    cohomology above its top degree vanishes, so the connecting map is
    zero); (ii) alpha* is epi into grade m' + 1; (iii) beta* is an
    isomorphism for grades above m + 1; (iv) alpha* is an isomorphism into
    grades above m' + 1; (v) the cone cohomology vanishes above
    max(m + 1, m').
    """
    nodes = _les_nodes(rc.left, rc.middle, rc.right, _RELATIVE_LABELS)
    m_t = rc.m_target
    m_s = rc.m_source
    # per grade: dims of H^q(source side), H^q(cone), H^q(target); ranks of
    # alpha*_q (side 0 -> side 1) and beta*_q (side 1 -> side 2)
    dims = [tuple(dim for _, dim, _ in nodes[k : k + 3]) for k in range(0, len(nodes), 3)]
    alpha = [out_rank for _, _, out_rank in nodes[0::3]]
    beta = [out_rank for _, _, out_rank in nodes[1::3]]
    grades = len(dims)

    def epi(q, ranks, side):
        """The map with ``ranks`` out of ``side`` is onto at grade q, at most
        make_relative_complex's top grade max(m', m + 1) + 1."""
        codomain = dims[q][side + 1]
        return {"pass": ranks[q] == codomain, "witness": {"grade": q, "rank": ranks[q], "codomain": codomain}}

    def iso(first, ranks, side):
        """The map with ``ranks`` out of ``side`` is an isomorphism at every grade from ``first`` on."""
        checked = [
            {"grade": q, "rank": ranks[q], "domain": dims[q][side], "codomain": dims[q][side + 1]}
            for q in range(first, grades)
        ]
        return {"pass": all(w["rank"] == w["domain"] == w["codomain"] for w in checked), "witness": checked}

    vanishing = [{"grade": q, "dim": dims[q][1]} for q in range(max(m_s + 1, m_t) + 1, grades)]
    items = {
        "i": epi(m_s + 1, beta, 1),  # beta*: H^{m_s+1}(cone) -> H^{m_s+1}(target)
        "ii": epi(m_t + 1, alpha, 0),  # alpha*: H^{m_t}(source side) -> H^{m_t+1}(cone)
        "iii": iso(m_s + 2, beta, 1),  # beta* at grades q > m_s + 1
        "iv": iso(m_t + 2, alpha, 0),  # alpha* into grades q + 1 for q > m_t
        "v": {"pass": all(w["dim"] == 0 for w in vanishing), "witness": vanishing},
    }

    return {
        "check": "relative_les_boundary",
        "m_source": m_s,
        "m_target": m_t,
        "items": items,
        "all_pass": all(v["pass"] for v in items.values()),
        "dims": dims,
    }


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------


class MayerVietorisCover:
    """Algebraic two-set cover: four complexes and four restriction maps.

    The differential must commute with the restrictions (enforced by the
    ChainMap constructor), and each restriction must map between the
    complexes it is given for, which make_mv_ses relies on; surjectivity of
    the difference map encodes the partition of unity and must be supplied
    by the cover model itself.
    """

    def __init__(
        self,
        complex_m: CochainComplex,
        complex_u: CochainComplex,
        complex_v: CochainComplex,
        complex_uv: CochainComplex,
        r_u: ChainMap,
        r_v: ChainMap,
        r_u_uv: ChainMap,
        r_v_uv: ChainMap,
    ):
        ends = (
            (r_u, complex_m, complex_u),
            (r_v, complex_m, complex_v),
            (r_u_uv, complex_u, complex_uv),
            (r_v_uv, complex_v, complex_uv),
        )
        if any(r.source is not s or r.target is not t for r, s, t in ends):
            raise LinearAlgebraError("a restriction does not map between the cover's complexes")
        self.complex_m = complex_m
        self.complex_u = complex_u
        self.complex_v = complex_v
        self.complex_uv = complex_uv
        self.r_u = r_u
        self.r_v = r_v
        self.r_u_uv = r_u_uv
        self.r_v_uv = r_v_uv


def make_mv_ses(cover: MayerVietorisCover) -> ShortExactSequence:
    """0 -> M -> U + V -> (U cap V) -> 0 with A = (r_U, r_V), B = r_U - r_V.

    Raises CoverValidationError with per-grade findings when the chosen cover
    model fails injectivity, surjectivity or kernel = image.
    """
    middle = direct_sum(cover.complex_u, cover.complex_v)
    grades = len(middle.dims)
    # the four restrictions are checked chain maps between the cover's
    # complexes, so their stacks commute with the direct sum's block diagonal d
    inject = ChainMap._commuting(
        cover.complex_m,
        middle,
        [vstack(cover.r_u.components[q], cover.r_v.components[q]) for q in range(grades)],
    )
    project = ChainMap._commuting(
        middle,
        cover.complex_uv,
        [
            hstack(cover.r_u_uv.components[q], -cover.r_v_uv.components[q])
            for q in range(grades)
        ],
    )
    ses = ShortExactSequence(cover.complex_m, middle, cover.complex_uv, inject, project)
    findings = ses.validate()
    if findings:
        raise CoverValidationError(findings)
    return ses


def _window_complex(lo: int, hi: int) -> CochainComplex:
    """Two grades of Laurent coefficients: exponents lo..hi for functions,
    lo-1..hi-1 for the one-form coefficients, with d(w^j) = j w^(j-1)."""
    n = hi - lo + 1
    entries = {}
    for j in range(lo, hi + 1):
        if j != 0:
            entries[(j - lo, j - lo)] = GaussianRational(j)
    return CochainComplex((n, n), (Matrix(n, n, entries),))


def _window_inclusion(inner: CochainComplex, outer: CochainComplex, lo_in, lo_out) -> ChainMap:
    comps = []
    shift = lo_in - lo_out
    for q in range(2):
        entries = {(shift + i, i): 1 for i in range(inner.dims[q])}
        comps.append(Matrix(outer.dims[q], inner.dims[q], entries))
    return ChainMap(inner, outer, comps)


def laurent_cover(D: int) -> MayerVietorisCover:
    """The flagship Mayer-Vietoris fixture (one leafwise variable, grade 0/1).

    Window exponents: M = [0, D], U = [0, 2D], V = [-D, D], UV = [-D, 2D];
    polynomial restrictions alone cannot make the difference map surjective,
    so the overlap is modelled by Laurent windows wide enough to split any
    section into a U-part and a V-part.
    """
    if D < 1:
        raise ValueError("the Laurent cover needs D >= 1")
    cm = _window_complex(0, D)
    cu = _window_complex(0, 2 * D)
    cv = _window_complex(-D, D)
    cuv = _window_complex(-D, 2 * D)
    return MayerVietorisCover(
        complex_m=cm,
        complex_u=cu,
        complex_v=cv,
        complex_uv=cuv,
        r_u=_window_inclusion(cm, cu, 0, 0),
        r_v=_window_inclusion(cm, cv, 0, -D),
        r_u_uv=_window_inclusion(cu, cuv, 0, -D),
        r_v_uv=_window_inclusion(cv, cuv, -D, -D),
    )


def degenerate_cover(D: int) -> MayerVietorisCover:
    """U = V = M = UV, but the two pieces restrict identically to the
    overlap, so the difference map is the zero map and surjectivity fails
    whenever the overlap is nontrivial.  The failing validation finding is
    the fixture's documented purpose."""
    cm = _window_complex(0, D)

    def ident():
        return ChainMap(cm, cm, [Matrix.identity(cm.dims[q]) for q in range(2)])

    def zero_map():
        return ChainMap(cm, cm, [Matrix.zero(cm.dims[q], cm.dims[q]) for q in range(2)])

    return MayerVietorisCover(
        complex_m=cm,
        complex_u=cm,
        complex_v=cm,
        complex_uv=cm,
        r_u=ident(),
        r_v=ident(),
        r_u_uv=zero_map(),
        r_v_uv=zero_map(),
    )
