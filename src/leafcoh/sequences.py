"""Short exact sequences of cochain complexes and their long exact sequences.

The snake engine works on bare matrix data: a CochainComplex is a graded
family of exact matrices with d.d = 0, a ChainMap commutes with the
differentials, and a ShortExactSequence is verified grade by grade
(injectivity, surjectivity, kernel = image).  Each fact is proved once:
d.d = 0 by the Quotients of complex_cohomology, which every report takes of
all three complexes, and commutation by the ChainMap constructor, or by
block algebra for the inject and project maps of the two builders
(ChainMap._commuting).  The connecting homomorphism is computed by the
usual zig-zag, every step an exact linear solve against a matrix eliminated
once per grade.  The class does not depend on the lift (proved in
_connect_class), so each class is lifted once and nothing is drawn at
random.  Exactness at every node is the snake lemma.  Once the sequence is
validated, a failed solve, a broken complex or a node that is not exact is
a fault of the engine and raises LinearAlgebraError, never an input error
or a finding, as the engine builds every complex and map from the scene.

On top of the abstract engine sit the two paper-shaped constructions: the
relative (mapping-cone) complex of a morphism of twisted models, and the
algebraic Mayer-Vietoris cover with its Laurent-window flagship fixture.
"""

from __future__ import annotations

from .algebra import GaussianRational
from .forms import basis_dimension
from .operators import FoliatedMorphism, pullback, twist_gap
from .linalg import (
    Factorization,
    LinearAlgebraError,
    Matrix,
    Quotient,
    hstack,
    rank,
    vstack,
)
from .cohomology import cone_blocks, form_from_vector, vectorize


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

    The constructor checks shapes; complex_cohomology proves d.d = 0.
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
        entries = dict(da.entries)
        for (r, c), v in db.entries.items():
            entries[(da.rows + r, da.cols + c)] = v
        diffs.append(Matrix(dims[q + 1], dims[q], entries))
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

    __slots__ = ("left", "middle", "right", "inject", "project", "_factors", "_findings")

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
        self._factors = {}
        self._findings = None

    def factor(self, which: str, q: int) -> Factorization:
        """The "inject" or "project" component at grade q, eliminated once.

        validate reads its rank and the zig-zag solves with it.
        """
        key = (which, q)
        if key not in self._factors:
            self._factors[key] = Factorization(getattr(self, which).components[q])
        return self._factors[key]

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
            r_inj = self.factor("inject", q).rank
            if r_inj != self.left.dims[q]:
                findings.append(
                    {
                        "grade": q,
                        "condition": "inject_injective",
                        "detail": f"rank {r_inj} < dim {self.left.dims[q]}",
                    }
                )
            r_prj = self.factor("project", q).rank
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
# Cohomology of a complex and the snake lemma
# ---------------------------------------------------------------------------


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


class SnakeResult:
    """Cohomology of all three complexes plus the induced and connecting maps."""

    def __init__(self, grades, left, middle, right, induced_inject, induced_project, connecting):
        self.grades = grades
        self.left = left
        self.middle = middle
        self.right = right
        self.induced_inject = induced_inject  # H_q(L) -> H_q(M)
        self.induced_project = induced_project  # H_q(M) -> H_q(R)
        self.connecting = connecting  # H_q(R) -> H_{q+1}(L); zero map at the top grade


def _class_of(H: Quotient, vec: dict) -> dict:
    """class_coords of a vector the engine built as a cycle."""
    try:
        return H.class_coords(vec)
    except ValueError as exc:
        raise LinearAlgebraError(f"snake engine: {exc}") from None


def _induced_matrix(comp: Matrix, src: Quotient, dst: Quotient) -> Matrix:
    cols = []
    for rep in src.reps:
        cols.append(_class_of(dst, comp.matvec(rep)))
    return Matrix.from_columns(cols, dst.dim)


def _snake(ses: ShortExactSequence) -> SnakeResult:
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
        cols = []
        for rep in hr[q].reps:
            cols.append(_connect_class(ses, q, rep, hl[q + 1]))
        connecting.append(Matrix.from_columns(cols, hl[q + 1].dim))
    return SnakeResult(grades, hl, hm, hr, ind_i, ind_p, connecting)


def _connect_class(ses, q, rep: dict, hl_next: Quotient) -> dict:
    """Zig-zag: lift rep to x through project, push to w = d_M x, pull back y with i(y) = w.

    The class of y does not depend on the lift (Weibel, Lemma 1.3.2), and
    every hypothesis is proved exactly.  Another lift is x + i(s), s in grade
    q of the left complex.  d_M i = i d_L: the public ChainMap constructor
    proves it, and the two builders' inject maps satisfy it by block algebra.
    In the relative complex i = [0; I] and the cone is
    [[dbar_{f'}, 0], [mu*, d_L]] with d_L = -dbar_{mu* f'}, so
    d_M [0; I] = [0; d_L] = [0; I] d_L.  In make_mv_ses i = [r_U; r_V] maps
    into the direct sum U + V, and d_U r_U = r_U d_L, d_V r_V = r_V d_L hold
    because the cover's restrictions are ChainMaps, each checked by the
    constructor.  So d_M(x + i(s)) = w + i(d_L s).  inject is injective
    (validate proves it for snake_les and make_mv_ses; a relative complex's
    component is [0; I] by construction), so the exact replay of
    Factorization.solve returns the unique preimage y + d_L s.  d_L s lies
    in hl_next.image, and class_coords solves over [image | reps], of full
    column rank, keeping only the rep coordinates.
    """
    x = ses.factor("project", q).solve(rep)
    if x is None:
        raise LinearAlgebraError("zig-zag lift failed: project is not surjective on a cycle")
    w = ses.middle.differential(q).matvec(x)
    y = ses.factor("inject", q + 1).solve(w)
    if y is None:
        raise LinearAlgebraError("zig-zag pull-back failed: d(lift) escapes the image of inject")
    return _class_of(hl_next, y)


def snake_les(
    ses: ShortExactSequence,
    labels=("L", "M", "R"),
    map_labels=("i*", "p*", "delta"),
) -> dict:
    """Long exact sequence report for a validated short exact sequence.

    The engine refuses to emit a report for an invalid input; for a valid one
    it computes all cohomologies, the induced maps and the connecting
    homomorphisms.  Exactness at every node (image of the incoming map equals
    kernel of the outgoing one) is the snake lemma, so a node that is not
    exact is a fault of the engine: LinearAlgebraError names the first one.
    """
    findings = ses.validate()
    if findings:
        raise SESValidationError(findings)
    data = _snake(ses)
    nodes = []
    maps = []
    for q in range(data.grades):
        nodes.append((f"H^{q}({labels[0]})", data.left[q].dim))
        maps.append((map_labels[0], data.induced_inject[q]))
        nodes.append((f"H^{q}({labels[1]})", data.middle[q].dim))
        maps.append((map_labels[1], data.induced_project[q]))
        nodes.append((f"H^{q}({labels[2]})", data.right[q].dim))
        maps.append((map_labels[2], data.connecting[q]))
    report_nodes = []
    prev_map: Matrix | None = None
    in_rank = 0
    for k, (label, dim) in enumerate(nodes):
        out_label, out_matrix = maps[k]
        out_rank = rank(out_matrix)
        composes = prev_map is None or out_matrix.mul(prev_map).is_zero
        if not (composes and in_rank == dim - out_rank):
            raise LinearAlgebraError(f"long exact sequence is not exact at {label}")
        report_nodes.append(
            {
                "group": label,
                "dim": dim,
                "out_map": out_label,
                "out_map_rank": out_rank,
                "exact": True,
            }
        )
        prev_map, in_rank = out_matrix, out_rank
    alternating = 0
    for k, node in enumerate(report_nodes):
        alternating += node["dim"] if k % 2 == 0 else -node["dim"]
    return {
        "nodes": report_nodes,
        "exact_everywhere": True,
        "alternating_sum_zero": alternating == 0,
    }


# ---------------------------------------------------------------------------
# The relative (mapping cone) complex of a morphism
# ---------------------------------------------------------------------------


class RelativeComplex:
    """Mapping cone of mu with the embedded short exact sequence.

    Grade q of the middle complex is target-(p,q) + source-(p,q-1); the left
    complex is the regraded source (with differential negated so the
    inclusion psi -> (0, psi) is a chain map; the sign does not change
    cohomology), the right complex is the target.
    """

    def __init__(
        self,
        mu: FoliatedMorphism,
        p: int,
        target_budgets: list,
        source_budgets: list,
        ses: ShortExactSequence,
    ):
        self.mu = mu
        self.p = p
        self.target_budgets = target_budgets
        self.source_budgets = source_budgets
        self.ses = ses

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

    # the cone is [[right, 0], [mu*, left]] grade by grade, so d_M [0; I] =
    # [0; I] d_L and [I 0] d_M = d_R [I 0] hold by block algebra
    inject = ChainMap._commuting(
        left,
        middle,
        [
            Matrix(t_dim[q] + s_dim[q], s_dim[q], {(t_dim[q] + i, i): 1 for i in range(s_dim[q])})
            for q in range(grades)
        ],
    )
    project = ChainMap._commuting(
        middle,
        right,
        [
            Matrix(t_dim[q], t_dim[q] + s_dim[q], {(i, i): 1 for i in range(t_dim[q])})
            for q in range(grades)
        ],
    )
    ses = ShortExactSequence(left, middle, right, inject, project)
    return RelativeComplex(mu, p, tb, sb, ses)


def relative_les(rc: RelativeComplex) -> dict:
    """The long exact sequence of the relative complex, paper-ordered.

    Nodes read H^{p,q-1}(source), H^{p,q}(cone), H^{p,q}(target) per grade,
    with maps alpha*, beta* and the connecting homomorphism (which agrees
    with the pullback).
    """
    return snake_les(rc.ses, labels=("F", "mu", "F'"), map_labels=("alpha*", "beta*", "delta*"))


def delta_equals_pullback_check(rc: RelativeComplex) -> dict:
    """Compare the connecting homomorphism with the pullback, class by class.

    For every cohomology class of the target at grade q the zig-zag class in
    the source cohomology at grade q+1 must equal the class of the pulled
    back representative; equality is equality of cosets, certified by the
    shared representative coordinates.
    """
    data = _snake(rc.ses)
    per_grade = []
    all_equal = True
    for q in range(data.grades - 1):
        hr = data.right[q]
        hl_next = data.left[q + 1]
        verdicts = []
        for rep, delta_coords in zip(hr.reps, data.connecting[q].columns()):
            form = form_from_vector(rc.mu.target, rc.p, q, rc.target_budgets[q], rep)
            mu_coords = hl_next.class_coords(vectorize(pullback(rc.mu, form), rc.source_budgets[q + 1]))
            same = delta_coords == mu_coords
            all_equal = all_equal and same
            verdicts.append(bool(same))
        per_grade.append({"grade": q, "classes": len(hr.reps), "equal": verdicts})
    return {"check": "delta_equals_pullback", "grades": per_grade, "all_equal": all_equal}


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
    data = _snake(rc.ses)
    m_t = rc.m_target
    m_s = rc.m_source
    grades = data.grades
    items = {}

    def dims(q):
        return data.left[q].dim, data.middle[q].dim, data.right[q].dim

    # (i) beta*: H^{m_s+1}(cone) -> H^{m_s+1}(target) is an epimorphism
    q = m_s + 1
    ok = True
    witness = {}
    if q < grades:
        r = rank(data.induced_project[q])
        ok = r == data.right[q].dim
        witness = {"grade": q, "rank": r, "codomain": data.right[q].dim}
    items["i"] = {"pass": bool(ok), "witness": witness}

    # (ii) alpha*: H^{m_t}(source side) -> H^{m_t+1}(cone) is an epimorphism
    q = m_t + 1
    ok = True
    witness = {}
    if q < grades:
        r = rank(data.induced_inject[q])
        ok = r == data.middle[q].dim
        witness = {"grade": q, "rank": r, "codomain": data.middle[q].dim}
    items["ii"] = {"pass": bool(ok), "witness": witness}

    # (iii) beta* iso for grades q > m_s + 1
    checked = []
    ok = True
    for q in range(m_s + 2, grades):
        r = rank(data.induced_project[q])
        good = r == data.middle[q].dim == data.right[q].dim
        ok = ok and good
        checked.append({"grade": q, "rank": r, "domain": data.middle[q].dim, "codomain": data.right[q].dim})
    items["iii"] = {"pass": bool(ok), "witness": checked}

    # (iv) alpha* iso into grade q+1 for q > m_t
    checked = []
    ok = True
    for q in range(m_t + 1, grades - 1):
        r = rank(data.induced_inject[q + 1])
        good = r == data.left[q + 1].dim == data.middle[q + 1].dim
        ok = ok and good
        checked.append({"grade": q + 1, "rank": r, "domain": data.left[q + 1].dim, "codomain": data.middle[q + 1].dim})
    items["iv"] = {"pass": bool(ok), "witness": checked}

    # (v) cone cohomology vanishes beyond max(m_s + 1, m_t)
    checked = []
    ok = True
    for q in range(max(m_s + 1, m_t) + 1, grades):
        good = data.middle[q].dim == 0
        ok = ok and good
        checked.append({"grade": q, "dim": data.middle[q].dim})
    items["v"] = {"pass": bool(ok), "witness": checked}

    return {
        "check": "relative_les_boundary",
        "m_source": m_s,
        "m_target": m_t,
        "items": items,
        "all_pass": all(v["pass"] for v in items.values()),
        "dims": [dims(q) for q in range(grades)],
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
