import json
import pathlib
import random
from fractions import Fraction

import pytest

from leafcoh import cli
from leafcoh.algebra import GaussianRational, Series, parse_series
from leafcoh.forms import FoliationModel
from leafcoh.operators import FoliatedMorphism
from leafcoh.linalg import LinearAlgebraError, Matrix, rank, solve
from leafcoh.sequences import (
    ChainMap,
    CochainComplex,
    CoverValidationError,
    MayerVietorisCover,
    RelativeComplex,
    SESValidationError,
    ShortExactSequence,
    _les_nodes,
    _window_complex,
    _window_inclusion,
    corollary_boundary_report,
    degenerate_cover,
    delta_equals_pullback_check,
    direct_sum,
    laurent_cover,
    make_mv_ses,
    make_relative_complex,
    relative_les,
    snake_les,
)

from dense_reference import DenseQuotient, dense_solve, to_dense, to_sparse
from factories import cone_sweep_scene, random_ses, rebased_middle, relative_ses
from quotient_reference import FactorOnce, complex_cohomology
from snake_reference import reference_delta_check, reference_nodes, reference_snake

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "relative_m2_snake.json"


def G(x):
    return GaussianRational(x)


# ---------------------------------------------------------------------------
# Complex / chain map / SES validation
# ---------------------------------------------------------------------------


def test_cochain_complex_rejects_nonsquaring_differential():
    # the constructor checks shapes only; a long exact sequence through the
    # complex proves d.d = 0 on it (_prove_squares)
    cx = CochainComplex((2, 2, 2), (Matrix.identity(2), Matrix.identity(2)))
    zero = CochainComplex((0, 0, 0), (Matrix.zero(0, 0), Matrix.zero(0, 0)))
    inject = ChainMap(zero, cx, [Matrix.zero(2, 0)] * 3)
    project = ChainMap(cx, cx, [Matrix.identity(2)] * 3)
    ses = ShortExactSequence(zero, cx, cx, inject, project)
    assert ses.validate() == []
    with pytest.raises(LinearAlgebraError, match="^image is not contained in the kernel: broken complex$"):
        snake_les(ses)


def test_cochain_complex_rejects_bad_shapes():
    with pytest.raises(ValueError, match="shape"):
        CochainComplex((2, 3), (Matrix.zero(2, 2),))


def test_chain_map_must_commute():
    cx = CochainComplex((1, 1), (Matrix.identity(1),))
    cy = CochainComplex((1, 1), (Matrix.zero(1, 1),))
    with pytest.raises(ValueError, match="commute"):
        ChainMap(cx, cy, [Matrix.identity(1), Matrix.identity(1)])


def test_complex_cohomology_of_window():
    # functions [0..D] -> one-forms [-1..D-1]: constants survive at grade 0,
    # the exponent -1 slot survives at grade 1
    cx = _window_complex(0, 3)
    h = complex_cohomology(cx)
    assert [g.dim for g in h] == [1, 1]


@pytest.mark.parametrize("seed", range(30))
def test_complex_cohomology_on_random_ses(seed):
    rng = random.Random(32000 + seed)
    ses, _ = random_ses(rng, grades=rng.choice([2, 3, 4]))
    for cx in (ses.left, ses.middle, ses.right):
        for q, H in enumerate(complex_cohomology(cx)):
            below = rank(cx.diffs[q - 1]) if q else 0
            assert H.dim == cx.dims[q] - rank(cx.differential(q)) - below
            assert len(H.reps) == H.dim
            for j, rep in enumerate(H.reps):
                unit = tuple(GaussianRational(int(i == j)) for i in range(H.dim))
                assert to_dense(H.class_coords(rep), H.dim) == unit


RANDOM_SES_SWEEPS = [31000 + seed for seed in range(40)] + [32000 + seed for seed in range(30)]


@pytest.mark.parametrize("seed", RANDOM_SES_SWEEPS)
def test_sparse_snake_path_matches_dense_reference(seed):
    # the complexes of the two random_ses sweeps above, through the sparse
    # reference Quotient and FactorOnce and through the dense Gauss-Jordan ones
    rng = random.Random(seed)
    ses, _ = random_ses(rng, grades=rng.choice([2, 3, 4]))
    for cx in (ses.left, ses.middle, ses.right):
        groups = complex_cohomology(cx)
        refs = []
        for q in range(len(cx.dims)):
            refs.append(DenseQuotient(cx.differential(q), refs[-1].d_image() if q else ()))
        for H, ref in zip(groups, refs):
            n = H.kernel.ambient_dim
            assert [to_dense(v, n) for v in H.kernel.basis] == ref.kernel
            assert [to_dense(v, n) for v in H.image.basis] == ref.image
            assert [to_dense(v, n) for v in H.reps] == ref.reps
            for _ in range(3):
                coeffs = [GaussianRational(rng.randint(-3, 3)) for _ in ref.kernel]
                cycle = tuple(
                    sum((c * v[i] for c, v in zip(coeffs, ref.kernel)), G(0)) for i in range(n)
                )
                assert to_dense(H.class_coords(to_sparse(cycle)), H.dim) == ref.class_coords(cycle)
    # the solves of the zig-zag, consistent or not
    for q in range(len(ses.middle.dims)):
        for which in ("inject", "project"):
            comp = getattr(ses, which).components[q]
            F = FactorOnce(comp)
            draws = [tuple(G(rng.randint(-2, 2)) for _ in range(comp.cols)) for _ in range(2)]
            rhs = [to_dense(comp.matvec(to_sparse(x)), comp.rows) for x in draws]
            rhs += [tuple(G(rng.randint(-2, 2)) for _ in range(comp.rows)) for _ in range(2)]
            for b in rhs:
                got = F.solve(to_sparse(b))
                want = dense_solve(comp, b)
                assert solve(comp, to_sparse(b)) == got
                assert (got is None) == (want is None)
                if want is not None:
                    assert to_dense(got, comp.cols) == want


def _golden_dump_vector(vec: dict, n: int) -> list:
    """A sparse vector as the golden records it: the nonzeros of its dense tuple, as exact triples."""
    return [[i, [v.a, v.b, v.d]] for i, v in enumerate(to_dense(vec, n)) if v]


def _golden_load_matrix(dump: dict) -> Matrix:
    entries = {
        (i, j): GaussianRational(Fraction(a, d), Fraction(b, d))
        for j, col in enumerate(dump["columns"])
        for i, (a, b, d) in col
    }
    return Matrix(dump["rows"], dump["cols"], entries)


def _golden_dump_matrix(M: Matrix) -> dict:
    return {"rows": M.rows, "cols": M.cols, "columns": [_golden_dump_vector(col, M.rows) for col in M.columns()]}


@pytest.mark.parametrize("D", [2, 3])
def test_relative_snake_matches_golden(D):
    # every group's reps and the induced and connecting matrices of the
    # benchmark's relative scene, recorded from the dense engine, against the
    # reference zig-zag, and the rank-only alpha* and beta* against the
    # golden matrices' ranks
    golden = json.loads(GOLDEN.read_text())
    scene = cli.Scene(dict(golden["scene"], model=dict(golden["scene"]["model"], budget=D)))
    ses = relative_ses(make_relative_complex(scene.morphism(), 0, D))
    ref = reference_snake(ses)
    want = golden["snake"][str(D)]
    for side in ("left", "middle", "right"):
        got = [
            {
                "ambient": H.kernel.ambient_dim,
                "dim": H.dim,
                "reps": [_golden_dump_vector(rep, H.kernel.ambient_dim) for rep in H.reps],
            }
            for H in getattr(ref, side)
        ]
        assert got == want[side], side
    for name in ("induced_inject", "induced_project", "connecting"):
        assert [_golden_dump_matrix(M) for M in getattr(ref, name)] == want[name], name
    nodes = _les_nodes(ses.left, ses.middle, ses.right, ("F", "mu", "F'"))
    for k, name in enumerate(("induced_inject", "induced_project")):
        golden_ranks = [rank(_golden_load_matrix(M)) for M in want[name]]
        assert [out_rank for _, _, out_rank in nodes[k::3]] == golden_ranks, name


@pytest.mark.parametrize("kind", ["relative", "delta", "boundary"])
def test_relative_reports_match_golden(tmp_path, capsys, kind):
    golden = json.loads(GOLDEN.read_text())
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(golden["scene"]))
    assert cli.main(["sequence", "--kind", kind, "--scene", str(scene)]) == golden["reports"][kind]["exit"]
    assert capsys.readouterr().out == golden["reports"][kind]["text"]


def test_snake_refuses_invalid_ses():
    left = CochainComplex((1,), ())
    middle = CochainComplex((1,), ())
    right = CochainComplex((1,), ())
    inject = ChainMap(left, middle, [Matrix.zero(1, 1)])  # not injective
    project = ChainMap(middle, right, [Matrix.identity(1)])
    ses = ShortExactSequence(left, middle, right, inject, project)
    with pytest.raises(SESValidationError):
        snake_les(ses)


@pytest.mark.parametrize("seed", range(40))
def test_snake_on_random_ses(seed):
    rng = random.Random(31000 + seed)
    ses, splits = random_ses(rng, grades=rng.choice([2, 3, 4]))
    rep = snake_les(ses)
    assert rep["exact_everywhere"]
    assert rep["alternating_sum_zero"]
    data = reference_snake(ses)
    for q, expected in enumerate(splits):
        if q + 1 < data.grades:
            assert rank(data.connecting[q]) == expected


@pytest.mark.parametrize("seed", RANDOM_SES_SWEEPS)
def test_rank_only_nodes_match_reference_on_random_ses(seed):
    rng = random.Random(seed)
    ses, _ = random_ses(rng, grades=rng.choice([2, 3, 4]))
    assert _les_nodes(ses.left, ses.middle, ses.right, ("L", "M", "R")) == reference_nodes(ses)
    # the same sequence with d_M written in a basis where it is not
    # block-triangular: the three-rank identity does not depend on the basis
    rebased = rebased_middle(rng, ses)
    assert rebased.validate() == []
    assert _les_nodes(rebased.left, rebased.middle, rebased.right, ("L", "M", "R")) == reference_nodes(rebased)


# the sweep's own twist, then twists with i and with fractions
CONE_TWISTS = (None, "1+i*z1", "1/3+z1*zb{m}", "i*zb1+1/2*z1")


def _twisted_cone_sweep(seed, twist):
    mu, p, _ = cone_sweep_scene(seed)
    if twist is not None:
        m, n = mu.target.m, mu.target.n
        fp = parse_series(twist.format(m=m), m, n, 2)
        mu = FoliatedMorphism(mu.source, mu.target.with_twist(fp), mu.z_components, mu.x_components)
    return mu, p


@pytest.mark.parametrize("twist", CONE_TWISTS)
@pytest.mark.parametrize("seed", range(12))
def test_rank_only_nodes_match_reference_on_cone_sweep(seed, twist):
    mu, p = _twisted_cone_sweep(seed, twist)
    # D=0 has a grade-0 cone whose source block has no columns
    for D in (0, 1, 2):
        rc = make_relative_complex(mu, p, D)
        assert rc.left.dims[0] == 0
        nodes = _les_nodes(rc.left, rc.middle, rc.right, ("F", "mu", "F'"))
        assert nodes == reference_nodes(relative_ses(rc), ("F", "mu", "F'"))


@pytest.mark.parametrize("twist", CONE_TWISTS)
@pytest.mark.parametrize("seed", range(12))
def test_delta_check_matches_zig_zag_reference_on_cone_sweep(seed, twist):
    mu, p = _twisted_cone_sweep(seed, twist)
    for D in (0, 1, 2):
        rc = make_relative_complex(mu, p, D)
        assert delta_equals_pullback_check(rc) == reference_delta_check(rc)


def _scene_complex(data: dict, D: int):
    """The relative complex of a scene's morphism at its grid p and budget D."""
    scene = cli.Scene(data)
    return make_relative_complex(scene.morphism(), scene.grid_value("p", 0), D)


@pytest.mark.parametrize("D", range(8))
def test_delta_check_matches_zig_zag_reference_on_m2_scene(D):
    # the benchmark's relative scene: m=2, morphism (z1*z2, z2), f'=1+z1
    rc = _scene_complex(json.loads(GOLDEN.read_text())["scene"], D)
    report = delta_equals_pullback_check(rc)
    assert report == reference_delta_check(rc)
    assert report["all_equal"] and any(grade["classes"] for grade in report["grades"])


def test_delta_check_matches_zig_zag_reference_on_shipped_scene():
    scene = pathlib.Path(__file__).resolve().parents[1] / "scenes" / "relative_square.json"
    rc = _scene_complex(json.loads(scene.read_text()), 2)
    assert delta_equals_pullback_check(rc) == reference_delta_check(rc)


@pytest.mark.parametrize("D", range(1, 7))
def test_rank_only_nodes_match_reference_on_mv(D):
    ses = make_mv_ses(laurent_cover(D))
    nodes = _les_nodes(ses.left, ses.middle, ses.right, ("M", "U+V", "UV"))
    assert nodes == reference_nodes(ses, ("M", "U+V", "UV"))


def test_snake_les_zero_left_gives_isomorphisms():
    # left = 0: the projection induces isomorphisms and delta = 0
    rng = random.Random(4)
    dims = (2, 2)
    d = Matrix.zero(2, 2)
    middle = CochainComplex(dims, (d,))
    right = CochainComplex(dims, (d,))
    left = CochainComplex((0, 0), (Matrix.zero(0, 0),))
    inject = ChainMap(left, middle, [Matrix.zero(2, 0), Matrix.zero(2, 0)])
    project = ChainMap(middle, right, [Matrix.identity(2), Matrix.identity(2)])
    ses = ShortExactSequence(left, middle, right, inject, project)
    rep = snake_les(ses)
    assert rep["exact_everywhere"]
    nodes = rep["nodes"]
    for q in range(2):
        h_m, h_r = nodes[3 * q + 1], nodes[3 * q + 2]
        assert h_m["out_map_rank"] == h_r["dim"] == h_m["dim"] == 2
        assert h_r["out_map_rank"] == 0
    data = reference_snake(ses)
    assert [rank(M) for M in data.connecting] == [0, 0]


def test_snake_les_acyclic_middle_makes_delta_iso():
    # middle = cone of the identity (acyclic); L sits in grade 1, R in grade
    # 0, so the connecting map H^0(R) -> H^1(L) must be an isomorphism
    left = CochainComplex((0, 1), (Matrix.zero(1, 0),))
    right = CochainComplex((1, 0), (Matrix.zero(0, 1),))
    middle = CochainComplex((1, 1), (Matrix.identity(1),))
    inject = ChainMap(left, middle, [Matrix.zero(1, 0), Matrix.identity(1)])
    project = ChainMap(middle, right, [Matrix.identity(1), Matrix.zero(0, 1)])
    ses = ShortExactSequence(left, middle, right, inject, project)
    rep = snake_les(ses)
    assert rep["exact_everywhere"]
    assert all(node["dim"] == 0 for node in rep["nodes"][1::3])
    h_r0, h_l1 = rep["nodes"][2], rep["nodes"][3]
    assert h_r0["out_map_rank"] == h_r0["dim"] == h_l1["dim"] == 1
    data = reference_snake(ses)
    assert rank(data.connecting[0]) == data.right[0].dim == data.left[1].dim == 1


# ---------------------------------------------------------------------------
# Relative (mapping cone) complexes
# ---------------------------------------------------------------------------


def test_relative_identity_morphism_is_acyclic():
    model = FoliationModel.untwisted(1, 0, 2)
    mu = FoliatedMorphism.identity(model)
    rc = make_relative_complex(mu, 0, 2)
    les = relative_les(rc)
    assert les["exact_everywhere"]
    cone_dims = [n["dim"] for n in les["nodes"] if "(mu)" in n["group"]]
    assert all(d == 0 for d in cone_dims)
    assert delta_equals_pullback_check(rc)["all_equal"]


def test_relative_zero_interaction_splits():
    # constant z-component kills the pullback at p >= 1: the cone cohomology
    # is the direct sum of the two sides
    src = FoliationModel.untwisted(1, 0, 2)
    tgt = FoliationModel.untwisted(1, 0, 2)
    mu = FoliatedMorphism(src, tgt, [Series.constant(1, 0, 5)], [])
    rc = make_relative_complex(mu, 1, 2)
    les = relative_les(rc)
    assert les["exact_everywhere"]
    dims = [node["dim"] for node in les["nodes"]]
    for q in range(len(dims) // 3):
        assert dims[3 * q + 1] == dims[3 * q] + dims[3 * q + 2]
    assert delta_equals_pullback_check(rc)["all_equal"]


@pytest.mark.parametrize("f_prime_text", ["1", "z1"])
def test_relative_square_morphism(f_prime_text):
    src = FoliationModel.untwisted(1, 0, 2)
    fp = parse_series(f_prime_text, 1, 0, 1)
    tgt = FoliationModel(1, 0, 2, fp)
    mu = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    rc = make_relative_complex(mu, 0, 2)
    les = relative_les(rc)
    assert les["exact_everywhere"]
    assert les["alternating_sum_zero"]
    assert delta_equals_pullback_check(rc)["all_equal"]
    rep = corollary_boundary_report(rc)
    assert rep["all_pass"], rep


def test_relative_mixed_dimensions():
    # source m=2 against target m=1 exercises unequal leaf dimensions
    src = FoliationModel.untwisted(2, 0, 1)
    tgt = FoliationModel.untwisted(1, 0, 1)
    mu = FoliatedMorphism(src, tgt, [parse_series("z1*z2", 2, 0, 2)], [])
    rc = make_relative_complex(mu, 0, 1)
    les = relative_les(rc)
    assert les["exact_everywhere"]
    rep = corollary_boundary_report(rc)
    assert rep["all_pass"], rep
    assert rep["m_source"] == 2 and rep["m_target"] == 1


def test_relative_with_transverse_variables():
    # x-dependent leafwise component and transverse map exercise both the
    # substitution budgets and the conjugated Jacobian entries
    src = FoliationModel.untwisted(1, 1, 1)
    fp = parse_series("1 + x1", 1, 1, 1)
    tgt = FoliationModel(1, 1, 1, fp)
    mu = FoliatedMorphism(
        src,
        tgt,
        [parse_series("z1 + z1*x1", 1, 1, 2)],
        [parse_series("x1^2", 1, 1, 2)],
    )
    rc = make_relative_complex(mu, 0, 1)
    les = relative_les(rc)
    assert les["exact_everywhere"]
    assert les["alternating_sum_zero"]
    assert delta_equals_pullback_check(rc)["all_equal"]
    rep = corollary_boundary_report(rc)
    assert rep["all_pass"], rep


def test_relative_cone_vanishes_beyond_modeled_range():
    src = FoliationModel.untwisted(1, 0, 2)
    tgt = FoliationModel(1, 0, 2, parse_series("z1", 1, 0, 1))
    mu = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    rc = make_relative_complex(mu, 0, 2)
    cone_dims = [node["dim"] for node in relative_les(rc)["nodes"][1::3]]
    top = max(rc.m_source + 1, rc.m_target) + 1
    assert top < len(cone_dims)
    assert cone_dims[top:] == [0] * (len(cone_dims) - top)


@pytest.mark.parametrize("seed", range(12))
def test_relative_random_scene_sweep(seed):
    mu, p, _ = cone_sweep_scene(seed)
    rc = make_relative_complex(mu, p, 1)
    les = relative_les(rc)
    assert les["exact_everywhere"]
    assert les["alternating_sum_zero"]
    assert delta_equals_pullback_check(rc)["all_equal"]


def _form_level_cone(mu, p, q, budgets) -> Matrix:
    """The cone differential from grade q, column by column from tilde_dbar.

    Grade q is target-(p,q) at budgets[0] + source-(p,q-1) at budgets[1];
    the image is vectorized over target-(p,q+1) at budgets[2] + source-(p,q)
    at budgets[3].
    """
    from leafcoh.cohomology import vectorize
    from leafcoh.forms import FoliatedForm, basis_dimension, basis_form, enumerate_basis
    from leafcoh.operators import tilde_dbar

    tgt, src = mu.target, mu.source
    in_t, in_s, out_t, out_s = budgets
    zero_t = FoliatedForm.zero(tgt, p, q, in_t)
    zero_s = FoliatedForm.zero(src, p, max(q - 1, 0), in_s)
    pairs = [(basis_form(tgt, e, in_t), zero_s) for e in enumerate_basis(tgt, p, q, in_t)]
    if q >= 1:
        pairs += [(zero_t, basis_form(src, e, in_s)) for e in enumerate_basis(src, p, q - 1, in_s)]
    shift = basis_dimension(tgt, p, q + 1, out_t)
    cols = []
    for phi, psi in pairs:
        c1, c2 = tilde_dbar(phi, psi, mu)
        col = vectorize(c1, out_t)
        col.update((shift + i, v) for i, v in vectorize(c2, out_s).items())
        cols.append(col)
    return Matrix.from_columns(cols, shift + basis_dimension(src, p, q, out_s))


@pytest.mark.parametrize("seed", range(12))
def test_relative_cone_matrix_matches_tilde_dbar(seed):
    mu, p, _ = cone_sweep_scene(seed)
    rc = make_relative_complex(mu, p, 1)
    tb, sb = rc.target_budgets, rc.source_budgets
    for q, d in enumerate(rc.middle.diffs):
        assert d == _form_level_cone(mu, p, q, (tb[q], sb[q], tb[q + 1], sb[q + 1]))


@pytest.mark.parametrize("D", [0, 1, 2])
@pytest.mark.parametrize("seed", range(12))
def test_relative_cone_is_block_triangular_over_its_outer_complexes(seed, D):
    # d_M = [[d_R, 0], [mu*, d_L]] grade by grade, with the target first: the
    # block structure that makes 0 -> left -> middle -> right -> 0 exact
    mu, p, _ = cone_sweep_scene(seed)
    rc = make_relative_complex(mu, p, D)
    t, s = rc.right.dims, rc.left.dims
    assert list(rc.middle.dims) == [a + b for a, b in zip(t, s)]
    for q, d in enumerate(rc.middle.diffs):
        top, bottom = range(t[q + 1]), range(t[q + 1], d.rows)
        first, second = range(t[q]), range(t[q], d.cols)
        assert d.restricted(top, second).is_zero
        assert d.restricted(top, first) == rc.right.diffs[q]
        assert d.restricted(bottom, second) == rc.left.diffs[q]


@pytest.mark.parametrize("seed", range(12))
def test_solve_primitive_tilde_matrix_matches_tilde_dbar(seed, monkeypatch):
    from leafcoh import cohomology
    from leafcoh.forms import FoliatedForm
    from leafcoh.operators import tilde_dbar, twist_gap
    from leafcoh.sampling import random_form

    mu, p, rng = cone_sweep_scene(seed)
    fp = mu.target.f
    q = rng.randint(1, mu.target.m)
    phi1 = random_form(rng, mu.target, p, q - 1, 1)
    if q >= 2:
        psi1 = random_form(rng, mu.source, p, q - 2, 1)
    else:
        psi1 = FoliatedForm.zero(mu.source, p, 0, 1)
    phi, psi = tilde_dbar(phi1, psi1, mu)
    seen = []
    real_solve = cohomology.solve
    monkeypatch.setattr(cohomology, "solve", lambda M, b: seen.append(M) or real_solve(M, b))
    cohomology.solve_primitive_tilde(mu, phi, psi, slack=1)
    # the budgets solve_primitive_tilde documents: sources at budget - gap + slack,
    # outputs wide enough that neither block truncates
    gap_t, gap_s = twist_gap(fp), twist_gap(mu.pull_series(fp))
    s_phi = max(phi.budget - gap_t, 0) + 1
    s_psi = max(psi.budget - gap_s, 0) + 1
    out_phi = max(phi.budget, s_phi + gap_t)
    out_psi = max(psi.budget, mu.substitution_budget(s_phi, p, q - 1), s_psi + gap_s)
    assert seen == [_form_level_cone(mu, p, q - 1, (s_phi, s_psi, out_phi, out_psi))]


def _add(u: dict, v: dict) -> dict:
    """u + v for sparse vectors, zeros dropped."""
    out = dict(u)
    for i, x in v.items():
        y = out.get(i)
        out[i] = x if y is None else y + x
    return {i: x for i, x in out.items() if x}


def _shifts(rng, n: int) -> list:
    """Shifts s of one left grade: dense, sparse and Gaussian-rational."""
    def gaussian():
        d = rng.randint(1, 4)
        return GaussianRational(Fraction(rng.randint(-3, 3), d), Fraction(rng.randint(-3, 3), d))

    dense = {i: G(rng.randint(-2, 2)) for i in range(n)}
    sparse = {i: G(rng.choice([-3, -1, 1, 2])) for i in rng.sample(range(n), min(n, 2))}
    rational = [{i: gaussian() for i in range(n) if rng.random() < 0.5} for _ in range(2)]
    return [{i: v for i, v in s.items() if v} for s in [dense, sparse] + rational]


def _lift_case(case: str):
    kind, _, seed = case.partition("-")
    if kind == "ses":
        rng = random.Random(int(seed))
        return random_ses(rng, grades=rng.choice([2, 3, 4]))[0], rng
    if kind == "relative":
        mu, p, rng = cone_sweep_scene(int(seed))
        return relative_ses(make_relative_complex(mu, p, 1)), rng
    return make_mv_ses(laurent_cover(2)), random.Random(2)


LIFT_CASES = (
    [f"ses-{seed}" for seed in RANDOM_SES_SWEEPS]
    + [f"relative-{seed}" for seed in range(12)]
    + ["laurent-2"]
)


@pytest.mark.parametrize("case", LIFT_CASES)
def test_connecting_class_does_not_depend_on_the_lift(case):
    # the reference zig-zag lifts each class once; step by step, on other
    # lifts x + i(s): the chain map gives d_M(x + i(s)) = w + i(d_L s),
    # injectivity makes the pull-back y + d_L s, and class_coords drops d_L s,
    # which is a boundary
    ses, rng = _lift_case(case)
    data = reference_snake(ses)
    checked_dense = False
    for q in range(data.grades - 1):
        inj, inj_next = ses.inject.components[q], ses.inject.components[q + 1]
        d_m, d_l = ses.middle.differential(q), ses.left.differential(q)
        lift, pull = FactorOnce(ses.project.components[q]), FactorOnce(inj_next)
        for rep, column in zip(data.right[q].reps, data.connecting[q].columns()):
            x = lift.solve(rep)
            w = d_m.matvec(x)
            y = pull.solve(w)
            assert data.left[q + 1].class_coords(y) == column
            for s in _shifts(rng, ses.left.dims[q]):
                w2 = d_m.matvec(_add(x, inj.matvec(s)))
                assert w2 == _add(w, inj_next.matvec(d_l.matvec(s)))
                y2 = pull.solve(w2)
                assert y2 == _add(y, d_l.matvec(s))
                assert data.left[q + 1].class_coords(y2) == column
                if not checked_dense:
                    # one pull-back per case through the dense reference solve
                    want = dense_solve(inj_next, to_dense(w2, inj_next.rows))
                    assert to_dense(y2, inj_next.cols) == want
                    assert data.left[q + 1].class_coords(to_sparse(want)) == column
                    checked_dense = True


def test_relative_tilde_matrix_squares_to_zero():
    src = FoliationModel.untwisted(1, 0, 1)
    tgt = FoliationModel(1, 0, 1, parse_series("z1", 1, 0, 1))
    mu = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    rc = make_relative_complex(mu, 0, 1)
    for q in range(len(rc.middle.diffs) - 1):
        assert rc.middle.diffs[q + 1].mul(rc.middle.diffs[q]).is_zero


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------


def test_laurent_cover_validates_and_is_exact():
    ses = make_mv_ses(laurent_cover(2))
    assert ses.validate() == []
    rep = snake_les(ses, labels=("M", "U+V", "UV"))
    assert rep["exact_everywhere"]
    assert rep["alternating_sum_zero"]


def test_laurent_cover_known_dims():
    nodes = snake_les(make_mv_ses(laurent_cover(3)))["nodes"]
    # window complexes keep one constant class and one residue-slot class
    assert [node["dim"] for node in nodes[0::3]] == [1, 1]
    assert [node["dim"] for node in nodes[2::3]] == [1, 1]


def test_degenerate_cover_fails_with_documented_finding():
    with pytest.raises(CoverValidationError) as err:
        make_mv_ses(degenerate_cover(2))
    conditions = {(f["grade"], f["condition"]) for f in err.value.findings}
    assert (0, "project_surjective") in conditions
    assert (1, "project_surjective") in conditions


def test_trivial_overlap_splits():
    # UV = 0 forces M = U + V; the sequence validates and the LES splits
    cu = _window_complex(0, 2)
    cv = _window_complex(0, 1)
    cm = direct_sum(cu, cv)
    cuv = CochainComplex((0, 0), (Matrix.zero(0, 0),))
    r_u = ChainMap(
        cm, cu, [Matrix(cu.dims[q], cm.dims[q], {(i, i): G(1) for i in range(cu.dims[q])}) for q in range(2)]
    )
    r_v = ChainMap(
        cm,
        cv,
        [
            Matrix(
                cv.dims[q],
                cm.dims[q],
                {(i, cu.dims[q] + i): G(1) for i in range(cv.dims[q])},
            )
            for q in range(2)
        ],
    )
    zero_uv = lambda cx: ChainMap(cx, cuv, [Matrix.zero(0, cx.dims[q]) for q in range(2)])
    cover = MayerVietorisCover(cm, cu, cv, cuv, r_u, r_v, zero_uv(cu), zero_uv(cv))
    ses = make_mv_ses(cover)
    rep = snake_les(ses)
    assert rep["exact_everywhere"]
    nodes = rep["nodes"]
    for q in range(2):
        assert nodes[3 * q]["dim"] == nodes[3 * q + 1]["dim"]


def test_result_classes_take_positional_and_keyword_arguments():
    cover = laurent_cover(1)
    names = ("complex_m", "complex_u", "complex_v", "complex_uv", "r_u", "r_v", "r_u_uv", "r_v_uv")
    parts = [getattr(cover, name) for name in names]
    for again in (MayerVietorisCover(*parts), MayerVietorisCover(**dict(zip(names, parts)))):
        assert [getattr(again, name) for name in names] == parts
    src = FoliationModel.untwisted(2, 0, 1)
    tgt = FoliationModel.untwisted(1, 0, 1)
    mu = FoliatedMorphism(src, tgt, [parse_series("z1*z2", 2, 0, 2)], [])
    rc = make_relative_complex(mu, 0, 1)
    names = (
        "mu", "p", "target_budgets", "source_budgets", "left", "middle", "right",
    )
    parts = [getattr(rc, name) for name in names]
    for again in (RelativeComplex(*parts), RelativeComplex(**dict(zip(names, parts)))):
        assert [getattr(again, name) for name in names] == parts
        assert (again.m_source, again.m_target) == (2, 1)


def test_window_inclusion_is_chain_map():
    inner = _window_complex(0, 2)
    outer = _window_complex(-1, 3)
    cm = _window_inclusion(inner, outer, 0, -1)
    assert isinstance(cm, ChainMap)


def test_mv_restrictions_must_commute():
    cu = _window_complex(0, 2)
    bad = Matrix(cu.dims[1], cu.dims[0], {(0, 0): G(1), (1, 0): G(1)})
    with pytest.raises(ValueError, match="commute"):
        ChainMap(cu, cu, [Matrix.identity(cu.dims[0]), bad])


def test_mv_restrictions_must_map_the_cover_complexes():
    # make_mv_ses stacks the restrictions without re-multiplying, so each must
    # be a chain map between the very complexes it is given for
    c = laurent_cover(2)
    args = [c.complex_m, c.complex_u, c.complex_v, c.complex_uv, c.r_u, c.r_v, c.r_u_uv, c.r_v_uv]
    assert isinstance(MayerVietorisCover(*args), MayerVietorisCover)
    # same dimensions, zero differential: the stacks would not commute with it
    flat_u = CochainComplex(c.complex_u.dims, [Matrix.zero(d.rows, d.cols) for d in c.complex_u.diffs])
    for broken in (
        args[:4] + [c.r_v, c.r_u] + args[6:],
        args[:1] + [flat_u] + args[2:],
    ):
        with pytest.raises(LinearAlgebraError, match="^a restriction does not map between the cover's complexes$"):
            MayerVietorisCover(*broken)
