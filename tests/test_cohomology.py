import json
import pathlib
import random
from collections import Counter

import pytest
import sympy

from leafcoh.algebra import Series, parse_series
from leafcoh.forms import FoliatedForm, FoliationModel, FormError, basis_dimension, basis_form, enumerate_basis
from leafcoh.operators import dbar, dbar_f, tilde_dbar, FoliatedMorphism
from leafcoh.cohomology import (
    BudgetContractError,
    NotClosedError,
    apply_operator,
    aeppli_row,
    bott_chern_row,
    canonical_map_row,
    cohomology_grid,
    dolbeault_row,
    form_from_vector,
    inclusion_positions,
    operator_matrix,
    solve_primitive,
    solve_primitive_tilde,
    variant_row,
    vectorize,
)
from leafcoh import checks, cohomology, linalg
from leafcoh.checks import pairing_check
from leafcoh.algebra import GaussianRational
from leafcoh.linalg import Matrix, kernel_basis
from leafcoh.operators import twist_gap
from leafcoh.sampling import random_bidegree, random_form, random_series

import quotient_rows
from oracle import (
    oracle_aeppli,
    oracle_basis,
    oracle_bott_chern,
    oracle_canonical,
    oracle_dolbeault,
    oracle_operator_matrix,
    series_to_expr,
    symbols_for,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def untwisted(m, n, budget):
    return FoliationModel.untwisted(m, n, budget)


# ---------------------------------------------------------------------------
# Vectorisation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3) for n in (0, 1)])
def test_vectorize_round_trips_random_forms(m, n):
    # every bidegree: the sparse coordinates read back to the form, sit on
    # the budget-b basis with nonzero values, and a budget below the form's
    # top degree is refused
    rng = random.Random(1500 + 10 * m + n)
    refused = 0
    for p in range(m + 1):
        for q in range(m + 1):
            for _ in range(3):
                b = rng.randint(0, 3)
                model = untwisted(m, n, b)
                phi = random_form(rng, model, p, q, b)
                vec = vectorize(phi, b)
                assert form_from_vector(model, p, q, b, vec) == phi
                dim = basis_dimension(model, p, q, b)
                assert all(0 <= i < dim and v for i, v in vec.items())
                assert len(vec) == sum(len(s.terms) for s in phi.coeffs.values())
                if not phi.is_zero:
                    top = max(s.degree for s in phi.coeffs.values())
                    with pytest.raises(BudgetContractError, match="does not fit the budget"):
                        vectorize(phi, top - 1)
                    refused += 1
    assert refused


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------


def test_operator_matrix_kernel_spans_holomorphic_monomials():
    model = untwisted(1, 0, 2)
    M = operator_matrix("dbar", model, 0, 0, 2, 2)
    K = kernel_basis(M)
    assert K.dim == 3
    for vec in K.basis:
        phi = form_from_vector(model, 0, 0, 2, vec)
        for (_, _), series in phi.coeffs.items():
            assert all(sum(beta) == 0 for (_, beta, _) in series.terms)


def test_operator_matrix_top_degree_target_is_empty():
    model = untwisted(1, 0, 2)
    M = operator_matrix("dbar", model, 0, 1, 2, 2)
    assert M.rows == 0 and M.cols == basis_dimension(model, 0, 1, 2)


def test_operator_matrix_empty_source_reads_no_target_basis(monkeypatch):
    # cone_blocks asks for dbar_f out of (0, -1) at grade 0: a matrix with no
    # columns, whose row count is arithmetic
    requests = []
    real = cohomology._basis_cached
    monkeypatch.setattr(cohomology, "_basis_cached", lambda *args: requests.append(args) or real(*args))
    model = FoliationModel(2, 0, 2, parse_series("1+z1", 2, 0, 1))
    M = operator_matrix("dbar_f", model, 0, -1, 0, 14)
    assert (M.rows, M.cols, M.entries) == (basis_dimension(model, 0, 0, 14), 0, {})
    assert (2, 0, 0, 0, 14) not in requests


def test_operator_matrix_zero_twist():
    model = FoliationModel(1, 0, 2, Series.zero(1, 0))
    for tag in ("dbar_f", "partial_f"):
        assert operator_matrix(tag, model, 0, 0, 2, 2).is_zero


def test_operator_matrix_budget_contract():
    model = FoliationModel(1, 0, 2, parse_series("z1^2", 1, 0, 2))
    with pytest.raises(BudgetContractError):
        operator_matrix("dbar_f", model, 0, 0, 2, 2)  # needs out >= in + 1
    operator_matrix("dbar_f", model, 0, 0, 2, 3)


@pytest.mark.parametrize("seed", range(25))
def test_matrix_is_linear_operator(seed):
    rng = random.Random(1400 + seed)
    m, n = rng.choice([(1, 1), (2, 0)])
    f = random_series(rng, m, n, 2)
    model = FoliationModel(m, n, 2, f)
    p, q = random_bidegree(rng, m)
    gap = model.twist_gap
    M = operator_matrix("dbar_f", model, p, q, 2, 2 + gap)
    phi = random_form(rng, model, p, q, 2)
    lhs = M.matvec(vectorize(phi, 2))
    rhs = vectorize(dbar_f(phi), 2 + gap)
    assert lhs == rhs


# Differential tests: the closed-form assembly against the reference form
# arithmetic, applied to one basis form at a time, and against the sympy
# oracle.

TAGS = ("dbar", "partial", "dbar_f", "partial_f", "dbar_f_k")


def reference_operator_matrix(tag, model, p, q, in_budget, out_budget, k=None):
    """Column j = the form-level operator applied to basis element j."""
    dp, dq = (0, 1) if tag in ("dbar", "dbar_f", "dbar_f_k") else (1, 0)
    out_index = {e: i for i, e in enumerate(enumerate_basis(model, p + dp, q + dq, out_budget))}
    entries = {}
    for j, elem in enumerate(enumerate_basis(model, p, q, in_budget)):
        image = apply_operator(tag, basis_form(model, elem, in_budget), k)
        for (A, B), series in image.coeffs.items():
            for expo, coeff in series.terms.items():
                entries[(out_index[(A, B, expo)], j)] = coeff
    rows = basis_dimension(model, p + dp, q + dq, out_budget)
    return Matrix(rows, basis_dimension(model, p, q, in_budget), entries)


def assert_matches_reference(model, budgets=(0, 1, 2), ks=(0, 1, 3)):
    for tag in TAGS:
        for k in ks if tag == "dbar_f_k" else (None,):
            gap = 0 if tag in ("dbar", "partial") else model.twist_gap
            for p in range(model.m + 1):
                for q in range(model.m + 1):
                    for in_budget in budgets:
                        for out_budget in (in_budget + gap, in_budget + gap + 1):
                            got = operator_matrix(tag, model, p, q, in_budget, out_budget, k)
                            want = reference_operator_matrix(
                                tag, model, p, q, in_budget, out_budget, k
                            )
                            assert got == want, (tag, k, p, q, in_budget, out_budget)


DIFFERENTIAL_TWISTS = [
    (1, 0, "0"),
    (1, 0, "1"),
    (1, 0, "-3/2"),
    (1, 0, "(2-i)"),
    (1, 0, "1 + z1"),
    (1, 0, "z1^2 - 1/2*zb1"),
    (1, 1, "x1"),
    (1, 1, "1 + x1*zb1 - 2i*x1^2"),
    (2, 0, "1 + z1*zb2"),
    (2, 0, "(1+i)*zb1^2 + 1/3*z2 - 5"),
    (2, 1, "1 + x1 + i*z2*zb1"),
]


@pytest.mark.parametrize("m,n,f_text", DIFFERENTIAL_TWISTS)
def test_operator_matrix_matches_form_arithmetic(m, n, f_text):
    model = FoliationModel(m, n, 2, parse_series(f_text, m, n, 4))
    budgets = (0, 1, 2) if m + n < 3 else (1,)
    assert_matches_reference(model, budgets)


def test_operator_matrix_matches_form_arithmetic_m3():
    model = FoliationModel(3, 0, 1, parse_series("1 + z1*zb2 + z3^2", 3, 0, 2))
    assert_matches_reference(model, budgets=(1,), ks=(2,))


@pytest.mark.parametrize("seed", range(20))
def test_operator_matrix_matches_form_arithmetic_random(seed):
    rng = random.Random(2600 + seed)
    m, n = rng.choice([(1, 0), (1, 1), (2, 0), (2, 1)])
    model = FoliationModel(m, n, 2, random_series(rng, m, n, rng.randint(0, 3)))
    assert_matches_reference(model, budgets=(rng.randint(0, 2),), ks=(rng.randint(-1, 4),))


def _sympy_scalar(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


ORACLE_MATRIX_CASES = [
    (1, 0, "1", "dbar", None, 1, 1, 2),
    (1, 0, "1", "partial", None, 0, 0, 2),
    (1, 0, "1 + zb1^2", "dbar_f", None, 0, 0, 2),
    (1, 1, "(1+2i)*x1 + z1", "partial_f", None, 0, 1, 2),
    (1, 1, "1/2 - x1*zb1", "dbar_f_k", 3, 1, 0, 1),
    (2, 0, "1 + z1*zb2", "dbar_f", None, 1, 0, 1),
    (2, 0, "1 + z1*zb2", "partial_f", None, 0, 1, 1),
    (2, 0, "i + z2^2", "dbar_f_k", 1, 1, 1, 1),
    (2, 0, "0", "dbar_f", None, 0, 1, 1),
]


@pytest.mark.parametrize("m,n,f_text,tag,k,p,q,budget", ORACLE_MATRIX_CASES)
def test_operator_matrix_matches_oracle(m, n, f_text, tag, k, p, q, budget):
    f = parse_series(f_text, m, n, 4)
    model = FoliationModel(m, n, budget, f)
    gap = 0 if tag in ("dbar", "partial") else model.twist_gap
    out_budget = budget + gap
    anti = tag in ("dbar", "dbar_f", "dbar_f_k")
    dp, dq = (0, 1) if anti else (1, 0)
    zs, zbs, xs = symbols_for(m, n)
    f_expr = sympy.Integer(1) if tag in ("dbar", "partial") else series_to_expr(f, zs, zbs, xs)
    O = oracle_operator_matrix(
        m, n, f_expr, p, q, budget, out_budget, weight_shift=k or 0, anti=anti
    )
    o_in = oracle_basis(m, n, p, q, budget)
    o_out = oracle_basis(m, n, p + dp, q + dq, out_budget)
    want = {
        (o_out[i], o_in[j]): O[i, j]
        for i in range(O.rows)
        for j in range(O.cols)
        if O[i, j] != 0
    }
    M = operator_matrix(tag, model, p, q, budget, out_budget, k)
    e_in = enumerate_basis(model, p, q, budget)
    e_out = enumerate_basis(model, p + dp, q + dq, out_budget)
    got = {(e_out[i], e_in[j]): _sympy_scalar(v) for (i, j), v in M.entries.items()}
    assert got.keys() == want.keys()
    for key, value in got.items():
        assert sympy.expand(value - want[key]) == 0, key


def test_operator_matrix_k_variant_needs_k():
    model = FoliationModel(1, 0, 1, parse_series("1 + z1", 1, 0, 1))
    with pytest.raises(ValueError, match="needs the integer k"):
        operator_matrix("dbar_f_k", model, 0, 0, 1, 1)


def test_inclusion_positions_are_increasing_injection():
    model = untwisted(2, 1, 3)
    pos = inclusion_positions(model, 1, 0, 1, 3)
    assert len(pos) == basis_dimension(model, 1, 0, 1)
    assert len(set(pos)) == len(pos)


# ---------------------------------------------------------------------------
# Dimension tables against the oracle and hand values
# ---------------------------------------------------------------------------


def test_dolbeault_untwisted_function_space():
    # kernel of dbar on functions at budget 3: holomorphic polynomials
    row = dolbeault_row(untwisted(1, 0, 3), 0, 0, 3)
    assert row["dim"] == 4


def test_dolbeault_untwisted_top_degree_exactness():
    # with one budget of slack every g dzb has an antiderivative
    row = dolbeault_row(untwisted(1, 0, 3), 0, 1, 3, slack=1)
    assert row["dim"] == 0
    assert row["ker"] == 10 and row["im"] == 10


ORACLE_SCENES = [
    (1, 0, "1", 3),
    (1, 0, "z1", 2),
    (1, 0, "1 + zb1", 2),
    (1, 1, "1 + z1*zb1", 2),
    (2, 0, "1 + z1", 2),
]


@pytest.mark.parametrize("m,n,f_text,D", ORACLE_SCENES)
def test_dolbeault_matches_oracle(m, n, f_text, D):
    f = parse_series(f_text, m, n, D)
    model = FoliationModel(m, n, D, f)
    for p in range(m + 1):
        for q in range(m + 1):
            row = dolbeault_row(model, p, q, D)
            o = oracle_dolbeault(model, p, q, D)
            assert (row["ker"], row["im"], row["dim"]) == (o["ker"], o["im"], o["dim"])


@pytest.mark.parametrize("m,n,f_text,D", ORACLE_SCENES[:4])
def test_bott_chern_and_aeppli_match_oracle(m, n, f_text, D):
    f = parse_series(f_text, m, n, D)
    model = FoliationModel(m, n, D, f)
    for p in range(m + 1):
        for q in range(m + 1):
            row = bott_chern_row(model, p, q, D)
            o = oracle_bott_chern(model, p, q, D)
            assert (row["ker"], row["im"], row["dim"]) == (o["ker"], o["im"], o["dim"])
            row = aeppli_row(model, p, q, D)
            o = oracle_aeppli(model, p, q, D)
            assert (row["ker"], row["im"], row["dim"]) == (o["ker"], o["im"], o["dim"])


def test_bott_chern_hand_values():
    assert bott_chern_row(untwisted(1, 0, 2), 0, 0, 2)["dim"] == 1
    assert bott_chern_row(untwisted(1, 0, 3), 0, 0, 3)["dim"] == 1
    model0 = FoliationModel(1, 0, 2, Series.zero(1, 0))
    assert bott_chern_row(model0, 1, 1, 2)["dim"] == basis_dimension(model0, 1, 1, 2)
    # (1,1) at budget 1: the whole 3-dim space survives (nothing is hit)
    top = bott_chern_row(untwisted(1, 0, 1), 1, 1, 1)
    assert top["dim"] == oracle_bott_chern(untwisted(1, 0, 1), 1, 1, 1)["dim"] == 3


def test_aeppli_hand_values():
    # harmonic polynomials: z^a and zb^b, 2D+1 of them at budget D
    for D in (1, 2, 3):
        assert aeppli_row(untwisted(1, 0, D), 0, 0, D)["dim"] == 2 * D + 1
    model0 = FoliationModel(1, 0, 2, Series.zero(1, 0))
    assert aeppli_row(model0, 1, 0, 2)["dim"] == basis_dimension(model0, 1, 0, 2)
    assert aeppli_row(untwisted(1, 0, 2), 1, 0, 2)["dim"] == 3


def test_kvariant_matches_dolbeault_at_zero_shift():
    model = FoliationModel(1, 0, 2, parse_series("zb1", 1, 0, 1))
    for p in range(2):
        for q in range(2):
            a = dolbeault_row(model, p, q, 2)
            b = dolbeault_row(model, p, q, 2, k=0)
            assert (a["ker"], a["im"], a["dim"]) == (b["ker"], b["im"], b["dim"])


def test_kvariant_untwisted_insensitive_to_k():
    model = untwisted(1, 0, 2)
    base = [dolbeault_row(model, p, q, 2) for p in range(2) for q in range(2)]
    for k in (-1, 1, 2):
        rows = [dolbeault_row(model, p, q, 2, k=k) for p in range(2) for q in range(2)]
        assert [(r["ker"], r["im"], r["dim"]) for r in rows] == [
            (r["ker"], r["im"], r["dim"]) for r in base
        ]


def test_kvariant_oracle_value():
    model = FoliationModel(1, 0, 2, parse_series("zb1", 1, 0, 1))
    row = dolbeault_row(model, 0, 1, 2, k=1)
    o = oracle_dolbeault(model, 0, 1, 2, k=1)
    assert row["dim"] == o["dim"] == 0


@pytest.mark.parametrize("m,n,f_text,D", ORACLE_SCENES[:4])
def test_canonical_map_matches_oracle(m, n, f_text, D):
    f = parse_series(f_text, m, n, D)
    model = FoliationModel(m, n, D, f)
    for p in range(m + 1):
        for q in range(m + 1):
            row = canonical_map_row(model, p, q, D)
            o = oracle_canonical(model, p, q, D)
            assert (row["rank"], row["domain"], row["codomain"]) == (
                o["rank"],
                o["domain"],
                o["codomain"],
            )


def test_canonical_map_zero_twist_is_identity_like():
    model = FoliationModel(1, 0, 2, Series.zero(1, 0))
    row = canonical_map_row(model, 1, 1, 2)
    full = basis_dimension(model, 1, 1, 2)
    assert row["rank"] == row["domain"] == row["codomain"] == full


def test_canonical_map_injects_at_bidegree_zero():
    model = FoliationModel(1, 0, 2, parse_series("1 + z1", 1, 0, 1))
    row = canonical_map_row(model, 0, 0, 2)
    assert row["rank"] == row["domain"]


# ---------------------------------------------------------------------------
# The vanishing-twist contrast (golden file)
# ---------------------------------------------------------------------------


def test_vanishing_twist_contrast_golden():
    golden = json.loads((GOLDEN / "vanishing_twist.json").read_text())
    m, n, D = golden["m"], golden["n"], golden["D"]
    twisted = FoliationModel(m, n, D, parse_series(golden["f"], m, n, D))
    plain = FoliationModel.untwisted(m, n, D)
    slack = golden["slack"]
    t_row = dolbeault_row(twisted, 0, 1, D, slack=slack)
    u_row = dolbeault_row(plain, 0, 1, D, slack=slack)
    assert t_row["dim"] == golden["twisted_dim"]
    assert u_row["dim"] == golden["untwisted_dim"]
    assert t_row["dim"] > u_row["dim"]
    # re-derive both from the independent oracle
    assert oracle_dolbeault(twisted, 0, 1, D, slack=slack)["dim"] == golden["twisted_dim"]
    assert oracle_dolbeault(plain, 0, 1, D, slack=slack)["dim"] == golden["untwisted_dim"]


# ---------------------------------------------------------------------------
# Unit twists and the rescaling comparison
# ---------------------------------------------------------------------------


def _table(model, D, slack=0):
    rows = []
    for p in range(model.m + 1):
        for q in range(model.m + 1):
            r = dolbeault_row(model, p, q, D, slack=slack)
            rows.append((p, q, r["ker"], r["im"], r["dim"]))
    return rows


@pytest.mark.parametrize(
    "f_text", ["2", "1 + z1", "3/2 + z1 + z1^2", "1 + x1", "1 + z1*x1"]
)
def test_unit_leafwise_closed_twists_match_untwisted_tables(f_text):
    """Unit twists killed by dbar leave the whole table untouched once the
    image source budgets are matched (D and D - gap)."""
    m, n, D = 1, 1, 2
    f = parse_series(f_text, m, n, D)
    model = FoliationModel(m, n, D, f)
    gap = model.twist_gap
    plain = FoliationModel.untwisted(m, n, D)
    assert _table(model, D) == _table(plain, D, slack=-gap)


@pytest.mark.parametrize("h_text", ["2", "1 + z1", "1 + x1"])
def test_twist_product_with_closed_unit_matches(h_text):
    """For a unit h killed by dbar, dbar_{fh} = h * dbar_f exactly, so the
    tables for twists f*h and f agree once the image budgets are matched."""
    m, n, D = 1, 1, 2
    f = parse_series("zb1", m, n, 1)
    h = parse_series(h_text, m, n, D)
    model_f = FoliationModel(m, n, D, f)
    model_fh = FoliationModel(m, n, D, f.mul(h))
    shift = model_f.twist_gap - model_fh.twist_gap
    for p in range(m + 1):
        for q in range(m + 1):
            a = dolbeault_row(model_fh, p, q, D)
            b = dolbeault_row(model_f, p, q, D, slack=shift)
            assert (a["ker"], a["im"], a["dim"]) == (b["ker"], b["im"], b["dim"])


def test_general_unit_twist_breaks_naive_matching():
    """A unit twist not killed by dbar genuinely changes the truncated
    kernel; recorded so the matched-budget convention stays honest."""
    m, n, D = 1, 0, 1
    model = FoliationModel(m, n, D, parse_series("1 + zb1", m, n, D))
    plain = FoliationModel.untwisted(m, n, D)
    assert dolbeault_row(model, 1, 0, D)["dim"] != dolbeault_row(plain, 1, 0, D)["dim"]


def test_rescale_conjugation_as_matrix_identity():
    """Division by h^(p+q) conjugates the twisted operator matrices exactly:
    rescale . M(dbar_{fh}) equals trunc_W . M(dbar_f) . rescale."""
    from leafcoh.forms import basis_form, rescale_power
    from leafcoh.linalg import Matrix

    m, n, D = 1, 0, 2
    f = parse_series("z1", m, n, D)
    h = parse_series("1 + zb1", m, n, D)
    fh = f.mul(h)
    p, q = 1, 0
    W = D + fh.degree + 1

    model_fh = FoliationModel(m, n, D, fh)
    model_f = FoliationModel(m, n, D, f)
    gap_fh = model_fh.twist_gap
    gap_f = model_f.twist_gap
    M_fh = operator_matrix("dbar_f", model_fh, p, q, D, D + gap_fh)

    def rescale_matrix(mdl, pp, qq, in_b, out_b):
        cols = []
        for elem in enumerate_basis(mdl, pp, qq, in_b):
            phi = basis_form(mdl, elem, in_b)
            cols.append(vectorize(rescale_power(phi, h, out_budget=out_b), out_b))
        return Matrix.from_columns(cols, basis_dimension(mdl, pp, qq, out_b))

    R_out = rescale_matrix(model_f, p, q + 1, D + gap_fh, W)
    lhs = R_out.mul(M_fh)

    R_in = rescale_matrix(model_f, p, q, D, W + 1)
    M_f = operator_matrix("dbar_f", model_f, p, q, W + 1, W + 1 + gap_f)
    prod = M_f.mul(R_in)
    keep = inclusion_positions(model_f, p, q + 1, W, W + 1 + gap_f)
    proj = Matrix(
        len(keep), basis_dimension(model_f, p, q + 1, W + 1 + gap_f), {(i, r): 1 for i, r in enumerate(keep)}
    )
    rhs = proj.mul(prod)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Grid, stabilisation, report shape
# ---------------------------------------------------------------------------


def test_grid_stabilisation_flags():
    model = untwisted(1, 0, 2)
    rows = cohomology_grid(model, "dolbeault", [0], [0, 1], [2], slack=1)
    by_q = {r["q"]: r for r in rows}
    # function space keeps growing with the budget
    assert by_q[0]["stable"] is False
    # top-degree group is exact at every budget with one slack
    assert by_q[1]["stable"] is True
    assert by_q[1]["dim"] == 0


def test_grid_is_deterministic():
    model = FoliationModel(1, 1, 2, parse_series("1 + z1", 1, 1, 1))
    a = cohomology_grid(model, "bc", [0, 1], [0, 1], [1, 2])
    b = cohomology_grid(model, "bc", [0, 1], [0, 1], [1, 2])
    assert a == b


# ---------------------------------------------------------------------------
# Rank-only rows against the quotient-basis reference
# ---------------------------------------------------------------------------

VARIANT_NAMES = ("dolbeault", "k", "bc", "aeppli", "canonical")
TWIST_KINDS = ("untwisted", "sparse", "dense")


def _twist_text(rng, kind, m, n):
    variables = [f"z{i}" for i in range(1, m + 1)] + [f"zb{i}" for i in range(1, m + 1)]
    variables += [f"x{j}" for j in range(1, n + 1)]
    coeff = lambda: rng.choice(["1", "2", "1/2", "i", "(1+2i)", "3"])
    if kind == "untwisted":
        return "1"
    if kind == "sparse":
        # a unit plus one or two monomials, some of degree two (gap 1)
        terms = ["1"]
        for _ in range(rng.randint(1, 2)):
            mono = "*".join(rng.sample(variables, rng.randint(1, min(2, len(variables)))))
            terms.append(f"{coeff()}*{mono}")
        return " - ".join(terms) if rng.random() < 0.5 else " + ".join(terms)
    # dense: every variable, so dbar_f does not split into blocks
    terms = ["1"] + [f"{coeff()}*{v}" for v in variables]
    if rng.random() < 0.5:
        terms.append(f"{coeff()}*{variables[0]}*{variables[-1]}")
    return " + ".join(terms)


def _reference_grid(model, variant, ps, qs, ds, slack, k):
    key = "rank" if variant == "canonical" else "dim"
    rows = []
    for p in ps:
        for q in qs:
            for D in ds:
                row = quotient_rows.variant_row(model, variant, p, q, D, slack, k)
                probe = quotient_rows.variant_row(model, variant, p, q, D + 1, slack, k)
                row["stable"] = row[key] == probe[key]
                rows.append(row)
    return rows


def _differential_case(seed):
    """A seeded scene: twist kind, variant, slack and m, n cycle through every combination."""
    rng = random.Random(9100 + seed)
    kind = TWIST_KINDS[seed % 3]
    variant = VARIANT_NAMES[seed % 5]
    if seed >= 30:  # a few small m=3 grids
        m, n, top = 3, 0, 1
    else:
        m, n = 1 + (seed // 3) % 2, (seed // 6) % 2
        top = 3 if m + n == 1 else 2
    slack = (seed // 5) % 3 if variant in ("dolbeault", "k") else 0
    k = rng.randint(-1, 2) if variant == "k" else None
    f = parse_series(_twist_text(rng, kind, m, n), m, n, 2)
    return FoliationModel(m, n, top, f.with_budget(f.degree)), variant, slack, k, top


@pytest.mark.parametrize("seed", range(33))
def test_rank_only_rows_match_quotient_reference(seed):
    model, variant, slack, k, top = _differential_case(seed)
    ps = qs = list(range(model.m + 1))
    ds = list(range(top + 1))
    want = _reference_grid(model, variant, ps, qs, ds, slack, k)
    assert cohomology_grid(model, variant, ps, qs, ds, slack, k) == want
    # a row on its own (a grid of one) is the same row
    p, q, D = model.m // 2, (model.m + 1) // 2, top
    one = variant_row(model, variant, p, q, D, slack, k)
    assert one == quotient_rows.variant_row(model, variant, p, q, D, slack, k)


def test_differential_cases_cover_every_combination():
    cases = [_differential_case(seed) for seed in range(33)]
    assert {variant for _, variant, *_ in cases} == set(VARIANT_NAMES)
    assert {slack for _, variant, slack, *_ in cases if variant == "dolbeault"} == {0, 1, 2}
    assert {slack for _, variant, slack, *_ in cases if variant == "k"} == {0, 1, 2}
    assert {(model.m, model.n) for model, *_ in cases} == {(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)}
    assert {twist_gap(model.f) for model, *_ in cases} == {0, 1}


def _assembled(model, key):
    """The matrix under a _Grid key, assembled at its own budgets with no grid shared."""
    tag, p, q, b, out, k = key
    if tag == "composed":
        return cohomology._composed_matrix(cohomology._Grid(model), p, q, b)
    if tag == "stacked":
        return linalg.vstack(operator_matrix("partial_f", model, p, q, b, out), operator_matrix("dbar_f", model, p, q, b, out))
    if tag == "image":
        return linalg.hstack(
            operator_matrix("partial_f", model, p - 1, q, b, out), operator_matrix("dbar_f", model, p, q - 1, b, out)
        )
    return operator_matrix(tag, model, p, q, b, out, k)


@pytest.mark.parametrize("seed", range(33))
def test_grid_restrictions_and_profile_ranks_match_assembly(seed):
    # every budget of every family the grid holds, below its top included:
    # the restricted matrix is the one assembled at that budget, and the rank
    # read off the family's one elimination is that matrix's rank
    model, variant, slack, k, top = _differential_case(seed)
    grid = cohomology._Grid(model)
    for p in range(model.m + 1):
        for q in range(model.m + 1):
            for D in range(top + 1, -1, -1):
                variant_row(model, variant, p, q, D, slack, k, grid=grid)
    assert grid._families
    for (tag, p, q, k_, diff), family in list(grid._families.items()):
        for b in range(family.budget + 1):
            key = (tag, p, q, b, b + diff, k_)
            want = _assembled(model, key)
            assert grid.matrix(*key) == want, key
            assert grid.rank(key) == linalg.rank(want), key


@pytest.mark.parametrize("seed", range(33))
def test_grid_with_unsorted_and_repeated_axes_matches_fresh_rows(seed):
    # families are first asked for below their top and then rebuilt higher;
    # the rows still equal rows computed one by one, each with a grid of its own
    model, variant, slack, k, top = _differential_case(seed)
    key = "rank" if variant == "canonical" else "dim"
    ps = [model.m, 0, model.m // 2, model.m]
    qs = [model.m // 2, model.m, 0]
    ds = [top - 1, top, 0, top]
    fresh = {}

    def row(p, q, D):
        if (p, q, D) not in fresh:
            fresh[(p, q, D)] = variant_row(model, variant, p, q, D, slack, k)
        return dict(fresh[(p, q, D)])

    want = []
    for p in ps:
        for q in qs:
            for D in ds:
                want.append(dict(row(p, q, D), stable=row(p, q, D)[key] == row(p, q, D + 1)[key]))
    assert cohomology_grid(model, variant, ps, qs, ds, slack, k) == want


# Call counts of the three jobs of the benchmark's sparse_twist workload
# (perfbench/run.py scenes sparse_m2 and sparse_m3): operator_matrix
# assemblies, reference re-applications of the composition, eliminations and
# basis-index lookups.  Each family is assembled, re-checked and eliminated
# once at its top budget; a lower budget assembled or eliminated again raises
# a count.  Assembly and restriction compute basis positions, so only the
# composition re-check (its target index) calls _basis_index.
WORK_COUNTS = [
    ("canonical", 2, "1+z1*zb2", [0, 1, 2], [0, 1, 2], [2, 3], (18, 4, 16, 6)),
    ("aeppli", 2, "1+z1*zb2", [0, 1, 2], [0, 1, 2], [2, 3], (20, 4, 12, 9)),
    ("dolbeault", 3, "1+z1*zb2+z3^2", [1], [1], [3], (2, 0, 2, 0)),
]


@pytest.mark.parametrize("variant, m, f_text, ps, qs, ds, counts", WORK_COUNTS, ids=[c[0] for c in WORK_COUNTS])
def test_sparse_twist_work_counts(monkeypatch, variant, m, f_text, ps, qs, ds, counts):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cohomology, "operator_matrix")
    counted(cohomology, "_applied_matrix")
    counted(linalg, "_gauss_jordan")
    counted(cohomology, "_basis_index")
    model = FoliationModel(m, 0, 3, parse_series(f_text, m, 0, 3))
    cohomology_grid(model, variant, ps, qs, ds)
    names = ("operator_matrix", "_applied_matrix", "_gauss_jordan", "_basis_index")
    assert tuple(calls[name] for name in names) == counts


def test_span_restricted_to():
    # span of (1,0,1) and (0,1,0); vectors supported on coords {0,1}
    G = GaussianRational
    vectors = [{0: G(1), 2: G(1)}, {1: G(1)}]
    restricted = quotient_rows.span_restricted_to(vectors, [0, 1], 3)
    assert restricted.dim == 1
    assert restricted.basis[0] == {1: G(1)}
    # dependent inputs are tolerated
    restricted2 = quotient_rows.span_restricted_to(vectors + [{1: G(2)}], [0, 1], 3)
    assert restricted2.dim == 1


def test_grid_eliminates_no_matrix_twice(monkeypatch):
    # the sparse_twist benchmark's canonical grid: the row at D and its D+1
    # probe, and neighbouring rows, share matrices and ranks through one memo
    seen = Counter()
    real = linalg._gauss_jordan

    def counting(rows, ncols, *args, **kwargs):
        seen[(ncols, tuple(tuple(sorted(row.items())) for row in rows))] += 1
        return real(rows, ncols, *args, **kwargs)

    assembled = Counter()
    real_matrix = cohomology.operator_matrix

    def counting_matrix(*args):
        assembled[args[:1] + args[2:]] += 1
        return real_matrix(*args)

    monkeypatch.setattr(linalg, "_gauss_jordan", counting)
    monkeypatch.setattr(cohomology, "operator_matrix", counting_matrix)
    model = FoliationModel(2, 0, 3, parse_series("1+z1*zb2", 2, 0, 2))
    for variant in ("canonical", "dolbeault"):
        seen.clear()
        assembled.clear()
        cohomology_grid(model, variant, [0, 1, 2], [0, 1, 2], [2, 3])
        assert seen and max(seen.values()) == 1, variant
        assert max(assembled.values()) == 1, variant


def test_canonical_map_checks_well_definedness(monkeypatch):
    # a Bott-Chern image that is closed but leaves the Dolbeault image: at
    # top degree (1,1) of m=1 every form is closed, and the budget-2
    # monomials are not dbar-exact from budget 2
    model = untwisted(1, 0, 2)
    basis = enumerate_basis(model, 1, 1, 2)
    top = next(j for j, (_, _, e) in enumerate(basis) if sum(map(sum, e)) == 2)

    def escaping(grid, p, q, in_budget):
        return Matrix(len(basis), basis_dimension(model, p, q, in_budget), {(top, 0): 1})

    monkeypatch.setattr(cohomology, "_composed_matrix", escaping)
    with pytest.raises(AssertionError, match="canonical map ill-defined"):
        canonical_map_row(model, 1, 1, 2)


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def test_pairing_check_hundred_seeded_cases():
    model = FoliationModel(2, 0, 2, parse_series("1 + z1", 2, 0, 1))
    rep = pairing_check(model, 1, 1, 1, 0, trials=100, seed=99)
    assert rep["violations_total"] == 0
    assert all(e["cases"] == 100 for e in rep["identities"])


def test_pairing_check_trivial_zero_psi():
    # bidegrees beyond the top force psi = 0; everything passes vacuously
    model = untwisted(1, 0, 2)
    rep = pairing_check(model, 1, 1, 1, 1, trials=3, seed=5)
    assert rep["violations_total"] == 0


def _pairing_entries(counts, firsts):
    names = ("closed_wedge_ddclosed", "closed_wedge_exact", "ddexact_wedge_ddclosed")
    return [
        {"name": name, "cases": cases, "violations": violations, "first_counterexample": first}
        for name, (cases, violations), first in zip(names, counts, firsts)
    ]


def test_pairing_reports_pin_counterexamples_of_a_broken_partial_f(monkeypatch):
    # partial_f with the twist f + 1 in the suite's wedge statements only: the
    # kernels still come from the grid's matrices of the real operators.
    # Values recorded from the engine's pairing_check before the suite moved
    # to checks; a suite counterexample names its bidegree combination.
    real = checks.partial_f

    def broken(phi, f=None):
        f = phi.model.f if f is None else f
        return real(phi, f + Series.one(f.m, f.n))

    monkeypatch.setattr(checks, "partial_f", broken)
    model = FoliationModel(2, 0, 2, parse_series("1+z1*zb2", 2, 0, 2))
    assert checks.run_suite("pairing", model, 5, 40) == {
        "suite": "pairing",
        "seed": 5,
        "trials": 36,
        "identities": _pairing_entries(
            [(36, 4), (36, 4), (36, 8)],
            [
                {"bidegrees": [0, 0, 0, 0], "case": 0},
                {"bidegrees": [0, 1, 1, 1], "case": 0},
                {"bidegrees": [0, 0, 0, 0], "case": 0},
            ],
        ),
        "violations_total": 16,
    }
    assert pairing_check(model, 0, 1, 1, 0, trials=8, seed=5) == {
        "suite": "pairing",
        "bidegrees": {"p": 0, "q": 1, "r": 1, "s": 0},
        "seed": 5,
        "trials": 8,
        "identities": _pairing_entries([(8, 0), (8, 4), (8, 3)], [None, {"case": 2}, {"case": 4}]),
        "violations_total": 7,
    }


# ---------------------------------------------------------------------------
# Primitive solving
# ---------------------------------------------------------------------------


def test_solve_primitive_zero_target():
    model = untwisted(1, 0, 2)
    prim = solve_primitive("dbar_f", model, FoliatedForm.zero(model, 0, 1), slack=0)
    assert prim is not None and prim.is_zero


def test_solve_primitive_untwisted_antiderivative():
    model = untwisted(1, 0, 1)
    target = FoliatedForm.generator(model, (), (1,), coeff=Series.variable(1, 0, "zb", 1))
    prim = solve_primitive("dbar", model, target, slack=1)
    assert prim is not None
    assert dbar(prim) == target
    assert prim.coefficient((), ()) == parse_series("1/2*zb1^2", 1, 0, 2)


def test_solve_primitive_not_closed_rejected():
    model = untwisted(1, 0, 2)
    phi = FoliatedForm.from_series(model, Series.variable(1, 0, "zb", 1))
    with pytest.raises(NotClosedError):
        solve_primitive("dbar", model, phi, slack=0)


def test_solve_primitive_none_within_slack():
    # with twist z1 the image of dbar_f is divisible by z1, so dzb1 has no
    # primitive at any slack; the answer is a budget report, not a crash
    model = FoliationModel(1, 0, 2, parse_series("z1", 1, 0, 1))
    target = FoliatedForm.generator(model, (), (1,))
    assert solve_primitive("dbar_f", model, target, slack=2) is None


@pytest.mark.parametrize("seed", range(20))
def test_solve_primitive_roundtrip(seed):
    rng = random.Random(7000 + seed)
    f = random_series(rng, 1, 0, 2)
    model = FoliationModel(1, 0, 2, f)
    psi = random_form(rng, model, 0, 0, 2)
    target = dbar_f(psi)
    prim = solve_primitive("dbar_f", model, target, slack=0)
    assert prim is not None
    assert dbar_f(prim) == target


@pytest.mark.parametrize("tag", ["partial_f", "dbar_f_k"])
def test_solve_primitive_other_tags(tag):
    rng = random.Random(431)
    f = parse_series("1 + zb1", 1, 0, 1)
    model = FoliationModel(1, 0, 2, f)
    from leafcoh.cohomology import apply_operator

    for _ in range(10):
        psi = random_form(rng, model, 0, 0, 2)
        k = 1 if tag == "dbar_f_k" else None
        target = apply_operator(tag, psi, k)
        prim = solve_primitive(tag, model, target, slack=0, k=k)
        assert prim is not None
        assert apply_operator(tag, prim, k) == target


@pytest.mark.parametrize("seed", range(15))
def test_solve_primitive_tilde_roundtrip(seed):
    rng = random.Random(8000 + seed)
    src = FoliationModel.untwisted(1, 0, 1)
    tgt = FoliationModel(1, 0, 1, parse_series("z1", 1, 0, 1))
    mu = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    q = rng.choice([1, 2])
    phi1 = random_form(rng, tgt, 0, q - 1, 1)
    psi1 = random_form(rng, src, 0, q - 2, 1)
    t1, t2 = tilde_dbar(phi1, psi1, mu)
    res = solve_primitive_tilde(mu, t1, t2, slack=2)
    assert res is not None
    r1, r2 = tilde_dbar(res[0], res[1], mu)
    assert r1 == t1 and r2 == t2


def test_solve_primitive_tilde_reads_every_source_coordinate():
    # the cone pair of (0, psi1) for each source basis form psi1 of bidegree
    # (1,0): with f' = 1 + zb1 none is closed, so each solve needs the source
    # block of the cone solution, and its split from the target block is
    # certified once per source coordinate, the first one included
    src = FoliationModel.untwisted(2, 0, 1)
    tgt = FoliationModel(2, 0, 1, parse_series("1+zb1", 2, 0, 1))
    mu = FoliatedMorphism(src, tgt, [parse_series("z1*z2", 2, 0, 2), parse_series("z2", 2, 0, 1)], [])
    zero = FoliatedForm.zero(tgt, 1, 1, 1)
    for elem in enumerate_basis(src, 1, 0, 1):
        t1, t2 = tilde_dbar(zero, basis_form(src, elem, 1), mu)
        assert not t2.is_zero
        res = solve_primitive_tilde(mu, t1, t2)
        assert res is not None and tilde_dbar(*res, mu) == (t1, t2)


def test_solve_primitive_tilde_not_closed():
    src = FoliationModel.untwisted(1, 0, 1)
    mu = FoliatedMorphism.identity(src)
    phi = FoliatedForm.from_series(src, Series.variable(1, 0, "zb", 1))
    with pytest.raises(NotClosedError):
        solve_primitive_tilde(mu, phi, FoliatedForm.zero(src, 0, 0), slack=0)


def test_solve_primitive_tilde_pair_bidegrees():
    # phi fixes the shapes: a zero psi counts as zero at (p, q-1), and a
    # nonzero psi anywhere else is an input error, not a linear-algebra one
    src = FoliationModel.untwisted(1, 0, 1)
    mu = FoliatedMorphism.identity(src)
    one = Series.one(1, 0)
    phi = FoliatedForm.zero(src, 0, 1)
    expected = solve_primitive_tilde(mu, phi, FoliatedForm.zero(src, 0, 0))
    assert solve_primitive_tilde(mu, phi, FoliatedForm.zero(src, 1, 1)) == expected
    constant = FoliatedForm.from_series(src, one)
    with pytest.raises(FormError, match="cone pair bidegrees"):
        solve_primitive_tilde(mu, FoliatedForm.zero(src, 1, 1), constant)
