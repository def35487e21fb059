"""Differential tests: operator assembly by position arithmetic against the
dict-indexed reference assembler (tests/assembly_reference.py).

Every tag, every bidegree in [-1, m+1], budgets -1, at the gap and above it,
and random models with n in {0, 1} and untwisted, constant and multi-term
twists: equal shapes, equal entries and equal entry order.  The shared
monomial and pair tables of ``leafcoh.forms`` are checked against the
reference's own ``itertools`` enumeration, packed: positions and elements, inclusion
positions, ``_Grid.rank``'s degree order and the vector round trip.
"""

import random

import pytest

import assembly_reference as reference
from leafcoh import cohomology, forms, linalg
from leafcoh.cohomology import (
    BudgetContractError,
    form_from_vector,
    inclusion_positions,
    operator_gap,
    operator_matrix,
    vectorize,
)
from leafcoh.forms import FoliationModel, basis_form, count_monomials, enumerate_basis, monomial_table, pair_table
from leafcoh.algebra import GaussianRational, pack, parse_series

KINDS = ("untwisted", "constant", "multi")
TAGS = [("dbar", None), ("partial", None), ("dbar_f", None), ("partial_f", None)]
TAGS += [("dbar_f_k", k) for k in (-1, 0, 2, 3)]


def _twist_text(rng, kind, m, n, top):
    if kind == "untwisted":
        return "1"
    coeff = lambda: rng.choice(["1", "2", "-1/2", "i", "(1+2i)", "3"])
    if kind == "constant":
        return coeff()
    variables = [f"z{i}" for i in range(1, m + 1)] + [f"zb{i}" for i in range(1, m + 1)]
    variables += [f"x{j}" for j in range(1, n + 1)]
    terms = ["1"] if rng.random() < 0.5 else []
    for _ in range(rng.randint(2, 3)):
        mono = "*".join(rng.choice(variables) for _ in range(rng.randint(1, top)))
        terms.append(f"{coeff()}*{mono}")
    return " + ".join(terms)


def _model(seed):
    """A seeded model: kind, m and n cycle through every combination."""
    rng = random.Random(5300 + seed)
    kind = KINDS[seed % 3]
    m, n = 1 + (seed // 3) % 3, (seed // 9) % 2
    f = parse_series(_twist_text(rng, kind, m, n, 3 if m == 1 else 2), m, n, 3)
    return FoliationModel(m, n, 2, f.with_budget(f.degree)), kind


def _budgets(model, tag):
    """(in, out) pairs: -1, the gap and above it, each at the tight out budget and one above."""
    gap = operator_gap(tag, model)
    ins = (-1, 0, gap, gap + 1, gap + 2) if model.m < 3 else (-1, gap, gap + 1)
    return [(b, b + gap + extra) for b in sorted(set(ins)) for extra in (0, 1)]


def test_models_cover_every_combination():
    models = [_model(seed) for seed in range(18)]
    assert {(model.m, model.n, kind) for model, kind in models} == {
        (m, n, kind) for m in (1, 2, 3) for n in (0, 1) for kind in KINDS
    }
    multi = [model for model, kind in models if kind == "multi"]
    assert all(len(model.f.terms) >= 2 for model in multi)
    assert {operator_gap("dbar_f", model) for model in multi} >= {1, 2}


@pytest.mark.parametrize("seed", range(18))
def test_operator_matrix_matches_reference(seed):
    model, _ = _model(seed)
    m, placed = model.m, 0
    for tag, k in TAGS:
        for p in range(-1, m + 2):
            for q in range(-1, m + 2):
                for b, out in _budgets(model, tag):
                    got = operator_matrix(tag, model, p, q, b, out, k)
                    want = reference.operator_matrix(tag, model, p, q, b, out, k)
                    case = (tag, k, p, q, b, out)
                    assert (got.rows, got.cols) == (want.rows, want.cols), case
                    assert list(got.entries.items()) == list(want.entries.items()), case
                    placed += len(want.entries)
    assert placed


@pytest.mark.parametrize("seed", range(18))
def test_budget_contract_and_bad_tags_fail_alike(seed):
    model, _ = _model(seed)
    gap = operator_gap("dbar_f", model)
    calls = [("dbar_f", 1, 1, 2, 1 + gap, None), ("dbar_f_k", 0, 0, 0, 0, None), ("d", 0, 0, 0, 0, None)]
    for args in calls:
        errors = []
        for assemble in (operator_matrix, reference.operator_matrix):
            with pytest.raises((BudgetContractError, ValueError)) as info:
                assemble(args[0], model, *args[1:])
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], args


@pytest.mark.parametrize("seed", range(0, 18, 3))
def test_inclusion_positions_match_lookup(seed):
    model, _ = _model(seed)
    m = model.m
    for p in range(-1, m + 2):
        for q in range(-1, m + 2):
            for big in range(-1, 4):
                for small in range(-1, big + 1):
                    got = inclusion_positions(model, p, q, small, big)
                    assert got == reference.inclusion_positions(model, p, q, small, big), (p, q, small, big)


def _table_case(seed):
    """A seeded model with m <= 3, n <= 2 and a budget in 0..5, and bidegrees
    in [-1, m + 1], so out-of-range ones come up too."""
    rng = random.Random(7100 + seed)
    m, n = rng.randint(1, 3), rng.randint(0, 2)
    budget = rng.randint(0, 5 if 2 * m + n <= 6 else 4)
    pqs = [(rng.randint(-1, m + 1), rng.randint(-1, m + 1)) for _ in range(3)]
    return rng, FoliationModel.untwisted(m, n, budget), pqs


@pytest.mark.parametrize("seed", range(24))
def test_tables_match_independent_enumeration(seed, monkeypatch):
    rng, model, pqs = _table_case(seed)
    m, n, top = model.m, model.n, model.budget
    if seed % 2:
        # fresh tables, grown in a random budget order
        monkeypatch.setattr(forms, "_MONOMIALS", {})
        monkeypatch.setattr(forms, "_PAIRS", {})
    budgets = list(range(-1, top + 1))
    rng.shuffle(budgets)
    for p, q in pqs:
        pairs = pair_table(m, p, q)
        for b in budgets:
            want = reference.basis(m, n, p, q, b)
            assert enumerate_basis(model, p, q, b) == want, (p, q, b)
            N = count_monomials(m, n, b)
            keys, ranks = monomial_table(m, n, b)
            # the table holds packed ints, strictly increasing, with the
            # reference's monomials (the (0,0) basis) packed as its prefix
            # and each key's place in it as its rank
            assert all(type(key) is int for key in keys)
            assert all(a < c for a, c in zip(keys, keys[1:]))
            assert keys[:N] == [pack(e) for _, _, e in reference.basis(m, n, 0, 0, b)]
            assert ranks == {key: u for u, key in enumerate(keys)}
            assert len(pairs) * N == len(want)
            for pos, (A, B, e) in enumerate(want):
                assert (pairs[pos // N], keys[pos % N]) == ((A, B), pack(e))
            for small in range(-1, b + 1):
                got = inclusion_positions(model, p, q, small, b)
                assert got == reference.inclusion_positions(model, p, q, small, b), (p, q, small, b)


@pytest.mark.parametrize("seed", range(24))
def test_vector_round_trip_over_reference_positions(seed):
    rng, model, pqs = _table_case(seed)
    m, n, top = model.m, model.n, model.budget
    for p, q in pqs:
        for b in range(top + 1):
            basis = reference.basis(m, n, p, q, b)
            if not basis:
                assert vectorize(forms.FoliatedForm.zero(model, max(p, 0), max(q, 0), b), b) == {}
                continue
            positions = rng.sample(range(len(basis)), min(4, len(basis)))
            vec = {pos: GaussianRational(rng.randint(1, 5), rng.randint(-2, 2)) for pos in positions}
            phi = forms.FoliatedForm.zero(model, p, q, b)
            for pos, c in vec.items():
                phi = phi + basis_form(model, basis[pos], b).scale(c)
            assert form_from_vector(model, p, q, b, vec) == phi
            assert vectorize(phi, b) == vec
            # a term above the budget fits no position, with the same message as ever
            A, B, e = reference.basis(m, n, p, q, b + 1)[-1]
            with pytest.raises(BudgetContractError) as info:
                vectorize(basis_form(model, (A, B, e), b + 1), b)
            assert str(info.value) == f"form term {(A, B, e)} does not fit the budget-{b} basis"


GRID_TAGS = ("dbar_f", "partial_f", "stacked", "image", "composed")


@pytest.mark.parametrize("seed", range(24))
def test_grid_rank_degree_order_matches_a_stable_sort(seed, monkeypatch):
    rng, model, pqs = _table_case(seed)
    m, n, top = model.m, model.n, min(model.budget, 3)
    f = parse_series(rng.choice(["1+z1", "2+z1*zb1", "1+zb1^2"]), m, n, 2)
    model = FoliationModel(m, n, top, f)
    gap = operator_gap("dbar_f", model)
    orders = []
    real = linalg.pivot_columns
    monkeypatch.setattr(linalg, "pivot_columns", lambda M, order=None: orders.append(order) or real(M, order))
    for p, q in pqs:
        for tag in GRID_TAGS:
            b = rng.randint(0, top)
            cohomology._Grid(model).rank((tag, p, q, b, b + (2 if tag == "composed" else 1) * gap, None))
            degrees = [
                sum(map(sum, e))
                for bp, bq in cohomology._blocks(tag, p, q)[0]
                for _, _, e in reference.basis(m, n, bp, bq, b)
            ]
            assert list(orders.pop()) == sorted(range(len(degrees)), key=degrees.__getitem__), (tag, p, q, b)
