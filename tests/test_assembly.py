"""Differential tests: operator assembly by position arithmetic against the
dict-indexed reference assembler (tests/assembly_reference.py).

Every tag, every bidegree in [-1, m+1], budgets -1, at the gap and above it,
and random models with n in {0, 1} and untwisted, constant and multi-term
twists: equal shapes, equal entries and equal entry order.
"""

import random

import pytest

import assembly_reference as reference
from leafcoh.cohomology import BudgetContractError, inclusion_positions, operator_gap, operator_matrix
from leafcoh.forms import FoliationModel
from leafcoh.algebra import parse_series

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
