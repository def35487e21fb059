"""Differential tests of the twisted-operator and series-product kernels.

``operators._twisted`` (and ``dbar``/``partial``, the same kernel with
f = 1), ``Series.mul``, ``FoliatedMorphism.pull_series``, the generator
and block images of a morphism (partial of a component through that kernel,
and the wedge of ``forms._wedge_terms``) and ``operators.pullback`` are
compared with the reference kernels in ``kernel_reference`` on seeded
sweeps: equal values and equal budgets, for the form and for every
coefficient.  The reference twisted operators, wedge and pullback run on
the reference series product.  Also here: the twist is checked against the
form's model at every weight, every output term of a twisted operator is
checked against the budget phi.budget + twist_gap(f), and the kernel's twist
cache is bounded, first in first out, and never holds the f = 1 of dbar and
partial.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import kernel_reference as ref
from leafcoh import operators
from leafcoh.algebra import GaussianRational, Series, SeriesError, parse_series
from leafcoh.forms import FoliatedForm, FoliationModel, FormError
from leafcoh.operators import FoliatedMorphism, dbar_f, dbar_f_k, partial_f, pullback
from leafcoh.sampling import random_form, random_morphism, random_series, random_unit_series

SHAPES = [(m, n) for m in (1, 2, 3) for n in (0, 1)]


def assert_same_form(got, want):
    assert (got.p, got.q, got.budget) == (want.p, want.q, want.budget)
    assert got.coeffs == want.coeffs
    budgets = {k: s.budget for k, s in want.coeffs.items()}
    assert {k: s.budget for k, s in got.coeffs.items()} == budgets


def assert_same_series(got, want):
    assert (got.m, got.n, got.budget) == (want.m, want.n, want.budget)
    assert got.terms == want.terms
    assert all(type(c) is GaussianRational and c for c in got.terms.values())


def _twists(rng, m, n):
    """Zero, constant, Fraction, complex, x-dependent and over-budgeted twists, and random ones."""
    out = [
        Series.zero(m, n),
        Series.constant(m, n, 3),
        Series.constant(m, n, Fraction(-2, 3)),
        Series.constant(m, n, GaussianRational(Fraction(1, 2), -1)),
        random_series(rng, m, n, 2),
        random_unit_series(rng, m, n, 3),
        # budget above the degree: the gap is taken from the degree
        random_series(rng, m, n, 2, max_terms=3).with_budget(5),
        parse_series(f"1 + (1/2+i)*z1*zb{m} - 2/3*zb1^2", m, n, 4),
    ]
    if n:
        out.append(parse_series("1 + x1*zb1 - i*x1^2", m, n, 2))
        out.append(Series.variable(m, n, "x", 1))
    return out


def _with_reference_mul(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(Series, "mul", ref.series_mul)
        return call()


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_twisted_operators_match_reference(monkeypatch, m, n, seed):
    rng = random.Random(1000 * seed + 10 * m + n)
    model = FoliationModel(m, n, 2, random_unit_series(rng, m, n, 2))
    twists = _twists(rng, m, n)
    cases = 0
    for p in range(m + 1):
        for q in range(m + 1):
            phi = random_form(rng, model, p, q, budget=rng.randint(0, 3))
            for f in twists + [None]:
                for op, want_op in ((dbar_f, ref.dbar_f), (partial_f, ref.partial_f)):
                    want = _with_reference_mul(monkeypatch, lambda: want_op(phi, f))
                    assert_same_form(op(phi, f), want)
                for k in range(-1, 5):
                    want = _with_reference_mul(monkeypatch, lambda: ref.dbar_f_k(phi, k, f))
                    assert_same_form(dbar_f_k(phi, k, f), want)
                cases += 1
    assert cases == (m + 1) ** 2 * (len(twists) + 1)


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_derivatives_match_reference(m, n, seed):
    # dbar and partial are the kernel with f = 1: each derivative term is an output term
    rng = random.Random(2000 * seed + 10 * m + n)
    model = FoliationModel.untwisted(m, n, 2)
    for p in range(m + 1):
        for q in range(m + 1):
            phi = random_form(rng, model, p, q, budget=rng.randint(0, 3), max_components=3)
            assert_same_form(operators.dbar(phi), ref.dbar(phi))
            assert_same_form(operators.partial(phi), ref.partial(phi))
    if m >= 2:
        # d(zb2 dzb1 + zb1 dzb2) = dzb2 ^ dzb1 + dzb1 ^ dzb2 cancels term by term
        closed = FoliatedForm(model, 0, 1, {((), (1,)): parse_series("zb2", m, n, 1), ((), (2,)): parse_series("zb1", m, n, 1)})
        assert operators.dbar(closed).is_zero and operators.dbar(closed).coeffs == {}


@pytest.mark.parametrize("m, n", SHAPES)
def test_twisted_operators_match_reference_on_compositions(monkeypatch, m, n):
    rng = random.Random(7 + 10 * m + n)
    model = FoliationModel(m, n, 2, parse_series(f"1 + z1*zb{m}", m, n, 2))
    for _ in range(6):
        phi = random_form(rng, model, rng.randint(0, m), rng.randint(0, m - 1))
        got = partial_f(dbar_f(phi))
        want = _with_reference_mul(monkeypatch, lambda: ref.partial_f(ref.dbar_f(phi)))
        assert_same_form(got, want)


def test_the_twist_cache_keeps_the_last_eight_twists_per_direction(monkeypatch):
    rng = random.Random(17)
    model = FoliationModel(2, 1, 2, parse_series("1 + z1*zb2", 2, 1, 2))
    phi = random_form(rng, model, 1, 0, budget=2, max_components=3)
    twists = [random_unit_series(rng, 2, 1, 2) for _ in range(operators._TWISTS + 2)]
    scalar = random_form(rng, model, 0, 0, budget=2, max_components=3)
    monkeypatch.setattr(operators, "_twists", {True: {}, False: {}})
    for f in twists:
        dbar_f(phi, f)
        # dbar and partial are the kernel with f = 1, which no cache keeps
        operators.dbar(phi)
        operators.partial(scalar)
    cache = operators._twists[True]
    # the oldest twists are dropped first, and each entry holds its twist
    assert list(cache) == [id(f) for f in twists[2:]]
    assert [entry[0] for entry in cache.values()] == twists[2:]
    assert operators._twists[False] == {}
    entry = cache[id(twists[4])]
    dbar_f(phi, twists[4])
    assert cache[id(twists[4])] is entry and list(cache) == [id(f) for f in twists[2:]]
    # at weight 0 raw(f) stays unbuilt; building it at weight 1 runs the
    # kernel with f = 1, and neither that nor dbar or partial enters or
    # evicts anything from either direction's cache
    anti = operators._twists[False]
    for f in twists[2:]:
        partial_f(scalar, f)
    assert [entry[3] for entry in anti.values()] == [None] * operators._TWISTS
    kept = {d: list(c.items()) for d, c in operators._twists.items()}
    for f in twists[2:]:
        operators.dbar(phi)
        partial_f(phi, f)
        operators.partial(scalar)
    for d, c in operators._twists.items():
        assert list(c) == [key for key, _ in kept[d]]
        assert all(c[key] is entry for key, entry in kept[d])
    assert [entry[0] for entry in anti.values()] == twists[2:]
    assert all(entry[3] is not None for entry in anti.values())
    # every value is the reference's while the twists cycle through a full cache
    for f in twists + twists[::-1] + [model.f] + twists[:3]:
        for op, want_op in ((dbar_f, ref.dbar_f), (partial_f, ref.partial_f)):
            assert_same_form(op(phi, f), _with_reference_mul(monkeypatch, lambda: want_op(phi, f)))
        assert_same_form(dbar_f_k(phi, 1, f), _with_reference_mul(monkeypatch, lambda: ref.dbar_f_k(phi, 1, f)))
    assert all(len(c) == operators._TWISTS for c in operators._twists.values())


def _mul_cases(rng, m, n):
    a = random_series(rng, m, n, 3, max_terms=4)
    b = random_series(rng, m, n, 2, max_terms=4)
    # mixed denominators: halves, thirds and Gaussian parts
    keys = random_series(rng, m, n, 2, max_terms=4).terms
    c = Series(m, n, 2, {
        key: GaussianRational(Fraction(k + 1, 2 + k % 2), Fraction(k, 3)) for k, key in enumerate(keys)
    })
    unit = random_unit_series(rng, m, n, 2)
    yield a, b
    yield a, c
    yield c, c
    yield b, a
    yield a + b, a - b  # the cross terms cancel
    yield a + c, a - c
    yield unit, unit
    yield a, Series.zero(m, n, 1)
    yield Series.constant(m, n, Fraction(-1, 6)), c


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(6))
def test_series_mul_matches_reference(m, n, seed):
    rng = random.Random(100 * seed + 10 * m + n)
    for s, t in _mul_cases(rng, m, n):
        degree = s.degree + t.degree
        for out_budget in (None, 0, max(degree - 1, 0), max(degree - 2, 0), degree, degree + 1):
            want = ref.series_mul(s, t, out_budget)
            assert_same_series(s.mul(t, out_budget=out_budget), want)


def test_series_mul_cancels_to_zero():
    s = parse_series("1/2 + z1 - i*zb1", 1, 0, 1)
    t = parse_series("1/2 - z1 + i*zb1", 1, 0, 1)
    u = parse_series("1/3*z1 + 2/3*zb1", 1, 0, 1)
    # each pair of factors has cross terms that cancel within the product
    for left, right in ((s, t), (s + u, t - u), (u, u.scale(-1)), (s - s, t)):
        for out_budget in (None, 0, 1, 2):
            want = ref.series_mul(left, right, out_budget)
            assert_same_series(left.mul(right, out_budget=out_budget), want)
    square = parse_series("z1 - zb1", 1, 0, 1).mul(parse_series("z1 + zb1", 1, 0, 1))
    assert square == parse_series("z1^2 - zb1^2", 1, 0, 2)
    one = parse_series("1/2*z1", 1, 0, 1).mul(parse_series("2*zb1", 1, 0, 1))
    assert one.terms == {((1,), (1,), ()): GaussianRational(1)}


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_pullback_matches_reference(monkeypatch, m, n, seed):
    rng = random.Random(500 * seed + 10 * m + n)
    source = FoliationModel.untwisted(m, n, 2)
    for m2 in range(1, m + 1):
        target = FoliationModel.untwisted(m2, rng.choice([0, n]), 2)
        mu = random_morphism(rng, source, target, degree=rng.choice([1, 2, 3]))
        f = random_series(rng, m2, target.n, 3, max_terms=4)
        for out_budget in (None, 0, 1, 3):
            want = _with_reference_mul(monkeypatch, lambda: ref.pull_series(mu, f, out_budget))
            assert_same_series(mu.pull_series(f, out_budget), want)
        for p in range(m2 + 1):
            for q in range(m2 + 1):
                phi = random_form(rng, target, p, q, budget=rng.randint(0, 3), max_components=3)
                for out_budget in (None, 0, 2, 4):
                    want = _with_reference_mul(monkeypatch, lambda: ref.pullback(mu, phi, out_budget))
                    assert_same_form(pullback(mu, phi, out_budget), want)
        assert_images_match_reference(mu)
    # components with x, i and fractions for certain, not only by the draw
    target = FoliationModel.untwisted(m, n, 2)
    x = "+ (1/2-i)*x1*z1" if n else ""
    zc = [parse_series(f"{a}/3*z{a} + i*z1*z{m} - 2/5*z{m}^2 {x}", m, n, 3) for a in range(1, m + 1)]
    xc = [parse_series("x1 - 1/2*x1^2", m, n, 2)] if n else []
    assert_images_match_reference(FoliatedMorphism(source, target, zc, xc))


def assert_images_match_reference(mu):
    """generator_image for both anti values and block_image of every (A, B)
    over the target, against the reference images and wedges."""
    m2 = mu.target.m
    for a in range(1, m2 + 1):
        for anti in (False, True):
            assert_same_form(mu.generator_image(a, anti), ref.generator_image(mu, a, anti))
    for p in range(m2 + 1):
        for q in range(m2 + 1):
            for A, B in product(combinations(range(1, m2 + 1), p), combinations(range(1, m2 + 1), q)):
                for out_budget in (0, 1, 3):
                    got, want = mu.block_image(A, B, out_budget), ref.block_image(mu, A, B, out_budget)
                    assert got == want
                    assert {k: s.budget for k, s in got.items()} == {k: s.budget for k, s in want.items()}


# ---------------------------------------------------------------------------
# The twist is checked against the model at every weight
# ---------------------------------------------------------------------------

M2 = FoliationModel(2, 0, 2, parse_series("1+z1*zb2", 2, 0, 2))
G1 = parse_series("1+z1*zb1", 1, 0, 2)


def test_partial_f_checks_the_twist_model_at_weight_zero():
    phi = FoliatedForm.from_series(M2, parse_series("z1*zb2", 2, 0, 2))
    with pytest.raises(FormError, match="^coefficient series does not match the model$"):
        partial_f(phi, G1)


def test_dbar_f_checks_the_twist_model_at_weight_zero():
    # dbar(z1) is zero, so nothing would be multiplied by the foreign twist
    phi = FoliatedForm.from_series(M2, parse_series("z1", 2, 0, 2))
    with pytest.raises(FormError, match="^coefficient series does not match the model$"):
        dbar_f(phi, G1)


def test_dbar_f_k_checks_the_twist_model_at_weight_zero():
    phi = FoliatedForm.generator(M2, (1,), (), parse_series("z1", 2, 0, 2))
    with pytest.raises(FormError, match="^coefficient series does not match the model$"):
        dbar_f_k(phi, 1, G1)


# ---------------------------------------------------------------------------
# Every output term is checked against phi.budget + twist_gap(f)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda m: dbar_f(FoliatedForm.from_series(m, parse_series("zb1^2", 1, 0, 2))),
        lambda m: partial_f(FoliatedForm.from_series(m, parse_series("z1^2", 1, 0, 2))),
        lambda m: dbar_f_k(FoliatedForm.generator(m, (1,), (), parse_series("zb1^2", 1, 0, 2)), 1),
        lambda m: dbar_f(FoliatedForm.generator(m, (1,), (), parse_series("zb1^2", 1, 0, 2))),
        lambda m: partial_f(FoliatedForm.generator(m, (), (1,), parse_series("z1^2", 1, 0, 2))),
    ],
    ids=["dbar_f-w0", "partial_f-w0", "dbar_f_k-w0", "dbar_f-w1", "partial_f-w1"],
)
def test_a_short_twist_gap_is_caught_at_every_weight(monkeypatch, make):
    model = FoliationModel(1, 0, 2, parse_series("1+z1*zb1", 1, 0, 2))
    assert operators.twist_gap(model.f) == 1
    make(model)  # the true gap fits every term
    monkeypatch.setattr(operators, "twist_gap", lambda f: max(f.degree - 2, 0))
    with pytest.raises(SeriesError, match="^term of degree 3 exceeds budget 2$"):
        make(model)
