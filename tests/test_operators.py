import random

import pytest

from leafcoh.algebra import Series, parse_series
from leafcoh.forms import FoliatedForm, FoliationModel, FormError, rescale_power
from leafcoh.operators import (
    FoliatedMorphism,
    MorphismError,
    MorphismPair,
    dbar,
    dbar_f,
    dbar_f_k,
    pair_pullback,
    partial,
    partial_f,
    pullback,
    tilde_dbar,
    twist_gap,
)
from leafcoh.sampling import (
    random_bidegree,
    random_form,
    random_morphism,
    random_series,
    random_unit_series,
)

from oracle import form_to_dict, forms_equal, oracle_twisted, series_to_expr, symbols_for


@pytest.fixture
def m1():
    return FoliationModel.untwisted(1, 0, 2)


def _fn(model, text):
    return FoliatedForm.from_series(
        model, parse_series(text, model.m, model.n, model.budget)
    )


def test_dbar_examples(m1):
    zb = _fn(m1, "zb1")
    assert dbar(zb) == FoliatedForm.generator(m1, (), (1,))
    assert dbar(_fn(m1, "z1")).is_zero
    phi = FoliatedForm.generator(m1, (1,), (), coeff=Series.variable(1, 0, "zb", 1))
    assert dbar(phi) == -FoliatedForm.generator(m1, (1,), (1,))


def test_partial_examples(m1):
    assert partial(_fn(m1, "z1")) == FoliatedForm.generator(m1, (1,), ())
    assert partial(_fn(m1, "zb1")).is_zero
    phi = FoliatedForm.generator(
        m1, (), (1,), coeff=parse_series("z1*zb1", 1, 0, 2)
    )
    expected = FoliatedForm.generator(
        m1, (1,), (1,), coeff=Series.variable(1, 0, "zb", 1)
    )
    assert partial(phi) == expected


def test_dbar_f_degree_zero_forms(m1):
    f = parse_series("1 + z1*zb1", 1, 0, 2)
    model = m1.with_twist(f)
    g = _fn(model, "zb1")
    assert dbar_f(g) == dbar(g).mul_series(f)


def test_dbar_f_untwisted_is_dbar(m1):
    rng = random.Random(3)
    for _ in range(25):
        p, q = random_bidegree(rng, 1)
        phi = random_form(rng, m1, p, q)
        assert dbar_f(phi, Series.one(1, 0)) == dbar(phi)


def test_dbar_f_hand_example_vanishes():
    model = FoliationModel(1, 0, 2, Series.variable(1, 0, "zb", 1))
    phi = FoliatedForm.generator(model, (1,), (), coeff=Series.variable(1, 0, "zb", 1))
    assert dbar_f(phi).is_zero


def test_partial_f_hand_example_vanishes():
    model = FoliationModel(1, 0, 2, Series.variable(1, 0, "z", 1))
    phi = FoliatedForm.generator(model, (), (1,), coeff=Series.variable(1, 0, "z", 1))
    assert partial_f(phi).is_zero


def test_dbar_f_k_special_cases(m1):
    rng = random.Random(5)
    f = parse_series("1 + zb1", 1, 0, 1)
    for _ in range(20):
        p, q = random_bidegree(rng, 1)
        phi = random_form(rng, m1, p, q)
        assert dbar_f_k(phi, 0, f) == dbar_f(phi, f)
        assert dbar_f_k(phi, phi.deg, f) == dbar(phi).mul_series(f)
    g = _fn(m1, "z1*zb1")
    # k = -1 on a function: f dbar(g) - dbar(f) ^ g
    direct = dbar(g).mul_series(f) - dbar(FoliatedForm.from_series(m1, f)).wedge(g)
    assert dbar_f_k(g, -1, f) == direct


def test_budget_growth_bookkeeping():
    f = parse_series("1 + z1^2", 1, 0, 2)
    model = FoliationModel(1, 0, 2, f)
    phi = random_form(random.Random(1), model, 0, 0, 2)
    out = dbar_f(phi)
    assert out.budget == phi.budget + twist_gap(f)
    assert twist_gap(f) == 1
    assert twist_gap(Series.zero(1, 0)) == 0


@pytest.mark.parametrize("seed", range(50))
def test_squares_and_anticommutation(seed):
    rng = random.Random(4000 + seed)
    m, n = rng.choice([(1, 0), (1, 1), (2, 1)])
    model = FoliationModel.untwisted(m, n, 2)
    p, q = random_bidegree(rng, m)
    phi = random_form(rng, model, p, q)
    f = random_series(rng, m, n, 2)
    k = rng.randint(-2, 2)
    assert dbar(dbar(phi)).is_zero
    assert partial(partial(phi)).is_zero
    assert (partial(dbar(phi)) + dbar(partial(phi))).is_zero
    assert dbar_f(dbar_f(phi, f), f).is_zero
    assert partial_f(partial_f(phi, f), f).is_zero
    assert (partial_f(dbar_f(phi, f), f) + dbar_f(partial_f(phi, f), f)).is_zero
    assert dbar_f_k(dbar_f_k(phi, k, f), k, f).is_zero


@pytest.mark.parametrize("seed", range(30))
def test_twist_dependence_identities(seed):
    rng = random.Random(8800 + seed)
    model = FoliationModel.untwisted(2, 0, 2)
    p, q = random_bidegree(rng, 2)
    phi = random_form(rng, model, p, q)
    f = random_series(rng, 2, 0, 2)
    g = random_series(rng, 2, 0, 2)
    assert dbar_f(phi, f + g) == dbar_f(phi, f) + dbar_f(phi, g)
    assert dbar_f(phi, Series.zero(2, 0)).is_zero
    assert dbar_f(phi, -f) == -dbar_f(phi, f)
    lhs = dbar_f(phi, f.mul(g))
    rhs = (
        dbar_f(phi, g).mul_series(f)
        + dbar_f(phi, f).mul_series(g)
        - dbar(phi).mul_series(f.mul(g))
    )
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(30))
def test_twisted_leibniz(seed):
    rng = random.Random(8200 + seed)
    model = FoliationModel.untwisted(2, 1, 2)
    pa, qa = random_bidegree(rng, 2)
    pb, qb = random_bidegree(rng, 2)
    a = random_form(rng, model, pa, qa)
    b = random_form(rng, model, pb, qb)
    f = random_series(rng, 2, 1, 2)
    sign = -1 if a.deg % 2 else 1
    assert dbar_f(a.wedge(b), f) == dbar_f(a, f).wedge(b) + a.wedge(dbar_f(b, f)).scale(sign)


@pytest.mark.parametrize("seed", range(25))
def test_operator_actions_match_oracle(seed):
    rng = random.Random(31337 + seed)
    m, n = rng.choice([(1, 1), (2, 0)])
    model = FoliationModel.untwisted(m, n, 2)
    zs, zbs, xs = symbols_for(m, n)
    p, q = random_bidegree(rng, m)
    phi = random_form(rng, model, p, q)
    f = random_series(rng, m, n, 2)
    f_expr = series_to_expr(f, zs, zbs, xs)
    od = oracle_twisted(form_to_dict(phi, zs, zbs, xs), p + q, f_expr, m, zs, zbs, True)
    assert forms_equal(od, dbar_f(phi, f), zs, zbs, xs)
    op = oracle_twisted(form_to_dict(phi, zs, zbs, xs), p + q, f_expr, m, zs, zbs, False)
    assert forms_equal(op, partial_f(phi, f), zs, zbs, xs)


@pytest.mark.parametrize("seed", range(40))
def test_rescale_conjugation(seed):
    rng = random.Random(60 + seed)
    m, n = rng.choice([(1, 0), (2, 1)])
    model = FoliationModel.untwisted(m, n, 2)
    p, q = random_bidegree(rng, m)
    phi = random_form(rng, model, p, q)
    f = random_series(rng, m, n, 2)
    h = random_unit_series(rng, m, n, 2)
    w = phi.budget
    lhs = rescale_power(dbar_f(phi, f.mul(h)), h, out_budget=w)
    rhs = dbar_f(rescale_power(phi, h, out_budget=w + 1), f).truncated(w)
    assert lhs == rhs


def test_pullback_examples():
    src = FoliationModel.untwisted(1, 0, 2)
    ident = FoliatedMorphism.identity(src)
    rng = random.Random(11)
    for _ in range(10):
        p, q = random_bidegree(rng, 1)
        phi = random_form(rng, src, p, q)
        assert pullback(ident, phi) == phi
    tgt = FoliationModel.untwisted(1, 0, 2)
    sq = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    dz = FoliatedForm.generator(tgt, (1,), ())
    assert pullback(sq, dz) == FoliatedForm.generator(
        src, (1,), (), coeff=parse_series("2*z1", 1, 0, 1)
    )
    const = FoliatedMorphism(src, tgt, [Series.constant(1, 0, 5)], [])
    assert pullback(const, dz).is_zero


def test_pullback_commutes_with_wedge():
    rng = random.Random(123)
    src = FoliationModel.untwisted(2, 1, 2)
    tgt = FoliationModel.untwisted(2, 1, 2)
    for _ in range(15):
        mu = random_morphism(rng, src, tgt, 2)
        pa, qa = random_bidegree(rng, 2)
        pb, qb = random_bidegree(rng, 2)
        a = random_form(rng, tgt, pa, qa, 1)
        b = random_form(rng, tgt, pb, qb, 1)
        assert pullback(mu, a.wedge(b)) == pullback(mu, a).wedge(pullback(mu, b))


@pytest.mark.parametrize("seed", range(40))
def test_intertwining(seed):
    rng = random.Random(700 + seed)
    m, n = rng.choice([(1, 0), (2, 1)])
    m2, n2 = rng.choice([(1, 0), (1, n)])
    src = FoliationModel.untwisted(m, n, 2)
    tgt = FoliationModel.untwisted(m2, n2, 2)
    mu = random_morphism(rng, src, tgt, 2)
    fp = random_series(rng, m2, n2, 2)
    p, q = random_bidegree(rng, m2)
    phi = random_form(rng, tgt, p, q)
    assert dbar_f(pullback(mu, phi), mu.pull_series(fp)) == pullback(mu, dbar_f(phi, fp))


@pytest.mark.parametrize("seed", range(40))
def test_tilde_square_zero(seed):
    rng = random.Random(900 + seed)
    src = FoliationModel.untwisted(rng.choice([1, 2]), rng.choice([0, 1]), 2)
    tgt = FoliationModel.untwisted(1, src.n, 2)
    mu = random_morphism(rng, src, tgt, 2)
    fp = random_series(rng, 1, tgt.n, 2)
    mu = FoliatedMorphism(src, tgt.with_twist(fp), mu.z_components, mu.x_components)
    p, q = random_bidegree(rng, 1)
    phi = random_form(rng, tgt, p, q)
    psi = random_form(rng, src, p, q - 1)
    c1, c2 = tilde_dbar(phi, psi, mu)
    d1, d2 = tilde_dbar(c1, c2, mu)
    assert d1.is_zero and d2.is_zero


def test_tilde_components():
    src = FoliationModel.untwisted(1, 0, 2)
    tgt = FoliationModel.untwisted(1, 0, 2)
    mu = FoliatedMorphism.identity(src)
    fp = parse_series("1 + z1", 1, 0, 1)
    mu = FoliatedMorphism(src, tgt.with_twist(fp), mu.z_components, mu.x_components)
    rng = random.Random(2)
    psi = random_form(rng, src, 0, 0)
    zero_phi = FoliatedForm.zero(tgt, 0, 1)
    c1, c2 = tilde_dbar(zero_phi, psi, mu)
    assert c1.is_zero
    assert c2 == -dbar_f(psi, mu.pull_series(fp))
    phi = random_form(rng, tgt, 0, 1)
    zero_psi = FoliatedForm.zero(src, 0, 0)
    c1, c2 = tilde_dbar(phi, zero_psi, mu)
    assert c1 == dbar_f(phi, fp)
    assert c2 == pullback(mu, phi)
    with pytest.raises(FormError, match="bidegree"):
        tilde_dbar(phi, random_form(rng, src, 1, 1), mu)


def test_pullback_model_mismatch():
    src = FoliationModel.untwisted(1, 0, 2)
    tgt = FoliationModel.untwisted(2, 0, 2)
    mu = FoliatedMorphism(src, tgt, [Series.variable(1, 0, "z", 1)] * 2, [])
    wrong = FoliatedForm.generator(src, (1,), ())
    with pytest.raises(MorphismError, match="target"):
        pullback(mu, wrong)


def test_morphism_validation():
    src = FoliationModel.untwisted(1, 1, 2)
    tgt = FoliationModel.untwisted(1, 1, 2)
    with pytest.raises(MorphismError, match="holomorphic"):
        FoliatedMorphism(src, tgt, [Series.variable(1, 1, "zb", 1)], [Series.variable(1, 1, "x", 1)])
    with pytest.raises(MorphismError, match="x only"):
        FoliatedMorphism(src, tgt, [Series.variable(1, 1, "z", 1)], [Series.variable(1, 1, "z", 1)])
    with pytest.raises(MorphismError, match="z-components"):
        FoliatedMorphism(src, tgt, [], [Series.variable(1, 1, "x", 1)])


def test_morphism_pair_validation():
    f = parse_series("z1", 1, 0, 1)
    fp = parse_series("z1", 1, 0, 1)
    src = FoliationModel(1, 0, 2, parse_series("z1^2", 1, 0, 2))
    tgt = FoliationModel(1, 0, 2, fp)
    mu = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    pair = MorphismPair(mu, Series.one(1, 0))
    assert pair.alpha == Series.one(1, 0)
    bad_src = FoliationModel(1, 0, 2, f)
    mu_bad = FoliatedMorphism(bad_src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    with pytest.raises(MorphismError, match="constraint"):
        MorphismPair(mu_bad, Series.one(1, 0))
    with pytest.raises(MorphismError, match="vanishes"):
        MorphismPair(mu, Series.variable(1, 0, "z", 1))


def test_pair_pullback_basics():
    src = FoliationModel.untwisted(1, 0, 2)
    ident = FoliatedMorphism.identity(src)
    pair = MorphismPair(ident, Series.one(1, 0))
    rng = random.Random(17)
    for _ in range(10):
        p, q = random_bidegree(rng, 1)
        phi = random_form(rng, src, p, q)
        assert pair_pullback(pair, phi) == phi
    # degree (0,0): alpha plays no role
    pair2 = MorphismPair(
        FoliatedMorphism(
            src.with_twist(parse_series("1/2", 1, 0, 0)), src, ident.z_components, ()
        ),
        Series.constant(1, 0, 2),
    )
    g = random_form(rng, src, 0, 0)
    assert pair_pullback(pair2, g) == pullback(ident, g)


@pytest.mark.parametrize("seed", range(20))
def test_pair_pullback_is_cochain_map(seed):
    rng = random.Random(5600 + seed)
    src = FoliationModel.untwisted(1, 0, 2)
    tgt_model = FoliationModel.untwisted(1, 0, 2)
    mu0 = random_morphism(rng, src, tgt_model, 2)
    fp = random_series(rng, 1, 0, 2)
    from leafcoh.algebra import GaussianRational

    c = GaussianRational(rng.randint(1, 3))
    alpha = Series.constant(1, 0, c)
    f_src = mu0.pull_series(fp).scale(c.inverse())
    mu = FoliatedMorphism(
        src.with_twist(f_src), tgt_model.with_twist(fp), mu0.z_components, mu0.x_components
    )
    pair = MorphismPair(mu, alpha)
    p, q = random_bidegree(rng, 1)
    phi = random_form(rng, mu.target, p, q)
    w = mu.substitution_budget(phi.budget + twist_gap(fp), p, q + 1) + 1
    lhs = pair_pullback(pair, dbar_f(phi, fp), out_budget=w)
    rhs = dbar_f(pair_pullback(pair, phi, out_budget=w + 1), f_src).truncated(w)
    assert lhs == rhs


@pytest.mark.parametrize("shape", [(2, 0), (1, 1)])
@pytest.mark.parametrize("apply", [lambda phi, f: dbar_f(phi, f), lambda phi, f: dbar_f_k(phi, 0, f)])
def test_twist_from_another_model_is_rejected(shape, apply):
    # the twist series is checked against the form's model before dbar(f) ^ phi
    model = FoliationModel(1, 0, 2, parse_series("1+z1", 1, 0, 2))
    phi = FoliatedForm.generator(model, [], [1], parse_series("z1", 1, 0, 2))
    with pytest.raises(FormError, match="^coefficient series does not match the model$"):
        apply(phi, parse_series("1+z1", *shape, 2))
