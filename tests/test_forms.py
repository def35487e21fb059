import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from leafcoh.algebra import GaussianRational, Series, SeriesError, parse_series
from leafcoh.forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    basis_dimension,
    basis_form,
    count_monomials,
    enumerate_basis,
    merge_indices,
    rescale_power,
)
from leafcoh.sampling import random_bidegree, random_form


@pytest.fixture
def model2():
    return FoliationModel.untwisted(2, 1, 2)


MODEL = FoliationModel.untwisted(2, 1, 2)

_scalars = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
)

_series = st.builds(
    lambda terms: Series(2, 1, 2, terms),
    st.dictionaries(st.sampled_from([e for _, _, e in enumerate_basis(MODEL, 0, 0, 2)]), _scalars, max_size=3),
)


@st.composite
def forms(draw):
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0, 2))
    pairs = [
        (A, B)
        for A in combinations((1, 2), p)
        for B in combinations((1, 2), q)
    ]
    coeffs = draw(st.dictionaries(st.sampled_from(pairs), _series, max_size=2))
    return FoliatedForm(MODEL, p, q, {k: s for k, s in coeffs.items() if not s.is_zero})


@given(forms(), forms())
def test_wedge_graded_commutative_hypothesis(a, b):
    sign = -1 if (a.deg * b.deg) % 2 else 1
    assert a.wedge(b) == b.wedge(a).scale(sign)


@given(forms(), forms(), forms())
def test_wedge_associative_hypothesis(a, b, c):
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(forms(), forms(), _series)
def test_leibniz_hypothesis(a, b, f):
    from leafcoh.operators import dbar_f

    sign = -1 if a.deg % 2 else 1
    assert dbar_f(a.wedge(b), f) == dbar_f(a, f).wedge(b) + a.wedge(dbar_f(b, f)).scale(sign)


def test_merge_indices():
    assert merge_indices((1,), (2,)) == (1, (1, 2))
    assert merge_indices((2,), (1,)) == (-1, (1, 2))
    assert merge_indices((1,), (1,)) == (0, None)
    assert merge_indices((1, 3), (2,)) == (-1, (1, 2, 3))


def test_wedge_repeated_index_vanishes(model2):
    dz1 = FoliatedForm.generator(model2, (1,), ())
    assert dz1.wedge(dz1).is_zero


def test_wedge_graded_commutativity_generator(model2):
    dz1 = FoliatedForm.generator(model2, (1,), ())
    dzb1 = FoliatedForm.generator(model2, (), (1,))
    assert dz1.wedge(dzb1) == FoliatedForm.generator(model2, (1,), (1,))
    assert dzb1.wedge(dz1) == -FoliatedForm.generator(model2, (1,), (1,))


def test_wedge_bilinearity(model2):
    z = Series.variable(2, 1, "z", 1)
    zb = Series.variable(2, 1, "zb", 1)
    a = FoliatedForm.generator(model2, (1,), (), coeff=z)
    b = FoliatedForm.generator(model2, (), (1,), coeff=zb)
    result = a.wedge(b)
    assert result == FoliatedForm.generator(model2, (1,), (1,), coeff=z.mul(zb))


@pytest.mark.parametrize("seed", range(40))
def test_wedge_associativity_and_sign(seed, model2):
    rng = random.Random(seed)
    pa, qa = random_bidegree(rng, 2)
    pb, qb = random_bidegree(rng, 2)
    pc, qc = random_bidegree(rng, 2)
    a = random_form(rng, model2, pa, qa)
    b = random_form(rng, model2, pb, qb)
    c = random_form(rng, model2, pc, qc)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    sign = -1 if (a.deg * b.deg) % 2 else 1
    assert a.wedge(b) == b.wedge(a).scale(sign)


def test_wedge_beyond_top_degree_is_zero(model2):
    a = FoliatedForm.generator(model2, (1, 2), ())
    b = FoliatedForm.generator(model2, (1,), ())
    assert a.wedge(b).is_zero
    assert a.wedge(b).p == 3


def test_form_model_mismatch():
    m1 = FoliationModel.untwisted(1, 0, 2)
    m2 = FoliationModel.untwisted(2, 0, 2)
    a = FoliatedForm.generator(m1, (1,), ())
    b = FoliatedForm.generator(m2, (2,), ())
    with pytest.raises(FormError):
        a.wedge(b)


def test_coefficient_roundtrip(model2):
    s = parse_series("1 + z1*x1 - 2i*zb2", 2, 1, 2)
    phi = FoliatedForm.generator(model2, (1,), (2,), coeff=s)
    assert phi.coefficient((1,), (2,)) == s
    assert phi.coefficient((2,), (1,)).is_zero


def test_form_invariants():
    m = FoliationModel.untwisted(2, 0, 2)
    with pytest.raises(FormError):
        FoliatedForm(m, 1, 0, {((3,), ()): Series.one(2, 0)})
    with pytest.raises(FormError):
        FoliatedForm(m, 2, 0, {((2, 1), ()): Series.one(2, 0)})
    zero = FoliatedForm(m, 3, 0, {})
    assert zero.is_zero


@pytest.mark.parametrize(
    "budget, message",
    [
        (-1, "m, n and budget must be nonnegative"),
        (70000, "budget 70000 exceeds 65535, the largest degree a packed monomial holds"),
    ],
    ids=["negative", "past-the-packed-limit"],
)
def test_form_budget_is_checked_at_construction(budget, message):
    # a bad budget fails where the form is built, before any operator or
    # table sees it, whether or not the form has a term
    m = FoliationModel.untwisted(1, 0, 2)
    match = "^" + message + "$"
    with pytest.raises(SeriesError, match=match):
        FoliatedForm.zero(m, 0, 0, budget)
    with pytest.raises(SeriesError, match=match):
        FoliatedForm(m, 0, 1, {((), (1,)): parse_series("zb1", 1, 0, 1)}, budget)
    with pytest.raises(SeriesError, match=match):
        FoliatedForm.from_dict(m, {"p": 0, "q": 1, "budget": budget, "terms": []})
    # the wedge checks its out budget once per call, with no product to make
    with pytest.raises(SeriesError, match=match):
        FoliatedForm.zero(m, 0, 0).wedge(FoliatedForm.zero(m, 0, 1), out_budget=budget)


def test_json_roundtrip(model2):
    phi = FoliatedForm(
        model2,
        1,
        1,
        {
            ((1,), (1,)): parse_series("1 - z1", 2, 1, 2),
            ((2,), (1,)): parse_series("3/2*x1", 2, 1, 2),
        },
    )
    data = phi.to_dict()
    again = FoliatedForm.from_dict(model2, data)
    assert again == phi


def test_rescale_power_examples():
    from fractions import Fraction

    m = FoliationModel.untwisted(1, 0, 2)
    g = FoliatedForm.from_series(m, parse_series("1 + z1", 1, 0, 1))
    assert rescale_power(g, parse_series("1 + zb1", 1, 0, 1)) == g  # degree 0
    dz = FoliatedForm.generator(m, (1,), ())
    assert rescale_power(dz, Series.one(1, 0)) == dz
    halved = rescale_power(dz, Series.constant(1, 0, 2))
    assert halved.coefficient((1,), ()) == Series.constant(1, 0, Fraction(1, 2))
    with pytest.raises(SeriesError):
        rescale_power(dz, Series.variable(1, 0, "z", 1))


def test_basis_enumeration_examples():
    m10 = FoliationModel.untwisted(1, 0, 1)
    basis = enumerate_basis(m10, 0, 0, 1)
    assert len(basis) == 3  # 1, z1, zb1
    m20 = FoliationModel.untwisted(2, 0, 0)
    assert len(enumerate_basis(m20, 1, 0, 0)) == 2  # dz1, dz2
    m11 = FoliationModel.untwisted(1, 1, 1)
    assert len(enumerate_basis(m11, 0, 1, 1)) == 4  # {1, z1, zb1, x1} dzb1


def test_basis_is_deterministic_and_indexable():
    m = FoliationModel.untwisted(2, 1, 2)
    basis = enumerate_basis(m, 1, 1, 2)
    assert basis == enumerate_basis(m, 1, 1, 2)
    # each element reconstructs to a nonzero one-term form
    phi = basis_form(m, basis[5], 2)
    assert not phi.is_zero and (phi.p, phi.q) == (1, 1)


@pytest.mark.parametrize("seed", range(200))
def test_basis_length_closed_form(seed):
    rng = random.Random(90000 + seed)
    m = rng.randint(1, 3)
    n = rng.randint(0, 2)
    p = rng.randint(0, m)
    q = rng.randint(0, m)
    budget = rng.randint(0, 3)
    model = FoliationModel.untwisted(m, n, budget)
    expected = (
        math.comb(m, p) * math.comb(m, q) * count_monomials(m, n, budget)
    )
    assert len(enumerate_basis(model, p, q, budget)) == expected
    assert basis_dimension(model, p, q, budget) == expected


def test_count_monomials():
    # degree <= 2 in 3 variables: C(5,3) = 10
    assert count_monomials(1, 1, 2) == 10
    assert count_monomials(1, 0, 0) == 1
    assert count_monomials(2, 1, -1) == 0


def test_model_validation():
    with pytest.raises(FormError):
        FoliationModel(0, 0, 1, Series.one(1, 0))
    with pytest.raises(FormError):
        FoliationModel(1, 0, 1, Series.one(2, 0))
    m = FoliationModel(1, 0, 2, parse_series("z1^2", 1, 0, 2))
    assert m.twist_gap == 1
    assert FoliationModel.untwisted(1, 0, 2).twist_gap == 0
