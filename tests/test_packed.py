"""Packed monomials: the layout, the degree limit, and differential tests.

A Series keeps each monomial as one int (``algebra.pack``): degree, alpha,
beta and gamma fields of W bits, most significant first.  Here every packed
operation is compared with the tuple-keyed reference arithmetic of
``series_reference`` on seeded series with i and fractional coefficients,
m <= 3 and n <= 2; division, inversion and rescaling are compared with the
reference's Neumann inverse and repeated products; the cached substitution of ``FoliatedMorphism`` is
compared with the uncached reference of ``kernel_reference``, through
``with_source_twist`` and at lower out budgets; and every budget that could
push a field past MAX_DEGREE is rejected with a pinned message.
"""

import random
from fractions import Fraction

import pytest

import kernel_reference as kref
import series_reference as ref
from leafcoh.algebra import (
    MAX_DEGREE,
    W,
    GaussianRational,
    Series,
    SeriesError,
    SeriesParseError,
    format_series,
    pack,
    parse_series,
    unpack,
)
from leafcoh.forms import FoliatedForm, FoliationModel, basis_form, monomial_table, rescale_power
from leafcoh.operators import FoliatedMorphism, pullback
from leafcoh.sampling import random_form, random_morphism, random_series, random_unit_series

SHAPES = [(m, n) for m in (1, 2, 3) for n in (0, 1, 2)]
LIMIT_MESSAGE = rf"^budget {MAX_DEGREE + 1} exceeds {MAX_DEGREE}, the largest degree a packed monomial holds$"


def _series(rng, m, n):
    """Seeded series of budget 0..3 with i and fractional coefficients, and a zero one."""
    out = [random_series(rng, m, n, b, max_terms=5) for b in (0, 1, 2, 3, 3)]
    keys = random_series(rng, m, n, 3, max_terms=5).terms
    out.append(Series(m, n, 3, {k: GaussianRational(Fraction(j + 1, 3), Fraction(-j, 2)) for j, k in enumerate(keys)}))
    out.append(Series.zero(m, n, 2))
    return out


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, n", [(1, 0), (1, 2), (2, 1), (3, 0)])
def test_integer_order_is_graded_lex_order(m, n):
    keys = list(monomial_table(m, n, 4)[0])
    monos = [unpack(m, n, k) for k in keys]
    # the table lists packed monomials in ascending int order, which is
    # graded-lex order of their exponent triples
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert sorted(monos, key=ref.grlex_key) == monos
    assert [pack(e) for e in monos] == keys
    assert all(k >> W * (2 * m + n) == sum(map(sum, e)) for k, e in zip(keys, monos))


def test_a_monomial_product_is_a_key_sum():
    a, b = ((1, 0), (2, 0), (3,)), ((0, 4), (1, 1), (0,))
    assert unpack(2, 1, pack(a) + pack(b)) == ((1, 4), (3, 1), (3,))
    top = ((MAX_DEGREE,), (0,), ())
    assert unpack(1, 0, pack(top)) == top
    assert pack(top) >> 2 * W == MAX_DEGREE


# ---------------------------------------------------------------------------
# Differential tests against the tuple-keyed reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(2))
def test_unary_operations_match_reference(m, n, seed):
    rng = random.Random(300 * seed + 10 * m + n)
    for s in _series(rng, m, n):
        terms = s.terms
        assert Series(m, n, s.budget, terms) == s
        assert s.degree == ref.degree(terms)
        assert s.conj().terms == ref.conj(terms)
        assert s.conj().conj() == s
        assert s.constant_term == terms.get(((0,) * m, (0,) * m, (0,) * n), GaussianRational(0))
        for kind, limit in (("z", m), ("zb", m), ("x", n)):
            for index in range(1, limit + 1):
                d = s.deriv(kind, index)
                assert d.terms == ref.deriv(terms, kind, index)
                assert d.budget == s.budget
        for b in range(5):
            t = s.truncated(b)
            assert (t.terms, t.budget) == (ref.truncated(terms, b), b)
        for c in (GaussianRational(0), GaussianRational(Fraction(-2, 3), 1), 5):
            assert s.scale(c).terms == ref.scale(terms, GaussianRational(c) if isinstance(c, int) else c)
        assert s.sorted_terms() == ref.sorted_terms(terms)
        assert s.depends_on("z") == any(sum(a) for a, _, _ in terms)
        assert s.depends_on("zb") == any(sum(b) for _, b, _ in terms)
        assert s.depends_on("z", "zb") == any(sum(a) + sum(b) for a, b, _ in terms)
        # format order is graded-lex: the text parses back to the same series
        assert parse_series(format_series(s), m, n, 3) == s


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(2))
def test_binary_operations_match_reference(m, n, seed):
    rng = random.Random(700 * seed + 10 * m + n)
    series = _series(rng, m, n)
    for s in series:
        for t in series[::2] + [s, s.scale(-1)]:
            assert (s + t).terms == ref.add(s.terms, t.terms)
            assert (s + t).budget == max(s.budget, t.budget)
            exact = s.mul(t)
            assert (exact.terms, exact.budget) == (ref.mul(s.terms, t.terms, s.budget + t.budget), s.budget + t.budget)
            for out_budget in range(s.degree + t.degree + 2):
                got = s.mul(t, out_budget=out_budget)
                assert (got.terms, got.budget) == (ref.mul(s.terms, t.terms, out_budget), out_budget)
                assert all(type(c) is GaussianRational and c for c in got.packed.values())


def _units(rng, m, n):
    """Seeded units of budget 0..4: drawn ones, a constant with i, and one
    with fractional i coefficients on every kind of variable."""
    out = [random_unit_series(rng, m, n, b, max_terms=4) for b in (0, 1, 2, 3, 4)]
    out.append(Series.constant(m, n, GaussianRational(Fraction(2, 3), -1), 3))
    keys = [k for k in random_series(rng, m, n, 2, max_terms=4).terms if sum(map(sum, k))]
    zero = ((0,) * m, (0,) * m, (0,) * n)
    terms = {zero: GaussianRational(Fraction(-3, 2), Fraction(1, 2))}
    terms.update({k: GaussianRational(Fraction(j + 1, 4), Fraction(1, j + 2)) for j, k in enumerate(keys)})
    out.append(Series(m, n, 2, terms))
    return out


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(2))
def test_division_matches_the_neumann_reference(m, n, seed):
    rng = random.Random(1100 * seed + 10 * m + n)
    dividends = _series(rng, m, n)
    for h in _units(rng, m, n):
        for out_budget in range(7):
            inverse = h.invert(out_budget)
            want = ref.invert(h.terms, m, n, out_budget)
            assert (inverse.terms, inverse.budget) == (want, out_budget)
            assert all(type(c) is GaussianRational and c for c in inverse.packed.values())
            for s in dividends[::3]:
                # out budgets below, at and above the dividend's budget
                got = s.divide(h, out_budget)
                assert (got.terms, got.budget) == (ref.divide(s.terms, h.terms, m, n, out_budget), out_budget)
        assert h.invert().budget == h.budget
        assert h.invert().terms == ref.invert(h.terms, m, n, h.budget)
        for s in dividends:
            assert s.divide(h) == Series(m, n, s.budget, ref.divide(s.terms, h.terms, m, n, s.budget))
            assert s.divide(h).budget == s.budget


def test_a_constant_divisor_scales():
    s = parse_series("1 + (1/2-i)*z1*zb2^2 + x1^3 - zb1", 2, 1, 3)
    c = GaussianRational(Fraction(2, 3), -1)
    h = Series.constant(2, 1, c)
    assert s.divide(h) == s.scale(c.inverse())
    assert s.divide(h, 2) == s.scale(c.inverse()).truncated(2)
    assert h.invert(5) == Series.constant(2, 1, c.inverse(), 5)


@pytest.mark.parametrize("m, n", [(1, 0), (1, 2), (2, 1), (3, 0)])
@pytest.mark.parametrize("seed", range(2))
def test_rescaling_matches_repeated_reference_products(m, n, seed):
    rng = random.Random(1300 * seed + 10 * m + n)
    model = FoliationModel.untwisted(m, n, 3)
    for h in _units(rng, m, n):
        for p in range(m + 1):
            q = rng.randint(0, m)
            phi = random_form(rng, model, p, q, budget=3, max_components=3)
            for out_budget in (None, 0, 2, 3, 5):
                b = phi.budget if out_budget is None else out_budget
                got = rescale_power(phi, h, out_budget)
                assert (got.p, got.q, got.budget) == (p, q, phi.budget if p + q == 0 else b)
                if p + q == 0:
                    assert got is phi
                    continue
                factor = ref.power(ref.invert(h.terms, m, n, b), p + q, m, n, b)
                want = {k: ref.mul(c.terms, factor, b) for k, c in phi.coeffs.items()}
                assert {k: c.terms for k, c in got.coeffs.items()} == {k: t for k, t in want.items() if t}
                assert all(c.budget == b for c in got.coeffs.values())


@pytest.mark.parametrize(
    "call",
    [
        lambda s, h: s.divide(h),
        lambda s, h: s.divide(h, 4),
        lambda s, h: h.invert(),
        lambda s, h: ref.divide(s.terms, h.terms, 2, 1, 3),
        lambda s, h: ref.invert(h.terms, 2, 1, 3),
    ],
    ids=["divide", "divide-out-budget", "invert", "reference-divide", "reference-invert"],
)
@pytest.mark.parametrize("h_text", ["0", "z1 + i*zb2", "x1^2 - 1/2*z2"])
def test_a_non_unit_divisor_is_rejected(call, h_text):
    s = parse_series("1 + (1/2-i)*z1*zb2^2 + x1^3 - zb1", 2, 1, 3)
    h = parse_series(h_text, 2, 1, 3)
    with pytest.raises(SeriesError, match="^series is not a unit: function vanishes, cannot invert$"):
        call(s, h)


def test_division_checks_its_out_budget():
    s, h = parse_series("1 + z1", 1, 0, 1), parse_series("2 - zb1", 1, 0, 1)
    with pytest.raises(SeriesError, match="^m, n and budget must be nonnegative$"):
        s.divide(h, -1)
    with pytest.raises(SeriesError, match="^m, n and budget must be nonnegative$"):
        h.invert(-1)
    with pytest.raises(SeriesError, match=r"^variable mismatch: \(1,0\) vs \(1,1\)$"):
        s.divide(Series.one(1, 1))


def test_basis_forms_pack_their_monomial():
    model = FoliationModel.untwisted(2, 1, 2)
    for key in monomial_table(2, 1, 2)[0][:10]:
        e = unpack(2, 1, key)
        phi = basis_form(model, ((1,), (), e), 2)
        assert phi.coeffs[((1,), ())].packed == {key: GaussianRational(1)}
        assert phi.coeffs[((1,), ())].terms == {e: GaussianRational(1)}


# ---------------------------------------------------------------------------
# Cached substitution against the uncached reference
# ---------------------------------------------------------------------------


def _with_reference_mul(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(Series, "mul", kref.series_mul)
        return call()


def _same_series(got, want):
    assert (got.m, got.n, got.budget) == (want.m, want.n, want.budget)
    assert got.terms == want.terms


def _same_form(got, want):
    assert (got.p, got.q, got.budget) == (want.p, want.q, want.budget)
    assert {k: (s.terms, s.budget) for k, s in got.coeffs.items()} == {
        k: (s.terms, s.budget) for k, s in want.coeffs.items()
    }


@pytest.mark.parametrize("m, n", [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_cached_substitution_matches_uncached_reference(monkeypatch, m, n, seed):
    rng = random.Random(900 * seed + 10 * m + n)
    source = FoliationModel.untwisted(m, n, 2)
    m2 = rng.randint(1, m)
    n2 = rng.choice([0, n])
    target = FoliationModel(m2, n2, 2, random_unit_series(rng, m2, n2, 2))
    mu = random_morphism(rng, source, target, degree=rng.choice([1, 2, 3]))
    twisted = mu.with_source_twist(random_unit_series(rng, m, n, 2))
    assert twisted._monomials is mu._monomials and twisted._blocks is mu._blocks
    series = [random_series(rng, m2, n2, b, max_terms=4) for b in (1, 2, 3, 3)]
    forms = [random_form(rng, target, rng.randint(0, m2), rng.randint(0, m2), budget=2, max_components=3) for _ in range(3)]
    # budgets interleave, so each cache level is read after others are filled,
    # and the two maps fill and read the shared caches in turn
    for out_budget in (0, None, 1, 3, 0, 5, 2, None, 1):
        for nu in (mu, twisted, mu):
            for s in series:
                want = _with_reference_mul(monkeypatch, lambda: kref.pull_series(mu, s, out_budget))
                _same_series(nu.pull_series(s, out_budget), want)
            for phi in forms:
                want = _with_reference_mul(monkeypatch, lambda: kref.pullback(mu, phi, out_budget))
                got = pullback(nu, phi, out_budget)
                assert got.model is nu.source
                _same_form(got, want)
    assert mu.pulled_twist == _with_reference_mul(monkeypatch, lambda: kref.pull_series(mu, target.f))


def test_generator_wedges_are_cached_per_out_budget(monkeypatch):
    # both Jacobian entries have degree 1, so the wedge of two generator
    # images loses terms at out budget 0 that it keeps at the exact budget
    model = FoliationModel.untwisted(2, 0, 2)
    zc = [parse_series("z1*z2", 2, 0, 2), parse_series("z1^2 + z2", 2, 0, 2)]
    mu = FoliatedMorphism(model, model, zc, [])
    forms = [
        FoliatedForm.generator(model, (1, 2), (), parse_series("1 + z1", 2, 0, 2)),
        FoliatedForm.generator(model, (1,), (2,), parse_series("2 - zb2", 2, 0, 2)),
        FoliatedForm.generator(model, (), (1, 2), parse_series("i", 2, 0, 2)),
    ]
    for out_budget in (0, None, 1, 2, 0, None):
        for phi in forms:
            want = _with_reference_mul(monkeypatch, lambda: kref.pullback(mu, phi, out_budget))
            _same_form(pullback(mu, phi, out_budget), want)
    assert {budget for _, _, budget in mu._blocks} == {0, 1, 2, 6}


def test_identity_substitution_is_the_identity():
    model = FoliationModel.untwisted(2, 1, 3)
    mu = FoliatedMorphism.identity(model)
    s = parse_series("1 + (1/2-i)*z1*zb2^2 + x1^3 - zb1", 2, 1, 3)
    assert mu.pull_series(s) == s
    assert mu.pull_series(s, 2) == s.truncated(2)
    phi = FoliatedForm.generator(model, (1,), (2,), s)
    assert pullback(mu, phi) == phi


# ---------------------------------------------------------------------------
# The degree limit: no key may wrap
# ---------------------------------------------------------------------------


def test_the_largest_degree_fits():
    top = parse_series(f"z1^{MAX_DEGREE}", 1, 0, MAX_DEGREE)
    assert top.terms == {((MAX_DEGREE,), (0,), ()): GaussianRational(1)}
    assert top.degree == MAX_DEGREE
    assert top.deriv("z", 1).terms == {((MAX_DEGREE - 1,), (0,), ()): GaussianRational(MAX_DEGREE)}
    assert top.conj().terms == {((0,), (MAX_DEGREE,), ()): GaussianRational(1)}
    half = parse_series(f"z1^{MAX_DEGREE // 2}", 1, 0, MAX_DEGREE // 2)
    assert half.mul(half, out_budget=MAX_DEGREE).degree == MAX_DEGREE // 2 * 2
    assert Series(1, 1, MAX_DEGREE, {((0,), (0,), (MAX_DEGREE,)): 1}).degree == MAX_DEGREE


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_series("z1", 1, 0, MAX_DEGREE + 1),
        lambda: Series(1, 0, MAX_DEGREE + 1),
        lambda: Series.constant(1, 0, 1, MAX_DEGREE + 1),
        lambda: Series.variable(1, 0, "z", 1, budget=MAX_DEGREE + 1),
        lambda: parse_series("z1", 1, 0, MAX_DEGREE).mul(parse_series("1", 1, 0, 1)),
        lambda: parse_series("z1", 1, 0, 1).mul(parse_series("z1", 1, 0, 1), out_budget=MAX_DEGREE + 1),
        lambda: random_series(random.Random(1), 1, 0, MAX_DEGREE + 1),
        lambda: parse_series("1 + z1", 1, 0, 1).divide(parse_series("1 - z1", 1, 0, 1), MAX_DEGREE + 1),
        lambda: parse_series("1 + z1", 1, 0, 1).invert(MAX_DEGREE + 1),
    ],
    ids=["parse", "constructor", "constant", "variable", "mul-default", "mul-out-budget", "sampling", "divide", "invert"],
)
def test_a_budget_past_the_limit_is_rejected(make):
    with pytest.raises(SeriesError, match=LIMIT_MESSAGE):
        make()


def test_a_substitution_budget_past_the_limit_is_rejected():
    model = FoliationModel.untwisted(1, 0, 2)
    mu = FoliatedMorphism(model, model, [parse_series("z1^2", 1, 0, 2)], [])
    with pytest.raises(SeriesError, match=LIMIT_MESSAGE):
        mu.pull_series(parse_series("z1", 1, 0, 1), out_budget=MAX_DEGREE + 1)
    # the default out budget is budget * degree
    with pytest.raises(SeriesError, match=rf"^budget {2 * (MAX_DEGREE // 2 + 1)} exceeds {MAX_DEGREE},"):
        mu.pull_series(parse_series("z1", 1, 0, MAX_DEGREE // 2 + 1))
    phi = FoliatedForm.from_series(model, parse_series("z1", 1, 0, 1))
    with pytest.raises(SeriesError, match=LIMIT_MESSAGE):
        pullback(mu, phi, out_budget=MAX_DEGREE + 1)


def test_the_parser_keeps_its_messages_and_their_order_past_the_limit():
    # a huge exponent is checked against the budget, not packed first
    with pytest.raises(SeriesError, match=r"^term z1\^1000000000 of degree 1000000000 exceeds budget 3$"):
        parse_series("z1^1000000000", 1, 0, 3)
    with pytest.raises(SeriesError, match=r"^term z1\^70000\*z2 of degree 70001 exceeds budget 3$"):
        parse_series("1 + z1^70000*z2", 2, 0, 3)
    # a syntax error after an over-budget term is found first
    with pytest.raises(SeriesParseError, match=r"^expected a coefficient or variable, got '\)' \(at position 16\)$"):
        parse_series("z1^1000000000 + )", 1, 0, 3)
    # terms past the limit that cancel leave nothing to pack
    assert parse_series("z1^70000*zb1 - zb1*z1^70000 + 2", 1, 0, 3) == Series.constant(1, 0, 2)
    # an over-budget term is named before a budget past the limit
    with pytest.raises(SeriesError, match=rf"^term z1\^70000 of degree 70000 exceeds budget {MAX_DEGREE}$"):
        parse_series("z1^70000", 1, 0, MAX_DEGREE)
    with pytest.raises(SeriesError, match=LIMIT_MESSAGE):
        parse_series("z1^70000 - z1^70000", 1, 0, MAX_DEGREE + 1)


def test_a_negative_exponent_is_rejected():
    with pytest.raises(SeriesError, match=r"^exponent triple \(\(-1,\), \(2,\), \(\)\) has a negative exponent$"):
        Series(1, 0, 2, {((-1,), (2,), ()): 1})
