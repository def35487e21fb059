import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from leafcoh.algebra import (
    GaussianRational,
    format_scalar,
    Series,
    SeriesError,
    SeriesParseError,
    format_series,
    parse_series,
)
from leafcoh.sampling import random_scalar, random_series, random_unit_series


fractions = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 9)
)
scalars = st.builds(GaussianRational, fractions, fractions)


@given(scalars, scalars, scalars)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == GaussianRational(1)
        assert a.inverse() * a == GaussianRational(1)


def random_scalar_from_fractions(rng, with_imag=True):
    """random_scalar as it was built from two Fractions."""
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(0)
    if with_imag and rng.random() < 0.4:
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return GaussianRational(re, im)


@pytest.mark.parametrize("with_imag", [True, False])
def test_random_scalar_matches_the_fraction_construction(with_imag):
    # same draws, same values, same canonical triples, and the generators
    # end in the same state
    for seed in range(40):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(50):
            x, y = random_scalar(new, with_imag), random_scalar_from_fractions(old, with_imag)
            assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
            _assert_canonical(x)
        assert new.getstate() == old.getstate()


@given(scalars)
def test_scalar_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.im == 0
    assert norm.re >= 0


def _random_series_triple(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 0), (1, 1), (2, 1)])
    budget = rng.randint(0, 3)
    return [random_series(rng, m, n, budget) for _ in range(3)], (m, n, budget)


@pytest.mark.parametrize("seed", range(40))
def test_series_ring_axioms(seed):
    (a, b, c), _ = _random_series_triple(seed)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    out = a.budget + b.budget + c.budget
    lhs = a.mul(b + c, out_budget=out)
    rhs = a.mul(b, out_budget=out) + a.mul(c, out_budget=out)
    assert lhs == rhs
    assert a.mul(b) == b.mul(a)


def test_mul_identity_and_truncation():
    s = parse_series("1 + 2*z1 - zb1^2", 1, 0, 2)
    one = Series.one(1, 0)
    assert one.mul(s) == s
    z = Series.variable(1, 0, "z", 1)
    zb = Series.variable(1, 0, "zb", 1)
    assert z.mul(zb, out_budget=1).is_zero
    a = parse_series("1 + z1", 1, 0, 1)
    b = parse_series("1 - z1", 1, 0, 1)
    assert a.mul(b, out_budget=2) == parse_series("1 - z1^2", 1, 0, 2)


def test_mul_dimension_mismatch():
    a = Series.one(1, 0)
    b = Series.one(2, 0)
    with pytest.raises(SeriesError):
        a.mul(b)


def test_deriv_examples():
    s = parse_series("z1*zb1", 1, 0, 2)
    assert s.deriv("zb", 1) == Series.variable(1, 0, "z", 1)
    assert Series.one(1, 0).deriv("zb", 1).is_zero
    t = parse_series("zb1^2*x1", 1, 1, 3)
    assert t.deriv("zb", 1) == parse_series("2*zb1*x1", 1, 1, 3)
    with pytest.raises(SeriesError):
        s.deriv("zb", 2)
    with pytest.raises(SeriesError):
        s.deriv("w", 1)


@pytest.mark.parametrize("seed", range(60))
def test_leibniz_rule(seed):
    rng = random.Random(1000 + seed)
    m, n = rng.choice([(1, 1), (2, 0)])
    a = random_series(rng, m, n, 2)
    b = random_series(rng, m, n, 2)
    kind = rng.choice(["z", "zb", "x"] if n else ["z", "zb"])
    idx = rng.randint(1, m if kind != "x" else n)
    lhs = a.mul(b).deriv(kind, idx)
    rhs = a.deriv(kind, idx).mul(b) + a.mul(b.deriv(kind, idx))
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(30))
def test_mixed_partials_commute(seed):
    rng = random.Random(77 + seed)
    s = random_series(rng, 2, 1, 3)
    assert s.deriv("zb", 1).deriv("zb", 2) == s.deriv("zb", 2).deriv("zb", 1)
    assert s.deriv("z", 1).deriv("x", 1) == s.deriv("x", 1).deriv("z", 1)


def test_invert_examples():
    one = Series.one(1, 0)
    assert one.invert() == one
    two = Series.constant(1, 0, 2)
    assert two.invert() == Series.constant(1, 0, Fraction(1, 2))
    s = parse_series("1 - zb1", 1, 0, 3)
    assert s.invert(3) == parse_series("1 + zb1 + zb1^2 + zb1^3", 1, 0, 3)


def test_invert_requires_unit():
    z = Series.variable(1, 0, "z", 1)
    with pytest.raises(SeriesError, match="vanishes"):
        z.invert()


def test_invert_roundtrip_thousand_units():
    rng = random.Random(314159)
    for _ in range(1000):
        m, n = rng.choice([(1, 0), (1, 1), (2, 0)])
        budget = rng.randint(0, 3)
        h = random_unit_series(rng, m, n, budget)
        g = h.invert(budget)
        one = Series.one(m, n)
        assert h.mul(g, out_budget=budget) == one
        assert g.mul(h, out_budget=budget) == one


def test_conj_examples():
    s = parse_series("i*z1", 1, 0, 1)
    assert s.conj() == parse_series("-i*zb1", 1, 0, 1)
    x = Series.variable(1, 1, "x", 1)
    assert x.conj() == x
    rng = random.Random(9)
    for _ in range(50):
        t = random_series(rng, 2, 1, 2)
        assert t.conj().conj() == t


def test_parse_examples():
    s = parse_series("1 + z1*zb1", 1, 0, 2)
    assert len(s.terms) == 2
    t = parse_series("3/2 - 2i*x1", 1, 1, 1)
    consts = t.constant_term
    assert consts == GaussianRational(Fraction(3, 2))
    assert t.terms[((0,), (0,), (1,))] == GaussianRational(0, -2)
    with pytest.raises(SeriesParseError, match="unknown variable"):
        parse_series("z3", 2, 0, 2)


def test_parse_errors_carry_position():
    with pytest.raises(SeriesParseError) as err:
        parse_series("1 + $", 1, 0, 2)
    assert err.value.pos == 4
    with pytest.raises(SeriesError, match="budget"):
        parse_series("z1^3", 1, 0, 2)


def test_parse_rejects_a_zero_denominator():
    with pytest.raises(SeriesParseError, match=r"^zero denominator \(at position 2\)$") as err:
        parse_series("1/0 + z1", 1, 0, 2)
    assert err.value.pos == 2


def test_parse_over_budget_power_message():
    with pytest.raises(SeriesError, match=r"^term z1\^1000000000 of degree 1000000000 exceeds budget 64$"):
        parse_series("1+z1^1000000000", 1, 0, 64)


def test_parse_power_is_one_monomial(monkeypatch):
    # var^e is one monomial: a huge exponent costs no multiplication before the budget check
    assert parse_series("z1^0", 1, 0, 0) == Series.one(1, 0)
    assert parse_series("2*zb2^3*x1", 2, 1, 4).terms == {((0, 0), (0, 3), (1,)): GaussianRational(2)}
    calls = []
    real = Series.mul
    monkeypatch.setattr(Series, "mul", lambda self, *args, **kw: calls.append(1) or real(self, *args, **kw))
    assert parse_series("z1^1000", 1, 0, 1000).terms == {((1000,), (0,), ()): GaussianRational(1)}
    assert calls == []


def test_parse_gaussian_coefficient():
    s = parse_series("(1+2i)*z1", 1, 0, 1)
    assert s.terms[((1,), (0,), ())] == GaussianRational(1, 2)
    t = parse_series("-i + i", 1, 0, 0)
    assert t.is_zero


@pytest.mark.parametrize("seed", range(60))
def test_print_parse_roundtrip(seed):
    rng = random.Random(4242 + seed)
    m, n = rng.choice([(1, 0), (2, 1)])
    s = random_series(rng, m, n, 3, max_terms=4)
    text = format_series(s)
    again = parse_series(text, m, n, max(3, s.budget))
    assert again == s
    assert format_series(again) == text


def test_series_equality_ignores_budget():
    a = parse_series("z1", 1, 0, 1)
    b = parse_series("z1", 1, 0, 5)
    assert a == b


def test_budget_invariant_enforced():
    with pytest.raises(SeriesError, match="budget"):
        Series(1, 0, 1, {((2,), (0,), ()): GaussianRational(1)})
    s = parse_series("z1^2", 1, 0, 2)
    with pytest.raises(SeriesError):
        s.with_budget(1)


class _FractionPair:
    """Reference scalar: the former representation, a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        other = _ref_coerce(other)
        return _FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _FractionPair(-self.re, -self.im)

    def __sub__(self, other):
        other = _ref_coerce(other)
        return _FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _ref_coerce(other)
        return _FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _FractionPair(self.re / d, -self.im / d)

    def __truediv__(self, other):
        return self * _ref_coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        return _FractionPair(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _ref_coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _ref_coerce(x):
    return x if isinstance(x, _FractionPair) else _FractionPair(x)


def _random_parts(rng):
    def part():
        if rng.random() < 0.1:
            return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        return Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 9, 12]))

    kind = rng.choice(["zero", "real", "imaginary", "mixed", "mixed"])
    re = Fraction(0) if kind in ("zero", "imaginary") else part()
    im = Fraction(0) if kind in ("zero", "real") else part()
    return re, im


def _assert_canonical(x):
    assert type(x) is GaussianRational
    assert all(type(v) is int for v in (x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1


def _assert_agree(got, want):
    _assert_canonical(got)
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert bool(got) == bool(want)
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", range(20))
def test_scalar_matches_fraction_pair_reference(seed):
    rng = random.Random(7000 + seed)
    for _ in range(40):
        (p, q), (r, s) = _random_parts(rng), _random_parts(rng)
        x, y = GaussianRational(p, q), GaussianRational(r, s)
        X, Y = _FractionPair(p, q), _FractionPair(r, s)
        _assert_agree(x, X)
        _assert_agree(x + y, X + Y)
        _assert_agree(x - y, X - Y)
        _assert_agree(x * y, X * Y)
        _assert_agree(-x, -X)
        _assert_agree(x.conjugate(), X.conjugate())
        assert (x == y) == (X == Y)
        assert x == GaussianRational(p, q) and not x != GaussianRational(p, q)
        if y:
            _assert_agree(x / y, X / Y)
            _assert_agree(y.inverse(), Y.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inverse()
        # int and Fraction operands on either side
        for c in (rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4)), True):
            _assert_agree(x + c, X + c)
            _assert_agree(c + x, c + X)
            _assert_agree(x - c, X - c)
            _assert_agree(c - x, c - X)
            _assert_agree(x * c, X * c)
            _assert_agree(c * x, c * X)
            assert (x == c) == (X == c) and (c == x) == (c == X)
            if c:
                _assert_agree(x / c, X / c)
            if x:
                _assert_agree(c / x, c / X)


def test_scalar_equal_values_have_equal_triples():
    half = Fraction(1, 2)
    for x in (GaussianRational(half, half), GaussianRational(Fraction(2, 4), Fraction(3, 6))):
        assert (x.a, x.b, x.d) == (1, 1, 2)
    assert (GaussianRational(Fraction(1, 3)) * 3).d == 1
    zero = GaussianRational(Fraction(5, 7), 1) - GaussianRational(Fraction(5, 7), 1)
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)
    assert GaussianRational(3) == 3 and GaussianRational(half) == half


def test_scalar_rejects_float():
    with pytest.raises(TypeError, match="not float"):
        GaussianRational(0.1)
    with pytest.raises(TypeError, match="not float"):
        GaussianRational(1, 0.5)
    with pytest.raises(TypeError):
        GaussianRational(1) + 0.5
    with pytest.raises(TypeError):
        Series.constant(1, 0, 0.25)
    assert GaussianRational(True) == GaussianRational(1)
