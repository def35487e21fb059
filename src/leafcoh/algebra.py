"""Exact coefficient arithmetic: Gaussian rationals and truncated power series.

Every number in this package is a Gaussian rational, stored as a canonical
integer triple (a + b*i) / d; no floating point is used anywhere, so
algebraic identities such as d**2 = 0 hold on the nose and ranks are
meaningful.

Smooth functions are modelled by sparse multivariate polynomials in the
leafwise variables z_1..z_m, their formal conjugates zb_1..zb_m and the
transverse variables x_1..x_n, together with a total-degree *budget*: the
maximal degree a Series is allowed to store.  The budget is bookkeeping, not
part of equality; two Series are equal iff their term maps agree.  Truncation
only ever happens where an operation takes an explicit ``out_budget``.

Validation happens at the boundary: the public ``Series`` constructor, the
parser and the classmethod constructors check every term (exponent shape,
coefficient type, nonzero, degree within the budget).  Arithmetic results
are built by ``_raw_series`` without that check, because each operation
produces clean terms from clean operands.  Values are immutable by
convention, and that convention is load-bearing: a term map mutated after
construction would carry its unchecked state into every result built from
it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add


class GaussianRational:
    """An exact complex number (a + b*i) / d with integers a, b, d.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples and zero is (0, 0, 1).  Both parts share the one
    denominator, so a product is four integer multiplications and one gcd;
    with d == 1 on both sides (integer matrices, the common case) there is no
    gcd at all.  ``re`` and ``im`` read the parts as Fractions.  Only int and
    Fraction inputs are accepted; a float raises TypeError.

    Immutable by convention; all operations return new values.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = _fraction(re), _fraction(im)
        d = lcm(re.denominator, im.denominator)
        # with both parts reduced and d their lcm, gcd(a, b, d) is already 1
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _raw(self.a + other.a, self.b + other.b, 1)
            return _normal(self.a + other.a, self.b + other.b, d)
        return _normal(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if d == 1:
            return _raw(a * c - b * e, a * e + b * c, 1)
        return _normal(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b = self.a, self.b
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _normal(self.d * a, -self.d * b, norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "GaussianRational":
        return _raw(self.a, -self.b, self.d)

    # -- comparisons and hashing -------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.d == 1:
            return hash((self.a, self.b))  # an int hashes like its Fraction
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple that is canonical already."""
    x = _new(GaussianRational)
    x.a = a
    x.b = b
    x.d = d
    return x


def _normal(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from any triple with d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _raw(a // g, b // g, d // g)
    return _raw(a, b, d)


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(int(x))
    raise TypeError(f"a Gaussian rational takes int or Fraction parts, not {type(x).__name__}")


def _coerce(x):
    if type(x) is int:
        return _raw(x, 0, 1)
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_scalar(c: GaussianRational) -> str:
    """Render a Gaussian rational in the series text grammar.

    Pure values print bare ("3/2", "-2i", "i"); mixed values are
    parenthesised ("(1+2i)") so they survive a round trip through the parser.
    """
    if not c.im:
        return _frac_str(c.re)
    if c.im == 1:
        im = "i"
    elif c.im == -1:
        im = "-i"
    else:
        im = _frac_str(c.im) + "i"
    if not c.re:
        return im
    sign = "+" if c.im > 0 else ""
    return f"({_frac_str(c.re)}{sign}{im})"


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------

Expo = tuple  # (alpha: tuple[int], beta: tuple[int], gamma: tuple[int])


def expo_degree(key: Expo) -> int:
    alpha, beta, gamma = key
    return sum(alpha) + sum(beta) + sum(gamma)


def grlex_key(key: Expo):
    """Graded-lexicographic sort key on an exponent triple."""
    return (expo_degree(key), key[0] + key[1] + key[2])


class SeriesError(ValueError):
    pass


_SLOTS = {"z": 0, "zb": 1, "x": 2}  # the exponent block of each variable kind


class Series:
    """A sparse polynomial over the Gaussian rationals with a degree budget.

    ``terms`` maps exponent triples (alpha, beta, gamma) to nonzero
    coefficients; alpha/beta index z/zb powers, gamma indexes x powers.
    The constructor validates every term; operation results skip that check
    (see ``_raw_series``).
    """

    __slots__ = ("m", "n", "budget", "terms")

    def __init__(self, m: int, n: int, budget: int, terms=None):
        if m < 0 or n < 0 or budget < 0:
            raise SeriesError("m, n and budget must be nonnegative")
        self.m = m
        self.n = n
        self.budget = budget
        clean = {}
        for key, coeff in (terms or {}).items():
            alpha, beta, gamma = key
            if len(alpha) != m or len(beta) != m or len(gamma) != n:
                raise SeriesError(f"exponent triple {key} does not match (m={m}, n={n})")
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            if not coeff:
                continue
            if expo_degree(key) > budget:
                raise SeriesError(
                    f"term of degree {expo_degree(key)} exceeds budget {budget}"
                )
            clean[(tuple(alpha), tuple(beta), tuple(gamma))] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, m, n, budget=0):
        return cls(m, n, budget)

    @classmethod
    def constant(cls, m, n, value, budget=0):
        key = ((0,) * m, (0,) * m, (0,) * n)
        return cls(m, n, budget, {key: value})

    @classmethod
    def one(cls, m, n, budget=0):
        return cls.constant(m, n, ONE, budget)

    @classmethod
    def variable(cls, m, n, kind: str, index: int, budget=1):
        """The coordinate function z<k>, zb<k> or x<k> (1-based index)."""
        limit = {"z": m, "zb": m, "x": n}.get(kind)
        if limit is None:
            raise SeriesError(f"unknown variable kind {kind!r}")
        if not 1 <= index <= limit:
            raise SeriesError(f"variable {kind}{index} out of range (max {limit})")
        alpha = [0] * m
        beta = [0] * m
        gamma = [0] * n
        if kind == "z":
            alpha[index - 1] = 1
        elif kind == "zb":
            beta[index - 1] = 1
        else:
            gamma[index - 1] = 1
        return cls(m, n, budget, {(tuple(alpha), tuple(beta), tuple(gamma)): ONE})

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Largest total degree among stored terms (0 for the zero series)."""
        if not self.terms:
            return 0
        return max(expo_degree(k) for k in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> GaussianRational:
        key = ((0,) * self.m, (0,) * self.m, (0,) * self.n)
        return self.terms.get(key, ZERO)

    @property
    def is_unit(self) -> bool:
        return bool(self.constant_term)

    def with_budget(self, budget: int) -> "Series":
        """Same series under a new budget cap; terms must already fit.

        Only a lower cap can be broken, so only a lower cap re-checks the terms.
        """
        if budget == self.budget:
            return self
        if budget > self.budget:
            return _raw_series(self.m, self.n, budget, self.terms)
        return Series(self.m, self.n, budget, self.terms)

    def _same_space(self, other: "Series"):
        if self.m != other.m or self.n != other.n:
            raise SeriesError(
                f"variable mismatch: ({self.m},{self.n}) vs ({other.m},{other.n})"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._same_space(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key, ZERO) + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return _raw_series(self.m, self.n, max(self.budget, other.budget), terms)

    def __neg__(self):
        return _raw_series(self.m, self.n, self.budget, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Series":
        c = _coerce(c)
        if c is None:
            raise SeriesError("scale expects a scalar")
        if not c:
            return _raw_series(self.m, self.n, self.budget, {})
        return _raw_series(self.m, self.n, self.budget, {k: v * c for k, v in self.terms.items()})

    def mul(self, other: "Series", out_budget: int | None = None) -> "Series":
        """Product, discarding terms of total degree > out_budget.

        With the default ``out_budget=None`` the product is exact and the
        result budget is the sum of the factor budgets.  Each output term is
        accumulated as a plain integer triple and normalised once (see
        ``_mul_into``).
        """
        self._same_space(other)
        if out_budget is None:
            out_budget = self.budget + other.budget
        elif out_budget < 0:
            raise SeriesError("m, n and budget must be nonnegative")
        acc: dict = {}
        _mul_into(acc, self, other, out_budget)
        return _raw_series(self.m, self.n, out_budget, _accumulated_terms(acc))

    def __mul__(self, other):
        if isinstance(other, Series):
            return self.mul(other)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return self.scale(c)

    def __rmul__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return self.scale(c)

    def power(self, k: int, out_budget: int | None = None) -> "Series":
        if k < 0:
            raise SeriesError("negative power; invert first")
        result = Series.one(self.m, self.n)
        for _ in range(k):
            result = result.mul(self, out_budget=out_budget)
        return result

    def deriv(self, kind: str, index: int) -> "Series":
        """Formal partial derivative; keeps the input budget."""
        slot = _SLOTS.get(kind)
        if slot is None:
            raise SeriesError(f"unknown variable kind {kind!r}")
        limit = self.n if slot == 2 else self.m
        if not 1 <= index <= limit:
            raise SeriesError(f"variable {kind}{index} out of range (max {limit})")
        i = index - 1
        terms = {}
        for key, coeff in self.terms.items():
            e = key[slot][i]
            if e == 0:
                continue
            vec = list(key[slot])
            vec[i] = e - 1
            new = list(key)
            new[slot] = tuple(vec)
            a, b, d = coeff.a * e, coeff.b * e, coeff.d
            terms[tuple(new)] = _raw(a, b, 1) if d == 1 else _normal(a, b, d)
        return _raw_series(self.m, self.n, self.budget, terms)

    def conj(self) -> "Series":
        """Formal conjugation: swap z/zb exponents, conjugate coefficients."""
        return _raw_series(
            self.m,
            self.n,
            self.budget,
            {(b, a, g): c.conjugate() for (a, b, g), c in self.terms.items()},
        )

    def invert(self, out_budget: int | None = None) -> "Series":
        """Multiplicative inverse up to out_budget, by Neumann expansion.

        Requires a nonzero constant term; otherwise the function vanishes at
        the origin and no rescaling is available.
        """
        c0 = self.constant_term
        if not c0:
            raise SeriesError("series is not a unit: function vanishes, cannot invert")
        if out_budget is None:
            out_budget = self.budget
        inv0 = c0.inverse()
        # h = c0 (1 - u), u with zero constant term; 1/h = (1/c0) sum u^k.
        u = Series.one(self.m, self.n) - self.scale(inv0)
        acc = Series.one(self.m, self.n, out_budget)
        pw = Series.one(self.m, self.n)
        for _ in range(out_budget):
            pw = pw.mul(u, out_budget=out_budget)
            if pw.is_zero:
                break
            acc = acc + pw
        return acc.scale(inv0).with_budget(out_budget)

    def truncated(self, out_budget: int) -> "Series":
        """Drop all terms of total degree > out_budget."""
        if out_budget < 0:
            raise SeriesError("m, n and budget must be nonnegative")
        return _raw_series(
            self.m,
            self.n,
            out_budget,
            {k: c for k, c in self.terms.items() if expo_degree(k) <= out_budget},
        )

    # -- comparison / io -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"Series({self.m},{self.n},{self.budget}; {format_series(self)})"

    @classmethod
    def parse(cls, text: str, m: int, n: int, budget: int) -> "Series":
        return parse_series(text, m, n, budget)


def _raw_series(m: int, n: int, budget: int, terms: dict) -> Series:
    """A Series over terms that are clean already, taken without a copy.

    The caller guarantees what the constructor would check: keys are exponent
    triples of tuples matching (m, n) of degree <= budget, values are nonzero
    GaussianRationals, and budget >= 0.  Operation results qualify, since each
    builds its terms from validated operands.
    """
    s = _new(Series)
    s.m = m
    s.n = n
    s.budget = budget
    s.terms = terms
    return s


def _mul_into(acc: dict, s: Series, t: Series, out_budget: int, k: int = 1):
    """Add k * s * t into ``acc``, skipping pairs of total degree > out_budget.

    ``acc`` maps exponent triples to lists [re, im, den] of plain integers
    holding (re + im*i) / den with den > 0, not reduced; no scalar object is
    made per pair.  Each coefficient's triple is read once, and k is folded
    into t's coefficients once.  ``_accumulated_terms`` turns ``acc`` into
    terms.  Returns a bound on the degree of every term added:
    min(out_budget, deg s + deg t).
    """
    right = [
        (a2, b2, g2, sum(a2) + sum(b2) + sum(g2), c.a * k, c.b * k, c.d)
        for (a2, b2, g2), c in t.terms.items()
    ]
    top = max([r[3] for r in right], default=0)
    left = 0
    for (a1, b1, g1), c in s.terms.items():
        x, y, e = c.a, c.b, c.d
        d1 = sum(a1) + sum(b1) + sum(g1)
        if d1 > left:
            left = d1
        room = out_budget - d1
        for a2, b2, g2, d2, u, v, w in right:
            if d2 > room:
                continue
            key = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)), tuple(map(add, g1, g2)))
            re, im, den = x * u - y * v, x * v + y * u, e * w
            slot = acc.get(key)
            if slot is None:
                acc[key] = [re, im, den]
            elif slot[2] == den:
                slot[0] += re
                slot[1] += im
            else:
                d0 = slot[2]
                slot[0] = slot[0] * den + re * d0
                slot[1] = slot[1] * den + im * d0
                slot[2] = d0 * den
    return min(out_budget, left + top)


def _accumulated_terms(acc: dict) -> dict:
    """The nonzero terms of a ``_mul_into`` accumulator, one canonical scalar each."""
    terms = {}
    for key, (re, im, den) in acc.items():
        if re or im:
            terms[key] = _raw(re, im, 1) if den == 1 else _normal(re, im, den)
    return terms


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _format_monomial(key: Expo) -> str:
    alpha, beta, gamma = key
    parts = []
    for name, vec in (("z", alpha), ("zb", beta), ("x", gamma)):
        for i, e in enumerate(vec):
            if e == 0:
                continue
            parts.append(f"{name}{i + 1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def format_series(s: Series) -> str:
    if s.is_zero:
        return "0"
    chunks = []
    for key, coeff in s.sorted_terms():
        mono = _format_monomial(key)
        cstr = format_scalar(coeff)
        if mono:
            if cstr == "1":
                body = mono
            elif cstr == "-1":
                body = "-" + mono
            else:
                body = f"{cstr}*{mono}"
        else:
            body = cstr
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(" - " + body[1:])
        else:
            chunks.append(" + " + body)
    return "".join(chunks)


class SeriesParseError(SeriesError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()/":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        raise SeriesParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", len(text)))
    return toks


class _Parser:
    """Recursive-descent parser for the series text grammar.

    grammar:  series  := [sign] term (('+'|'-') term)*
              term    := factor ('*' factor)*
              factor  := number ['i'] | 'i' | '(' series ')' | var ['^' int]
              number  := int ['/' int]
              var     := z<k> | zb<k> | x<k>
    """

    def __init__(self, text, m, n, budget):
        self.toks = _tokenize(text)
        self.k = 0
        self.m = m
        self.n = n
        self.budget = budget

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def parse(self) -> Series:
        s = self.series()
        t = self.peek()
        if t.kind != "end":
            raise SeriesParseError(f"unexpected {t.text!r}", t.pos)
        for key in s.terms:
            if expo_degree(key) > self.budget:
                raise SeriesError(
                    f"term {_format_monomial(key)} of degree {expo_degree(key)} "
                    f"exceeds budget {self.budget}"
                )
        return s

    def series(self) -> Series:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
        acc = self.term().scale(sign)
        while self.peek().kind in "+-":
            op = self.take().kind
            t = self.term()
            acc = acc + (t.scale(-1) if op == "-" else t)
        return acc

    def term(self) -> Series:
        acc = self.factor()
        while True:
            if self.peek().kind == "*":
                self.take()
                acc = acc.mul(self.factor())
            elif self.peek().kind in ("name", "int", "("):
                # juxtaposition such as "2i" is handled inside factor; explicit
                # adjacency without '*' is rejected for clarity
                t = self.peek()
                raise SeriesParseError(f"expected operator before {t.text!r}", t.pos)
            else:
                return acc

    def factor(self) -> Series:
        t = self.peek()
        if t.kind == "(":
            self.take()
            inner = self.series()
            closing = self.take()
            if closing.kind != ")":
                raise SeriesParseError("expected ')'", closing.pos)
            return inner
        if t.kind == "int":
            num = self.number()
            if self.peek().kind == "name" and self.peek().text == "i":
                self.take()
                return Series.constant(self.m, self.n, GaussianRational(0, num))
            return Series.constant(self.m, self.n, GaussianRational(num))
        if t.kind == "name":
            if t.text == "i":
                self.take()
                return Series.constant(self.m, self.n, I)
            return self.variable()
        raise SeriesParseError(f"expected a coefficient or variable, got {t.text!r}", t.pos)

    def number(self) -> Fraction:
        t = self.take()
        num = int(t.text)
        if self.peek().kind == "/":
            self.take()
            d = self.take()
            if d.kind != "int":
                raise SeriesParseError("expected denominator", d.pos)
            if int(d.text) == 0:
                raise SeriesParseError("zero denominator", d.pos)
            return Fraction(num, int(d.text))
        return Fraction(num)

    def variable(self) -> Series:
        t = self.take()
        name = t.text
        for kind in ("zb", "z", "x"):
            if name.startswith(kind) and name[len(kind) :].isdigit():
                index = int(name[len(kind) :])
                try:
                    base = Series.variable(self.m, self.n, kind, index, budget=1)
                except SeriesError:
                    raise SeriesParseError(f"unknown variable {name!r}", t.pos) from None
                break
        else:
            raise SeriesParseError(f"unknown variable {name!r}", t.pos)
        if self.peek().kind != "^":
            return base
        self.take()
        e = self.take()
        if e.kind != "int":
            raise SeriesParseError("expected integer exponent", e.pos)
        # one monomial, so parse() rejects a huge exponent with no multiplication
        power = int(e.text)
        (key,) = base.terms
        return _raw_series(self.m, self.n, power, {tuple(tuple(x * power for x in part) for part in key): ONE})


def parse_series(text: str, m: int, n: int, budget: int) -> Series:
    """Parse the series text grammar; raises SeriesParseError with a position."""
    s = _Parser(text, m, n, budget).parse()
    if budget < 0:  # parse() checked every term against it; a zero series has none
        raise SeriesError("m, n and budget must be nonnegative")
    return _raw_series(m, n, budget, s.terms)
