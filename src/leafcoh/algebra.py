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
only ever happens where an operation takes an explicit ``out_budget``.  Each
monomial is stored as one packed int (see ``pack``), so a product of
monomials is one integer addition; exponent triples appear only at the
boundary (the constructor, the parser, the formatter and the ``terms`` view).

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
from heapq import heapify, heappop, heappush
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
# Packed monomials
# ---------------------------------------------------------------------------

Expo = tuple  # (alpha: tuple[int], beta: tuple[int], gamma: tuple[int])

# A Series keeps each monomial z^alpha zb^beta x^gamma as one int of 2m + n + 1
# fields of W bits, most significant first: the total degree, then alpha_1..
# alpha_m, beta_1..beta_m and gamma_1..gamma_n.  A product of monomials is the
# sum of their keys, the degree is key >> W * (2m + n), and integer order is
# graded-lex order.  No field reaches 2**W while the degree stays at most
# MAX_DEGREE, so every boundary that sets a budget or an out budget checks it.
W = 16
MAX_DEGREE = (1 << W) - 1


def expo_degree(key: Expo) -> int:
    alpha, beta, gamma = key
    return sum(alpha) + sum(beta) + sum(gamma)


def check_budget(budget: int) -> int:
    """budget, if it is nonnegative and a packed monomial holds its degree; else a SeriesError."""
    if budget < 0:
        raise SeriesError("m, n and budget must be nonnegative")
    if budget > MAX_DEGREE:
        raise SeriesError(
            f"budget {budget} exceeds {MAX_DEGREE}, the largest degree a packed monomial holds"
        )
    return budget


def pack(key: Expo) -> int:
    """The packed int of an exponent triple of tuples, nonnegative and of degree <= MAX_DEGREE."""
    alpha, beta, gamma = key
    return pack_flat(alpha + beta + gamma)


def pack_flat(flat: tuple) -> int:
    """The packed int of the exponents alpha + beta + gamma in one tuple."""
    packed = sum(flat)
    for e in flat:
        packed = packed << W | e
    return packed


def unpack(m: int, n: int, key: int) -> Expo:
    """The exponent triple (alpha, beta, gamma) of a packed key over (m, n)."""
    flat = tuple(key >> W * i & MAX_DEGREE for i in range(2 * m + n - 1, -1, -1))
    return flat[:m], flat[m : 2 * m], flat[2 * m :]


def degree_shift(m: int, n: int) -> int:
    """The degree of a packed key over (m, n) is key >> degree_shift(m, n)."""
    return W * (2 * m + n)


def last_variable(m: int, n: int, key: int) -> int:
    """Flat index, in alpha + beta + gamma, of the last variable of a nonconstant packed key.

    The lowest set bit lies in that variable's field, below the degree field.
    """
    return 2 * m + n - 1 - ((key & -key).bit_length() - 1) // W


def variable_field(m: int, n: int, flat_index: int) -> tuple:
    """(bit offset, key unit) of the variable at ``flat_index`` in alpha + beta + gamma.

    Its exponent in a key is key >> offset & MAX_DEGREE, and adding the unit
    multiplies by the variable (the degree field counts it too).
    """
    v = 2 * m + n
    offset = W * (v - 1 - flat_index)
    return offset, 1 << W * v | 1 << offset


class SeriesError(ValueError):
    pass


class LinearAlgebraError(ValueError):
    """An internal invariant of the exact engine failed (a bug, never a
    finding about the input): raised by ``linalg`` and the engines on it,
    and defined here so that ``cli.main`` catches it without loading them."""


_SLOTS = {"z": 0, "zb": 1, "x": 2}  # the exponent block of each variable kind


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


class Series:
    """A sparse polynomial over the Gaussian rationals with a degree budget.

    ``packed`` maps packed monomial keys (see ``pack``) to nonzero
    coefficients.  ``terms`` is a read-only view for boundary code: a fresh
    dict from exponent triples (alpha, beta, gamma) to the coefficients,
    alpha/beta indexing z/zb powers and gamma x powers.  The constructor takes
    such triples and validates every term; operation results skip that check
    (see ``_raw_series``).
    """

    __slots__ = ("m", "n", "budget", "packed")

    def __init__(self, m: int, n: int, budget: int, terms=None):
        if m < 0 or n < 0:
            raise SeriesError("m, n and budget must be nonnegative")
        check_budget(budget)
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
            expo = (tuple(alpha), tuple(beta), tuple(gamma))
            if min(expo[0] + expo[1] + expo[2], default=0) < 0:
                raise SeriesError(f"exponent triple {key} has a negative exponent")
            clean[pack(expo)] = coeff
        self.packed = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, m, n, budget=0):
        return cls(m, n, budget)

    @classmethod
    def constant(cls, m, n, value, budget=0):
        if m < 0 or n < 0 or budget < 0:
            raise SeriesError("m, n and budget must be nonnegative")
        if not isinstance(value, GaussianRational):
            value = GaussianRational(value)
        # the constant monomial is the key 0, of degree 0
        return _raw_series(m, n, check_budget(budget), {0: value} if value else {})

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
    def terms(self) -> dict:
        """A fresh dict: exponent triple -> coefficient (the boundary view of ``packed``)."""
        m, n = self.m, self.n
        return {unpack(m, n, key): c for key, c in self.packed.items()}

    def depends_on(self, *kinds: str) -> bool:
        """Some term has a positive exponent of a z or zb variable, as the kinds name them."""
        block, low = (1 << W * self.m) - 1, W * self.n
        fields = {"z": block << low + W * self.m, "zb": block << low}
        mask = 0
        for kind in kinds:
            mask |= fields[kind]
        return any(key & mask for key in self.packed)

    @property
    def degree(self) -> int:
        """Largest total degree among stored terms (0 for the zero series)."""
        if not self.packed:
            return 0
        return max(self.packed) >> W * (2 * self.m + self.n)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def constant_term(self) -> GaussianRational:
        return self.packed.get(0, ZERO)

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
            return _raw_series(self.m, self.n, budget, self.packed)
        check_budget(budget)
        shift = W * (2 * self.m + self.n)
        for key in self.packed:
            if key >> shift > budget:
                raise SeriesError(f"term of degree {key >> shift} exceeds budget {budget}")
        return _raw_series(self.m, self.n, budget, self.packed)

    def _same_space(self, other: "Series"):
        if self.m != other.m or self.n != other.n:
            raise SeriesError(
                f"variable mismatch: ({self.m},{self.n}) vs ({other.m},{other.n})"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._same_space(other)
        terms = dict(self.packed)
        for key, coeff in other.packed.items():
            acc = terms.get(key, ZERO) + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return _raw_series(self.m, self.n, max(self.budget, other.budget), terms)

    def __neg__(self):
        return _raw_series(self.m, self.n, self.budget, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Series":
        c = _coerce(c)
        if c is None:
            raise SeriesError("scale expects a scalar")
        if not c:
            return _raw_series(self.m, self.n, self.budget, {})
        return _raw_series(self.m, self.n, self.budget, {k: v * c for k, v in self.packed.items()})

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

    def deriv(self, kind: str, index: int) -> "Series":
        """Formal partial derivative; keeps the input budget."""
        slot = _SLOTS.get(kind)
        if slot is None:
            raise SeriesError(f"unknown variable kind {kind!r}")
        limit = self.n if slot == 2 else self.m
        if not 1 <= index <= limit:
            raise SeriesError(f"variable {kind}{index} out of range (max {limit})")
        offset, unit = variable_field(self.m, self.n, slot * self.m + index - 1)
        terms = {}
        for key, coeff in self.packed.items():
            e = key >> offset & MAX_DEGREE
            if e:
                a, b, d = coeff.a * e, coeff.b * e, coeff.d
                terms[key - unit] = _raw(a, b, 1) if d == 1 else _normal(a, b, d)
        return _raw_series(self.m, self.n, self.budget, terms)

    def conj(self) -> "Series":
        """Formal conjugation: swap z/zb exponents, conjugate coefficients."""
        low, block = W * self.n, W * self.m  # the x fields, and the z or zb fields
        x_mask, mask = (1 << low) - 1, (1 << block) - 1
        top = low + 2 * block
        return _raw_series(
            self.m,
            self.n,
            self.budget,
            {
                ((k >> top << block | k >> low & mask) << block | k >> low + block & mask) << low
                | k & x_mask: c.conjugate()
                for k, c in self.packed.items()
            },
        )

    def invert(self, out_budget: int | None = None) -> "Series":
        """Multiplicative inverse up to out_budget (default: self.budget), 1 / self by ``divide``.

        Requires a nonzero constant term; otherwise the function vanishes at
        the origin and no rescaling is available.
        """
        if out_budget is None:
            out_budget = self.budget
        return Series.one(self.m, self.n).divide(self, out_budget)

    def divide(self, h: "Series", out_budget: int | None = None) -> "Series":
        """The quotient self / h up to out_budget (default: self.budget), by back-substitution.

        h must be a unit.  Write h = c0 + u, c0 its constant term; the
        quotient g satisfies g_k = (self_k - sum_j u_j g_(k-j)) / c0 at
        each key k.  Every term of u raises a key, so g is found one term at
        a time in increasing key order (graded-lex): each g_k, normalised
        once, adds -u_j g_k into the integer accumulator of k + j
        (``_mul_terms``), which is complete when its key comes up, since all
        its contributions come from smaller keys.  No inverse and no power
        of h is built (von zur Gathen & Gerhard, Modern Computer Algebra,
        9.1).
        """
        self._same_space(h)
        c0 = h.constant_term
        if not c0:
            raise SeriesError("series is not a unit: function vanishes, cannot invert")
        if out_budget is None:
            out_budget = self.budget
        shift = W * (2 * self.m + self.n)
        limit = check_budget(out_budget) + 1 << shift
        a0, b0, d0 = c0.a, c0.b, c0.d
        norm = a0 * a0 + b0 * b0
        # the ``_terms`` of -u, ascending, so a key past the limit ends a scan
        rest = sorted((key, key >> shift, -c.a, -c.b, c.d) for key, c in h.packed.items() if key)
        acc = {key: [c.a, c.b, c.d] for key, c in self.packed.items() if key < limit}
        due = list(acc)
        heapify(due)
        terms = {}
        while due:
            key = heappop(due)
            re, im, den = acc.pop(key)
            if not (re or im):
                continue
            # (re + im*i) / den divided by (a0 + b0*i) / d0
            g = terms[key] = _normal(d0 * (re * a0 + im * b0), d0 * (im * a0 - re * b0), den * norm)
            for key2, *_ in rest:
                if key + key2 >= limit:
                    break
                if key + key2 not in acc:
                    heappush(due, key + key2)
            _mul_terms(acc, ((key, key >> shift, g.a, g.b, g.d),), rest, out_budget)
        return _raw_series(self.m, self.n, out_budget, terms)

    def truncated(self, out_budget: int) -> "Series":
        """Drop all terms of total degree > out_budget."""
        limit = check_budget(out_budget) + 1 << W * (2 * self.m + self.n)
        return _raw_series(
            self.m, self.n, out_budget, {k: c for k, c in self.packed.items() if k < limit}
        )

    # -- comparison / io -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.packed == other.packed

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self.packed.items())))

    def sorted_terms(self):
        """(exponent triple, coefficient) pairs in graded-lex order, the integer order of the keys."""
        m, n = self.m, self.n
        return [(unpack(m, n, key), self.packed[key]) for key in sorted(self.packed)]

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"Series({self.m},{self.n},{self.budget}; {format_series(self)})"

    @classmethod
    def parse(cls, text: str, m: int, n: int, budget: int) -> "Series":
        return parse_series(text, m, n, budget)


def _raw_series(m: int, n: int, budget: int, packed: dict) -> Series:
    """A Series over packed terms that are clean already, taken without a copy.

    The caller guarantees what the constructor would check: keys are packed
    monomials over (m, n) of degree <= budget, values are nonzero
    GaussianRationals, and 0 <= budget.  Operation results qualify, since each
    builds its terms from validated operands.
    """
    s = _new(Series)
    s.m = m
    s.n = n
    s.budget = budget
    s.packed = packed
    return s


def _terms(s: Series) -> list:
    """s's terms as (key, degree, re, im, den) integer tuples."""
    shift = W * (2 * s.m + s.n)
    return [(key, key >> shift, c.a, c.b, c.d) for key, c in s.packed.items()]


def _mul_terms(acc: dict, left, right: list, out_budget: int, k: int = 1):
    """Add k times every product of a ``left`` and a ``right`` term of degree
    <= out_budget into ``acc``.

    Terms are ``_terms`` tuples.  ``acc`` maps packed keys to lists [re, im,
    den] of plain integers holding (re + im*i) / den with den > 0, not
    reduced; no scalar object is made per pair, and ``_accumulated_terms``
    turns ``acc`` into terms.
    """
    for key1, d1, x, y, e in left:
        if k != 1:
            x, y = x * k, y * k
        room = out_budget - d1
        for key2, d2, u, v, w in right:
            if d2 > room:
                continue
            key = key1 + key2
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


def _mul_into(acc: dict, s: Series, t: Series, out_budget: int, k: int = 1):
    """Add k * s * t into ``acc``, skipping pairs of total degree > out_budget (see ``_mul_terms``).

    out_budget bounds every key formed, so it is checked against MAX_DEGREE.
    """
    check_budget(out_budget)
    _mul_terms(acc, _terms(s), _terms(t), out_budget, k)


def _accumulated_terms(acc: dict) -> dict:
    """The nonzero terms of a ``_mul_terms`` accumulator, one canonical scalar each."""
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

    Polynomials under construction are dicts from flat exponent tuples
    (alpha + beta + gamma) to nonzero coefficients: an exponent in the text
    may exceed any packed field, and only the terms that survive to the end
    are checked against the budget and packed.
    """

    def __init__(self, text, m, n, budget):
        self.toks = _tokenize(text)
        self.k = 0
        self.m = m
        self.n = n
        self.budget = budget
        self.depth = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def parse(self) -> dict:
        s = self.series()
        t = self.peek()
        if t.kind != "end":
            raise SeriesParseError(f"unexpected {t.text!r}", t.pos)
        m = self.m
        for flat in s:
            if sum(flat) > self.budget:
                raise SeriesError(
                    f"term {_format_monomial((flat[:m], flat[m : 2 * m], flat[2 * m :]))} "
                    f"of degree {sum(flat)} exceeds budget {self.budget}"
                )
        return s

    def series(self) -> dict:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = {k: -c for k, c in acc.items()}
        while self.peek().kind in "+-":
            op = self.take().kind
            t = self.term()
            acc = dict(acc)
            for key, coeff in t.items():
                total = acc.get(key, ZERO) + (-coeff if op == "-" else coeff)
                if total:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while True:
            if self.peek().kind == "*":
                self.take()
                right = self.factor()
                product: dict = {}
                for k1, c1 in acc.items():
                    for k2, c2 in right.items():
                        key = tuple(map(add, k1, k2))
                        product[key] = product.get(key, ZERO) + c1 * c2
                acc = {k: c for k, c in product.items() if c}
            elif self.peek().kind in ("name", "int", "("):
                # juxtaposition such as "2i" is handled inside factor; explicit
                # adjacency without '*' is rejected for clarity
                t = self.peek()
                raise SeriesParseError(f"expected operator before {t.text!r}", t.pos)
            else:
                return acc

    def constant(self, value: GaussianRational) -> dict:
        if self.m < 0 or self.n < 0:
            raise SeriesError("m, n and budget must be nonnegative")
        return {(0,) * (2 * self.m + self.n): value} if value else {}

    def factor(self) -> dict:
        t = self.peek()
        if t.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > 100:  # three frames a level: far deeper exhausts Python's recursion limit
                raise SeriesParseError("parentheses nested too deeply", t.pos)
            inner = self.series()
            self.depth -= 1
            closing = self.take()
            if closing.kind != ")":
                raise SeriesParseError("expected ')'", closing.pos)
            return inner
        if t.kind == "int":
            num = self.number()
            if self.peek().kind == "name" and self.peek().text == "i":
                self.take()
                return self.constant(GaussianRational(0, num))
            return self.constant(GaussianRational(num))
        if t.kind == "name":
            if t.text == "i":
                self.take()
                return self.constant(I)
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

    def variable(self) -> dict:
        t = self.take()
        name = t.text
        m, n = self.m, self.n
        for kind, first, limit in (("zb", m, m), ("z", 0, m), ("x", 2 * m, n)):
            if name.startswith(kind) and name[len(kind) :].isdigit():
                index = int(name[len(kind) :])
                if m < 0 or n < 0 or not 1 <= index <= limit:
                    raise SeriesParseError(f"unknown variable {name!r}", t.pos)
                break
        else:
            raise SeriesParseError(f"unknown variable {name!r}", t.pos)
        power = 1
        if self.peek().kind == "^":
            self.take()
            e = self.take()
            if e.kind != "int":
                raise SeriesParseError("expected integer exponent", e.pos)
            # one monomial, so parse() rejects a huge exponent with no multiplication
            power = int(e.text)
        flat = [0] * (2 * m + n)
        flat[first + index - 1] = power
        return {tuple(flat): ONE}


def parse_series(text: str, m: int, n: int, budget: int) -> Series:
    """Parse the series text grammar; raises SeriesParseError with a position."""
    terms = _Parser(text, m, n, budget).parse()
    check_budget(budget)  # parse() checked every term against it; a zero series has none
    return _raw_series(m, n, budget, {pack_flat(flat): c for flat, c in terms.items()})
