"""Foliated (p,q)-forms over a polynomial foliation model.

A scene is a FoliationModel: m leafwise complex variables, n transverse real
variables, a base degree budget D and a twist function f.  A FoliatedForm of
bidegree (p,q) stores, for each pair of strictly increasing index tuples
(A, B) with |A| = p and |B| = q, a Series coefficient; it represents

    sum_{A,B}  c_{A,B}(z, zb, x) dz^A ^ dzb^B.

Only increasing tuples are stored: the constructor rejects any other
arrangement of generators (``FormError``), and the wedge product and the
operators merge index tuples with the sign of the sorting permutation
(``merge_indices``, ``insert_index``).

The public FoliatedForm constructor validates every (A, B) key and every
coefficient; results of form arithmetic and of the operators are built by
``_raw_form``, which trusts both (see the algebra module on immutability).
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .algebra import (
    ONE,
    Series,
    SeriesError,
    _accumulated_terms,
    _mul_terms,
    _raw_series,
    _terms,
    check_budget,
    degree_shift,
    pack,
    pack_flat,
    unpack,
)

MultiIndex = tuple  # strictly increasing tuple of 1-based variable indices


def twist_gap(f: Series) -> int:
    """Budget growth of one application of an operator twisted by f: max(deg f - 1, 0)."""
    return max(f.degree - 1, 0)


class FormError(ValueError):
    pass


class FoliationModel:
    """Dimensions (m, n), base degree budget and the twist function f."""

    __slots__ = ("m", "n", "budget", "f")

    def __init__(self, m: int, n: int, budget: int, f: Series):
        if m < 1:
            raise FormError("need at least one leafwise variable")
        if n < 0 or budget < 0:
            raise FormError("n and budget must be nonnegative")
        if f.m != m or f.n != n:
            raise FormError("twist function does not match (m, n)")
        self.m = m
        self.n = n
        self.budget = budget
        self.f = f

    @classmethod
    def untwisted(cls, m, n, budget):
        return cls(m, n, budget, Series.one(m, n))

    def with_twist(self, f: Series) -> "FoliationModel":
        return FoliationModel(self.m, self.n, self.budget, f)

    @property
    def twist_gap(self) -> int:
        """Budget growth per twisted-operator application."""
        return twist_gap(self.f)

    def series(self, text: str, budget: int | None = None) -> Series:
        return Series.parse(text, self.m, self.n, self.budget if budget is None else budget)

    def __eq__(self, other):
        if not isinstance(other, FoliationModel):
            return NotImplemented
        return (self.m, self.n, self.budget, self.f) == (
            other.m,
            other.n,
            other.budget,
            other.f,
        )

    def __repr__(self):
        return f"FoliationModel(m={self.m}, n={self.n}, budget={self.budget}, f={self.f})"


def merge_indices(u: MultiIndex, v: MultiIndex):
    """Merge two strictly increasing tuples; return (sign, merged) or (0, None).

    The sign is the parity of the permutation sorting the concatenation u+v;
    a shared index yields (0, None).
    """
    if not u or not v:
        return 1, u or v
    sign = 1
    merged = []
    i = j = 0
    while i < len(u) and j < len(v):
        if u[i] == v[j]:
            return 0, None
        if u[i] < v[j]:
            merged.append(u[i])
            i += 1
        else:
            # v[j] jumps past the remaining entries of u
            if (len(u) - i) % 2 == 1:
                sign = -sign
            merged.append(v[j])
            j += 1
    merged.extend(u[i:])
    merged.extend(v[j:])
    return sign, tuple(merged)


def insert_index(a: int, v: MultiIndex):
    """Merge the single index a into v; (sign, merged) or (0, None).

    a moves past the k entries of v below it, so the sign is (-1)^k.
    """
    k = 0
    for b in v:
        if b >= a:
            if b == a:
                return 0, None
            break
        k += 1
    return -1 if k % 2 else 1, v[:k] + (a,) + v[k:]


class FoliatedForm:
    """A (p,q)-form with Series coefficients on increasing (A, B) pairs.

    The form carries an explicit coefficient budget; twisted operators enlarge
    it, and truncation only happens where an out_budget is requested.  Every
    stored coefficient is nonzero and carries the form's budget.
    """

    __slots__ = ("model", "p", "q", "budget", "coeffs")

    def __init__(self, model: FoliationModel, p: int, q: int, coeffs=None, budget=None):
        if p < 0 or q < 0:
            raise FormError("negative bidegree")
        self.model = model
        self.p = p
        self.q = q
        self.budget = check_budget(model.budget if budget is None else budget)
        clean = {}
        out_of_range = p > model.m or q > model.m
        for (A, B), series in (coeffs or {}).items():
            A = tuple(A)
            B = tuple(B)
            if out_of_range:
                raise FormError("nonzero coefficients beyond top degree")
            _check_multi_index(A, p, model.m)
            _check_multi_index(B, q, model.m)
            if series.m != model.m or series.n != model.n:
                raise FormError("coefficient series does not match the model")
            if series.is_zero:
                continue
            clean[(A, B)] = series.with_budget(self.budget)
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, model, p, q, budget=None):
        return cls(model, p, q, {}, budget)

    @classmethod
    def from_series(cls, model, series: Series, budget=None):
        b = series.budget if budget is None else budget
        return cls(model, 0, 0, {((), ()): series}, b)

    @classmethod
    def generator(cls, model, A, B, coeff: Series | None = None, budget=None):
        """The form c * dz^A ^ dzb^B (c defaults to 1)."""
        if coeff is None:
            coeff = Series.one(model.m, model.n)
        b = coeff.budget if budget is None else budget
        return cls(model, len(A), len(B), {(tuple(A), tuple(B)): coeff}, b)

    # -- structure -----------------------------------------------------------

    @property
    def deg(self) -> int:
        """Total generator degree p + q (the weight in the twisted operators)."""
        return self.p + self.q

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, A, B) -> Series:
        return self.coeffs.get(
            (tuple(A), tuple(B)), Series.zero(self.model.m, self.model.n, self.budget)
        )

    def with_budget(self, budget: int) -> "FoliatedForm":
        return _raw_form(self.model, self.p, self.q, self.coeffs, budget)

    def truncated(self, out_budget: int) -> "FoliatedForm":
        coeffs = {k: s.truncated(out_budget) for k, s in self.coeffs.items()}
        return _raw_form(self.model, self.p, self.q, coeffs, out_budget)

    # -- linear structure ----------------------------------------------------

    def _same_shape(self, other: "FoliatedForm"):
        if self.model.m != other.model.m or self.model.n != other.model.n:
            raise FormError("model mismatch")
        if not self.is_zero and not other.is_zero and (self.p, self.q) != (other.p, other.q):
            raise FormError(
                f"bidegree mismatch: ({self.p},{self.q}) vs ({other.p},{other.q})"
            )

    def __add__(self, other: "FoliatedForm") -> "FoliatedForm":
        self._same_shape(other)
        if self.is_zero and not other.is_zero:
            return other.with_budget(max(self.budget, other.budget))
        coeffs = dict(self.coeffs)
        for key, series in other.coeffs.items():
            acc = coeffs.get(key)
            acc = series if acc is None else acc + series
            if acc.is_zero:
                coeffs.pop(key, None)
            else:
                coeffs[key] = acc
        return _raw_form(self.model, self.p, self.q, coeffs, max(self.budget, other.budget))

    def __neg__(self):
        return _raw_form(
            self.model, self.p, self.q, {k: -s for k, s in self.coeffs.items()}, self.budget
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FoliatedForm":
        return _raw_form(
            self.model,
            self.p,
            self.q,
            {k: s.scale(c) for k, s in self.coeffs.items()},
            self.budget,
        )

    def mul_series(self, s: Series, out_budget: int | None = None) -> "FoliatedForm":
        """Multiply every coefficient by s (exact unless out_budget is given)."""
        b = self.budget + s.degree if out_budget is None else out_budget
        coeffs = {k: c.mul(s, out_budget=b) for k, c in self.coeffs.items()}
        return _raw_form(self.model, self.p, self.q, coeffs, b)

    # -- wedge product ---------------------------------------------------------

    def wedge(self, other: "FoliatedForm", out_budget: int | None = None) -> "FoliatedForm":
        """self ^ other, exact unless out_budget is given (``_wedge_terms``).

        The out budget bounds every key formed, so it is checked once here.
        """
        if self.model.m != other.model.m or self.model.n != other.model.n:
            raise FormError("model mismatch")
        p, q = self.p + other.p, self.q + other.q
        budget = check_budget(self.budget + other.budget if out_budget is None else out_budget)
        if p > self.model.m or q > self.model.m:
            return FoliatedForm.zero(self.model, p, q, budget)
        # sign: move other's dz block (p2 generators) left past our dzb block (q1 generators)
        sign = -1 if (other.p * self.q) % 2 else 1
        acc: dict = {}
        _wedge_terms(acc, _coefficient_terms(self), _coefficient_terms(other), budget, sign)
        return _accumulated_form(self.model, p, q, acc, budget)

    # -- comparison / io -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FoliatedForm):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return (self.p, self.q) == (other.p, other.q) and self.coeffs == other.coeffs

    def sorted_coeffs(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for (A, B), series in self.sorted_coeffs():
            gens = [f"dz{a}" for a in A] + [f"dzb{b}" for b in B]
            gen = "^".join(gens)
            parts.append(f"({series})" + (" " + gen if gen else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"FoliatedForm(p={self.p}, q={self.q}, budget={self.budget}; {self})"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "budget": self.budget,
            "terms": [
                {"A": list(A), "B": list(B), "coeff": str(series)}
                for (A, B), series in self.sorted_coeffs()
            ],
        }

    @classmethod
    def from_dict(cls, model: FoliationModel, data: dict) -> "FoliatedForm":
        budget = data.get("budget", model.budget)
        coeffs = {}
        for term in data.get("terms", []):
            A = tuple(term["A"])
            B = tuple(term["B"])
            series = Series.parse(term["coeff"], model.m, model.n, budget)
            prev = coeffs.get((A, B))
            coeffs[(A, B)] = series if prev is None else prev + series
        return cls(model, data["p"], data["q"], coeffs, budget)


def _raw_form(model: FoliationModel, p: int, q: int, coeffs: dict, budget: int) -> FoliatedForm:
    """A FoliatedForm over coefficients that are valid already.

    The caller guarantees what the constructor would check: keys are pairs of
    strictly increasing tuples of lengths p and q within 1..m (none at all
    beyond top degree) and every series lives on the model.  Zero
    coefficients are still dropped, and a coefficient is re-budgeted only
    when its budget differs from the form's; a lower budget re-checks its
    terms.
    """
    phi = object.__new__(FoliatedForm)
    phi.model = model
    phi.p = p
    phi.q = q
    phi.budget = budget
    phi.coeffs = {
        key: s if s.budget == budget else s.with_budget(budget)
        for key, s in coeffs.items()
        if s.packed
    }
    return phi


def _accumulated_form(model: FoliationModel, p: int, q: int, acc: dict, budget: int) -> FoliatedForm:
    """The form at ``budget`` of a map (A, B) -> ``algebra._mul_terms`` accumulator.

    The caller guarantees, or checks right after, that every term fits the
    budget; blocks that sum to zero are dropped.
    """
    m, n = model.m, model.n
    phi = object.__new__(FoliatedForm)
    phi.model, phi.p, phi.q, phi.budget, phi.coeffs = model, p, q, budget, {}
    for key, t in acc.items():
        terms = _accumulated_terms(t)
        if terms:
            phi.coeffs[key] = _raw_series(m, n, budget, terms)
    return phi


def _coefficient_terms(phi: FoliatedForm) -> list:
    """(A, B, ``algebra._terms`` of the coefficient) for each coefficient of phi."""
    return [(A, B, _terms(c)) for (A, B), c in phi.coeffs.items()]


def _wedge_terms(acc: dict, left: list, right: list, out_budget: int, k: int):
    """Add k times the wedge of two ``_coefficient_terms`` lists into ``acc``,
    a map (A, B) -> ``algebra._mul_terms`` accumulator.

    Each pair merges its A tuples and its B tuples (``merge_indices``), and
    a shared index drops it; products of degree > out_budget are skipped.
    k carries the sign of moving the right dz block past the left dzb block.
    """
    for A1, B1, s in left:
        for A2, B2, t in right:
            sa, A = merge_indices(A1, A2)
            if sa == 0:
                continue
            sb, B = merge_indices(B1, B2)
            if sb == 0:
                continue
            _mul_terms(acc.setdefault((A, B), {}), s, t, out_budget, k * sa * sb)


def _check_multi_index(t: MultiIndex, length: int, m: int):
    if len(t) != length:
        raise FormError(f"multi-index {t} has length {len(t)}, expected {length}")
    for i, a in enumerate(t):
        if not 1 <= a <= m:
            raise FormError(f"index {a} out of range 1..{m}")
        if i and t[i - 1] >= a:
            raise FormError(f"multi-index {t} is not strictly increasing")


# ---------------------------------------------------------------------------
# Rescaling and bases
# ---------------------------------------------------------------------------


def rescale_power(phi: FoliatedForm, h: Series, out_budget: int | None = None) -> FoliatedForm:
    """Divide phi by h^(p+q), truncating at out_budget (default: phi.budget).

    Realises the comparison map between the twists f*h and f; h must be a
    unit.  Each coefficient is divided by h p+q times (``Series.divide``),
    so neither 1/h nor a power of h is built.  Degree-(0,0) forms are
    returned unchanged.
    """
    if not h.is_unit:
        raise SeriesError("rescaling requires a non-vanishing (unit) function")
    w = phi.deg
    if w == 0:
        return phi
    b = check_budget(phi.budget if out_budget is None else out_budget)
    coeffs = {}
    for key, c in phi.coeffs.items():
        for _ in range(w):
            c = c.divide(h, b)
        coeffs[key] = c
    return _raw_form(phi.model, phi.p, phi.q, coeffs, b)


def count_monomials(m: int, n: int, budget: int) -> int:
    """Monomials of total degree <= budget in 2m + n variables."""
    if budget < 0:
        return 0
    v = 2 * m + n
    return math.comb(budget + v, v)


def basis_dimension(model: FoliationModel, p: int, q: int, budget: int) -> int:
    if p < 0 or q < 0 or p > model.m or q > model.m or budget < 0:
        return 0
    return (
        math.comb(model.m, p)
        * math.comb(model.m, q)
        * count_monomials(model.m, model.n, budget)
    )


def inclusion_positions(model: FoliationModel, p: int, q: int, small: int, big: int) -> list:
    """Positions of the budget-``small`` (p,q) basis inside the budget-``big`` one."""
    # A basis runs through its (A, B) pairs, each with all N(budget) monomials,
    # and a lower budget's monomials are a prefix of a higher one's: (A, B, e)
    # sits at pair rank * N(budget) + monomial rank.
    n_small, n_big = count_monomials(model.m, model.n, small), count_monomials(model.m, model.n, big)
    return [r * n_big + u for r in range(basis_dimension(model, p, q, 0)) for u in range(n_small)]


def enumerate_basis(model: FoliationModel, p: int, q: int, budget: int | None = None) -> tuple:
    """Ordered basis of the (p,q) space at the given budget, built afresh from the tables.

    Elements are (A, B, expo) triples ordered lexicographically by (A, B) and
    graded-lexicographically on the monomial; the ordering is the contract all
    matrix assembly relies on: (A, B, e) sits at pair rank * N + monomial rank.
    The exponent triples are unpacked from the monomial table for this call.
    """
    m, n, b = model.m, model.n, model.budget if budget is None else budget
    monos = [unpack(m, n, key) for key in monomial_table(m, n, b)[0][: count_monomials(m, n, b)]]
    return tuple((A, B, e) for A, B in pair_table(m, p, q) for e in monos)


_MONOMIALS: dict = {}  # (m, n) -> (keys, ranks), see monomial_table
_PAIRS: dict = {}  # (m, p, q) -> pair_table(m, p, q)


def monomial_table(m: int, n: int, budget: int) -> tuple:
    """(keys, ranks) shared by every basis over (m, n).

    ``keys`` lists the packed monomials (``algebra.pack``) in graded-lex
    order, which is ascending int order, through at least degree
    ``budget``, so the budget-b monomials are its prefix of length
    count_monomials(m, n, b); ``ranks`` maps each key to its place in the
    list.  The table grows, one degree at a time, to the largest budget
    asked for.
    """
    keys, ranks = table = _MONOMIALS.setdefault((m, n), ([], {}))
    v = 2 * m + n
    while len(keys) < count_monomials(m, n, budget):
        top = (keys[-1] >> degree_shift(m, n)) + 1 if keys else 0
        # a composition of top into v parts is v - 1 bars among top + v - 1
        # places, and ascending bar tuples give the compositions in lex order
        for bars in combinations(range(top + v - 1), v - 1):
            key = pack_flat(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (top + v - 1,))))
            ranks[key] = len(keys)
            keys.append(key)
    return table


def pair_table(m: int, p: int, q: int) -> tuple:
    """The (A, B) pairs of the (p,q) bases over m leaf variables, lexicographic (empty out of range)."""
    pairs = _PAIRS.get((m, p, q))
    if pairs is None:
        pairs = () if min(p, q) < 0 else tuple(product(combinations(range(1, m + 1), p), combinations(range(1, m + 1), q)))
        _PAIRS[(m, p, q)] = pairs
    return pairs


def _basis_keys(model: FoliationModel, p: int, q: int, budget: int) -> list:
    """(A, B, packed monomial key) of each element of the (p,q) basis at budget, in basis order."""
    keys = monomial_table(model.m, model.n, budget)[0][: count_monomials(model.m, model.n, budget)]
    return [(A, B, key) for A, B in pair_table(model.m, p, q) for key in keys]


def basis_form(model: FoliationModel, element, budget: int) -> FoliatedForm:
    """The FoliatedForm of one element of the budget-``budget`` basis."""
    A, B, expo = element
    series = _raw_series(model.m, model.n, check_budget(budget), {pack(expo): ONE})
    return _raw_form(model, len(A), len(B), {(A, B): series}, budget)
