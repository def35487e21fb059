"""Seeded random generators for forms, series and morphisms.

All randomness in the package flows through ``random.Random(seed)`` (the
stdlib Mersenne Twister), so identical seeds give byte-identical reports on
every platform.  Coefficients are small Gaussian rationals; shapes stay at
desk scale.
"""

from __future__ import annotations

import random

from .algebra import GaussianRational, Series, _normal, _raw_series, check_budget, variable_field
from .forms import FoliatedForm, FoliationModel, _raw_form, pair_table
from .operators import FoliatedMorphism


def random_scalar(rng: random.Random, with_imag: bool = True) -> GaussianRational:
    """(a/d) + (b/e)i with a in [-3, 3], d in [1, 3] and, with probability
    0.4 when with_imag, b in [-2, 2], e in [1, 2]; built as (ae + bdi)/(de)."""
    a, d = rng.randint(-3, 3), rng.randint(1, 3)
    if with_imag and rng.random() < 0.4:
        b, e = rng.randint(-2, 2), rng.randint(1, 2)
        return _normal(a * e, b * d, d * e)
    return _normal(a, 0, d)


_UNITS: dict = {}  # (m, n, kinds) -> the packed units of the variables of those kinds


def random_monomial(rng: random.Random, m: int, n: int, budget: int, kinds=("z", "zb", "x")) -> int:
    """A packed monomial of degree drawn from 0..budget, one uniform variable of the kinds at a time."""
    units = _UNITS.get((m, n, kinds))
    if units is None:
        first = {"z": 0, "zb": m, "x": 2 * m}
        units = _UNITS[(m, n, kinds)] = [
            variable_field(m, n, first[kind] + i)[1]
            for kind in ("z", "zb", "x")
            if kind in kinds
            for i in range(n if kind == "x" else m)
        ]
    key = 0
    for _ in range(rng.randint(0, budget)):
        if not units:
            break
        key += rng.choice(units)
    return key


def random_series(
    rng: random.Random,
    m: int,
    n: int,
    budget: int,
    max_terms: int = 3,
    unit: bool = False,
    kinds=("z", "zb", "x"),
) -> Series:
    """A sparse random series at a budget >= 0; with unit=True the constant term is nonzero."""
    check_budget(budget)
    terms: dict = {}
    for _ in range(rng.randint(0 if not unit else 1, max_terms)):
        key = random_monomial(rng, m, n, budget, kinds)
        coeff = random_scalar(rng)
        if coeff:
            terms[key] = terms.get(key, GaussianRational(0)) + coeff
    # the keys fit (m, n) and the budget by construction; zero sums drop as in Series(...)
    s = _raw_series(m, n, budget, {key: c for key, c in terms.items() if c})
    if unit and not s.is_unit:
        one = Series.constant(m, n, GaussianRational(rng.randint(1, 3)), budget)
        s = s + one
    return s


def random_unit_series(rng, m, n, budget, max_terms=3):
    return random_series(rng, m, n, budget, max_terms, unit=True)


def random_form(
    rng: random.Random,
    model: FoliationModel,
    p: int,
    q: int,
    budget: int | None = None,
    max_components: int = 2,
) -> FoliatedForm:
    """A random (p,q)-form; out-of-range bidegrees give the zero form."""
    if budget is None:
        budget = model.budget
    if p < 0 or q < 0 or p > model.m or q > model.m:
        return FoliatedForm.zero(model, max(p, 0), max(q, 0), max(budget, 0))
    pairs = pair_table(model.m, p, q)
    coeffs = {}
    for _ in range(rng.randint(1, max_components)):
        key = rng.choice(pairs)
        s = random_series(rng, model.m, model.n, budget, max_terms=2)
        if s.is_zero:
            continue
        prev = coeffs.get(key)
        acc = s if prev is None else prev + s
        if acc.is_zero:
            coeffs.pop(key, None)
        else:
            coeffs[key] = acc
    return _raw_form(model, p, q, coeffs, budget)


def random_bidegree(rng: random.Random, m: int):
    return rng.randint(0, m), rng.randint(0, m)


def random_morphism(
    rng: random.Random,
    source: FoliationModel,
    target: FoliationModel,
    degree: int = 2,
) -> FoliatedMorphism:
    """A random polynomial morphism: z-components holomorphic in z (may touch
    x), x-components in x only."""
    zc = [
        random_series(rng, source.m, source.n, degree, max_terms=2, kinds=("z", "x"))
        for _ in range(target.m)
    ]
    xc = [
        random_series(rng, source.m, source.n, degree, max_terms=2, kinds=("x",))
        for _ in range(target.n)
    ]
    return FoliatedMorphism(source, target, zc, xc)
