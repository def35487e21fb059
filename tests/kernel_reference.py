"""Reference kernels for the twisted operators, the series product, the wedge and the pullback.

These are the form-level composition of the twisted operators over
``dbar``/``partial`` built from ``Series.deriv`` and form sums, the product
of GaussianRational pairs on exponent triples, a wedge that sorts each
generator word by counting inversions, the generator images through
``Series.deriv`` and the term-by-term substitution and generator wedging of
the pullback.  They stand beside ``operators._twisted`` (one kernel for
dbar, partial and the twisted operators, with its fused derivative),
``Series.mul``, ``FoliatedForm.wedge``, ``FoliatedMorphism.generator_image``
(partial of a component through that kernel) and ``block_image``,
``FoliatedMorphism.pull_series`` (with its cached monomial images) and
``operators.pullback``.  The differential tests compare the kernels with
them on seeded sweeps: same values, same budgets.
"""

from __future__ import annotations

from operator import add

from leafcoh.algebra import ZERO, Series, SeriesError, expo_degree
from leafcoh.forms import FoliatedForm, FormError, _raw_form, insert_index, twist_gap
from leafcoh.operators import FoliatedMorphism


def series_mul(s: Series, t: Series, out_budget: int | None = None) -> Series:
    """s * t, discarding terms of total degree > out_budget, one scalar product per pair."""
    s._same_space(t)
    if out_budget is None:
        out_budget = s.budget + t.budget
    elif out_budget < 0:
        raise SeriesError("m, n and budget must be nonnegative")
    right = [(key, expo_degree(key), c) for key, c in t.terms.items()]
    acc: dict = {}
    for (a1, b1, g1), c1 in s.terms.items():
        room = out_budget - sum(a1) - sum(b1) - sum(g1)
        for (a2, b2, g2), d2, c2 in right:
            if d2 > room:
                continue
            key = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)), tuple(map(add, g1, g2)))
            v = acc.get(key, ZERO) + c1 * c2
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return Series(s.m, s.n, out_budget, acc)


def _derivative(phi: FoliatedForm, kind: str) -> FoliatedForm:
    """dbar (kind "zb") or partial (kind "z"): each coefficient differentiated by
    Series.deriv, the fresh generator merged into place with its sign, and the
    pieces of each (A, B) summed."""
    anti = kind == "zb"
    front = -1 if anti and phi.p % 2 else 1
    coeffs = {}
    for (A, B), c in phi.coeffs.items():
        for a in range(1, phi.model.m + 1):
            s, merged = insert_index(a, B if anti else A)
            if s == 0:
                continue
            key = (A, merged) if anti else (merged, B)
            piece = c.deriv(kind, a).scale(front * s)
            coeffs[key] = coeffs[key] + piece if key in coeffs else piece
    p, q = (phi.p, phi.q + 1) if anti else (phi.p + 1, phi.q)
    return FoliatedForm(phi.model, p, q, coeffs, phi.budget)


def dbar(phi: FoliatedForm) -> FoliatedForm:
    return _derivative(phi, "zb")


def partial(phi: FoliatedForm) -> FoliatedForm:
    return _derivative(phi, "z")


def twisted(phi: FoliatedForm, f: Series, weight: int, raw) -> FoliatedForm:
    """f * raw(phi) - weight * raw(f) ^ phi through the form arithmetic.

    f * raw(phi) is truncated at phi.budget + twist_gap(f), and lowering the
    sum to that budget re-checks the terms; f is checked against phi's model
    only when the weight is nonzero.
    """
    out_budget = phi.budget + twist_gap(f)
    first = raw(phi).mul_series(f, out_budget=out_budget)
    if weight == 0:
        return first.with_budget(out_budget)
    model = phi.model
    if f.m != model.m or f.n != model.n:
        raise FormError("coefficient series does not match the model")
    df = raw(_raw_form(model, 0, 0, {((), ()): f}, f.budget))
    second = wedge(df, phi).scale(weight)
    return (first - second).with_budget(out_budget)


def dbar_f(phi, f=None):
    f = phi.model.f if f is None else f
    return twisted(phi, f, phi.deg, dbar)


def partial_f(phi, f=None):
    f = phi.model.f if f is None else f
    return twisted(phi, f, phi.deg, partial)


def dbar_f_k(phi, k, f=None):
    f = phi.model.f if f is None else f
    return twisted(phi, f, phi.deg - k, dbar)


def pull_series(mu: FoliatedMorphism, s: Series, out_budget: int | None = None) -> Series:
    """Each term of s substituted factor by factor, truncating after every product."""
    m, n = mu.source.m, mu.source.n
    if out_budget is None:
        out_budget = s.budget * max(mu.degree, 1) if mu.degree else 0
    zbar_components = [c.conj() for c in mu.z_components]
    acc = Series.zero(m, n, out_budget)
    for (alpha, beta, gamma), coeff in s.terms.items():
        term = Series.constant(m, n, coeff)
        for base, exps in ((mu.z_components, alpha), (zbar_components, beta), (mu.x_components, gamma)):
            for comp, e in zip(base, exps):
                for _ in range(e):
                    term = series_mul(term, comp, out_budget)
        acc = acc + term
    return acc.with_budget(out_budget)


def wedge(phi: FoliatedForm, psi: FoliatedForm, out_budget: int | None = None) -> FoliatedForm:
    """phi ^ psi on series_mul: each pair of coefficients writes its generators
    as one word of (kind, index) letters, dz before dzb, and sorts it with the
    parity of its inversions; a repeated letter drops the pair."""
    budget = phi.budget + psi.budget if out_budget is None else out_budget
    coeffs = {}
    for (A1, B1), c1 in phi.coeffs.items():
        for (A2, B2), c2 in psi.coeffs.items():
            word = [(0, a) for a in A1] + [(1, b) for b in B1] + [(0, a) for a in A2] + [(1, b) for b in B2]
            if len(set(word)) < len(word):
                continue
            inversions = sum(x > y for i, x in enumerate(word) for y in word[i + 1 :])
            ordered = sorted(word)
            key = (tuple(i for k, i in ordered if k == 0), tuple(i for k, i in ordered if k == 1))
            piece = series_mul(c1, c2, budget).scale(-1 if inversions % 2 else 1)
            coeffs[key] = coeffs[key] + piece if key in coeffs else piece
    return FoliatedForm(phi.model, phi.p + psi.p, phi.q + psi.q, coeffs, budget)


def generator_image(mu: FoliatedMorphism, a: int, anti: bool) -> FoliatedForm:
    """dz'^a (or dzb'^a) pulled back: Series.deriv of the component by each z^b,
    conjugated for anti."""
    m = mu.source.m
    coeffs = {}
    for b in range(1, m + 1):
        dz = mu.z_components[a - 1].deriv("z", b)
        if dz.is_zero:
            continue
        if anti:
            coeffs[((), (b,))] = dz.conj()
        else:
            coeffs[((b,), ())] = dz
    budget = max(mu.degree - 1, 0)
    return FoliatedForm(mu.source, 0 if anti else 1, 1 if anti else 0, coeffs, budget)


def block_image(mu: FoliatedMorphism, A, B, out_budget: int) -> dict:
    """Coefficients of the images of dz'^A and then dzb'^B wedged one at a
    time, each wedge truncated at out_budget; the empty wedge is the function 1."""
    gens = [(a, False) for a in A] + [(b, True) for b in B]
    if not gens:
        return {((), ()): Series.one(mu.source.m, mu.source.n)}
    image = generator_image(mu, *gens[0])
    for a, anti in gens[1:]:
        image = wedge(image, generator_image(mu, a, anti), out_budget)
    return image.coeffs


def pullback(mu: FoliatedMorphism, phi: FoliatedForm, out_budget: int | None = None) -> FoliatedForm:
    """Each coefficient pulled back, then wedged with one generator image at a time."""
    exact = mu.substitution_budget(phi.budget, phi.p, phi.q)
    budget = exact if out_budget is None else out_budget
    result = FoliatedForm.zero(mu.source, phi.p, phi.q, budget)
    if phi.p > mu.source.m or phi.q > mu.source.m:
        return result
    for (A, B), c in phi.coeffs.items():
        piece = FoliatedForm.from_series(mu.source, pull_series(mu, c, out_budget=budget))
        for a in A:
            piece = wedge(piece, generator_image(mu, a, anti=False), budget)
            if piece.is_zero:
                break
        else:
            for b in B:
                piece = wedge(piece, generator_image(mu, b, anti=True), budget)
                if piece.is_zero:
                    break
        if not piece.is_zero:
            result = result + piece
    return result.with_budget(budget)
