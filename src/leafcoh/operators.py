"""Leafwise Cauchy-Riemann operators, their twisted variants, and pullbacks.

The twisted antiholomorphic operator on a (p,q)-form phi is

    dbar_f(phi) = f * dbar(phi) - (p+q) * dbar(f) ^ phi

and mirrors to partial_f; the generalised variant replaces the weight p+q by
p+q-k.  All of these square to zero exactly on polynomial coefficients; each
application enlarges the coefficient budget by max(deg f - 1, 0), which the
returned form records explicitly.

Morphisms between models substitute leafwise-holomorphic components for z,
transverse components for x, and map generators through the leafwise Jacobian
(dx-components of the ambient pullback do not exist in this calculus).
"""

from __future__ import annotations

from .algebra import ONE, Series, SeriesError, _accumulated_terms, _mul_into, _raw_series
from .forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    _accumulated_form,
    _raw_form,
    insert_index,
    merge_indices,
    rescale_power,
    twist_gap,
)


def dbar(phi: FoliatedForm) -> FoliatedForm:
    """Antiholomorphic leafwise exterior derivative: (p,q) -> (p,q+1).

    The fresh dzb^a is written in front and merged into place, so moving it
    past the p dz-generators contributes (-1)^p.
    """
    model = phi.model
    acc: dict = {}
    for (A, B), c in phi.coeffs.items():
        front = -1 if phi.p % 2 else 1
        for a in range(1, model.m + 1):
            s, B2 = insert_index(a, B)
            if s == 0:
                continue
            dc = c.deriv("zb", a)
            if dc.is_zero:
                continue
            _accumulate(acc, (A, B2), dc if front * s > 0 else -dc)
    return _raw_form(model, phi.p, phi.q + 1, acc, phi.budget)


def partial(phi: FoliatedForm) -> FoliatedForm:
    """Holomorphic leafwise exterior derivative: (p,q) -> (p+1,q)."""
    model = phi.model
    acc: dict = {}
    for (A, B), c in phi.coeffs.items():
        for a in range(1, model.m + 1):
            s, A2 = insert_index(a, A)
            if s == 0:
                continue
            dc = c.deriv("z", a)
            if dc.is_zero:
                continue
            _accumulate(acc, (A2, B), dc if s > 0 else -dc)
    return _raw_form(model, phi.p + 1, phi.q, acc, phi.budget)


def _accumulate(acc: dict, key, series: Series):
    prev = acc.get(key)
    series = series if prev is None else prev + series
    if series.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = series


def _twisted(phi: FoliatedForm, f: Series, weight: int, raw) -> FoliatedForm:
    """f * raw(phi) - weight * raw(f) ^ phi, in one pass; raw is dbar or partial.

    Both products are formed exactly into one integer accumulator per (A, B)
    (``algebra._mul_into``), with the wedge sign (-1)^p sgn(a, B) for dbar
    and sgn(a, A) for partial, and the result is wrapped once.  f is checked
    against phi's model at every weight.  Every output term must fit the
    budget phi.budget + twist_gap(f); a term above it means the gap is
    wrong, and raises SeriesError.
    """
    model = phi.model
    if f.m != model.m or f.n != model.n:
        raise FormError("coefficient series does not match the model")
    budget = phi.budget + twist_gap(f)
    dphi = raw(phi)
    acc: dict = {}
    top = 0  # a bound on the degree of every term formed
    for key, c in dphi.coeffs.items():
        top = max(top, _mul_into(acc.setdefault(key, {}), c, f, c.budget + f.budget))
    if weight:
        df = raw(_raw_form(model, 0, 0, {((), ()): f}, f.budget))
        front = -weight if phi.p * df.q % 2 else weight
        for (A1, B1), g in df.coeffs.items():
            for (A, B), c in phi.coeffs.items():
                sa, A2 = merge_indices(A1, A)
                if sa == 0:
                    continue
                sb, B2 = merge_indices(B1, B)
                if sb == 0:
                    continue
                k = -front * sa * sb
                bound = _mul_into(acc.setdefault((A2, B2), {}), g, c, g.budget + c.budget, k)
                top = max(top, bound)
    out = _accumulated_form(model, dphi.p, dphi.q, acc, budget)
    if top > budget:
        for s in out.coeffs.values():
            if s.degree > budget:
                raise SeriesError(f"term of degree {s.degree} exceeds budget {budget}")
    return out


def dbar_f(phi: FoliatedForm, f: Series | None = None) -> FoliatedForm:
    """Twisted antiholomorphic operator; f defaults to the model twist."""
    f = phi.model.f if f is None else f
    return _twisted(phi, f, phi.deg, dbar)


def partial_f(phi: FoliatedForm, f: Series | None = None) -> FoliatedForm:
    """Twisted holomorphic operator; f defaults to the model twist."""
    f = phi.model.f if f is None else f
    return _twisted(phi, f, phi.deg, partial)


def dbar_f_k(phi: FoliatedForm, k: int, f: Series | None = None) -> FoliatedForm:
    """Generalised twisted operator with weight p + q - k."""
    f = phi.model.f if f is None else f
    return _twisted(phi, f, phi.deg - k, dbar)


# ---------------------------------------------------------------------------
# Morphisms of foliation models
# ---------------------------------------------------------------------------


class MorphismError(ValueError):
    pass


class FoliatedMorphism:
    """A polynomial map of models, leafwise holomorphic, foliation preserving.

    z-components are Series over the source with no zb-dependence (they may
    depend on x); x-components depend on x only.  ``pulled_twist`` is
    mu*(f'), the target twist pulled back exactly, computed once here for
    the cone differential, the pair constraint and the suites.
    """

    __slots__ = ("source", "target", "z_components", "x_components", "degree", "pulled_twist")

    def __init__(self, source: FoliationModel, target: FoliationModel, z_components, x_components):
        if len(z_components) != target.m:
            raise MorphismError(f"expected {target.m} z-components, got {len(z_components)}")
        if len(x_components) != target.n:
            raise MorphismError(f"expected {target.n} x-components, got {len(x_components)}")
        for comp in z_components:
            if comp.m != source.m or comp.n != source.n:
                raise MorphismError("z-component does not live on the source model")
            if any(sum(beta) for (_, beta, _) in comp.terms):
                raise MorphismError("z-component must be holomorphic in z (no zb)")
        for comp in x_components:
            if comp.m != source.m or comp.n != source.n:
                raise MorphismError("x-component does not live on the source model")
            if any(sum(alpha) + sum(beta) for (alpha, beta, _) in comp.terms):
                raise MorphismError("x-component may depend on x only")
        self.source = source
        self.target = target
        self.z_components = tuple(z_components)
        self.x_components = tuple(x_components)
        # the largest component degree (0 without components)
        self.degree = max((c.degree for c in self.z_components + self.x_components), default=0)
        self.pulled_twist = self.pull_series(target.f)

    def with_source_twist(self, f: Series) -> "FoliatedMorphism":
        """The same map from the source model twisted by f.

        The components, their degree and mu*(f') do not depend on the source
        twist, so they carry over without being checked or pulled back again.
        """
        mu = object.__new__(FoliatedMorphism)
        mu.source = self.source.with_twist(f)
        mu.target = self.target
        mu.z_components = self.z_components
        mu.x_components = self.x_components
        mu.degree = self.degree
        mu.pulled_twist = self.pulled_twist
        return mu

    @classmethod
    def identity(cls, model: FoliationModel):
        zc = [Series.variable(model.m, model.n, "z", a) for a in range(1, model.m + 1)]
        xc = [Series.variable(model.m, model.n, "x", j) for j in range(1, model.n + 1)]
        return cls(model, model, zc, xc)

    def substitution_budget(self, coeff_budget: int, p: int, q: int) -> int:
        """Degree bound for the pullback of a (p,q)-form with given budget."""
        d = self.degree
        return coeff_budget * d + (p + q) * max(d - 1, 0)

    def pull_series(self, s: Series, out_budget: int | None = None) -> Series:
        """Compose a target-side function with the morphism (exact by default).

        Each power of a component (zb-components are the conjugated
        z-components) is computed at most once per call, truncated at
        out_budget; all degrees are >= 0, so truncating the factors equals
        truncating the product.  The substituted terms go into one integer
        accumulator.
        """
        if s.m != self.target.m or s.n != self.target.n:
            raise MorphismError("series does not live on the target model")
        m, n = self.source.m, self.source.n
        if out_budget is None:
            out_budget = s.budget * max(self.degree, 1) if self.degree else 0
        powers: dict = {}  # (slot, index) -> [1, c, c^2, ...] truncated at out_budget

        def power(slot: int, i: int, e: int) -> Series:
            pw = powers.get((slot, i))
            if pw is None:
                comp = self.x_components[i] if slot == 2 else self.z_components[i]
                comp = comp.conj() if slot == 1 else comp
                pw = powers[(slot, i)] = [None, comp.truncated(out_budget)]
            while len(pw) <= e:
                pw.append(pw[-1].mul(pw[1], out_budget=out_budget))
            return pw[e]

        origin = ((0,) * m, (0,) * m, (0,) * n)
        one = _raw_series(m, n, 0, {origin: ONE})
        acc: dict = {}
        for key, coeff in s.terms.items():
            term = one
            for slot, exps in enumerate(key):
                for i, e in enumerate(exps):
                    if e:
                        pw = power(slot, i, e)
                        term = pw if term is one else term.mul(pw, out_budget=out_budget)
            _mul_into(acc, term, _raw_series(m, n, 0, {origin: coeff}), out_budget)
        return _raw_series(m, n, out_budget, _accumulated_terms(acc))

    def generator_image(self, a: int, anti: bool) -> FoliatedForm:
        """Leafwise image of dz'^a (anti=False) or dzb'^a (anti=True)."""
        m = self.source.m
        comp = self.z_components[a - 1]
        coeffs = {}
        # every component has degree <= self.degree, so each derivative fits the budget
        budget = max(self.degree - 1, 0)
        for b in range(1, m + 1):
            dz = comp.deriv("z", b)
            if dz.is_zero:
                continue
            dz = _raw_series(m, self.source.n, budget, dz.terms)
            if anti:
                coeffs[((), (b,))] = dz.conj()
            else:
                coeffs[((b,), ())] = dz
        if anti:
            return _raw_form(self.source, 0, 1, coeffs, budget)
        return _raw_form(self.source, 1, 0, coeffs, budget)

    def __repr__(self):
        zs = ", ".join(str(c) for c in self.z_components)
        xs = ", ".join(str(c) for c in self.x_components)
        return f"FoliatedMorphism(z' = [{zs}]; x' = [{xs}])"


def pullback(mu: FoliatedMorphism, phi: FoliatedForm, out_budget: int | None = None) -> FoliatedForm:
    """Pull a target-side (p,q)-form back along mu.

    Coefficients are composed with mu and generators map through the leafwise
    Jacobian, dz'^a -> sum_b d(z'_a)/dz^b dz^b and its conjugate for dzb'^a.
    Substitution beyond out_budget is truncated silently (identities are
    stated up to budget).

    Each generator image is built once per call.  A coefficient c on dz'^A ^
    dzb'^B contributes mu*(c) times the wedge of the images of A and B, added
    into one integer accumulator per (A, B) of the result; all degrees are
    >= 0, so truncating the factors equals truncating the product.
    """
    if phi.model.m != mu.target.m or phi.model.n != mu.target.n:
        raise MorphismError("form does not live on the target model")
    exact = mu.substitution_budget(phi.budget, phi.p, phi.q)
    budget = exact if out_budget is None else out_budget
    source = mu.source
    if phi.p > source.m or phi.q > source.m:
        return FoliatedForm.zero(source, phi.p, phi.q, budget)
    unit = _raw_form(source, 0, 0, {((), ()): Series.one(source.m, source.n)}, 0)
    images: dict = {}  # (index, anti) -> generator_image
    acc: dict = {}
    for (A, B), c in phi.coeffs.items():
        pulled = mu.pull_series(c, out_budget=budget)
        image = unit
        for gens, anti in ((A, False), (B, True)):
            for a in gens:
                g = images.get((a, anti))
                if g is None:
                    g = images[(a, anti)] = mu.generator_image(a, anti)
                image = g if image is unit else image.wedge(g, out_budget=budget)
        for key, s in image.coeffs.items():
            _mul_into(acc.setdefault(key, {}), pulled, s, budget)
    return _accumulated_form(source, phi.p, phi.q, acc, budget)


class MorphismPair:
    """A morphism together with a unit alpha satisfying mu*(f') = alpha * f.

    The compatibility is checked exactly at construction; f is the source
    model twist and f' the target model twist.
    """

    __slots__ = ("phi", "alpha")

    def __init__(self, phi: FoliatedMorphism, alpha: Series):
        if alpha.m != phi.source.m or alpha.n != phi.source.n:
            raise MorphismError("alpha must live on the source model")
        if not alpha.is_unit:
            raise MorphismError("alpha vanishes: not a valid pair")
        pulled = phi.pulled_twist
        expected = alpha.mul(phi.source.f)
        if pulled != expected:
            raise MorphismError(
                "pair constraint violated: mu*(f') != alpha * f "
                f"({pulled} vs {expected})"
            )
        self.phi = phi
        self.alpha = alpha


def pair_pullback(pair: MorphismPair, phi: FoliatedForm, out_budget: int | None = None) -> FoliatedForm:
    """Pull back along the pair: mu*(phi) / alpha^(p+q), truncated at budget.

    This is a cochain map from (target, dbar_{f'}) to (source, dbar_f).
    """
    return rescale_power(pullback(pair.phi, phi, out_budget=out_budget), pair.alpha, out_budget)


def tilde_dbar(
    phi: FoliatedForm, psi: FoliatedForm, mu: FoliatedMorphism
) -> tuple[FoliatedForm, FoliatedForm]:
    """Mapping-cone differential: (phi, psi) -> (dbar_{f'} phi, mu* phi - dbar_{mu* f'} psi).

    f' is the twist of mu's target.  phi lives on the target at (p,q), psi on
    the source at (p,q-1); the result pair sits at ((p,q+1), (p,q)).
    Applying it twice gives (0,0) exactly.
    """
    if not phi.is_zero and not psi.is_zero:
        if (psi.p, psi.q) != (phi.p, phi.q - 1):
            raise FormError(
                f"cone pair bidegrees must be (p,q) and (p,q-1); "
                f"got ({phi.p},{phi.q}) and ({psi.p},{psi.q})"
            )
    fp = mu.target.f
    first = dbar_f(phi, fp)
    second = pullback(mu, phi) - dbar_f(psi, mu.pulled_twist)
    return first, second
