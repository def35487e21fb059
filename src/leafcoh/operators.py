"""Leafwise Cauchy-Riemann operators, their twisted variants, and pullbacks.

The twisted antiholomorphic operator on a (p,q)-form phi is

    dbar_f(phi) = f * dbar(phi) - (p+q) * dbar(f) ^ phi

and mirrors to partial_f; the generalised variant replaces the weight p+q by
p+q-k, and dbar and partial are the operators at f = 1, run by the same
kernel.  All of these square to zero exactly on polynomial coefficients; each
application enlarges the coefficient budget by max(deg f - 1, 0), which the
returned form records explicitly.

Morphisms between models substitute leafwise-holomorphic components for z,
transverse components for x, and map generators through the leafwise Jacobian
(dx-components of the ambient pullback do not exist in this calculus).
"""

from __future__ import annotations

from .algebra import (
    MAX_DEGREE,
    Series,
    SeriesError,
    _accumulated_terms,
    _mul_into,
    _mul_terms,
    _raw_series,
    _terms,
    check_budget,
    degree_shift,
    last_variable,
    variable_field,
)
from .forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    _accumulated_form,
    _coefficient_terms,
    _raw_form,
    _wedge_terms,
    insert_index,
    rescale_power,
    twist_gap,
)


def dbar(phi: FoliatedForm) -> FoliatedForm:
    """Antiholomorphic leafwise exterior derivative: (p,q) -> (p,q+1).

    The fresh dzb^a is written in front and merged into place, so moving it
    past the p dz-generators contributes (-1)^p.  It is the twisted kernel
    with f = 1 and weight 0, and keeps phi's budget.
    """
    return _twisted(phi, None, 0, True)


def partial(phi: FoliatedForm) -> FoliatedForm:
    """Holomorphic leafwise exterior derivative: (p,q) -> (p+1,q), the kernel with f = 1."""
    return _twisted(phi, None, 0, False)


_UNIT_TERMS = ((0, 0, 1, 0, 1),)  # algebra._terms of the constant 1, the image of the monomial 1

# (m, n, anti) -> (bit offset, key unit) of zb_a (anti) or z_a, a = 1..m
_FIELDS: dict = {}

# anti -> {id(f): [f, terms of f, deg f, (A, B, terms) blocks of dbar(f)
# (anti) or partial(f), or None until a nonzero weight asks]} for the last
# _TWISTS twists, the oldest dropped first: the suites and the composition
# re-check apply a few twists (f, g, f + g, 0, ...) to many forms in turn.
# The strong reference (Series has no weakref slot) keeps f's id from being
# reused while cached.
_TWISTS = 8
_twists: dict = {True: {}, False: {}}


def _twisted(phi: FoliatedForm, f: Series | None, weight: int, anti: bool) -> FoliatedForm:
    """f * raw(phi) - weight * raw(f) ^ phi, in one pass; raw is dbar (anti) or partial.

    f None is the constant 1 (``_UNIT_TERMS``, degree 0, output budget
    phi.budget), which with weight 0 is dbar or partial itself; it never
    enters the twist cache.  The derivative of each coefficient of phi goes
    term by term, as integer tuples, straight into the product with f, so
    raw(phi) is never built; the weight term is the wedge of raw(f) with
    phi (``forms._wedge_terms``), and both products accumulate into one
    integer map per (A, B) (``algebra._mul_terms``), wrapped once.  The
    wedge sign is (-1)^p sgn(a, B) for dbar and sgn(a, A) for partial.  The
    terms of f and of raw(f) are kept from an earlier call on the same f
    object, for the last ``_TWISTS`` twists per direction; raw(f) runs phi's
    derivative loop (``_derivative_terms``).  f is checked against phi's
    model at every weight.
    Every output term must fit the budget phi.budget + twist_gap(f); a term
    above it means the gap is wrong, and raises SeriesError.
    """
    model = phi.model
    m, n = model.m, model.n
    fields = _FIELDS.get((m, n, anti))
    if fields is None:
        fields = _FIELDS[(m, n, anti)] = [variable_field(m, n, a + m * anti) for a in range(m)]
    if f is None:
        right, deg, budget = _UNIT_TERMS, 0, phi.budget
    else:
        if f.m != m or f.n != n:
            raise FormError("coefficient series does not match the model")
        budget = check_budget(phi.budget + twist_gap(f))
        cache = _twists[anti]
        twist = cache.get(id(f))
        if twist is None:
            if len(cache) == _TWISTS:
                del cache[next(iter(cache))]
            twist = cache[id(f)] = [f, _terms(f), f.degree, None]
        right, deg = twist[1], twist[2]
    # both products have degree at most deg phi - 1 + deg f < room
    room, shift = phi.budget + deg, degree_shift(m, n)
    front = -1 if anti and phi.p % 2 else 1
    p, q = (phi.p, phi.q + 1) if anti else (phi.p + 1, phi.q)
    acc: dict = {}
    for key, left in _derivative_terms(phi.coeffs, fields, shift, front, anti):
        _mul_terms(acc.setdefault(key, {}), left, right, room)
    if weight:
        if twist[3] is None:
            twist[3] = [(A, B, t) for (A, B), t in _derivative_terms({((), ()): f}, fields, shift, 1, anti)]
        # raw(f) is a (0,1)-form (dbar) or a (1,0)-form: phi's p dz-generators
        # move past its dzb with the sign front
        _wedge_terms(acc, twist[3], _coefficient_terms(phi), room, -weight * front)
    out = _accumulated_form(model, p, q, acc, budget)
    if room - 1 > budget:  # only a twist gap that is too short gets here
        for s in out.coeffs.values():
            if s.degree > budget:
                raise SeriesError(f"term of degree {s.degree} exceeds budget {budget}")
    return out


def _derivative_terms(coeffs: dict, fields: list, shift: int, front: int, anti: bool):
    """Yield ((A, B), terms) per nonzero block of raw(form) on ``coeffs``: the z_a (zb_a
    when anti) derivative of a coefficient, times front * sgn(a, B or A), as unreduced
    ``algebra._terms`` at its pair with a merged in; ``fields``: (bit offset, key unit)."""
    for (A, B), c in coeffs.items():
        items = c.packed
        for a, (offset, unit) in enumerate(fields, 1):
            s, merged = insert_index(a, B if anti else A)
            if s == 0:
                continue
            sign = front * s
            terms = []
            for key, coeff in items.items():
                e = key >> offset & MAX_DEGREE
                if e:
                    e *= sign
                    key -= unit
                    terms.append((key, key >> shift, coeff.a * e, coeff.b * e, coeff.d))
            if terms:
                yield ((A, merged) if anti else (merged, B)), terms


def dbar_f(phi: FoliatedForm, f: Series | None = None) -> FoliatedForm:
    """Twisted antiholomorphic operator; f defaults to the model twist."""
    f = phi.model.f if f is None else f
    return _twisted(phi, f, phi.deg, True)


def partial_f(phi: FoliatedForm, f: Series | None = None) -> FoliatedForm:
    """Twisted holomorphic operator; f defaults to the model twist."""
    f = phi.model.f if f is None else f
    return _twisted(phi, f, phi.deg, False)


def dbar_f_k(phi: FoliatedForm, k: int, f: Series | None = None) -> FoliatedForm:
    """Generalised twisted operator with weight p + q - k."""
    f = phi.model.f if f is None else f
    return _twisted(phi, f, phi.deg - k, True)


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

    The map caches what it substitutes: mu*(monomial) per out budget, built
    from the image of a monomial of one degree less times one component,
    and the wedge of the generator images of each (A, B) per out budget.
    None of it depends on the source twist, so ``with_source_twist`` shares
    the caches.
    """

    __slots__ = (
        "source",
        "target",
        "z_components",
        "x_components",
        "degree",
        "pulled_twist",
        "_monomials",
        "_blocks",
    )

    def __init__(self, source: FoliationModel, target: FoliationModel, z_components, x_components):
        if len(z_components) != target.m:
            raise MorphismError(f"expected {target.m} z-components, got {len(z_components)}")
        if len(x_components) != target.n:
            raise MorphismError(f"expected {target.n} x-components, got {len(x_components)}")
        for comp in z_components:
            if comp.m != source.m or comp.n != source.n:
                raise MorphismError("z-component does not live on the source model")
            if comp.depends_on("zb"):
                raise MorphismError("z-component must be holomorphic in z (no zb)")
        for comp in x_components:
            if comp.m != source.m or comp.n != source.n:
                raise MorphismError("x-component does not live on the source model")
            if comp.depends_on("z", "zb"):
                raise MorphismError("x-component may depend on x only")
        self.source = source
        self.target = target
        self.z_components = tuple(z_components)
        self.x_components = tuple(x_components)
        # the largest component degree (0 without components)
        self.degree = max((c.degree for c in self.z_components + self.x_components), default=0)
        self._monomials = {}  # out budget -> (packed target monomial -> image terms, component terms)
        self._blocks = {}  # (A, B, out budget) -> coefficients of the wedge of the generator images
        self.pulled_twist = self.pull_series(target.f)

    def with_source_twist(self, f: Series) -> "FoliatedMorphism":
        """The same map from the source model twisted by f.

        The components, their degree, mu*(f') and the substitution caches do
        not depend on the source twist, so they carry over without being
        checked or pulled back again.
        """
        mu = object.__new__(FoliatedMorphism)
        mu.source = self.source.with_twist(f)
        mu.target = self.target
        mu.z_components = self.z_components
        mu.x_components = self.x_components
        mu.degree = self.degree
        mu.pulled_twist = self.pulled_twist
        mu._monomials = self._monomials
        mu._blocks = self._blocks
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

    def _monomial_image(self, key: int, out_budget: int) -> list:
        """``algebra._terms`` of mu*(target monomial ``key``), truncated at out_budget.

        An image missing from the cache is the image of the monomial with one
        power of its last variable (in alpha + beta + gamma order) fewer,
        times that variable's component; the zb-components are the
        conjugated z-components.  All degrees are >= 0, so truncating the
        factors equals truncating the product.
        """
        level = self._monomials.get(out_budget)
        if level is None:
            comps = [c.truncated(out_budget) for c in self.z_components]
            comps += [c.conj() for c in comps] + [c.truncated(out_budget) for c in self.x_components]
            level = self._monomials[out_budget] = ({0: _UNIT_TERMS}, [_terms(c) for c in comps])
        images, comps = level
        image = images.get(key)
        if image is None:
            m2, n2 = self.target.m, self.target.n
            chain = []  # (key, variable) from key down to a cached monomial
            while image is None:
                j = last_variable(m2, n2, key)
                chain.append((key, j))
                key -= variable_field(m2, n2, j)[1]
                image = images.get(key)
            m, n = self.source.m, self.source.n
            for key, j in reversed(chain):
                acc: dict = {}
                _mul_terms(acc, image, comps[j], out_budget)
                image = images[key] = _terms(_raw_series(m, n, out_budget, _accumulated_terms(acc)))
        return image

    def pull_series(self, s: Series, out_budget: int | None = None) -> Series:
        """Compose a target-side function with the morphism (exact by default).

        Each term of s adds its coefficient times the cached image of its
        monomial (``_monomial_image``) into one integer accumulator.
        """
        if s.m != self.target.m or s.n != self.target.n:
            raise MorphismError("series does not live on the target model")
        m, n = self.source.m, self.source.n
        if out_budget is None:
            out_budget = s.budget * max(self.degree, 1) if self.degree else 0
        check_budget(out_budget)
        acc: dict = {}
        for key, c in s.packed.items():
            _mul_terms(acc, self._monomial_image(key, out_budget), ((0, 0, c.a, c.b, c.d),), out_budget)
        return _raw_series(m, n, out_budget, _accumulated_terms(acc))

    def generator_image(self, a: int, anti: bool) -> FoliatedForm:
        """Leafwise image of dz'^a (anti=False) or dzb'^a (anti=True).

        It is partial of the component z'_a as a (0,0)-form, moved onto dzb^b
        with conjugated coefficients for anti.  Every component has degree
        <= self.degree, so the image is re-budgeted to max(degree - 1, 0).
        """
        comp = self.z_components[a - 1]
        image = partial(_raw_form(self.source, 0, 0, {((), ()): comp}, comp.budget))
        budget = max(self.degree - 1, 0)
        if anti:
            return _raw_form(self.source, 0, 1, {((), A): s.conj() for (A, _), s in image.coeffs.items()}, budget)
        return image.with_budget(budget)

    def block_image(self, A, B, out_budget: int) -> dict:
        """Coefficients of the wedge of the images of dz'^A and dzb'^B, truncated at out_budget.

        Cached per (A, B, out_budget); the empty wedge is the function 1.
        """
        block = self._blocks.get((A, B, out_budget))
        if block is None:
            gens = [(a, False) for a in A] + [(b, True) for b in B]
            if gens:
                image = self.generator_image(*gens[0])
                for a, anti in gens[1:]:
                    image = image.wedge(self.generator_image(a, anti), out_budget=out_budget)
                block = image.coeffs
            else:
                block = {((), ()): Series.one(self.source.m, self.source.n)}
            self._blocks[(A, B, out_budget)] = block
        return block

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

    A coefficient c on dz'^A ^ dzb'^B contributes mu*(c) times the wedge of
    the images of A and B (cached on mu, ``block_image``), added into one
    integer accumulator per (A, B) of the result; all degrees are >= 0, so
    truncating the factors equals truncating the product.
    """
    if phi.model.m != mu.target.m or phi.model.n != mu.target.n:
        raise MorphismError("form does not live on the target model")
    exact = mu.substitution_budget(phi.budget, phi.p, phi.q)
    budget = exact if out_budget is None else out_budget
    source = mu.source
    if phi.p > source.m or phi.q > source.m:
        return FoliatedForm.zero(source, phi.p, phi.q, budget)
    acc: dict = {}
    for (A, B), c in phi.coeffs.items():
        pulled = mu.pull_series(c, out_budget=budget)
        for key, s in mu.block_image(A, B, budget).items():
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
