"""Seeded property suites over random forms, twists and morphisms.

Each suite replays a documented list of identities on ``trials`` random
cases drawn from ``random.Random(seed)`` and reports, per identity, the case
count, the violation count and the first counterexample.  All equalities are
exact; identities whose truth is only up to a budget are compared after
truncation to a stated working budget, with inner steps keeping one extra
degree so the truncation never interferes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import GaussianRational, Series
from .cohomology import _Grid, form_from_vector
from .forms import FoliatedForm, FoliationModel, rescale_power
from .linalg import Matrix, Subspace, kernel_basis
from .operators import (
    FoliatedMorphism,
    MorphismPair,
    dbar,
    dbar_f,
    dbar_f_k,
    pair_pullback,
    partial,
    partial_f,
    pullback,
    tilde_dbar,
    twist_gap,
)
from .sampling import (
    random_bidegree,
    random_form,
    random_morphism,
    random_series,
    random_unit_series,
)

_HALF = GaussianRational(Fraction(1, 2))


class _Tally:
    def __init__(self, names):
        self.entries = {
            name: {"name": name, "cases": 0, "violations": 0, "first_counterexample": None}
            for name in names
        }
        self.order = list(names)
        self.where = {}

    def record(self, name, ok, case, detail=None, *args):
        """Count one case of identity ``name``; ``ok`` says whether it held.

        The first counterexample holds ``where`` (the part of the suite that
        is running, if any), the case and, unless ``detail`` is None,
        ``detail.format(*args)``, built only for the first violation:
        formatting the forms and twists of every passing case would cost
        more than many identities do.  "{}" formats an argument exactly as
        str() and an f-string do.
        """
        e = self.entries[name]
        e["cases"] += 1
        if not ok:
            e["violations"] += 1
            if e["first_counterexample"] is None:
                e["first_counterexample"] = {**self.where, "case": case}
                if detail is not None:
                    e["first_counterexample"]["detail"] = detail.format(*args)

    def skip(self, name, reason):
        self.entries[name]["skipped"] = reason

    def report(self, suite, seed, trials):
        identities = [self.entries[n] for n in self.order]
        return {
            "suite": suite,
            "seed": seed,
            "trials": trials,
            "identities": identities,
            "violations_total": sum(e["violations"] for e in identities),
        }


def _case_twists(rng, model, case, g_fixed=None):
    """Random twist pair; case 0 exercises the scene twist (and scene g)."""
    if case == 0:
        f = model.f
    else:
        f = random_series(rng, model.m, model.n, model.budget, max_terms=2)
    g = random_series(rng, model.m, model.n, model.budget, max_terms=2)
    if case == 0 and g_fixed is not None:
        g = g_fixed
    return f, g


def suite_operators(model: FoliationModel, seed: int, trials: int, g: Series | None = None) -> dict:
    """Squares, anticommutation and the twist-dependence identities."""
    rng = random.Random(seed)
    names = [
        "dbar_square",
        "partial_square",
        "anticommute",
        "dbar_f_square",
        "partial_f_square",
        "anticommute_twisted",
        "dbar_f_k_square",
        "twist_additive",
        "twist_zero",
        "twist_negate",
        "twist_product",
        "twist_unit_split",
        "leibniz",
    ]
    t = _Tally(names)
    zero = Series.zero(model.m, model.n)
    g_fixed = g
    for case in range(trials):
        p, q = random_bidegree(rng, model.m)
        phi = random_form(rng, model, p, q)
        f, g = _case_twists(rng, model, case, g_fixed)
        k = rng.randint(-2, 2)

        t.record("dbar_square", dbar(dbar(phi)).is_zero, case, "{}", phi)
        t.record("partial_square", partial(partial(phi)).is_zero, case, "{}", phi)
        t.record("anticommute", (partial(dbar(phi)) + dbar(partial(phi))).is_zero, case, "{}", phi)
        t.record("dbar_f_square", dbar_f(dbar_f(phi, f), f).is_zero, case, "f={}", f)
        t.record("partial_f_square", partial_f(partial_f(phi, f), f).is_zero, case, "f={}", f)
        t.record(
            "anticommute_twisted",
            (partial_f(dbar_f(phi, f), f) + dbar_f(partial_f(phi, f), f)).is_zero,
            case,
            "f={}",
            f,
        )
        t.record("dbar_f_k_square", dbar_f_k(dbar_f_k(phi, k, f), k, f).is_zero, case, "f={}, k={}", f, k)
        t.record(
            "twist_additive",
            dbar_f(phi, f + g) == dbar_f(phi, f) + dbar_f(phi, g),
            case,
            "f={}, g={}",
            f,
            g,
        )
        t.record("twist_zero", dbar_f(phi, zero).is_zero, case, "{}", phi)
        t.record("twist_negate", dbar_f(phi, -f) == -dbar_f(phi, f), case, "f={}", f)
        product_lhs = dbar_f(phi, f.mul(g))
        product_rhs = (
            dbar_f(phi, g).mul_series(f)
            + dbar_f(phi, f).mul_series(g)
            - dbar(phi).mul_series(f.mul(g))
        )
        t.record("twist_product", product_lhs == product_rhs, case, "f={}, g={}", f, g)
        # the split through 1/f needs f invertible; make the sample a unit
        fu = f if f.is_unit else f + Series.one(model.m, model.n)
        w = phi.budget
        ghat = fu.invert(out_budget=w + 1)
        split = (
            dbar_f(phi, ghat).mul_series(fu) + dbar_f(phi, fu).mul_series(ghat)
        ).scale(_HALF)
        t.record("twist_unit_split", split.truncated(w) == dbar(phi).truncated(w), case, "f={}", fu)
        r, s = random_bidegree(rng, model.m)
        psi = random_form(rng, model, r, s)
        sign = -1 if phi.deg % 2 else 1
        t.record(
            "leibniz",
            dbar_f(phi.wedge(psi), f)
            == dbar_f(phi, f).wedge(psi) + phi.wedge(dbar_f(psi, f)).scale(sign),
            case,
            "f={}",
            f,
        )
    return t.report("operators", seed, trials)


def suite_leibniz(model: FoliationModel, seed: int, trials: int) -> dict:
    """Wedge algebra laws plus the twisted Leibniz rule."""
    rng = random.Random(seed)
    t = _Tally(["wedge_associative", "wedge_graded_commutative", "leibniz_twisted"])
    for case in range(trials):
        pa, qa = random_bidegree(rng, model.m)
        pb, qb = random_bidegree(rng, model.m)
        pc, qc = random_bidegree(rng, model.m)
        a = random_form(rng, model, pa, qa)
        b = random_form(rng, model, pb, qb)
        c = random_form(rng, model, pc, qc)
        f, _ = _case_twists(rng, model, case)
        t.record(
            "wedge_associative",
            a.wedge(b).wedge(c) == a.wedge(b.wedge(c)),
            case,
            "",
        )
        sign = -1 if (a.deg * b.deg) % 2 else 1
        t.record(
            "wedge_graded_commutative",
            a.wedge(b) == b.wedge(a).scale(sign),
            case,
            "",
        )
        sgn = -1 if a.deg % 2 else 1
        t.record(
            "leibniz_twisted",
            dbar_f(a.wedge(b), f)
            == dbar_f(a, f).wedge(b) + a.wedge(dbar_f(b, f)).scale(sgn),
            case,
            "f={}",
            f,
        )
    return t.report("leibniz", seed, trials)


def suite_rescale(model: FoliationModel, seed: int, trials: int, h: Series | None = None) -> dict:
    """The conjugation law between the twists f*h and f through division by
    h^(p+q), compared after truncation to the working budget."""
    rng = random.Random(seed)
    t = _Tally(["rescale_conjugates"])
    if h is not None and not h.is_unit:
        t.skip("rescale_conjugates", "non-unit h in scene")
        return t.report("rescale", seed, trials)
    for case in range(trials):
        p, q = random_bidegree(rng, model.m)
        phi = random_form(rng, model, p, q)
        f, _ = _case_twists(rng, model, case)
        hh = h if h is not None else random_unit_series(rng, model.m, model.n, model.budget)
        w = phi.budget
        lhs = rescale_power(dbar_f(phi, f.mul(hh)), hh, out_budget=w)
        rhs = dbar_f(rescale_power(phi, hh, out_budget=w + 1), f).truncated(w)
        t.record("rescale_conjugates", lhs == rhs, case, "f={}, h={}", f, hh)
    return t.report("rescale", seed, trials)


def _case_morphism(rng, model, morphism=None):
    if morphism is not None:
        return morphism
    m2 = rng.choice([1, model.m])
    n2 = rng.choice([0, model.n]) if model.n else 0
    target = FoliationModel.untwisted(m2, n2, model.budget)
    mu = random_morphism(rng, model, target, degree=2)
    fp = random_series(rng, m2, n2, model.budget, max_terms=2)
    return FoliatedMorphism(model, target.with_twist(fp), mu.z_components, mu.x_components)


def suite_intertwine(
    model: FoliationModel,
    seed: int,
    trials: int,
    morphism: FoliatedMorphism | None = None,
    pair: MorphismPair | None = None,
) -> dict:
    """Pullback intertwining, the cone differential squaring to zero, and the
    pair pullback being a cochain map; f' is the twist of each morphism's target."""
    rng = random.Random(seed)
    t = _Tally(["intertwine", "tilde_square", "pair_cochain_map"])
    for case in range(trials):
        mu = _case_morphism(rng, model, morphism)
        fp = mu.target.f
        m2 = mu.target.m
        p = rng.randint(0, m2)
        q = rng.randint(0, m2)
        phi = random_form(rng, mu.target, p, q)
        lhs = dbar_f(pullback(mu, phi), mu.pulled_twist)
        rhs = pullback(mu, dbar_f(phi, fp))
        t.record("intertwine", lhs == rhs, case, "mu={}, f'={}", mu, fp)

        psi = random_form(rng, mu.source, p, q - 1)
        c1, c2 = tilde_dbar(phi, psi, mu)
        d1, d2 = tilde_dbar(c1, c2, mu)
        t.record("tilde_square", d1.is_zero and d2.is_zero, case, "mu={}", mu)

        if pair is not None:
            case_pair = pair
        else:
            # build a valid pair: constant alpha, source twist mu*(f')/alpha
            c = GaussianRational(rng.randint(1, 3))
            alpha = Series.constant(mu.source.m, mu.source.n, c)
            case_pair = MorphismPair(mu.with_source_twist(mu.pulled_twist.scale(c.inverse())), alpha)
        pm = case_pair.phi
        pp = rng.randint(0, pm.target.m)
        pq = rng.randint(0, pm.target.m)
        pphi = random_form(rng, pm.target, pp, pq)
        pfp = pm.target.f
        w = pm.substitution_budget(pphi.budget + twist_gap(pfp), pp, pq + 1) + 1
        lhs = pair_pullback(case_pair, dbar_f(pphi, pfp), out_budget=w)
        rhs = dbar_f(pair_pullback(case_pair, pphi, out_budget=w + 1), pm.source.f).truncated(w)
        t.record("pair_cochain_map", lhs == rhs, case, "alpha={}", case_pair.alpha)
    return t.report("intertwine", seed, trials)


def _sample_kernel_form(rng, model, p, q, D, kernel: Subspace):
    if kernel.dim == 0:
        return FoliatedForm.zero(model, p, q, D)
    coeffs = [GaussianRational(Fraction(rng.randint(-3, 3))) for _ in kernel.basis]
    combination = {j: c for j, c in enumerate(coeffs) if c}
    vec = Matrix.from_columns(kernel.basis, kernel.ambient_dim).matvec(combination)
    return form_from_vector(model, p, q, D, vec)


_PAIRING = ("closed_wedge_ddclosed", "closed_wedge_exact", "ddexact_wedge_ddclosed")


def _pairing_cases(t: _Tally, grid: _Grid, p, q, r, s, trials, seed):
    """Record ``trials`` cases of the three wedge-closure statements behind
    the Bott-Chern x Aeppli pairing, phi of bidegree (p,q), psi of (r,s):

    (a) a both-closed form wedge a (partial_f dbar_f)-closed form is
        (partial_f dbar_f)-closed;
    (b) a both-closed form wedge an (im partial_f + im dbar_f) element stays
        in im partial_f + im dbar_f, with the primitive exhibited;
    (c) a (partial_f dbar_f)-exact form wedge a (partial_f dbar_f)-closed
        form lies in im partial_f + im dbar_f, certified by the explicit
        half-difference primitive; the displayed primitive is mixed-bidegree
        and is applied componentwise.

    The kernels come from grid's matrices, so the composed matrix is checked
    against the operators before any case is drawn.
    """
    model = grid.model
    rng = random.Random(seed)
    D = model.budget
    closed_kernel = kernel_basis(grid.matrix("stacked", p, q, D, D + grid.gap))
    dd_kernel = kernel_basis(grid.matrix("composed", r, s, D, D + 2 * grid.gap))
    for case in range(trials):
        phi = _sample_kernel_form(rng, model, p, q, D, closed_kernel)
        psi = _sample_kernel_form(rng, model, r, s, D, dd_kernel)
        # (a)
        w = phi.wedge(psi)
        ok = partial_f(dbar_f(w)).is_zero
        t.record("closed_wedge_ddclosed", ok, case)
        # (b)
        a = random_form(rng, model, r - 1, s, D)
        b = random_form(rng, model, r, s - 1, D)
        psi_exact = partial_f(a) + dbar_f(b)
        sign = -1 if phi.deg % 2 else 1
        target = phi.wedge(psi_exact)
        prim_a = phi.wedge(a).scale(sign)
        prim_b = phi.wedge(b).scale(sign)
        ok = (partial_f(prim_a) + dbar_f(prim_b)) == target
        t.record("closed_wedge_exact", ok, case)
        # (c)
        theta = random_form(rng, model, p, q, D)
        exact = partial_f(dbar_f(theta))
        target = exact.wedge(psi)
        tsign = -1 if theta.deg % 2 else 1
        b1 = dbar_f(theta).wedge(psi) - theta.wedge(dbar_f(psi)).scale(tsign)
        b2 = theta.wedge(partial_f(psi)).scale(tsign) - partial_f(theta).wedge(psi)
        recon = partial_f(b1.scale(_HALF)) + dbar_f(b2.scale(_HALF))
        t.record("ddexact_wedge_ddclosed", recon == target, case)


def pairing_check(
    model: FoliationModel,
    p: int,
    q: int,
    r: int,
    s: int,
    trials: int,
    seed: int,
) -> dict:
    """Randomised verification of the pairing statements (see _pairing_cases)
    at one bidegree combination.  Failures are findings in the report, not
    exceptions."""
    t = _Tally(_PAIRING)
    _pairing_cases(t, _Grid(model), p, q, r, s, trials, seed)
    report = t.report("pairing", seed, trials)
    report["bidegrees"] = {"p": p, "q": q, "r": r, "s": s}
    return report


def suite_pairing(model: FoliationModel, seed: int, trials: int) -> dict:
    """The pairing statements spread over all bidegree combinations, one
    seed per combination; a counterexample names its combination."""
    m = model.m
    combos = [
        (p, q, r, s)
        for p in range(m + 1)
        for q in range(m + 1)
        for r in range(m + 1)
        for s in range(m + 1)
        if p + r <= m and q + s <= m
    ]
    per = max(1, trials // len(combos))
    t = _Tally(_PAIRING)
    grid = _Grid(model)
    for i, (p, q, r, s) in enumerate(combos):
        t.where = {"bidegrees": [p, q, r, s]}
        _pairing_cases(t, grid, p, q, r, s, per, seed + i)
    return t.report("pairing", seed, per * len(combos))


def run_suite(
    name: str,
    model: FoliationModel,
    seed: int,
    trials: int,
    h: Series | None = None,
    g: Series | None = None,
    morphism: FoliatedMorphism | None = None,
    pair: MorphismPair | None = None,
) -> dict:
    if name == "operators":
        return suite_operators(model, seed, trials, g)
    if name == "leibniz":
        return suite_leibniz(model, seed, trials)
    if name == "rescale":
        return suite_rescale(model, seed, trials, h)
    if name == "intertwine":
        return suite_intertwine(model, seed, trials, morphism, pair)
    if name == "pairing":
        return suite_pairing(model, seed, trials)
    raise ValueError(f"unknown suite {name!r}")
