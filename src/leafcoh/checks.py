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
from .forms import FoliationModel, rescale_power
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

SUITES = ("operators", "leibniz", "rescale", "intertwine", "pairing")

_HALF = GaussianRational(Fraction(1, 2))


class _Tally:
    def __init__(self, names):
        self.entries = {
            name: {"name": name, "cases": 0, "violations": 0, "first_counterexample": None}
            for name in names
        }
        self.order = list(names)

    def record(self, name, ok, case, detail="", *args):
        """Count one case of identity ``name``; ``ok`` says whether it held.

        The counterexample detail is ``detail.format(*args)``, built only for
        the first violation: formatting the forms and twists of every passing
        case would cost more than many identities do.  "{}" formats an
        argument exactly as str() and an f-string do.
        """
        e = self.entries[name]
        e["cases"] += 1
        if not ok:
            e["violations"] += 1
            if e["first_counterexample"] is None:
                e["first_counterexample"] = {"case": case, "detail": detail.format(*args)}

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
            src_model = mu.source.with_twist(mu.pulled_twist.scale(c.inverse()))
            mu_pair = FoliatedMorphism(src_model, mu.target, mu.z_components, mu.x_components)
            case_pair = MorphismPair(mu_pair, alpha)
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


def suite_pairing(model: FoliationModel, seed: int, trials: int) -> dict:
    """The three wedge-closure statements behind the Bott-Chern/Aeppli
    pairing, spread over all bidegree combinations."""
    from .cohomology import pairing_check

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
    merged = {
        name: {"name": name, "cases": 0, "violations": 0, "first_counterexample": None}
        for name in ("closed_wedge_ddclosed", "closed_wedge_exact", "ddexact_wedge_ddclosed")
    }
    for i, (p, q, r, s) in enumerate(combos):
        sub = pairing_check(model, p, q, r, s, per, seed + i)
        for entry in sub["identities"]:
            dst = merged[entry["name"]]
            dst["cases"] += entry["cases"]
            dst["violations"] += entry["violations"]
            if dst["first_counterexample"] is None and entry["first_counterexample"]:
                dst["first_counterexample"] = {
                    "bidegrees": [p, q, r, s],
                    **entry["first_counterexample"],
                }
    identities = [merged[n] for n in sorted(merged)]
    return {
        "suite": "pairing",
        "seed": seed,
        "trials": per * len(combos),
        "identities": identities,
        "violations_total": sum(e["violations"] for e in identities),
    }


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
