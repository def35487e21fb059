"""Results of series and form arithmetic are built without re-validation.

Each result of an operation is rebuilt here through the validating public
constructor, which must accept it unchanged: same terms, same budget, and
every coefficient of a form carrying the form's budget.  So are the inject
and project maps of the sequence builders, which commute by construction,
and the complexes they join square to zero by explicit products.  The
counterexample texts of the check suites, built only for violations, are
compared with goldens recorded from the suites before either change.
"""

import json
import pathlib
import random

import pytest

from leafcoh import checks, operators
from leafcoh.algebra import GaussianRational, Series, SeriesError
from leafcoh.forms import FoliatedForm, FoliationModel, insert_index, rescale_power
from leafcoh.linalg import Matrix
from leafcoh.operators import (
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
)
from leafcoh.sampling import random_bidegree, random_form, random_morphism, random_series
from leafcoh.sequences import (
    ChainMap,
    CochainComplex,
    laurent_cover,
    make_mv_ses,
    make_relative_complex,
    snake_les,
)

from factories import cone_sweep_scene

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "broken_dbar_counterexamples.json"


def assert_rebuilds_series(s):
    rebuilt = Series(s.m, s.n, s.budget, s.terms)
    assert rebuilt.terms == s.terms
    assert rebuilt.budget == s.budget
    assert all(type(c) is GaussianRational for c in s.terms.values())
    return s


def assert_rebuilds_form(phi):
    rebuilt = FoliatedForm(phi.model, phi.p, phi.q, phi.coeffs, phi.budget)
    assert rebuilt.coeffs == phi.coeffs
    assert rebuilt.budget == phi.budget
    assert {k: s.budget for k, s in phi.coeffs.items()} == {k: s.budget for k, s in rebuilt.coeffs.items()}
    for s in phi.coeffs.values():
        assert_rebuilds_series(s)
    return phi


def _pair(rng, mu, fp):
    # a valid pair as the intertwine suite builds it: constant alpha
    c = GaussianRational(rng.randint(1, 3))
    alpha = Series.constant(mu.source.m, mu.source.n, c)
    source = mu.source.with_twist(mu.pull_series(fp).scale(c.inverse()))
    target = mu.target.with_twist(fp)
    return MorphismPair(FoliatedMorphism(source, target, mu.z_components, mu.x_components), alpha)


SHAPES = [(m, n) for m in (1, 2) for n in (0, 1)]


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(6))
def test_series_results_rebuild_through_the_constructor(m, n, seed):
    rng = random.Random(seed * 10 + 2 * m + n)
    for _ in range(8):
        a = random_series(rng, m, n, rng.randint(0, 3))
        b = random_series(rng, m, n, rng.randint(0, 3))
        c = GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
        cut = rng.randint(0, 4)
        for s in (a + b, a - b, -a, a + (-a), a.scale(c), a.scale(0), a.mul(b), a.mul(b, out_budget=cut)):
            assert_rebuilds_series(s)
        for s in (a * b, 2 * a, a.conj(), a.truncated(cut), a.with_budget(a.budget + 2), a.power(2)):
            assert_rebuilds_series(s)
        # the cross terms cancel: a product that must drop the zeros it makes
        for s in ((a + b).mul(a - b), (a + b).mul(a - b, out_budget=cut)):
            assert_rebuilds_series(s)
        for kind, limit in (("z", m), ("zb", m), ("x", n)):
            for index in range(1, limit + 1):
                assert_rebuilds_series(a.deriv(kind, index))
        if a.is_unit:
            assert_rebuilds_series(a.invert(out_budget=cut))


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_form_results_rebuild_through_the_constructor(m, n, seed):
    rng = random.Random(seed * 10 + 2 * m + n)
    for _ in range(4):
        model = FoliationModel(m, n, 2, random_series(rng, m, n, 2, max_terms=2))
        f = model.f
        phi = random_form(rng, model, *random_bidegree(rng, m))
        chi = random_form(rng, model, phi.p, phi.q, budget=rng.randint(0, 3))
        psi = random_form(rng, model, *random_bidegree(rng, m))
        s = random_series(rng, m, n, 2)
        k = rng.randint(-2, 2)
        results = [phi + chi, phi - chi, phi - phi, -phi, phi.scale(3), phi.scale(0)]
        results += [phi.mul_series(s), phi.mul_series(s, out_budget=1), phi.wedge(psi), phi.wedge(psi, out_budget=1)]
        results += [phi.with_budget(phi.budget + 1), phi.truncated(1), dbar(phi), partial(phi)]
        results += [dbar_f(phi), partial_f(phi), dbar_f_k(phi, k), dbar_f(phi, s), partial_f(phi, -f)]
        results += [dbar_f(dbar_f(phi)), partial_f(dbar_f(phi)), dbar_f(phi.wedge(psi))]
        results += [(phi + chi).wedge(phi - chi), (psi + psi).wedge(psi - psi.scale(2))]
        unit = s if s.is_unit else s + Series.one(m, n)
        results.append(rescale_power(phi, unit, out_budget=phi.budget + 1))
        for form in results:
            assert_rebuilds_form(form)


@pytest.mark.parametrize("seed", range(6))
def test_pullback_results_rebuild_through_the_constructor(seed):
    rng = random.Random(seed)
    for m, n in SHAPES:
        source = FoliationModel.untwisted(m, n, 2)
        target = FoliationModel.untwisted(rng.choice([1, m]), rng.choice([0, n]), 2)
        mu = random_morphism(rng, source, target, degree=2)
        fp = random_series(rng, target.m, target.n, 2, max_terms=2)
        phi = random_form(rng, target, *random_bidegree(rng, target.m))
        assert_rebuilds_series(mu.pull_series(fp))
        assert_rebuilds_form(pullback(mu, phi))
        assert_rebuilds_form(pullback(mu, phi, out_budget=2))
        assert_rebuilds_form(dbar_f(pullback(mu, phi), mu.pull_series(fp)))
        pair = _pair(rng, mu, fp)
        pphi = random_form(rng, pair.phi.target, *random_bidegree(rng, target.m))
        assert_rebuilds_form(pair_pullback(pair, pphi))
        assert_rebuilds_form(pair_pullback(pair, dbar_f(pphi), out_budget=3))
        psi = random_form(rng, source, phi.p, phi.q - 1)
        mu = FoliatedMorphism(source, target.with_twist(fp), mu.z_components, mu.x_components)
        for form in tilde_dbar(phi, psi, mu):
            assert_rebuilds_form(form)


@pytest.mark.parametrize("seed", range(6))
def test_source_twist_change_rebuilds_through_the_constructor(seed, monkeypatch):
    # with_source_twist reuses the checked components and mu*(f'): it equals
    # the morphism the validating constructor builds, and pulls nothing back
    rng = random.Random(seed)
    for m, n in SHAPES:
        source = FoliationModel.untwisted(m, n, 2)
        target = FoliationModel.untwisted(rng.choice([1, m]), rng.choice([0, n]), 2)
        drawn = random_morphism(rng, source, target, degree=2)
        fp = random_series(rng, target.m, target.n, 2, max_terms=2)
        mu = FoliatedMorphism(source, target.with_twist(fp), drawn.z_components, drawn.x_components)
        g = random_series(rng, m, n, 2, max_terms=2)
        want = FoliatedMorphism(source.with_twist(g), mu.target, mu.z_components, mu.x_components)
        with monkeypatch.context() as patched:
            patched.setattr(FoliatedMorphism, "pull_series", None)
            got = mu.with_source_twist(g)
        for name in FoliatedMorphism.__slots__:
            assert getattr(got, name) == getattr(want, name), name
        assert got.source.f == g


def test_lowering_the_budget_still_checks_every_term():
    s = Series.parse("1 + z1*zb1^2", 1, 0, 3)
    for trusted in (s, s.with_budget(5), s.mul(Series.one(1, 0)), s + Series.zero(1, 0)):
        with pytest.raises(SeriesError, match="^term of degree 3 exceeds budget 2$"):
            trusted.with_budget(2)
    assert trusted.with_budget(3).terms == s.terms
    model = FoliationModel.untwisted(1, 0, 3)
    phi = FoliatedForm.generator(model, (1,), (), coeff=s)
    for trusted in (phi, phi.with_budget(4), phi + phi, phi.scale(2), phi.truncated(3)):
        with pytest.raises(SeriesError, match="^term of degree 3 exceeds budget 1$"):
            trusted.with_budget(1)
    with pytest.raises(SeriesError, match="^term of degree 2 exceeds budget 1$"):
        dbar(phi).with_budget(1)


def test_negative_budgets_are_rejected_as_before():
    s = Series.parse("z1", 1, 0, 1)
    for call in (lambda: s.mul(s, out_budget=-1), lambda: s.truncated(-1), lambda: s.with_budget(-1)):
        with pytest.raises(SeriesError, match="^m, n and budget must be nonnegative$"):
            call()


# ---------------------------------------------------------------------------
# Chain maps that commute by construction
# ---------------------------------------------------------------------------


def assert_rebuilds_ses(ses):
    """inject and project rebuild through the checking ChainMap constructor,
    and d.d = 0 holds on all three complexes by explicit products."""
    for cm in (ses.inject, ses.project):
        assert ChainMap(cm.source, cm.target, cm.components).components == cm.components
    for cx in (ses.left, ses.middle, ses.right):
        for q in range(len(cx.diffs) - 1):
            assert cx.diffs[q + 1].mul(cx.diffs[q]).is_zero


@pytest.mark.parametrize("seed", range(12))
def test_relative_sequence_maps_rebuild_through_the_constructor(seed):
    mu, p, _ = cone_sweep_scene(seed)
    assert_rebuilds_ses(make_relative_complex(mu, p, 1).ses)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_mv_sequence_maps_rebuild_through_the_constructor(D):
    assert_rebuilds_ses(make_mv_ses(laurent_cover(D)))


def test_sequence_builders_run_no_commutation_product(monkeypatch):
    # a build multiplies only in validate (project . inject, once per grade);
    # a complex's constructor checks shapes and multiplies nothing
    calls = []
    real = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: calls.append((self, other)) or real(self, other))
    mu, p, _ = cone_sweep_scene(0)
    rc = make_relative_complex(mu, p, 2)
    assert calls == []
    cover = laurent_cover(2)
    calls.clear()
    ses = make_mv_ses(cover)
    assert len(calls) == len(ses.middle.dims) == 2
    # snake_les validates the same sequence again: the findings are kept
    snake_les(ses)
    pairs = list(zip(ses.project.components, ses.inject.components))
    assert sum(any(a is prj and b is inj for prj, inj in pairs) for a, b in calls) == 2
    calls.clear()
    CochainComplex(rc.ses.middle.dims, rc.ses.middle.diffs)
    CochainComplex((2, 2, 2), (Matrix.identity(2), Matrix.identity(2)))
    assert calls == []


# ---------------------------------------------------------------------------
# Counterexample texts of failing suites
# ---------------------------------------------------------------------------


def broken_dbar(phi):
    """dbar with three faults that keep every degree within the budget.

    The (-1)^p sign is dropped (anticommutation and Leibniz fail), the zb1
    derivative is doubled (pullbacks no longer intertwine) and dzb1 wedge the
    constant part of each coefficient is added (no longer a derivation, so
    rescaling fails).
    """
    acc = {}
    for (A, B), c in phi.coeffs.items():
        for a in range(1, phi.model.m + 1):
            s, merged = insert_index(a, B)
            term = c.deriv("zb", a).scale(2 if a == 1 else 1)
            if a == 1:
                term = term + Series.constant(c.m, c.n, c.constant_term)
            if not s or term.is_zero:
                continue
            prev = acc.get((A, merged))
            acc[(A, merged)] = term.scale(s) if prev is None else prev + term.scale(s)
    return FoliatedForm(phi.model, phi.p, phi.q + 1, {k: v for k, v in acc.items() if not v.is_zero}, phi.budget)


BROKEN_SCENES = {
    "suites_m2": {
        "model": (2, 0, 2, "1+z1*zb2"),
        "morphism": (["z1*z2", "z1+z2^2"], []),
        "f_prime": "1+z1",
    },
    "transverse_m1": {"model": (1, 1, 2, "1+x1*zb1"), "morphism": None, "f_prime": None},
}
# pairing is left out: its composed-operator re-check stops a broken dbar
BROKEN_SUITES = ("operators", "leibniz", "rescale", "intertwine")
BROKEN_SEED, BROKEN_TRIALS = 3, 20


def broken_dbar_reports(monkeypatch) -> dict:
    """Every suite's report on each scene, with dbar replaced by broken_dbar."""
    monkeypatch.setattr(operators, "dbar", broken_dbar)
    monkeypatch.setattr(checks, "dbar", broken_dbar)
    out = {}
    for name, scene in BROKEN_SCENES.items():
        m, n, budget, f = scene["model"]
        model = FoliationModel(m, n, budget, Series.parse(f, m, n, budget))
        mu = None
        if scene["morphism"] is not None:
            zc, xc = scene["morphism"]
            fp = Series.parse(scene["f_prime"], len(zc), len(xc), budget)
            target = FoliationModel(len(zc), len(xc), budget, fp)
            comps = [[Series.parse(t, m, n, 2) for t in texts] for texts in (zc, xc)]
            mu = FoliatedMorphism(model, target, *comps)
        for suite in BROKEN_SUITES:
            report = checks.run_suite(suite, model, BROKEN_SEED, BROKEN_TRIALS, morphism=mu)
            out[f"{name}/{suite}"] = report
    return out


def test_failing_suite_counterexamples_match_golden(monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    reports = json.loads(json.dumps(broken_dbar_reports(monkeypatch)))
    assert sorted(reports) == sorted(golden)
    for key, report in reports.items():
        assert report == golden[key], key
    # every suite fails somewhere, so every detail text is exercised
    for suite in BROKEN_SUITES:
        assert any(r["violations_total"] for key, r in reports.items() if key.endswith("/" + suite)), suite
