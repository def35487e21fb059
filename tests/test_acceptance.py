"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact arithmetic; there are no tolerances anywhere.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All scenes stay at desk scale (m <= 2, n <= 1, D <= 4).
"""

import json
import pathlib
import random

from leafcoh.algebra import Series, parse_series
from leafcoh.forms import FoliationModel
from leafcoh.operators import FoliatedMorphism, tilde_dbar
from leafcoh.checks import run_suite
from leafcoh.cohomology import (
    cohomology_grid,
    dolbeault_row,
    solve_primitive_tilde,
)
from leafcoh.sampling import random_form
from leafcoh.sequences import (
    CoverValidationError,
    corollary_boundary_report,
    degenerate_cover,
    delta_equals_pullback_check,
    laurent_cover,
    make_mv_ses,
    make_relative_complex,
    relative_les,
    snake_les,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEED = 0x5EED


def verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_operator_identity_suite():
    model = FoliationModel(2, 1, 2, parse_series("1 + z1*zb2", 2, 1, 2))
    report = run_suite("operators", model, SEED, 1000)
    names = {e["name"]: e for e in report["identities"]}
    required = [
        "dbar_f_square",
        "partial_f_square",
        "anticommute_twisted",
        "twist_additive",
        "twist_zero",
        "twist_negate",
        "twist_product",
        "twist_unit_split",
        "leibniz",
    ]
    enough = all(names[r]["cases"] >= 1000 for r in required)
    ok = report["violations_total"] == 0 and enough
    verdict(1, ok, f"operator identities on 1000 seeded cases, {report['violations_total']} violations")


def test_criterion_2_rescaling_conjugation():
    model = FoliationModel(2, 0, 2, parse_series("1 + z1", 2, 0, 1))
    report = run_suite("rescale", model, SEED + 1, 200)
    entry = report["identities"][0]
    ok = report["violations_total"] == 0 and entry["cases"] >= 200
    verdict(2, ok, f"rescale conjugation on {entry['cases']} cases, exact")


def _dolbeault_table(model, D, slack=0):
    rows = []
    for p in range(model.m + 1):
        for q in range(model.m + 1):
            r = dolbeault_row(model, p, q, D, slack=slack)
            rows.append((p, q, r["ker"], r["im"], r["dim"]))
    return rows


def test_criterion_3_unit_twist_tables_match_untwisted():
    scenes = [(1, 1, 2), (2, 0, 2)]
    twists = ["2", "1 + z1", "3/2 + z1 + z1^2"]
    checked = 0
    ok = True
    for m, n, D in scenes:
        plain = FoliationModel.untwisted(m, n, D)
        for f_text in twists:
            f = parse_series(f_text, m, n, D)
            model = FoliationModel(m, n, D, f)
            gap = model.twist_gap
            # matched budgets: kernel at D, image sources at D - gap on
            # both sides of the comparison
            ok = ok and _dolbeault_table(model, D) == _dolbeault_table(plain, D, slack=-gap)
            checked += 1
    verdict(3, ok and checked >= 6, f"{checked} unit-twist tables equal the untwisted tables at matched budgets")


def test_criterion_4_vanishing_twist_contrast():
    golden = json.loads((GOLDEN / "vanishing_twist.json").read_text())
    m, n, D, slack = golden["m"], golden["n"], golden["D"], golden["slack"]
    twisted = FoliationModel(m, n, D, parse_series(golden["f"], m, n, D))
    plain = FoliationModel.untwisted(m, n, D)
    t = dolbeault_row(twisted, 0, 1, D, slack=slack)["dim"]
    u = dolbeault_row(plain, 0, 1, D, slack=slack)["dim"]
    ok = t == golden["twisted_dim"] and u == golden["untwisted_dim"] and t > u
    verdict(4, ok, f"H(0,1) with twist z1 is {t} > untwisted {u} (golden oracle values)")


def test_criterion_5_intertwining_and_tilde_square():
    model = FoliationModel(2, 1, 2, parse_series("1 + x1", 2, 1, 1))
    report = run_suite("intertwine", model, SEED + 2, 200)
    names = {e["name"]: e for e in report["identities"]}
    ok = (
        report["violations_total"] == 0
        and names["intertwine"]["cases"] >= 200
        and names["tilde_square"]["cases"] >= 200
    )
    verdict(5, ok, "pullback intertwining and cone-differential square on 200 seeded cases")


def _relative_scenes():
    src = FoliationModel.untwisted(1, 0, 2)
    ident = FoliatedMorphism.identity(src)
    yield "identity", ident, 0

    tgt0 = FoliationModel.untwisted(1, 0, 2)
    const = FoliatedMorphism(src, tgt0, [Series.constant(1, 0, 5)], [])
    yield "zero-interaction", const, 1

    sq_target_1 = FoliationModel.untwisted(1, 0, 2)
    sq1 = FoliatedMorphism(src, sq_target_1, [parse_series("z1^2", 1, 0, 2)], [])
    yield "square f'=1", sq1, 0

    fp = parse_series("z1", 1, 0, 1)
    sq_target_z = FoliationModel(1, 0, 2, fp)
    sqz = FoliatedMorphism(src, sq_target_z, [parse_series("z1^2", 1, 0, 2)], [])
    yield "square f'=z'", sqz, 0


def test_criterion_6_relative_les_and_delta():
    results = []
    for name, mu, p in _relative_scenes():
        rc = make_relative_complex(mu, p, 2)
        les = relative_les(rc)
        delta = delta_equals_pullback_check(rc)
        results.append((name, les["exact_everywhere"], delta["all_equal"]))
    ok = all(e and d for _, e, d in results) and len(results) >= 3
    verdict(6, ok, f"relative LES exact and delta* = pullback on {len(results)} scenes: {[r[0] for r in results]}")


def test_criterion_7_relative_boundary_report():
    checked = []
    for name, mu, p in _relative_scenes():
        if name == "identity":
            continue
        rc = make_relative_complex(mu, p, 2)
        rep = corollary_boundary_report(rc)
        grades_v = rep["items"]["v"]["witness"]
        checked.append(
            rep["all_pass"] and all(w["dim"] == 0 for w in grades_v) and len(grades_v) > 0
        )
    ok = all(checked) and len(checked) >= 3
    verdict(7, ok, f"boundary items (i)-(v) pass on {len(checked)} nontrivial scenes, top groups exactly zero")


def test_criterion_8_mayer_vietoris_fixtures():
    ses = make_mv_ses(laurent_cover(2))
    findings = ses.validate()
    les = snake_les(ses, labels=("M", "U+V", "UV"))
    laurent_ok = findings == [] and les["exact_everywhere"]
    try:
        make_mv_ses(degenerate_cover(2))
        degenerate_ok = False
    except CoverValidationError as exc:
        degenerate_ok = any(f["condition"] == "project_surjective" for f in exc.findings)
    ok = laurent_ok and degenerate_ok
    verdict(8, ok, "laurent cover SES valid with exact LES; degenerate cover fails surjectivity as documented")


def test_criterion_9_tilde_roundtrip_hundred():
    rng = random.Random(SEED + 3)
    src = FoliationModel.untwisted(1, 0, 1)
    fp = parse_series("z1", 1, 0, 1)
    tgt = FoliationModel(1, 0, 1, fp)
    mu = FoliatedMorphism(src, tgt, [parse_series("z1^2", 1, 0, 2)], [])
    slack = fp.degree + 1
    solved = 0
    for case in range(100):
        q = rng.choice([1, 2])
        phi1 = random_form(rng, tgt, 0, q - 1, 1)
        psi1 = random_form(rng, src, 0, q - 2, 1)
        t1, t2 = tilde_dbar(phi1, psi1, mu)
        res = solve_primitive_tilde(mu, t1, t2, slack=slack)
        if res is None:
            continue
        r1, r2 = tilde_dbar(res[0], res[1], mu)
        if r1 == t1 and r2 == t2:
            solved += 1
    ok = solved == 100
    verdict(9, ok, f"tilde round-trip solved and certified {solved}/100 with slack {slack}")


def test_criterion_10_determinism():
    model = FoliationModel(1, 1, 2, parse_series("1 + z1", 1, 1, 1))
    a = json.dumps(run_suite("operators", model, SEED + 4, 50), sort_keys=True)
    b = json.dumps(run_suite("operators", model, SEED + 4, 50), sort_keys=True)
    grid1 = json.dumps(cohomology_grid(model, "bc", [0, 1], [0, 1], [2]), sort_keys=True)
    grid2 = json.dumps(cohomology_grid(model, "bc", [0, 1], [0, 1], [2]), sort_keys=True)
    src = FoliationModel.untwisted(1, 0, 2)
    mu = FoliatedMorphism(src, FoliationModel.untwisted(1, 0, 2), [parse_series("z1^2", 1, 0, 2)], [])
    rc1 = make_relative_complex(mu, 0, 2)
    rc2 = make_relative_complex(mu, 0, 2)
    s1 = json.dumps(relative_les(rc1), sort_keys=True)
    s2 = json.dumps(relative_les(rc2), sort_keys=True)
    ok = a == b and grid1 == grid2 and s1 == s2
    verdict(10, ok, "identical seeds give byte-identical suite, grid and sequence reports")
