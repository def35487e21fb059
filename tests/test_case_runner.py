"""The check suites run their cases in forked slices, one per CPU.

A report must not depend on the number of slices: every suite, the
counterexample goldens and the pairing goldens are compared across worker
counts with the minimum slice lowered to one case.  A case that raises in
any slice raises as in the serial loop, a worker that dies is stood in for,
and no worker outlives its suite.
"""

import json
import os
import threading

import pytest

import test_cli
import test_cohomology
import test_trusted
from leafcoh import checks
from leafcoh.algebra import GaussianRational, Series
from leafcoh.cli import main
from leafcoh.forms import FoliationModel
from leafcoh.operators import FoliatedMorphism, MorphismPair

SUITES = ("operators", "leibniz", "rescale", "intertwine", "pairing")


def use_workers(monkeypatch, n):
    monkeypatch.setattr(checks, "_workers", lambda: n)
    monkeypatch.setattr(checks, "_MIN_SLICE", 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def scene_models():
    """(model, morphism, pair) for a twisted m=2 scene with a morphism and a
    pair, and a transverse m=1 scene that draws its morphisms."""
    model = FoliationModel(2, 0, 2, Series.parse("1+z1*zb2", 2, 0, 2))
    target = FoliationModel(2, 0, 2, Series.parse("1+z1", 2, 0, 2))
    comps = [Series.parse(t, 2, 0, 2) for t in ("z1*z2", "z1+z2^2")]
    mu = FoliatedMorphism(model, target, comps, [])
    c = GaussianRational(2)
    pair = MorphismPair(mu.with_source_twist(mu.pulled_twist.scale(c.inverse())), Series.constant(2, 0, c))
    transverse = FoliationModel(1, 1, 2, Series.parse("1+x1*zb1", 1, 1, 2))
    return [(model, mu, pair), (transverse, None, None)]


def all_reports(trials) -> str:
    out = []
    for model, mu, pair in scene_models():
        for suite in SUITES:
            for seed in (3, 11):
                out.append(checks.run_suite(suite, model, seed, trials, morphism=mu, pair=pair))
        out.append(checks.pairing_check(model, 0, 1, 1, 0, trials, 5))
    return json.dumps(out, sort_keys=True)


@pytest.mark.parametrize("trials", [1, 13, 45])
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, trials):
    use_workers(monkeypatch, 1)
    serial = all_reports(trials)
    for n in (2, 3):
        use_workers(monkeypatch, n)
        assert all_reports(trials) == serial, n
    assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_goldens_hold_for_every_worker_count(monkeypatch, tmp_path, capsys, n):
    use_workers(monkeypatch, n)
    with monkeypatch.context() as mp:
        test_trusted.test_failing_suite_counterexamples_match_golden(mp)
    with monkeypatch.context() as mp:
        test_cohomology.test_pairing_reports_pin_counterexamples_of_a_broken_partial_f(mp)
    for name in ("check_pairing_basic", "check_pairing_m2"):
        test_cli.test_pairing_suite_reports_match_golden(tmp_path, capsys, name)
    assert_no_child_left()


def spy_slices(monkeypatch) -> list:
    """(first drawn, first checked, end) of every slice this process checks."""
    seen = []
    real = checks._check_slice

    def spy(t, draw, check, first, start, hi):
        seen.append((first, start, hi))
        return real(t, draw, check, first, start, hi)

    monkeypatch.setattr(checks, "_check_slice", spy)
    return seen


def test_slices_go_to_forked_workers(monkeypatch):
    model, _, _ = scene_models()[0]
    forks, pins = [], []
    real_fork, real_pin = os.fork, os.sched_setaffinity
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)) or real_pin(pid, cpus))
    seen = spy_slices(monkeypatch)
    use_workers(monkeypatch, 3)
    cpus = os.sched_getaffinity(0)
    checks.run_suite("leibniz", model, 1, 30)
    assert (len(forks), seen) == (2, [(0, 0, 10)])
    # this process ran pinned to its first CPU and has its set back
    assert pins == [{min(cpus)}, cpus] and os.sched_getaffinity(0) == cpus
    # a run shorter than two minimum slices stays in process, unpinned
    monkeypatch.setattr(checks, "_MIN_SLICE", 16)
    forks.clear()
    seen.clear()
    pins.clear()
    checks.run_suite("leibniz", model, 1, 30)
    assert (len(forks), seen, pins) == (0, [(0, 0, 30)], [])
    assert_no_child_left()


def inject(monkeypatch, fault):
    """Run fault(case) in every suite after each case's first record, so that
    a case that raises has begun to record."""
    real = checks._run_cases

    def run_cases(names, trials, draw, check, label=None, stream=None):
        def draw_case(case):
            return case, draw(case)

        def check_case(drawn):
            case, data = drawn
            records = check(data)
            yield next(records)
            fault(case)
            yield from records

        return real(names, trials, draw_case, check_case, label, stream)

    monkeypatch.setattr(checks, "_run_cases", run_cases)


def raise_at(*cases, exc=ValueError):
    def fault(case):
        if case in cases:
            raise exc(f"case {case} broke")

    return fault


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("cases", [(25,), (15, 25), (3, 25)])
def test_a_raising_case_raises_as_in_the_serial_loop(monkeypatch, suite, cases):
    model, mu, pair = scene_models()[0]
    inject(monkeypatch, raise_at(*cases))
    seen = spy_slices(monkeypatch)
    cpus = os.sched_getaffinity(0)
    for n in (1, 3):
        use_workers(monkeypatch, n)
        seen.clear()
        with pytest.raises(ValueError, match=f"^case {cases[0]} broke$"):
            checks.run_suite(suite, model, 1, 30, morphism=mu, pair=pair)
        assert_no_child_left()
        assert os.sched_getaffinity(0) == cpus
    # the earliest failing case is replayed here and raises; pairing runs
    # one case at each of its 36 bidegree combinations
    bounds = [0, 12, 24, 36] if suite == "pairing" else [0, 10, 20, 30]
    first = cases[0]
    k = max(k for k in range(3) if bounds[k] <= first)
    assert seen[0] == (0, 0, bounds[1])
    assert [s[1:] for s in seen[1:]] == ([(first, bounds[k + 1])] if k else [])


@pytest.mark.parametrize("exc, code", [(ValueError, 2), (AssertionError, 4), (RuntimeError, None)])
def test_check_exits_as_in_the_serial_loop(monkeypatch, tmp_path, capsys, exc, code):
    scene = test_cli.write_scene(tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 2, "f": "1+z1"}, "seed": 4})
    argv = ["check", "--scene", scene, "--suite", "operators", "--trials", "40"]
    inject(monkeypatch, raise_at(33, exc=exc))
    outcomes = []
    for n in (1, 2, 3):
        use_workers(monkeypatch, n)
        if code is None:  # not an error the CLI reports: it propagates
            with pytest.raises(exc, match="^case 33 broke$"):
                main(argv)
            outcomes.append(capsys.readouterr())
        else:
            outcomes.append((main(argv), capsys.readouterr()))
        assert_no_child_left()
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if code is not None:
        assert outcomes[0][0] == code and outcomes[0][1].out == ""
        assert outcomes[0][1].err.endswith("error: case 33 broke\n")


@pytest.mark.parametrize("fault", ["raise", "exit"])
def test_a_worker_that_fails_alone_is_stood_in_for(monkeypatch, fault):
    # a fault only a worker meets (here: raising, or leaving without a word)
    # leaves its cases to this process, and the report is the serial one
    model, _, _ = scene_models()[0]
    use_workers(monkeypatch, 1)
    serial = checks.run_suite("operators", model, 2, 30)
    parent = os.getpid()

    def in_worker(case):
        if case == 15 and os.getpid() != parent:
            if fault == "exit":
                os._exit(3)
            raise MemoryError

    inject(monkeypatch, in_worker)
    seen = spy_slices(monkeypatch)
    use_workers(monkeypatch, 3)
    assert checks.run_suite("operators", model, 2, 30) == serial
    assert seen == [(0, 0, 10), (10, 15 if fault == "raise" else 10, 20)]
    assert_no_child_left()


def test_a_process_with_threads_runs_its_cases_in_process():
    # a forked worker would hold only the forking thread
    assert checks._workers() == len(os.sched_getaffinity(0))
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert checks._workers() == 1
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
