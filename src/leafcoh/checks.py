"""Seeded property suites over random forms, twists and morphisms.

Each suite replays the identities its check yields on ``trials`` random
cases drawn from ``random.Random(seed)`` and reports, per identity, the case
count, the violation count and the first counterexample.  All equalities are
exact; identities whose truth is only up to a budget are compared after
truncation to a stated working budget, with inner steps keeping one extra
degree so the truncation never interferes.

Every suite is a draw step, which makes all the random calls of one case in
order, and a check step, which evaluates the identities on what was drawn.
``_run_cases`` runs the cases in contiguous slices over the process's CPUs;
a report does not depend on the number of slices.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import threading

from .algebra import GaussianRational, Series
from .forms import FoliatedForm, FoliationModel, rescale_power
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

_HALF = GaussianRational(1) / 2


class _Tally:
    def __init__(self, label=None):
        self.entries = {}  # per identity, in the order a case first records it
        self.label = label
        self.next = 0  # the first case of a slice not checked yet

    def _entry(self, name):
        e = self.entries.get(name)
        if e is None:
            e = self.entries[name] = {"name": name, "cases": 0, "violations": 0, "first_counterexample": None}
        return e

    def record(self, case, name, ok, detail=None, *args):
        """Count one case of identity ``name``; ``ok`` says whether it held.

        The first counterexample holds ``label(case)`` (by default just the
        case) and, unless ``detail`` is None, ``detail.format(*args)``, built
        only for the first violation: formatting the forms and twists of
        every passing case would cost more than many identities do.  "{}"
        formats an argument exactly as str() and an f-string do.
        """
        e = self._entry(name)
        e["cases"] += 1
        if not ok:
            e["violations"] += 1
            if e["first_counterexample"] is None:
                first = self.label(case) if self.label else {"case": case}
                if detail is not None:
                    first["detail"] = detail.format(*args)
                e["first_counterexample"] = first

    def merge(self, entries):
        """Add the counts of a later slice; its counterexample counts only if this has none."""
        for name, e in entries.items():
            mine = self._entry(name)
            mine["cases"] += e["cases"]
            mine["violations"] += e["violations"]
            if mine["first_counterexample"] is None:
                mine["first_counterexample"] = e["first_counterexample"]

    def skip(self, name, reason):
        self._entry(name)["skipped"] = reason

    def report(self, suite, seed, trials):
        identities = list(self.entries.values())
        return {
            "suite": suite,
            "seed": seed,
            "trials": trials,
            "identities": identities,
            "violations_total": sum(e["violations"] for e in identities),
        }


# ---------------------------------------------------------------------------
# The case runner
# ---------------------------------------------------------------------------

_MIN_SLICE = 50  # cases per worker at least: a shorter run stays in process


def _workers() -> int:
    """The number of CPUs this process may run on; 1 where that is unknown,
    or while another thread runs, which a forked worker would not have."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _run_cases(trials, draw, check, label=None, stream=None) -> _Tally:
    """Check cases 0..trials-1 of one suite into a fresh _Tally.

    ``draw(case)`` makes every random call of the case, in order, and returns
    what ``check`` needs; ``check(drawn)`` yields the case's records
    ``(name, ok, detail, *args)`` for ``_Tally.record``.  The cases form
    random streams of ``stream`` consecutive cases (one stream by default),
    and the first draw of a stream starts its generator afresh.

    The cases are cut into contiguous slices, one per CPU the process may run
    on, none shorter than _MIN_SLICE.  This process checks the first slice;
    each other slice goes to a forked worker, which replays the draws of the
    earlier cases of its stream unchecked, checks its slice and sends back
    its counts and the first case it did not check.  The counts are merged
    in slice order, and this process checks every case a worker left, so a
    worker that raised at case j has case j replayed here, where it raises
    as in the serial loop.  No counts are merged before the first slice is
    checked, so the identities stand in the order the cases first yield
    them.  With one slice this is the serial loop.  Every worker is reaped
    before this returns or raises.

    While workers run, each process is pinned to its own CPU of the
    process's set (this one to the first, and its set is given back after):
    left to the scheduler, a forked worker was seen to share its parent's
    CPU while another stayed idle.
    """
    stream = stream or trials
    slices = max(1, min(_workers(), trials // _MIN_SLICE))
    bounds = [k * trials // slices for k in range(slices + 1)]
    t = _Tally(label)
    workers = []
    cpus = os.sched_getaffinity(0) if slices > 1 else None
    try:
        if cpus:
            pins = sorted(cpus)
            for k in range(1, slices):
                pin = pins[k % len(pins)]
                workers.append(_fork_slice(t, draw, check, stream, bounds[k], bounds[k + 1], pin))
            os.sched_setaffinity(0, {pins[0]})
        pos = 0  # the first case this process has not drawn
        for k in range(slices):
            start, hi = bounds[k], bounds[k + 1]
            if k:
                entries, start = _collect(workers[k - 1], start)
                t.merge(entries)
            if start < hi:
                _check_slice(t, draw, check, pos, start, hi)
                pos = hi
    finally:
        for pid, fd in workers:
            if fd is not None:
                os.close(fd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if cpus:
            os.sched_setaffinity(0, cpus)
    return t


def _check_slice(t, draw, check, first, start, hi):
    """Draw cases first..hi-1 and check cases start..hi-1 into t.

    A case whose check raises records nothing, and t.next is then that case.
    """
    for case in range(first, start):
        draw(case)
    t.next = start
    for case in range(start, hi):
        for record in list(check(draw(case))):
            t.record(case, *record)
        t.next = case + 1


def _fork_slice(t, draw, check, stream, lo, hi, cpu) -> list:
    """[pid, read end of its pipe] of a worker on CPU cpu checking cases lo..hi-1.

    The worker sends (counts, first case not checked) whether or not its
    slice raised, and leaves by os._exit, so it never returns into the
    caller and runs no exit handler.
    """
    fd, out = os.pipe()
    pid = os.fork()
    if pid == 0:
        t.next = lo
        try:
            os.close(fd)
            os.sched_setaffinity(0, {cpu})
            _check_slice(t, draw, check, lo - lo % stream, lo, hi)
        finally:
            try:
                with os.fdopen(out, "wb") as fh:
                    fh.write(marshal.dumps((t.entries, t.next)))
            finally:
                os._exit(0)
    os.close(out)
    return [pid, fd]


def _collect(worker, lo):
    """(counts, first case not checked) from a worker, which is then reaped;
    a worker that died before it said all checked nothing from lo on."""
    pid, fd = worker
    with os.fdopen(fd, "rb") as fh:
        worker[1] = None
        payload = fh.read()
    os.waitpid(pid, 0)
    worker[0] = None
    try:
        return marshal.loads(payload)
    except (EOFError, ValueError):
        return {}, lo


# ---------------------------------------------------------------------------
# The suites
# ---------------------------------------------------------------------------


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
    zero = Series.zero(model.m, model.n)

    def draw(case):
        p, q = random_bidegree(rng, model.m)
        phi = random_form(rng, model, p, q)
        f, g_case = _case_twists(rng, model, case, g)
        k = rng.randint(-2, 2)
        r, s = random_bidegree(rng, model.m)
        return phi, f, g_case, k, random_form(rng, model, r, s)

    def check(drawn):
        phi, f, g, k, psi = drawn
        d, pd = dbar(phi), partial(phi)
        d_f, pd_f, d_g = dbar_f(phi, f), partial_f(phi, f), dbar_f(phi, g)
        yield "dbar_square", dbar(d).is_zero, "{}", phi
        yield "partial_square", partial(pd).is_zero, "{}", phi
        yield "anticommute", (partial(d) + dbar(pd)).is_zero, "{}", phi
        yield "dbar_f_square", dbar_f(d_f, f).is_zero, "f={}", f
        yield "partial_f_square", partial_f(pd_f, f).is_zero, "f={}", f
        yield "anticommute_twisted", (partial_f(d_f, f) + dbar_f(pd_f, f)).is_zero, "f={}", f
        yield "dbar_f_k_square", dbar_f_k(dbar_f_k(phi, k, f), k, f).is_zero, "f={}, k={}", f, k
        yield "twist_additive", dbar_f(phi, f + g) == d_f + d_g, "f={}, g={}", f, g
        yield "twist_zero", dbar_f(phi, zero).is_zero, "{}", phi
        yield "twist_negate", dbar_f(phi, -f) == -d_f, "f={}", f
        fg = f.mul(g)
        product_rhs = d_g.mul_series(f) + d_f.mul_series(g) - d.mul_series(fg)
        yield "twist_product", dbar_f(phi, fg) == product_rhs, "f={}, g={}", f, g
        # the split through 1/f needs f invertible; make the sample a unit
        fu = f if f.is_unit else f + Series.one(model.m, model.n)
        w = phi.budget
        ghat = fu.invert(out_budget=w + 1)
        d_fu = d_f if fu is f else dbar_f(phi, fu)
        split = (dbar_f(phi, ghat).mul_series(fu) + d_fu.mul_series(ghat)).scale(_HALF)
        yield "twist_unit_split", split.truncated(w) == d.truncated(w), "f={}", fu
        sign = -1 if phi.deg % 2 else 1
        leibniz = dbar_f(phi.wedge(psi), f) == d_f.wedge(psi) + phi.wedge(dbar_f(psi, f)).scale(sign)
        yield "leibniz", leibniz, "f={}", f

    return _run_cases(trials, draw, check).report("operators", seed, trials)


def suite_leibniz(model: FoliationModel, seed: int, trials: int) -> dict:
    """Wedge algebra laws plus the twisted Leibniz rule."""
    rng = random.Random(seed)

    def draw(case):
        bidegrees = [random_bidegree(rng, model.m) for _ in range(3)]
        a, b, c = (random_form(rng, model, p, q) for p, q in bidegrees)
        f, _ = _case_twists(rng, model, case)
        return a, b, c, f

    def check(drawn):
        a, b, c, f = drawn
        ab = a.wedge(b)
        yield "wedge_associative", ab.wedge(c) == a.wedge(b.wedge(c)), ""
        sign = -1 if (a.deg * b.deg) % 2 else 1
        yield "wedge_graded_commutative", ab == b.wedge(a).scale(sign), ""
        sgn = -1 if a.deg % 2 else 1
        leibniz = dbar_f(ab, f) == dbar_f(a, f).wedge(b) + a.wedge(dbar_f(b, f)).scale(sgn)
        yield "leibniz_twisted", leibniz, "f={}", f

    return _run_cases(trials, draw, check).report("leibniz", seed, trials)


def suite_rescale(model: FoliationModel, seed: int, trials: int, h: Series | None = None) -> dict:
    """The conjugation law between the twists f*h and f through division by
    h^(p+q), compared after truncation to the working budget."""
    rng = random.Random(seed)
    if h is not None and not h.is_unit:
        t = _Tally()
        t.skip("rescale_conjugates", "non-unit h in scene")
        return t.report("rescale", seed, trials)

    def draw(case):
        p, q = random_bidegree(rng, model.m)
        phi = random_form(rng, model, p, q)
        f, _ = _case_twists(rng, model, case)
        hh = h if h is not None else random_unit_series(rng, model.m, model.n, model.budget)
        return phi, f, hh

    def check(drawn):
        phi, f, hh = drawn
        w = phi.budget
        lhs = rescale_power(dbar_f(phi, f.mul(hh)), hh, out_budget=w)
        rhs = dbar_f(rescale_power(phi, hh, out_budget=w + 1), f).truncated(w)
        yield "rescale_conjugates", lhs == rhs, "f={}, h={}", f, hh

    return _run_cases(trials, draw, check).report("rescale", seed, trials)


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

    def draw(case):
        mu = _case_morphism(rng, model, morphism)
        m2 = mu.target.m
        p = rng.randint(0, m2)
        q = rng.randint(0, m2)
        phi = random_form(rng, mu.target, p, q)
        psi = random_form(rng, mu.source, p, q - 1)
        # without a scene pair: a constant alpha c, source twist mu*(f')/c
        c = rng.randint(1, 3) if pair is None else None
        pair_target = mu.target if pair is None else pair.phi.target
        pp = rng.randint(0, pair_target.m)
        pq = rng.randint(0, pair_target.m)
        return mu, phi, psi, c, pp, pq, random_form(rng, pair_target, pp, pq)

    def check(drawn):
        mu, phi, psi, c, pp, pq, pphi = drawn
        fp = mu.target.f
        lhs = dbar_f(pullback(mu, phi), mu.pulled_twist)
        rhs = pullback(mu, dbar_f(phi, fp))
        yield "intertwine", lhs == rhs, "mu={}, f'={}", mu, fp

        c1, c2 = tilde_dbar(phi, psi, mu)
        d1, d2 = tilde_dbar(c1, c2, mu)
        yield "tilde_square", d1.is_zero and d2.is_zero, "mu={}", mu

        case_pair = pair
        if pair is None:
            c = GaussianRational(c)
            alpha = Series.constant(mu.source.m, mu.source.n, c)
            case_pair = MorphismPair(mu.with_source_twist(mu.pulled_twist.scale(c.inverse())), alpha)
        pm = case_pair.phi
        pfp = pm.target.f
        w = pm.substitution_budget(pphi.budget + twist_gap(pfp), pp, pq + 1) + 1
        lhs = pair_pullback(case_pair, dbar_f(pphi, pfp), out_budget=w)
        rhs = dbar_f(pair_pullback(case_pair, pphi, out_budget=w + 1), pm.source.f).truncated(w)
        yield "pair_cochain_map", lhs == rhs, "alpha={}", case_pair.alpha

    return _run_cases(trials, draw, check).report("intertwine", seed, trials)


def _sample_kernel_form(rng, model, p, q, D, kernel):
    """A random integer combination of a ``linalg.Subspace`` basis, as a form."""
    from .cohomology import form_from_vector

    if kernel.dim == 0:
        return FoliatedForm.zero(model, p, q, D)
    coeffs = [GaussianRational(rng.randint(-3, 3)) for _ in kernel.basis]
    vec: dict = {}
    for c, basis_vec in zip(coeffs, kernel.basis):
        for i, v in basis_vec.items():
            vec[i] = vec.get(i, 0) + v * c
    return form_from_vector(model, p, q, D, {i: v for i, v in vec.items() if v})


def _pairing_cases(grid, combos, per, seed, label=None) -> _Tally:
    """Check ``per`` cases of the three wedge-closure statements behind the
    Bott-Chern x Aeppli pairing at each bidegree combination (p,q,r,s) of
    ``combos``, phi of bidegree (p,q), psi of (r,s), the i-th combination
    drawing from seed + i:

    (a) a both-closed form wedge a (partial_f dbar_f)-closed form is
        (partial_f dbar_f)-closed;
    (b) a both-closed form wedge an (im partial_f + im dbar_f) element stays
        in im partial_f + im dbar_f, with the primitive exhibited;
    (c) a (partial_f dbar_f)-exact form wedge a (partial_f dbar_f)-closed
        form lies in im partial_f + im dbar_f, certified by the explicit
        half-difference primitive; the displayed primitive is mixed-bidegree
        and is applied componentwise.

    The kernels come from the matrices of grid, a ``cohomology._Grid``, so
    the composed matrix is checked against the operators before a
    combination's first case is drawn.  Only the pairing suites import the
    linear algebra and the cohomology engine, so the other suites never load
    them.
    """
    from .linalg import kernel_basis

    model = grid.model
    D = model.budget
    rng = closed_kernel = dd_kernel = None
    p = q = r = s = None

    def draw(case):
        nonlocal rng, closed_kernel, dd_kernel, p, q, r, s
        i, j = divmod(case, per)
        if j == 0:
            p, q, r, s = combos[i]
            rng = random.Random(seed + i)
            closed_kernel = kernel_basis(grid.matrix("stacked", p, q, D, D + grid.gap))
            dd_kernel = kernel_basis(grid.matrix("composed", r, s, D, D + 2 * grid.gap))
        phi = _sample_kernel_form(rng, model, p, q, D, closed_kernel)
        psi = _sample_kernel_form(rng, model, r, s, D, dd_kernel)
        a = random_form(rng, model, r - 1, s, D)
        b = random_form(rng, model, r, s - 1, D)
        return phi, psi, a, b, random_form(rng, model, p, q, D)

    def check(drawn):
        phi, psi, a, b, theta = drawn
        # (a)
        yield "closed_wedge_ddclosed", partial_f(dbar_f(phi.wedge(psi))).is_zero
        # (b)
        psi_exact = partial_f(a) + dbar_f(b)
        sign = -1 if phi.deg % 2 else 1
        target = phi.wedge(psi_exact)
        prim_a = phi.wedge(a).scale(sign)
        prim_b = phi.wedge(b).scale(sign)
        yield "closed_wedge_exact", (partial_f(prim_a) + dbar_f(prim_b)) == target
        # (c)
        exact = partial_f(dbar_f(theta))
        target = exact.wedge(psi)
        tsign = -1 if theta.deg % 2 else 1
        b1 = dbar_f(theta).wedge(psi) - theta.wedge(dbar_f(psi)).scale(tsign)
        b2 = theta.wedge(partial_f(psi)).scale(tsign) - partial_f(theta).wedge(psi)
        recon = partial_f(b1.scale(_HALF)) + dbar_f(b2.scale(_HALF))
        yield "ddexact_wedge_ddclosed", recon == target

    return _run_cases(per * len(combos), draw, check, label, per)


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
    from .cohomology import _Grid

    report = _pairing_cases(_Grid(model), [(p, q, r, s)], trials, seed).report("pairing", seed, trials)
    report["bidegrees"] = {"p": p, "q": q, "r": r, "s": s}
    return report


def suite_pairing(model: FoliationModel, seed: int, trials: int) -> dict:
    """The pairing statements spread over all bidegree combinations, one
    seed per combination; a counterexample names its combination."""
    from .cohomology import _Grid

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

    def label(case):
        return {"bidegrees": list(combos[case // per]), "case": case % per}

    t = _pairing_cases(_Grid(model), combos, per, seed, label)
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
