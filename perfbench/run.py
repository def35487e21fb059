"""Benchmark of whole leafcoh CLI runs, with an optional per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  A run writes seeded scenes, then repeats rounds until S
seconds are spent, starting a round only when it should end in time.  A
round takes a few ``setup_s`` samples (a fresh interpreter importing
``leafcoh.cli``) and one pass: every job of the workload in turn, each as a
fresh ``leafcoh`` process (closed loop, one client).  Every report is checked
against the exit code and SHA-256 recorded in ``expected.json``.  Without
tracing a run makes at least three passes.  With ``--trace 1`` passes
alternate between plain jobs and jobs run under ``traced_cli.py``, at least
one of each, and the per-layer metrics come from the traced passes.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record`` runs every job once at the default seed and rewrites
``expected.json``; use it only when a report is meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from traced_cli import ELIM_ENTRIES, MATRIX_ASSEMBLERS, ROW_FUNCTIONS, WELLDEF_RANK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACED_CLI = HERE / "traced_cli.py"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
SETUP_SAMPLES_PER_PASS = 5  # spread over the run, like the passes
MIN_PASSES = 3  # untraced passes in a run without tracing, even past --seconds
JOB_TIMEOUT_S = 150

# Scenes: the workload seed goes into each scene's "seed".  Only the check
# suites draw from it; the grid and sequence reports do not depend on it.
SCENES = {
    "sparse_m2": {
        "model": {"m": 2, "n": 0, "budget": 3, "f": "1+z1*zb2"},
        "grid": {"p": [0, 2], "q": [0, 2], "D": [2, 3]},
    },
    "sparse_m3": {
        "model": {"m": 3, "n": 0, "budget": 3, "f": "1+z1*zb2+z3^2"},
        "grid": {"p": 1, "q": 1, "D": 3},
    },
    # D=3: the row's D=4 stability probe eliminates the D=4 matrices too
    "dense_m2": {
        "model": {"m": 2, "n": 0, "budget": 3, "f": "1+z1+zb1+z2+zb2"},
        "grid": {"p": 1, "q": 1, "D": 3},
    },
    "relative_m2": {
        "model": {"m": 2, "n": 0, "budget": 2, "f": "1"},
        "morphism": {"z_components": ["z1*z2", "z2"], "x_components": []},
        "f_prime": "1+z1",
        "grid": {"p": 0, "D": 2},
    },
    "suites_m2": {
        "model": {"m": 2, "n": 0, "budget": 2, "f": "1+z1*zb2"},
        "morphism": {"z_components": ["z1*z2", "z1+z2^2"], "x_components": []},
        "f_prime": "1+z1",
        "trials": 400,
    },
}

# workload -> [(job name, scene, leafcoh arguments)]; why each workload is
# here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sparse_twist": [
        ("canonical_m2", "sparse_m2", ["cohomology", "--variant", "canonical"]),
        ("aeppli_m2", "sparse_m2", ["cohomology", "--variant", "aeppli"]),
        ("dolbeault_m3", "sparse_m3", ["cohomology", "--variant", "dolbeault"]),
    ],
    "dense_twist": [
        ("dolbeault_dense", "dense_m2", ["cohomology", "--variant", "dolbeault"]),
    ],
    "relative_les": [
        ("relative", "relative_m2", ["sequence", "--kind", "relative"]),
    ],
    "identity_suites": [
        (f"check_{suite}", "suites_m2", ["check", "--suite", suite])
        for suite in ("operators", "leibniz", "rescale", "intertwine")
    ],
}
SEED_DEPENDENT = {"identity_suites"}

# Wrapped names (see traced_cli.TARGETS), grouped as the metrics use them.
BASIS = ("cohomology._basis_cached", "cohomology._basis_index")
FORM_OPS = ("operators.dbar_f", "operators.partial_f", "operators.dbar_f_k", "operators.pullback")

# Per-layer metrics read from the spans of a traced pass:
#   self: summed self time of the spans named
#   count: number of spans named
#   total: summed duration of the spans named, tracer bookkeeping excluded
SPAN_METRICS = {
    "cli.parse_s": ("self", ["cli.load_scene"]),
    "cli.emit_s": ("self", ["cli.emit"]),
    "forms.basis_s": ("self", BASIS),
    "forms.basis_calls": ("count", BASIS),
    "operators.assembly_s": ("self", MATRIX_ASSEMBLERS + ("cohomology._composed_matrix",) + FORM_OPS),
    "operators.applications": ("count", FORM_OPS),
    "operators.matrices": ("count", MATRIX_ASSEMBLERS),
    "linalg.elim_s": ("self", ["linalg._gauss_jordan"]),
    "linalg.elim_calls": ("count", ["linalg._gauss_jordan"]),
    "linalg.plumbing_s": ("self", ["linalg.Matrix.from_columns", "linalg.Matrix.column"]),
    "cohomology.glue_s": ("self", ROW_FUNCTIONS),
    "cohomology.rows_computed": ("count", ROW_FUNCTIONS),
    "sequences.snake_s": (
        "self",
        [
            "sequences.snake_les",
            "sequences.relative_les",
            "sequences.delta_equals_pullback_check",
            "sequences.corollary_boundary_report",
            "sequences._snake",
            "sequences.complex_cohomology",
            "sequences._induced_matrix",
            "sequences._connect_class",
            "sequences._GradeCohomology.__init__",
            "sequences._GradeCohomology.class_coords",
        ],
    ),
    "sequences.class_coords_calls": ("count", ["sequences._GradeCohomology.class_coords"]),
    "sequences.structure_check_s": (
        "total",
        [
            "sequences.CochainComplex.__init__",
            "sequences.ChainMap.__init__",
            "sequences.ShortExactSequence.validate",
        ],
    ),
    "checks.suite_s": ("self", ["checks.run_suite"]),
    "sampling.s": (
        "self",
        [
            "sampling.random_form",
            "sampling.random_series",
            "sampling.random_unit_series",
            "sampling.random_morphism",
            "sampling.random_bidegree",
        ],
    ),
}
# Metrics computed in layer_metrics from counters, with the names they rest on.
DERIVED_SOURCES = {
    "cli.emit_bytes": ["cli.emit"],
    "forms.basis_hit_share": BASIS,
    "operators.recheck_s": ["cohomology._composed_matrix"],
    "operators.nnz": MATRIX_ASSEMBLERS,
    "linalg.elim_cols": ["linalg._gauss_jordan"],
    "linalg.verify_elim_s": ["linalg._gauss_jordan"],
    "linalg.repeat_share": ["linalg._gauss_jordan"],
    "linalg.blocks": ELIM_ENTRIES,
    "linalg.largest_block_cols": ELIM_ENTRIES,
    "cohomology.rows_duplicate_share": ROW_FUNCTIONS,
    "checks.cases": ["checks.run_suite"],
}
# An elimination is verification when its nearest wrapped ancestor, passing
# over ELIM_ENTRIES, is one of these.
VERIFY_PARENTS = {
    "linalg.Subspace.__init__",
    "linalg.quotient_dim",
    WELLDEF_RANK,
}


class BenchError(RuntimeError):
    pass


def per_layer_units() -> dict:
    """Per-layer metric names and units, in the order BENCHMARK.json gives them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_scenes(workdir: Path, seed: int) -> dict:
    paths = {}
    for name, scene in SCENES.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(dict(scene, seed=seed), sort_keys=True), encoding="utf-8")
        paths[name] = path
    return paths


class Launcher:
    """The process that spawns every job; see launcher.py for why."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv, stderr_path: Path):
        """Run one process to its end; return (wall seconds, exit code, ru_maxrss KiB)."""
        job = {"argv": argv, "stderr": str(stderr_path), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise BenchError(f"launcher stopped (exit {self.proc.poll()})")
        return float(reply[0]), int(reply[1]), int(reply[2])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_pass(workload: str, scenes: dict, workdir: Path, launcher, traced: bool, tag: str) -> dict:
    """Run every job of the workload once, in order; time the whole pass."""
    jobs = []
    start = time.perf_counter()
    for name, scene, args in WORKLOADS[workload]:
        report = workdir / f"{tag}.{name}.out"
        spans = workdir / f"{tag}.{name}.spans.json"
        cli_args = args + ["--scene", str(scenes[scene]), "--out", str(report)]
        if traced:
            argv = [sys.executable, str(TRACED_CLI), str(spans), f"{tag}.{name}", "--"] + cli_args
        else:
            argv = [sys.executable, "-m", "leafcoh.cli"] + cli_args
        wall, code, rss_kib = launcher.spawn(argv, workdir / f"{tag}.{name}.err")
        jobs.append({"name": name, "wall": wall, "exit": code, "rss_kib": rss_kib,
                     "report": report, "spans": spans if traced else None,
                     "stderr": workdir / f"{tag}.{name}.err"})
    return {"wall": time.perf_counter() - start, "jobs": jobs}


def check_job(workload: str, job: dict, seed: int, expected: dict) -> str | None:
    """None when the job's exit code and report are right, else the reason."""
    try:
        data = job["report"].read_bytes()
    except FileNotFoundError:
        return f"exit {job['exit']} and no report"
    want = expected["jobs"].get(f"{workload}/{job['name']}")
    if want is None:
        return "no recorded expectation"
    if seed == expected["seed"] or workload not in SEED_DEPENDENT:
        if job["exit"] != want["exit"]:
            return f"exit {job['exit']}, recorded {want['exit']}"
        if hashlib.sha256(data).hexdigest() != want["sha256"]:
            return "report differs from the recorded one"
        return None
    # another seed draws other cases: the suite must still find no violation
    if job["exit"] != 0:
        return f"exit {job['exit']}"
    report = json.loads(data)
    if report.get("violations_total") != 0 or report.get("seed") != seed:
        return f"violations_total {report.get('violations_total')} at seed {report.get('seed')}"
    return None


# ---------------------------------------------------------------------------
# Set-up, sizes and metadata
# ---------------------------------------------------------------------------


def check_checkout(env):
    if not (SRC / "leafcoh" / "cli.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'leafcoh'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import leafcoh.cli; print(leafcoh.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    where = probe.stdout.strip()
    if probe.returncode != 0 or Path(where).resolve() != (SRC / "leafcoh" / "cli.py").resolve():
        raise BenchError(f"leafcoh.cli does not import from {SRC}: {probe.stderr.strip() or where}")


def measure_setup(launcher, workdir: Path) -> list:
    argv = [sys.executable, "-c", "import leafcoh.cli"]
    return [launcher.spawn(argv, workdir / "setup.err")[0] for _ in range(SETUP_SAMPLES_PER_PASS)]


def grid_sizes(scene_path: Path, variant: str) -> list:
    """Closed-form domain and codomain dimensions of every grid row."""
    from leafcoh.cli import load_scene
    from leafcoh.forms import basis_dimension

    scene = load_scene(str(scene_path))
    model = scene.model
    gap = max(model.f.degree - 1, 0)
    rows = []
    for p in scene.grid_axis("p", [0, model.m]):
        for q in scene.grid_axis("q", [0, model.m]):
            for D in scene.grid_axis("D", model.budget):
                if variant == "aeppli":  # kernel of partial_f dbar_f
                    codomain = basis_dimension(model, p + 1, q + 1, D + 2 * gap)
                elif variant in ("bc", "canonical"):  # kernel of (partial_f, dbar_f)
                    codomain = basis_dimension(model, p + 1, q, D + gap) + basis_dimension(
                        model, p, q + 1, D + gap
                    )
                else:
                    codomain = basis_dimension(model, p, q + 1, D + gap)
                rows.append({"p": p, "q": q, "D": D, "domain": basis_dimension(model, p, q, D),
                             "codomain": codomain})
    return rows


def job_sizes(workload: str, scenes: dict) -> dict:
    sys.path.insert(0, str(SRC))
    sizes = {}
    for name, scene, args in WORKLOADS[workload]:
        if args[0] == "cohomology":
            sizes[name] = grid_sizes(scenes[scene], args[args.index("--variant") + 1])
    return sizes


def metadata(load_at_start) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "leafcoh").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(records: list, reports: list) -> dict:
    """Per-layer metrics of one traced pass: its jobs' spans, summed."""
    out = {name: 0 for name in per_layer_units() if name != "trace.overhead_share"}
    hits = misses = repeats = 0
    for rec in records:
        names = rec["names"]
        spans = rec["spans"]
        counts = rec["counts"]
        dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        under = [s[4] for s in spans]  # tracer bookkeeping within each subtree
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0:
                child[parent] += dur[i]
                under[parent] += under[i]
        self_ns = [dur[i] - child[i] - spans[i][4] for i in range(len(spans))]
        by_name: dict = {}
        children: dict = {}
        for i, s in enumerate(spans):
            by_name.setdefault(names[s[0]], []).append(i)
            children.setdefault(s[3], []).append(i)
        for metric, (kind, sources) in SPAN_METRICS.items():
            idx = [i for src in sources for i in by_name.get(src, ())]
            if kind == "count":
                out[metric] += len(idx)
            elif kind == "self":
                out[metric] += sum(self_ns[i] for i in idx) / 1e9
            else:
                out[metric] += sum(dur[i] - under[i] for i in idx) / 1e9
        # the composition's own work: all of it but the two factor matrices
        for i in by_name.get("cohomology._composed_matrix", ()):
            assembled = sum(dur[j] - under[j] for j in children.get(i, ())
                            if names[spans[j][0]] == "cohomology.operator_matrix")
            out["operators.recheck_s"] += (dur[i] - under[i] - assembled) / 1e9
        for i in by_name.get("linalg._gauss_jordan", ()):
            parent = spans[i][3]
            while parent >= 0 and names[spans[parent][0]] in ELIM_ENTRIES:
                parent = spans[parent][3]
            if parent >= 0 and names[spans[parent][0]] in VERIFY_PARENTS:
                out["linalg.verify_elim_s"] += self_ns[i] / 1e9
        out["operators.nnz"] += counts.get("operators.nnz", 0)
        out["linalg.elim_cols"] += counts.get("linalg.elim_cols", 0)
        out["linalg.blocks"] += counts.get("linalg.blocks", 0)
        out["linalg.largest_block_cols"] = max(out["linalg.largest_block_cols"],
                                               counts.get("linalg.largest_block_cols", 0))
        repeats += counts.get("linalg.elim_repeats", 0)
        out["cohomology.rows_duplicate_share"] += counts.get("cohomology.rows_duplicate", 0)
        hits += counts.get("forms.basis_hits", 0)
        misses += counts.get("forms.basis_misses", 0)
    for data in reports:
        out["cli.emit_bytes"] += len(data)
        report = json.loads(data)
        if "identities" in report:
            out["checks.cases"] += sum(e["cases"] for e in report["identities"])
    out["forms.basis_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    out["linalg.repeat_share"] = repeats / out["linalg.elim_calls"] if out["linalg.elim_calls"] else 0.0
    dup = out["cohomology.rows_duplicate_share"]
    rows = out["cohomology.rows_computed"]
    out["cohomology.rows_duplicate_share"] = dup / rows if rows else 0.0
    return out


def absent_metrics(absent: set) -> list:
    gone = []
    for metric in per_layer_units():
        sources = SPAN_METRICS[metric][1] if metric in SPAN_METRICS else DERIVED_SOURCES.get(metric)
        if sources and all(src in absent for src in sources):
            gone.append(metric)
    return gone


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def print_line(name, unit, values):
    """Median, quartiles and sample count of one timing."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    print(f"{name:<32} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


@contextlib.contextmanager
def workspace(prefix: str, seed: int):
    """Scenes for the seed and a started launcher; both gone on exit."""
    env = child_env()
    check_checkout(env)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=prefix + ".", dir=WORK))
    try:
        with Launcher(env) as launcher:
            yield workdir, write_scenes(workdir, seed), launcher
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    load_at_start = os.getloadavg()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    with workspace(workload, seed) as (workdir, scenes, launcher):
        print(f"# perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
        print("meta " + json.dumps(metadata(load_at_start), sort_keys=True))
        for name, rows in job_sizes(workload, scenes).items():
            print(f"sizes {name} " + json.dumps(rows, sort_keys=True))
        plain, traced, layers, setup = [], [], [], []
        attempted = failed = 0
        absent: set = set()
        deadline = time.perf_counter() + seconds
        rounds = {False: [], True: []}  # seconds per round (set-up samples and a pass)
        while True:
            use_trace = trace and len(traced) < len(plain)
            enough = bool(plain and traced) if trace else len(plain) >= MIN_PASSES
            # start a round only when it should end by the deadline
            if enough and time.perf_counter() + statistics.median(rounds[use_trace]) > deadline:
                break
            round_start = time.perf_counter()
            setup.extend(measure_setup(launcher, workdir))
            result = run_pass(workload, scenes, workdir, launcher, use_trace, f"p{len(plain) + len(traced)}")
            reports = []
            for job in result["jobs"]:
                attempted += 1
                reason = check_job(workload, job, seed, expected)
                if reason is not None:
                    failed += 1
                    err = job["stderr"].read_text(encoding="utf-8", errors="replace").strip()
                    print(f"FAILED {job['name']}: {reason}" + (f"\n{err}" if err else ""))
                else:
                    reports.append(job["report"].read_bytes())
            if use_trace:
                records = [json.loads(job["spans"].read_text(encoding="utf-8"))
                           for job in result["jobs"] if job["spans"].is_file()]
                for rec in records:
                    absent.update(rec["absent"])
                layers.append(layer_metrics(records, reports))
                traced.append(result["wall"])
            else:
                plain.append((result["wall"], max(job["rss_kib"] for job in result["jobs"]) / 1024))
            rounds[use_trace].append(time.perf_counter() - round_start)

    walls = [w for w, _ in plain]
    peaks = [m for _, m in plain]
    print_line("wall_s", "s", walls)
    print_line("peak_rss_mb", "MB", peaks)
    print_line("setup_s", "s", setup)
    print(f"{'failed_share':<32} {failed / attempted:.6g}  ({failed} of {attempted} jobs)")
    if trace:
        print_line("traced wall_s", "s", traced)
        metrics = {}
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_share":
                value = statistics.median(traced) / statistics.median(walls) - 1
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<32} {value:.6g} {unit}")
        print("absent names " + json.dumps(sorted(absent)))
        print("absent metrics " + json.dumps(absent_metrics(absent)))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record():
    """Run every job once at the default seed and write expected.json."""
    jobs = {}
    with workspace("record", DEFAULT_SEED) as (workdir, scenes, launcher):
        for workload in WORKLOADS:
            for job in run_pass(workload, scenes, workdir, launcher, False, "rec")["jobs"]:
                data = job["report"].read_bytes()
                jobs[f"{workload}/{job['name']}"] = {
                    "exit": job["exit"],
                    "sha256": hashlib.sha256(data).hexdigest(),
                }
                print(f"{workload}/{job['name']}: exit {job['exit']}, {len(data)} bytes")
    EXPECTED.write_text(json.dumps({"seed": DEFAULT_SEED, "jobs": jobs}, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json at the default seed")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
