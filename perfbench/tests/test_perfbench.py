"""Tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Tracing must not change a report byte, a wrapped name that is gone must be
listed as absent without failing the job, and self time must be read the
way README.md describes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run as bench  # noqa: E402


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("scenes")
    return bench.write_scenes(workdir, bench.DEFAULT_SEED)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_and_plain_reports_are_byte_identical(workload, scenes, tmp_path):
    expected = json.loads(bench.EXPECTED.read_text(encoding="utf-8"))
    with bench.Launcher(bench.child_env()) as launcher:
        plain = bench.run_pass(workload, scenes, tmp_path, launcher, False, "plain")
        traced = bench.run_pass(workload, scenes, tmp_path, launcher, True, "traced")
    for a, b in zip(plain["jobs"], traced["jobs"]):
        assert a["report"].read_bytes() == b["report"].read_bytes(), a["name"]
        assert a["exit"] == b["exit"]
        assert bench.check_job(workload, a, bench.DEFAULT_SEED, expected) is None
        record = json.loads(b["spans"].read_text(encoding="utf-8"))
        assert record["absent"] == []


def test_missing_wrapped_name_is_listed_absent_and_job_runs(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(bench.SRC / "leafcoh", src / "leafcoh", ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "leafcoh" / "cohomology.py"
    module.write_text(module.read_text().replace("_composed_matrix", "_composed_product"))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "model": {"m": 1, "n": 0, "budget": 1, "f": "1+z1*zb1"},
        "grid": {"p": [0, 1], "q": [0, 1], "D": 1},
    }))
    env = dict(bench.child_env(), PYTHONPATH=str(src))
    args = ["cohomology", "--variant", "aeppli", "--scene", str(scene), "--out"]
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(bench.TRACED_CLI), str(spans), "job", "--", *args, str(tmp_path / "t.json")],
        env=env,
    )
    plain = subprocess.run([sys.executable, "-m", "leafcoh.cli", *args, str(tmp_path / "p.json")], env=env)
    assert traced.returncode == plain.returncode == 0
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "p.json").read_bytes()
    record = json.loads(spans.read_text())
    assert record["absent"] == ["cohomology._composed_matrix"]
    assert bench.absent_metrics(set(record["absent"])) == ["operators.recheck_s"]
    metrics = bench.layer_metrics([record], [(tmp_path / "t.json").read_bytes()])
    assert metrics["operators.recheck_s"] == 0
    assert metrics["cohomology.rows_computed"] == 8


def test_self_time_and_verification_attribution():
    # cli.main 0..100 > aeppli_row 10..90 > Subspace.__init__ 20..60
    #   > rank 25..55 (5 ns of tracer bookkeeping) > _gauss_jordan 30..50;
    # aeppli_row > kernel_basis 60..80 > _gauss_jordan 62..78
    names = ["cli.main", "cohomology.aeppli_row", "linalg.Subspace.__init__",
             "linalg.rank", "linalg._gauss_jordan", "linalg.kernel_basis"]
    spans = [[0, 0, 100, -1, 0], [1, 10, 90, 0, 0], [2, 20, 60, 1, 0], [3, 25, 55, 2, 5],
             [4, 30, 50, 3, 0], [5, 60, 80, 1, 0], [4, 62, 78, 5, 0]]
    record = {"names": names, "spans": spans, "counts": {"linalg.elim_repeats": 1}}
    metrics = bench.layer_metrics([record], [])
    assert metrics["cohomology.glue_s"] == pytest.approx(20e-9)  # 80 - 40 - 20
    assert metrics["linalg.elim_s"] == pytest.approx(36e-9)
    assert metrics["linalg.verify_elim_s"] == pytest.approx(20e-9)
    assert metrics["linalg.elim_calls"] == 2
    assert metrics["linalg.repeat_share"] == 0.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_twist", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""
