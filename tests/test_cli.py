import hashlib
import importlib.util
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from leafcoh import cli, cohomology, linalg, operators, sequences
from leafcoh.cli import EXIT_INTERNAL, main
from leafcoh.linalg import Matrix

SCENES = pathlib.Path(__file__).resolve().parents[1] / "scenes"


def write_scene(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(args):
    return main(args)


def test_check_operators_exit_zero(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 1, "n": 0, "budget": 2, "f": "1 + z1"}, "seed": 5, "trials": 20},
    )
    assert run(["check", "--scene", scene, "--suite", "operators"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations_total"] == 0
    assert report["seed"] == 5


def test_check_requires_seed(tmp_path, capsys):
    scene = write_scene(
        tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}}
    )
    assert run(["check", "--scene", scene, "--suite", "operators"]) == 2
    assert "seed" in capsys.readouterr().err


def test_malformed_series_exit_two(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 1, "n": 0, "budget": 2, "f": "1 + qq1"}, "seed": 1},
    )
    assert run(["check", "--scene", scene, "--suite", "operators"]) == 2
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize(
    "f, message",
    [
        ("1/0", "zero denominator (at position 2)"),
        ("1+z1^1000000000", "term z1^1000000000 of degree 1000000000 exceeds budget 64"),
        ("(" * 400 + "1" + ")" * 400, "parentheses nested too deeply (at position 100)"),
    ],
    ids=["zero_denominator", "huge_exponent", "nested_too_deeply"],
)
def test_bad_twist_number_exits_two(tmp_path, capsys, f, message):
    scene = write_scene(
        tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 2, "f": f}, "grid": {"p": 0, "q": 0, "D": 1}}
    )
    assert run(["cohomology", "--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "scene, out, message",
    [
        ("{tmp}", None, "[Errno 21] Is a directory: '{tmp}'"),
        ("{scenes}/twist_vanishing.json", "{tmp}", "[Errno 21] Is a directory: '{tmp}'"),
        ("{scenes}/twist_vanishing.json", "{tmp}/no/r.json", "[Errno 2] No such file or directory: '{tmp}/no/r.json'"),
        ("{tmp}/no.json", None, "[Errno 2] No such file or directory: '{tmp}/no.json'"),
    ],
    ids=["scene_is_a_directory", "out_is_a_directory", "out_in_a_missing_directory", "missing_scene"],
)
def test_unusable_path_exits_two(tmp_path, capsys, scene, out, message):
    # a path that cannot be opened is an input error, never a traceback
    def place(text):
        return text.format(tmp=tmp_path, scenes=SCENES)

    argv = ["cohomology", "--scene", place(scene)] + (["--out", place(out)] if out else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {place(message)}\n"


def test_scene_json_nested_too_deeply_exits_two(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["cohomology", "--scene", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scene JSON is nested too deeply\n"


def test_unknown_suite_exits_two(tmp_path):
    scene = write_scene(
        tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}, "seed": 1}
    )
    with pytest.raises(SystemExit) as err:
        run(["check", "--scene", scene, "--suite", "nonsense"])
    assert err.value.code == 2


def test_operator_suite_reads_scene_g(tmp_path, capsys):
    data = {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}, "g": "1+z1", "seed": 9, "trials": 5}
    assert run(["check", "--scene", write_scene(tmp_path, "s.json", data), "--suite", "operators"]) == 0
    assert json.loads(capsys.readouterr().out)["violations_total"] == 0


def test_rescale_suite_skips_non_unit_h(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "h": "z1",
            "seed": 9,
            "trials": 5,
        },
    )
    assert run(["check", "--scene", scene, "--suite", "rescale"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["identities"][0]
    assert entry["skipped"] == "non-unit h in scene"
    assert entry["cases"] == 0


def test_cohomology_grid_json_and_csv(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "z1"},
            "grid": {"p": [0, 1], "q": [0, 1], "D": 2},
            "seed": 1,
        },
    )
    assert run(["cohomology", "--scene", scene, "--variant", "dolbeault"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["rows"]) == 4
    out = tmp_path / "table.csv"
    assert (
        run(
            [
                "cohomology",
                "--scene",
                scene,
                "--variant",
                "dolbeault",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,q,D,ker,im,dim"
    assert len(lines) == 5


def test_cohomology_range_validation(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "grid": {"p": [0, 1], "q": [0, 2], "D": 2},
            "seed": 1,
        },
    )
    assert run(["cohomology", "--scene", scene]) == 2
    assert "outside" in capsys.readouterr().err


def test_sequence_relative_and_friends(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "morphism": {"z_components": ["z1^2"], "x_components": []},
            "f_prime": "z1",
            "grid": {"p": 0, "D": 2},
            "seed": 1,
        },
    )
    assert run(["sequence", "--scene", scene, "--kind", "relative"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["les"]["exact_everywhere"]
    assert run(["sequence", "--scene", scene, "--kind", "delta"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["all_equal"]
    assert run(["sequence", "--scene", scene, "--kind", "boundary"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["all_pass"]


def test_sequence_missing_fixture_exits_two(tmp_path, capsys):
    scene = write_scene(
        tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}, "seed": 1}
    )
    assert run(["sequence", "--scene", scene, "--kind", "relative"]) == 2
    assert run(["sequence", "--scene", scene, "--kind", "mv"]) == 2


def test_sequence_mv_laurent(capsys):
    assert run(["sequence", "--scene", str(SCENES / "mv_laurent.json"), "--kind", "mv"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ses_valid"] and report["les"]["exact_everywhere"]


def test_sequence_mv_reports_name_their_cover_window(tmp_path, capsys):
    # the Laurent cover at D=1..6: each report echoes its D, and no two agree
    scene = json.loads((SCENES / "mv_laurent.json").read_text(encoding="utf-8"))
    reports = []
    for D in range(1, 7):
        path = write_scene(tmp_path, f"mv{D}.json", dict(scene, cover={"kind": "laurent", "D": D}))
        assert run(["sequence", "--scene", path, "--kind", "mv"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert (report["kind"], report["cover"], report["D"]) == ("mv", "laurent", D)
        reports.append(out)
    assert len(set(reports)) == 6


def test_sequence_mv_degenerate_expected_failure(capsys):
    assert (
        run(["sequence", "--scene", str(SCENES / "mv_degenerate.json"), "--kind", "mv"])
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["ses_valid"] is False
    assert any(f["condition"] == "project_surjective" for f in report["findings"])


def test_sequence_mv_degenerate_unexpected_failure(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "cover": {"kind": "degenerate", "D": 2},
            "seed": 1,
        },
    )
    assert run(["sequence", "--scene", scene, "--kind", "mv"]) == 1


def test_solve_roundtrip_and_exit_codes(tmp_path, capsys):
    assert run(["solve", "--scene", str(SCENES / "solve_untwisted.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["found"] and report["certified"]

    zero_scene = write_scene(
        tmp_path,
        "zero.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "target": {"op": "dbar_f", "form": {"p": 0, "q": 1, "terms": []}},
            "seed": 1,
        },
    )
    assert run(["solve", "--scene", zero_scene]) == 0
    capsys.readouterr()

    not_closed = write_scene(
        tmp_path,
        "open.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "target": {
                "op": "dbar",
                "form": {"p": 0, "q": 0, "terms": [{"A": [], "B": [], "coeff": "zb1"}]},
            },
            "seed": 1,
        },
    )
    assert run(["solve", "--scene", not_closed]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "target not closed"

    unreachable = write_scene(
        tmp_path,
        "unreachable.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "z1"},
            "target": {
                "op": "dbar_f",
                "form": {"p": 0, "q": 1, "terms": [{"A": [], "B": [1], "coeff": "1"}]},
            },
            "slack": 2,
            "seed": 1,
        },
    )
    assert run(["solve", "--scene", unreachable]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["found"] is False


def test_solve_tilde_via_cli(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "tilde.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "morphism": {"z_components": ["z1"], "x_components": []},
            "f_prime": "1",
            "target": {
                "op": "tilde",
                "phi": {"p": 0, "q": 1, "terms": []},
                "psi": {"p": 0, "q": 0, "terms": [{"A": [], "B": [], "coeff": "1"}]},
            },
            "slack": 1,
            "seed": 1,
        },
    )
    # (0, 1) is tilde-closed and hit by (1, 0): the solver must find it
    assert run(["solve", "--scene", scene]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["found"] and report["certified"]


def test_reports_are_byte_identical(tmp_path):
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 1, "n": 1, "budget": 2, "f": "1 + z1"}, "seed": 77, "trials": 25},
    )
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["check", "--scene", scene, "--suite", "intertwine", "--out", str(out1)]) == 0
    assert run(["check", "--scene", scene, "--suite", "intertwine", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sequence_with_transverse_morphism(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 1, "budget": 1, "f": "1"},
            "morphism": {"z_components": ["z1*x1"], "x_components": ["x1"]},
            "f_prime": "1 + x1",
            "grid": {"p": 0, "D": 1},
            "seed": 2,
        },
    )
    assert run(["sequence", "--scene", scene, "--kind", "relative"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["les"]["exact_everywhere"]


def test_intertwine_with_scene_pair(tmp_path, capsys):
    # morphism z' = z1^2 with f = z1^2, f' = z1 and alpha = 1 is a valid pair
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "z1^2"},
            "morphism": {"z_components": ["z1^2"], "x_components": []},
            "f_prime": "z1",
            "pair": {"alpha": "1"},
            "seed": 13,
            "trials": 10,
        },
    )
    assert run(["check", "--scene", scene, "--suite", "intertwine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations_total"] == 0


def test_invalid_scene_pair_rejected(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "morphism": {"z_components": ["z1^2"], "x_components": []},
            "f_prime": "z1",
            "pair": {"alpha": "1"},
            "seed": 13,
        },
    )
    assert run(["check", "--scene", scene, "--suite", "intertwine"]) == 2
    assert "constraint" in capsys.readouterr().err


def test_basic_twist_flag(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 1, "budget": 2, "f": "1 + z1"},
            "basic_twist_only": True,
            "seed": 3,
        },
    )
    assert run(["check", "--scene", scene, "--suite", "operators"]) == 2
    assert "basic twist" in capsys.readouterr().err
    ok_scene = write_scene(
        tmp_path,
        "ok.json",
        {
            "model": {"m": 1, "n": 1, "budget": 2, "f": "1 + x1"},
            "basic_twist_only": True,
            "seed": 3,
            "trials": 5,
        },
    )
    assert run(["check", "--scene", ok_scene, "--suite", "operators"]) == 0


def test_seed_flag_overrides_scene(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}, "seed": 1, "trials": 5},
    )
    assert run(["check", "--scene", scene, "--suite", "leibniz", "--seed", "42"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 42


def _patch_operator_matrix(monkeypatch, corrupt):
    """Make cohomology build every operator matrix as corrupt(tag, matrix)."""
    real = cohomology.operator_matrix
    monkeypatch.setattr(
        cohomology, "operator_matrix", lambda tag, *args, **kw: corrupt(tag, real(tag, *args, **kw))
    )


def _bump_first_entry(wanted):
    """A corrupt(tag, matrix) that adds 1 to the first entry of each `wanted` matrix."""

    def corrupt(tag, M):
        if tag != wanted or not M.entries:
            return M
        entries = dict(M.entries)
        key = min(entries)
        entries[key] = entries[key] + 1
        return Matrix(M.rows, M.cols, entries)

    return corrupt


def test_failed_composition_check_exits_internal(tmp_path, capsys, monkeypatch):
    _patch_operator_matrix(monkeypatch, _bump_first_entry("partial_f"))
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 1, "n": 0, "budget": 1, "f": "1 + z1"}, "grid": {"p": 0, "q": 0, "D": 1}},
    )
    assert run(["cohomology", "--scene", scene, "--variant", "aeppli"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: composed operator disagrees with matrix product\n"


def _bump_lowest_degree_entry(wanted):
    """A corrupt(tag, matrix) that adds 1 to the first entry of the first nonzero
    column of each `wanted` matrix: the basis lists degree 0 first, so the
    entry stays in the matrix's restriction to every lower budget."""

    def corrupt(tag, M):
        if tag != wanted or not M.entries:
            return M
        entries = dict(M.entries)
        key = min(entries, key=lambda rc: (rc[1], rc[0]))
        entries[key] = entries[key] + 1
        return Matrix(M.rows, M.cols, entries)

    return corrupt


@pytest.mark.parametrize("variant", ["dolbeault", "k", "bc", "aeppli", "canonical"])
def test_corrupted_low_degree_entry_exits_internal_on_every_variant(tmp_path, capsys, monkeypatch, variant):
    # a grid assembles each operator once, at its largest budget, and restricts
    # it to the lower ones: the corrupted entry reaches every budget's checks
    _patch_operator_matrix(monkeypatch, _bump_lowest_degree_entry("dbar_f_k" if variant == "k" else "dbar_f"))
    data = {"model": {"m": 2, "n": 0, "budget": 2, "f": "1+z1*zb2"}, "grid": {"p": [0, 2], "q": [0, 2], "D": [1, 2]}}
    scene = write_scene(tmp_path, "s.json", dict(data, k=1) if variant == "k" else data)
    assert run(["cohomology", "--scene", scene, "--variant", variant]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


@pytest.mark.parametrize("variant", ["bc", "aeppli", "canonical"])
def test_escaping_composed_entry_exits_internal(tmp_path, capsys, monkeypatch, variant):
    # position 0 is the constant dz1 ^ dzb1 at every budget.  It is not
    # dbar_f-closed, so a bump at (0, 0) of partial_f dbar_f from (0,0) leaves
    # the Bott-Chern kernel (canonical proves its Bott-Chern group first); and
    # dbar_f(zb1 dz1) has a dz1 ^ dzb1 term, so the bumped Aeppli kernel
    # matrix out of (1,1) no longer kills the image
    real = cohomology._composed_matrix

    def escaping(*args):
        C = real(*args)
        if not C.rows or not C.cols:
            return C
        entries = dict(C.entries)
        entries[(0, 0)] = entries.get((0, 0), 0) + 1
        return Matrix(C.rows, C.cols, entries)

    monkeypatch.setattr(cohomology, "_composed_matrix", escaping)
    data = {"model": {"m": 2, "n": 0, "budget": 2, "f": "1+z1*zb2"}, "grid": {"p": 1, "q": 1, "D": 2}}
    scene = write_scene(tmp_path, "s.json", data)
    assert run(["cohomology", "--scene", scene, "--variant", variant]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"


def test_failed_primitive_certification_exits_internal(capsys, monkeypatch):
    # doubling every entry keeps the system solvable but halves the primitive
    _patch_operator_matrix(
        monkeypatch, lambda tag, M: Matrix(M.rows, M.cols, {k: v * 2 for k, v in M.entries.items()})
    )
    assert run(["solve", "--scene", str(SCENES / "solve_untwisted.json")]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: primitive certification failed\n"


def test_broken_complex_exits_internal(tmp_path, capsys, monkeypatch):
    # a corrupted dbar_f no longer squares to zero: the image escapes the kernel
    _patch_operator_matrix(monkeypatch, _bump_first_entry("dbar_f"))
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 2, "n": 0, "budget": 1, "f": "1 + z1"}, "grid": {"p": 0, "q": 1, "D": 1}},
    )
    assert run(["cohomology", "--scene", scene, "--variant", "dolbeault"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"


def _add_constant_entry(monkeypatch, wanted, built_at=None):
    """Make cohomology add 1 at (0, 0) of the operator matrix out of bidegree
    wanted = (tag, p, q), or only of the one assembled from budget built_at.
    Row and column 0 are the constant forms, in a degree-0 column, so the
    entry stays in the matrix's restriction to every lower budget."""
    real = cohomology.operator_matrix

    def corrupt(tag, model, p, q, in_budget, out_budget, k=None):
        M = real(tag, model, p, q, in_budget, out_budget, k)
        if (tag, p, q) != wanted or built_at not in (None, in_budget) or not (M.rows and M.cols):
            return M
        entries = dict(M.entries)
        entries[(0, 0)] = entries.get((0, 0), 0) + 1
        return Matrix(M.rows, M.cols, entries)

    monkeypatch.setattr(cohomology, "operator_matrix", corrupt)


# row (0,1) of f = 1 + z1*zb2: the kernel is dbar_f out of (0,1) and the image dbar_f out of (0,0)
BROKEN_FACTOR_MODEL = {"m": 2, "n": 0, "budget": 3, "f": "1+z1*zb2"}


@pytest.mark.parametrize("factor", [(0, 1), (0, 0)], ids=["kernel", "image"])
def test_broken_factor_in_a_constant_column_exits_internal(tmp_path, capsys, monkeypatch, factor):
    # each pair of families is proved once, at the top budget 4 of the D = 3
    # probe; the entry lies in every lower budget's matrices, which that proof covers
    _add_constant_entry(monkeypatch, ("dbar_f",) + factor)
    data = {"model": BROKEN_FACTOR_MODEL, "grid": {"p": 0, "q": 1, "D": [1, 3]}}
    scene = write_scene(tmp_path, "s.json", data)
    assert run(["cohomology", "--scene", scene, "--variant", "dolbeault"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"


def test_broken_rebuilt_family_is_proved_again(tmp_path, capsys, monkeypatch):
    # cohomology_grid runs the budgets of each (p, q) from the top down, so a
    # family is rebuilt higher only when a later (p, q) asks for more: row
    # (0,1) builds and proves dbar_f out of (0,0) at budget 3, clean; row
    # (0,0) rebuilds it at budget 4 with the wrong entry; and the repeated row
    # (0,1) must prove the pair again to see it
    _add_constant_entry(monkeypatch, ("dbar_f", 0, 0), built_at=4)
    data = {"model": BROKEN_FACTOR_MODEL, "grid": {"p": 0, "q": [1, 0, 1], "D": [1, 3]}}
    scene = write_scene(tmp_path, "s.json", data)
    assert run(["cohomology", "--scene", scene, "--variant", "dolbeault"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"
    # the first two rows alone pass: the clean family is proved, the rebuilt one is not yet used
    data["grid"]["q"] = [1, 0, 0]
    assert run(["cohomology", "--scene", write_scene(tmp_path, "t.json", data), "--variant", "dolbeault"]) == 0
    capsys.readouterr()


def test_broken_canonical_factor_exits_internal(tmp_path, capsys, monkeypatch):
    # partial_f out of (0,0) is the P of row (1,1)'s M.P + C = 0 and enters
    # no group of the row: only the canonical check sees the wrong entry
    _add_constant_entry(monkeypatch, ("partial_f", 0, 0))
    data = {"model": BROKEN_FACTOR_MODEL, "grid": {"p": 1, "q": 1, "D": [1, 3]}}
    scene = write_scene(tmp_path, "s.json", data)
    assert run(["cohomology", "--scene", scene, "--variant", "canonical"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: canonical map ill-defined: Bott-Chern image escapes the Dolbeault image\n"
    for variant in ("dolbeault", "bc"):
        assert run(["cohomology", "--scene", scene, "--variant", variant]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("variant, knobs", [("dolbeault", {"slack": 1}), ("k", {"slack": 2, "k": 1})])
def test_broken_complex_with_slack_exits_internal(tmp_path, capsys, monkeypatch, variant, knobs):
    # with slack the image is cut down to the budget-D block before the check
    _patch_operator_matrix(monkeypatch, _bump_first_entry("dbar_f" if variant == "dolbeault" else "dbar_f_k"))
    data = {"model": {"m": 2, "n": 0, "budget": 1, "f": "1 + z1"}, "grid": {"p": 0, "q": 1, "D": 1}}
    scene = write_scene(tmp_path, "s.json", dict(data, **knobs))
    assert run(["cohomology", "--scene", scene, "--variant", variant]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"


@pytest.mark.parametrize(
    "command, data",
    [
        (
            ["solve"],
            {
                "model": {"m": 1, "n": 0, "budget": 1, "f": "1"},
                "target": {"op": "dbar", "form": {"p": 0, "q": 1, "budget": 65536, "terms": [{"A": [], "B": [1], "coeff": "zb1"}]}},
            },
        ),
        (["check", "--suite", "operators"], {"model": {"m": 1, "n": 0, "budget": 65536, "f": "1+z1"}, "seed": 1, "trials": 3}),
    ],
    ids=["solve-form-budget", "check-model-budget"],
)
def test_budget_past_the_packed_limit_exits_two(tmp_path, capsys, command, data):
    # a packed monomial holds degrees up to 65535; a larger budget is an input
    # error before any key is made, where it used to run without end
    scene = write_scene(tmp_path, "s.json", data)
    assert run([command[0], "--scene", scene] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget 65536 exceeds 65535, the largest degree a packed monomial holds\n"


@pytest.mark.parametrize("op", ["dbar", "partial"])
def test_termless_target_past_the_packed_limit_exits_two(tmp_path, capsys, op):
    # with no term the parser never sees the budget; the form's constructor
    # refuses it, where the assembler used to table monomials up to degree 70000
    data = {"model": {"m": 1, "n": 0, "budget": 1, "f": "1"}, "target": {"op": op, "form": {"p": 0, "q": 1, "budget": 70000, "terms": []}}}
    assert run(["solve", "--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget 70000 exceeds 65535, the largest degree a packed monomial holds\n"


def test_generators_out_of_order_exit_two(tmp_path, capsys):
    # forms store strictly increasing index tuples only: a target term on
    # dz2 ^ dz1 is refused, not reordered with a sign
    term = {"A": [2, 1], "B": [], "coeff": "z1"}
    data = {"model": {"m": 2, "n": 0, "budget": 1, "f": "1"}, "target": {"op": "dbar", "form": {"p": 2, "q": 0, "terms": [term]}}}
    assert run(["solve", "--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multi-index (2, 1) is not strictly increasing\n"


def _shifted_order(monkeypatch):
    # a column order one past the matrix: the union-find indexes out of range
    real = linalg.pivot_columns
    monkeypatch.setattr(
        linalg, "pivot_columns", lambda M, order=None: real(M, None if order is None else [c + 1 for c in order])
    )


def _misplaced_monomials(monkeypatch):
    # the re-check's bases keyed by shifted monomials: an output term finds no target position
    real = cohomology._basis_keys
    monkeypatch.setattr(cohomology, "_basis_keys", lambda *basis: [(A, B, key + 1) for A, B, key in real(*basis)])


def _untyped_gap(monkeypatch):
    monkeypatch.setattr(operators, "twist_gap", lambda f: None)


@pytest.mark.parametrize(
    "fault, error",
    [(_shifted_order, "IndexError: "), (_misplaced_monomials, "KeyError: "), (_untyped_gap, "TypeError: ")],
    ids=["IndexError", "KeyError", "TypeError"],
)
def test_engine_fault_exits_internal(tmp_path, capsys, monkeypatch, fault, error):
    # an engine fault that is not a failed check is a bug, not an input error
    # or a finding: one line on stderr and exit 4, never a traceback
    fault(monkeypatch)
    data = {"model": {"m": 2, "n": 0, "budget": 2, "f": "1+z1*zb2"}, "grid": {"p": 1, "q": 1, "D": 2}}
    scene = write_scene(tmp_path, "s.json", data)
    assert run(["cohomology", "--scene", scene, "--variant", "aeppli"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: " + error)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["relative", "delta", "boundary"])
def test_relative_sequence_at_budget_zero_runs(tmp_path, capsys, kind):
    # at D=0 the grade-0 source block of the cone has no columns; it was
    # assembled at budgets 0 -> 0 below the pulled twist's gap, and the
    # engine's budget contract failed as an input error (exit 2)
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 2, "n": 0, "budget": 2, "f": "1"},
            "morphism": {"z_components": ["z1*z2", "z2"], "x_components": []},
            "f_prime": "1+z1",
            "grid": {"p": 0, "D": 0},
        },
    )
    assert run(["sequence", "--scene", scene, "--kind", kind]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["D"] == 0


@pytest.mark.parametrize("kind", ["relative", "delta", "boundary"])
def test_broken_sequence_complex_exits_internal(capsys, monkeypatch, kind):
    # a corrupted dbar_f no longer squares to zero, so the relative complex
    # the engine builds from the scene is broken: an engine fault, not an input
    _patch_operator_matrix(monkeypatch, _bump_first_entry("dbar_f"))
    assert run(["sequence", "--scene", str(SCENES / "relative_square.json"), "--kind", kind]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"


@pytest.mark.parametrize("kind", ["relative", "delta", "boundary"])
def test_pullback_that_is_no_chain_map_exits_internal(capsys, monkeypatch, kind):
    # bumping the last entry of each pullback matrix keeps the diagonal blocks
    # of the cone but breaks mu* as a chain map: only the cone's d.d sees it
    real = cohomology.pullback_matrix

    def corrupted(*args):
        M = real(*args)
        if not M.entries:
            return M
        entries = dict(M.entries)
        key = max(entries)
        entries[key] = entries[key] + 1
        return Matrix(M.rows, M.cols, entries)

    monkeypatch.setattr(cohomology, "pullback_matrix", corrupted)
    assert run(["sequence", "--scene", str(SCENES / "relative_square.json"), "--kind", kind]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: image is not contained in the kernel: broken complex\n"


@pytest.mark.parametrize(
    "kind, scene, which, grade, node",
    [
        ("relative", "relative_square.json", "induced_inject", 1, "H^1(F)"),
        ("relative", "relative_square.json", "induced_project", 0, "H^0(mu)"),
        ("mv", "mv_laurent.json", "induced_project", 0, "H^0(U+V)"),
    ],
)
def test_long_exact_sequence_that_is_not_exact_exits_internal(capsys, monkeypatch, kind, scene, which, grade, node):
    # the nodes are ranks of the three differentials: rk i*_q = dim H^q(L) -
    # rk delta_{q-1} and rk p*_q = dim H^q(R) - rk delta_q, with rk delta_q =
    # rk d_M^q - rk d_L^q - rk d_R^q.  Reading rk d_L^q (for i*) or rk d_M^q
    # (for p*) too high by one more than the map's true rank makes that rank
    # -1, which no exact sequence has: a fault of the engine, not a finding
    # about the scene, and the first node it breaks is named
    real_nodes, real_rank = sequences._les_nodes, sequences.rank
    wrong = {}

    def nodes(left, middle, right, labels):
        _, _, true_rank = real_nodes(left, middle, right, labels)[3 * grade + (which == "induced_project")]
        side = left if which == "induced_inject" else middle
        wrong.update(d=side.diffs[grade], by=true_rank + 1)
        return real_nodes(left, middle, right, labels)

    def corrupted(d):
        return real_rank(d) + (wrong["by"] if d is wrong.get("d") else 0)

    monkeypatch.setattr(sequences, "_les_nodes", nodes)
    monkeypatch.setattr(sequences, "rank", corrupted)
    assert run(["sequence", "--scene", str(SCENES / scene), "--kind", kind]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: long exact sequence is not exact at {node}\n"


@pytest.mark.parametrize(
    "command, grid, message",
    [
        (["cohomology"], {"p": ["a", "b"]}, "grid axis 'p' must be an integer or a list [lo, hi] of integers, got ['a', 'b']"),
        (["cohomology"], {"D": [3, 2]}, "grid axis 'D' range [3, 2] is empty: lo > hi"),
        (["sequence", "--kind", "relative"], {"p": [2, 1]}, "grid axis 'p' range [2, 1] is empty: lo > hi"),
        (["cohomology"], {"q": 1.5}, "grid axis 'q' must be an integer or a list [lo, hi] of integers, got 1.5"),
        (["cohomology"], {"p": []}, "grid axis 'p' must be an integer or a list [lo, hi] of integers, got []"),
        (["cohomology"], [0, 1], "'grid' must be an object of axes"),
    ],
    ids=["strings", "reversed_D", "reversed_p_sequence", "float", "empty", "grid_not_object"],
)
def test_bad_grid_axis_exits_two(tmp_path, capsys, command, grid, message):
    scene = write_scene(
        tmp_path,
        "s.json",
        {
            "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
            "morphism": {"z_components": ["z1^2"], "x_components": []},
            "grid": grid,
        },
    )
    assert run(command + ["--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SEQUENCE_SCENE = {
    "model": {"m": 2, "n": 0, "budget": 2, "f": "1"},
    "morphism": {"z_components": ["z1*z2", "z2"], "x_components": []},
    "f_prime": "1+z1",
}


@pytest.mark.parametrize("kind", ["relative", "delta", "boundary"])
@pytest.mark.parametrize(
    "grid, message",
    [
        ({"p": [0, 1], "D": 2}, "grid axis 'p' must be a single value, got [0, 1]"),
        ({"p": 0, "D": [2, 3]}, "grid axis 'D' must be a single value, got [2, 3]"),
        ({"p": -1, "D": 2}, "grid axis p value -1 outside [0, 2]"),
        ({"p": 5, "D": 2}, "grid axis p value 5 outside [0, 2]"),
    ],
    ids=["p_range", "D_range", "p_negative", "p_above_leaf_dims"],
)
def test_sequence_grid_axis_takes_one_valid_value(tmp_path, capsys, kind, grid, message):
    # a range used to run its first value only, and a p outside every leaf
    # dimension printed an all-zero long exact sequence
    scene = write_scene(tmp_path, "s.json", dict(SEQUENCE_SCENE, grid=grid))
    assert run(["sequence", "--kind", kind, "--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sequence_grid_axis_single_value_forms_agree(tmp_path, capsys):
    reports = []
    for p in (0, [0], [0, 0]):
        data = json.loads((SCENES / "relative_square.json").read_text())
        data["grid"]["p"] = p
        assert run(["sequence", "--kind", "relative", "--scene", write_scene(tmp_path, "s.json", data)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(
    "command, entry, message",
    [
        (["sequence", "--kind", "relative"], {"morphism": ["z1"]}, "'morphism' must be an object, got [\"z1\"]"),
        (
            ["sequence", "--kind", "relative"],
            {"morphism": {"z_components": [3]}},
            "'morphism.z_components' must be a list of strings, got [3]",
        ),
        (
            ["sequence", "--kind", "relative"],
            {"morphism": {"z_components": ["z1"], "x_components": "x1"}},
            "'morphism.x_components' must be a list of strings, got \"x1\"",
        ),
        (["solve"], {"target": {"op": "dbar"}}, "target is missing 'form'"),
        (["solve"], {"target": 3}, "'target' must be an object, got 3"),
        (["solve"], {"target": {"op": "dbar", "form": [1]}}, "'target.form' must be an object, got [1]"),
        (
            ["solve"],
            {"target": {"op": "tilde", "phi": {"p": 0, "q": 1, "terms": []}}, "morphism": {"z_components": ["z1^2"]}},
            "target is missing 'psi'",
        ),
        (
            ["check", "--suite", "intertwine"],
            {"pair": {}, "morphism": {"z_components": ["z1^2"]}, "seed": 1},
            "pair is missing 'alpha'",
        ),
        (
            ["check", "--suite", "intertwine"],
            {"pair": {"alpha": 2}, "morphism": {"z_components": ["z1^2"]}, "seed": 1},
            "'pair.alpha' must be a string, got 2",
        ),
        (
            ["check", "--suite", "intertwine"],
            {"pair": "z1", "morphism": {"z_components": ["z1^2"]}, "seed": 1},
            "'pair' must be an object, got \"z1\"",
        ),
    ],
    ids=[
        "morphism_list", "z_components_int", "x_components_string", "target_no_form",
        "target_int", "target_form_list", "tilde_no_psi", "pair_no_alpha", "pair_alpha_int", "pair_string",
    ],
)
def test_mistyped_nested_fixture_exits_two(tmp_path, capsys, command, entry, message):
    scene = write_scene(tmp_path, "s.json", dict(entry, model=BASE_MODEL, grid={"p": 0, "D": 1}))
    assert run(command + ["--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _fresh_interpreter(code: str) -> str:
    """Standard output of code run by a fresh interpreter that imports leafcoh from src."""
    src = str(SCENES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_does_not_load_inspect():
    # dataclasses would pull in inspect (and ast, dis, tokenize) at every start-up
    code = "import sys, leafcoh.cli; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "[]\n"


def test_cli_import_loads_no_suite_or_sequence_module():
    # check and sequence import their modules when they run; a cohomology or
    # solve process never loads or compiles them
    names = "{'leafcoh.sequences', 'leafcoh.checks', 'leafcoh.sampling'}"
    assert _fresh_interpreter(f"import sys, leafcoh.cli; print(sorted({names} & set(sys.modules)))") == "[]\n"


def test_package_names_resolve_on_first_use():
    # the suites and the sequence engine load when one of their names is read
    code = (
        "import sys, leafcoh; print(sorted({'leafcoh.sequences', 'leafcoh.checks'} & set(sys.modules))); "
        "names = [n for n in leafcoh.__all__ if getattr(leafcoh, n) is None]; "
        "print(names, 'snake_les' in dir(leafcoh), 'leafcoh.sequences' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "[]\n[] True True\n"
    import leafcoh

    assert leafcoh.snake_les is sequences.snake_les and leafcoh.Matrix is Matrix
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        leafcoh.nope


ENGINE = "{'leafcoh.linalg', 'leafcoh.cohomology'}"


def test_cli_import_loads_no_linear_algebra_or_cohomology():
    # only the grid and solve commands and the pairing suite use them
    assert _fresh_interpreter(f"import sys, leafcoh.cli; print(sorted({ENGINE} & set(sys.modules)))") == "[]\n"


def test_check_suites_other_than_pairing_load_no_linear_algebra_or_cohomology(tmp_path):
    scene = write_scene(tmp_path, "s.json", {"model": {"m": 2, "n": 1, "budget": 2, "f": "1 + z1*zb2 - i*x1"}})
    runs = [
        ["check", "--scene", scene, "--suite", suite, "--seed", "3", "--trials", "60", "--out", str(tmp_path / suite)]
        for suite in ("operators", "leibniz", "rescale", "intertwine")
    ]
    code = f"import sys; from leafcoh import cli; print([cli.main(a) for a in {runs!r}], sorted({ENGINE} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "[0, 0, 0, 0] []\n"
    report = json.loads((tmp_path / "operators").read_text())
    assert (report["suite"], report["violations_total"]) == ("operators", 0)


def test_check_pairing_loads_the_engine_and_runs(tmp_path):
    scene = write_scene(tmp_path, "s.json", {"model": {"m": 2, "n": 0, "budget": 2, "f": "1 + z1*zb2"}})
    argv = ["check", "--scene", scene, "--suite", "pairing", "--seed", "1", "--trials", "12", "--out", str(tmp_path / "r")]
    code = f"import sys; from leafcoh import cli; print(cli.main({argv!r}), sorted({ENGINE} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "0 ['leafcoh.cohomology', 'leafcoh.linalg']\n"
    report = json.loads((tmp_path / "r").read_text())
    assert (report["suite"], report["violations_total"]) == ("pairing", 0)
    assert main(argv) == 0
    assert json.loads((tmp_path / "r").read_text()) == report


def test_engine_names_resolve_on_first_use():
    code = (
        "import sys, leafcoh; engine = " + ENGINE + "; print(sorted(engine & set(sys.modules))); "
        "leafcoh.Matrix; print(sorted(engine & set(sys.modules))); "
        "grid = leafcoh.cohomology_grid; print(sorted(engine & set(sys.modules))); "
        "import leafcoh.cohomology as c; print(grid is c.cohomology_grid, 'Matrix' in vars(leafcoh))"
    )
    assert _fresh_interpreter(code) == (
        "[]\n['leafcoh.linalg']\n['leafcoh.cohomology', 'leafcoh.linalg']\nTrue True\n"
    )
    import leafcoh

    assert leafcoh.cohomology_grid is cohomology.cohomology_grid and leafcoh.kernel_basis is linalg.kernel_basis


def test_linear_algebra_error_is_one_class_and_a_grid_fault_exits_internal(tmp_path, capsys, monkeypatch):
    from leafcoh import algebra

    assert linalg.LinearAlgebraError is algebra.LinearAlgebraError is cli.LinearAlgebraError

    def broken(*args, **kwargs):
        raise linalg.LinearAlgebraError("broken complex in the grid")

    monkeypatch.setattr(cohomology, "cohomology_grid", broken)
    scene = write_scene(tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}})
    assert run(["cohomology", "--scene", scene]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: broken complex in the grid\n")


def test_unknown_scene_key_exits_two(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "s.json",
        {"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}, "grid": {"p": 0, "q": 0}, "slak": 3},
    )
    assert run(["cohomology", "--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown scene key(s) 'slak'; allowed: basic_twist_only, cover,")
    assert run(["cohomology", "--scene", write_scene(tmp_path, "list.json", [3])]) == 2
    assert capsys.readouterr().err == "error: a scene must be a JSON object\n"


def test_shipped_and_benchmark_scenes_load(monkeypatch):
    bench = _bench_module(monkeypatch)
    scenes = [json.loads(path.read_text()) for path in sorted(SCENES.glob("*.json"))]
    scenes += [dict(scene, seed=1) for scene in bench.SCENES.values()]
    assert len(scenes) == 11
    for data in scenes:
        cli.Scene(data)
    # every benchmark job reads each key of its scene: the check suites all
    # read the suites scene's morphism and f_prime
    jobs = [(scene, args) for entries in bench.WORKLOADS.values() for _, scene, args in entries]
    assert len(jobs) == 9
    for scene, (command, _, selected) in jobs:
        cli._check_reads(cli.Scene(dict(bench.SCENES[scene], seed=1)), command, selected)


def _readme_key_rows() -> dict:
    """README's scene-key table: each key's "read by" cell."""
    lines = (SCENES.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | read by | value |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        key, read_by, _ = re.split(r"(?<!\\)\|", line)[1:-1]
        rows[key.strip().strip("`")] = read_by.strip()
    return rows


def _read_by(readers: dict) -> str:
    """A key's readers as README's table writes them."""
    if readers == dict.fromkeys(cli.SELECTORS, cli.ALL):
        return "every command"
    cells = []
    for command, values in readers.items():
        selected = "" if values is cli.ALL else f" {cli.SELECTORS[command]} " + "\\|".join(values)
        cells.append(f"`{command}{selected}`")
    return ", ".join(cells)


def test_readme_scene_key_table_matches_the_code():
    rows = _readme_key_rows()
    assert sorted(rows) == sorted(cli.SCENE_KEYS)
    assert rows == {key: _read_by(readers) for key, (_, readers) in cli.SCENE_KEYS.items()}


BASE_MODEL = {"m": 1, "n": 0, "budget": 2, "f": "1"}


@pytest.mark.parametrize(
    "model, knobs, message",
    [
        ([2, 0, 2], {}, "'model' must be an object, got [2, 0, 2]"),
        ({"m": None}, {}, "'model.m' must be an integer, got null"),
        ({"m": 2.5}, {}, "'model.m' must be an integer, got 2.5"),
        ({"m": True}, {}, "'model.m' must be an integer, got true"),
        ({"n": "0"}, {}, "'model.n' must be an integer, got \"0\""),
        ({"budget": 2.0}, {}, "'model.budget' must be an integer, got 2.0"),
        ({"m": 0}, {}, "'model.m' must be a positive integer, got 0"),
        ({"m": -1}, {}, "'model.m' must be a positive integer, got -1"),
        ({"n": -1}, {}, "'model.n' must be a nonnegative integer, got -1"),
        ({"budget": -2}, {}, "'model.budget' must be a nonnegative integer, got -2"),
        ({"m": -1, "f": "1+z1+"}, {}, "'model.m' must be a positive integer, got -1"),
        ({"f": 1}, {}, "'model.f' must be a string, got 1"),
        ({}, {"slack": None}, "'slack' must be an integer, got null"),
        ({}, {"slack": 1.5}, "'slack' must be an integer, got 1.5"),
        ({}, {"k": 1.5}, "'k' must be an integer, got 1.5"),
        ({}, {"seed": 1.9}, "'seed' must be an integer, got 1.9"),
        ({}, {"trials": 2.7}, "'trials' must be an integer, got 2.7"),
        ({}, {"trials": False}, "'trials' must be an integer, got false"),
        ({}, {"h": 2}, "'h' must be a string, got 2"),
        ({}, {"g": ["z1"]}, "'g' must be a string, got [\"z1\"]"),
        ({}, {"f_prime": None}, "'f_prime' must be a string, got null"),
        ({}, {"cover": "laurent"}, "'cover' must be an object, got \"laurent\""),
    ],
    ids=[
        "model_list", "m_null", "m_float", "m_bool", "n_string", "budget_float",
        "m_zero", "m_negative", "n_negative", "budget_negative", "m_negative_before_twist", "f_int",
        "slack_null", "slack_float", "k_float", "seed_float", "trials_float", "trials_bool",
        "h_int", "g_list", "f_prime_null", "cover_string",
    ],
)
def test_mistyped_scene_knob_exits_two(tmp_path, capsys, model, knobs, message):
    data = {"model": model if isinstance(model, list) else dict(BASE_MODEL, **model)}
    data.update(knobs, grid={"p": 0, "q": 0})
    assert run(["cohomology", "--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, entry, message",
    [
        (["sequence", "--kind", "mv"], {"cover": {"kind": "laurent", "D": 1.5}}, "'cover.D' must be an integer, got 1.5"),
        (["sequence", "--kind", "mv"], {"cover": {"D": 2}}, "cover is missing 'kind'"),
        (["sequence", "--kind", "mv"], {"cover": {"kind": ["laurent"]}}, "'cover.kind' must be a string, got [\"laurent\"]"),
        (
            ["solve"],
            {"target": {"op": "dbar_f_k", "k": True, "form": {"p": 0, "q": 1, "budget": 1, "terms": []}}},
            "'target.k' must be an integer, got true",
        ),
    ],
    ids=["cover_D", "cover_no_kind", "cover_kind_list", "target_k"],
)
def test_mistyped_fixture_knob_exits_two(tmp_path, capsys, command, entry, message):
    scene = write_scene(tmp_path, "s.json", dict(entry, model=BASE_MODEL))
    assert run(command + ["--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SOLVE_FORM = {"p": 0, "q": 1, "budget": 1, "terms": [{"A": [], "B": [1], "coeff": "z1"}]}
SOLVE_TERM = SOLVE_FORM["terms"][0]
# a value of the right type for each scene knob that cohomology or solve does not read
UNREAD_KNOBS = {
    "trials": 5,
    "h": "z1",
    "g": "1+z1",
    "morphism": {"z_components": ["z1"]},
    "f_prime": "1+z1",
    "pair": {"alpha": "1"},
    "cover": {"kind": "laurent", "D": 1},
    "target": {"op": "dbar", "form": SOLVE_FORM},
    "expect_failure": False,
    "grid": {"p": 1, "q": 1, "D": 9},
}
COHOMOLOGY_UNREAD = ("trials", "h", "g", "morphism", "f_prime", "pair", "cover", "target", "expect_failure")
SOLVE_UNREAD = ("trials", "h", "g", "pair", "cover", "expect_failure", "grid")
TILDE_TARGET = {"op": "tilde", "phi": dict(SOLVE_FORM, terms=[]), "psi": dict(SOLVE_FORM, q=0, terms=[])}


@pytest.mark.parametrize(
    "command, scene, knobs, message",
    [
        (
            ["sequence", "--kind", kind],
            "relative_square.json",
            {"grid": {"p": 0, "q": 7, "D": 2}},
            f"'grid.q' is not read by sequence --kind {kind}, which takes p and D",
        )
        for kind in ("relative", "delta", "boundary")
    ]
    + [
        (["cohomology"], "twist_vanishing.json", {"k": 5}, "'k' is read only by --variant k"),
        (["cohomology", "--variant", "bc"], "twist_vanishing.json", {"k": 5}, "'k' is read only by --variant k"),
        (["cohomology", "--k", "3"], "twist_vanishing.json", {}, "--k is read only by --variant k"),
        (["cohomology", "--variant", "canonical", "--k", "3"], "twist_vanishing.json", {"k": 5}, "--k is read only by --variant k"),
        (["cohomology", "--variant", "bc"], "twist_vanishing.json", {}, "'slack' is read only by --variant dolbeault and k"),
        (["cohomology", "--variant", "aeppli"], "twist_vanishing.json", {"slack": 0}, "'slack' is read only by --variant dolbeault and k"),
        (["cohomology", "--variant", "canonical"], "twist_vanishing.json", {"slack": 3}, "'slack' is read only by --variant dolbeault and k"),
        (["solve"], "solve_untwisted.json", {"k": 5}, "'k' is read only by target op dbar_f_k"),
        (
            ["solve"],
            "relative_square.json",
            {"k": 5, "target": TILDE_TARGET},
            "'k' is read only by target op dbar_f_k",
        ),
    ]
    + [
        (["check", "--suite", "leibniz"], "basic.json", knobs, f"{key!r} is not read by check")
        for key, knobs in (
            ("slack", {"slack": 0}),
            ("k", {"k": 3}),
            ("grid", {"grid": {"p": 1, "q": 1, "D": 9}}),
            ("k", {"slack": 4, "k": 3, "grid": {"p": 1}}),
        )
    ]
    + [
        (["sequence", "--kind", kind], scene, knobs, f"{key!r} is not read by sequence")
        for kind, scene in (
            ("relative", "relative_square.json"),
            ("delta", "relative_square.json"),
            ("boundary", "relative_square.json"),
            ("mv", "mv_laurent.json"),
        )
        for key, knobs in (("slack", {"slack": 3}), ("k", {"k": 1}))
    ]
    + [
        # the two scenes that used to run at exit 0 with the report of the scene without the knobs
        (
            ["cohomology"],
            "twist_vanishing.json",
            {"trials": 5, "morphism": {"z_components": ["z1"]}},
            "'trials' is not read by cohomology",
        ),
        (
            ["solve"],
            "solve_untwisted.json",
            {"grid": {"p": 1, "q": 1, "D": 9}, "trials": 5},
            "'trials' is not read by solve",
        ),
    ]
    + [
        (["cohomology"], "twist_vanishing.json", {key: UNREAD_KNOBS[key]}, f"{key!r} is not read by cohomology")
        for key in COHOMOLOGY_UNREAD
    ]
    + [
        (["solve"], "solve_untwisted.json", {key: UNREAD_KNOBS[key]}, f"{key!r} is not read by solve")
        for key in SOLVE_UNREAD
    ]
    + [
        (["solve"], "solve_untwisted.json", {key: UNREAD_KNOBS[key]}, f"{key!r} is read only by target op tilde")
        for key in ("morphism", "f_prime")
    ]
    + [
        (["solve"], "relative_square.json", {"target": TILDE_TARGET}, "'grid' is not read by solve"),
    ],
    ids=[
        "sequence_q_relative", "sequence_q_delta", "sequence_q_boundary", "cohomology_k",
        "cohomology_bc_k", "cohomology_flag_k", "cohomology_flag_and_scene_k", "cohomology_bc_slack",
        "cohomology_aeppli_slack_zero", "cohomology_canonical_slack", "solve_dbar_k", "solve_tilde_k",
        "check_slack_zero", "check_k", "check_grid", "check_every_knob",
    ]
    + [f"sequence_{kind}_{key}" for kind in ("relative", "delta", "boundary", "mv") for key in ("slack", "k")]
    + ["cohomology_trials_and_morphism", "solve_grid_and_trials"]
    + [f"cohomology_{key}" for key in COHOMOLOGY_UNREAD]
    + [f"solve_{key}" for key in SOLVE_UNREAD]
    + ["solve_dbar_morphism", "solve_dbar_f_prime", "solve_tilde_grid"],
)
def test_knob_the_command_does_not_read_exits_two(tmp_path, capsys, command, scene, knobs, message):
    # each of these used to run at exit 0 with the knob silently ignored;
    # each command names the first unread knob in cli.SCENE_KEYS order
    data = dict(json.loads((SCENES / scene).read_text()), **knobs)
    assert run(command + ["--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


RELATIVE_UNREAD = ("trials", "h", "g", "pair", "cover", "target", "expect_failure")
MV_UNREAD = ("grid", "morphism", "f_prime", "trials", "h", "g", "pair", "target")


@pytest.mark.parametrize(
    "command, scene, key, message",
    [
        (
            ["sequence", "--kind", kind],
            "relative_square.json",
            key,
            f"{key!r} is read only by --kind mv" if key in ("cover", "expect_failure") else f"{key!r} is not read by sequence",
        )
        for kind in ("relative", "delta", "boundary")
        for key in RELATIVE_UNREAD
    ]
    + [
        (
            ["sequence", "--kind", "mv"],
            "mv_laurent.json",
            key,
            f"{key!r} is read only by --kind relative, delta and boundary"
            if key in ("grid", "morphism", "f_prime")
            else f"{key!r} is not read by sequence",
        )
        for key in MV_UNREAD
    ]
    + [
        (["check", "--suite", "leibniz", "--trials", "2"], "basic.json", key, f"{key!r} is not read by check")
        for key in ("cover", "target", "expect_failure")
    ],
    ids=[f"sequence_{kind}_{key}" for kind in ("relative", "delta", "boundary") for key in RELATIVE_UNREAD]
    + [f"sequence_mv_{key}" for key in MV_UNREAD]
    + [f"check_{key}" for key in ("cover", "target", "expect_failure")],
)
def test_key_the_sequence_or_check_command_does_not_read_exits_two(tmp_path, capsys, command, scene, key, message):
    # each of these used to run at exit 0 with the report of the scene without the key
    value = dict(UNREAD_KNOBS, grid={"p": 0, "D": 2}, morphism={"z_components": ["z1^2"]})[key]
    data = dict(json.loads((SCENES / scene).read_text()), **{key: value})
    assert run(command + ["--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["pair", "f_prime"])
@pytest.mark.parametrize("suite", ["intertwine", "leibniz"])
def test_check_rejects_a_morphism_key_without_a_morphism(tmp_path, capsys, suite, key):
    # the intertwine suite used to draw its own morphisms and ignore the key
    data = dict(json.loads((SCENES / "basic.json").read_text()), **{key: UNREAD_KNOBS[key]})
    command = ["check", "--suite", suite, "--trials", "2"]
    assert run(command + ["--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key!r} needs a 'morphism'\n"


@pytest.mark.parametrize(
    "command, scene, knobs",
    [
        (["check", "--suite", "leibniz", "--trials", "2"], "basic.json", {}),
        (["cohomology"], "twist_vanishing.json", {}),
        (["sequence", "--kind", "relative"], "relative_square.json", {}),
        (["sequence", "--kind", "mv"], "mv_laurent.json", {}),
        (["solve"], "solve_untwisted.json", {}),
        (["solve"], "relative_square.json", {"target": TILDE_TARGET, "grid": None}),
    ],
    ids=["check", "cohomology", "sequence_relative", "sequence_mv", "solve", "solve_tilde"],
)
def test_seed_and_basic_twist_only_are_read_by_every_command(tmp_path, capsys, command, scene, knobs):
    # the benchmark writes a seed into every scene; neither knob is rejected as unread
    data = dict(json.loads((SCENES / scene).read_text()), seed=3, basic_twist_only=False, **knobs)
    data = {key: value for key, value in data.items() if value is not None}
    assert run(command + ["--scene", write_scene(tmp_path, "s.json", data)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out


def test_k_knobs_are_read_where_they_apply(tmp_path, capsys):
    scene = dict(json.loads((SCENES / "twist_vanishing.json").read_text()), k=1)
    assert run(["cohomology", "--variant", "k", "--scene", write_scene(tmp_path, "k.json", scene)]) == 0
    from_scene = json.loads(capsys.readouterr().out)
    assert {row["k"] for row in from_scene["rows"]} == {1}
    del scene["k"]
    flagged = ["cohomology", "--variant", "k", "--k", "1", "--scene", write_scene(tmp_path, "f.json", scene)]
    assert run(flagged) == 0
    assert json.loads(capsys.readouterr().out) == from_scene
    zero = {"p": 0, "q": 1, "budget": 1, "terms": []}
    solve = {"model": BASE_MODEL, "k": 1, "target": {"op": "dbar_f_k", "form": zero}}
    assert run(["solve", "--scene", write_scene(tmp_path, "s.json", solve)]) == 0
    assert json.loads(capsys.readouterr().out)["found"]


@pytest.mark.parametrize(
    "command, entry, message",
    [
        (
            ["cohomology"],
            {"model": dict(BASE_MODEL, D=5)},
            "unknown model key(s) 'D'; allowed: budget, f, m, n",
        ),
        (
            ["cohomology"],
            {"grid": {"p": 0, "q": 0, "d": 5}},
            "unknown grid key(s) 'd'; allowed: D, p, q",
        ),
        (
            ["sequence", "--kind", "mv"],
            {"cover": {"kind": "laurent", "d": 5}},
            "unknown cover key(s) 'd'; allowed: D, kind",
        ),
        (
            ["sequence", "--kind", "relative"],
            {"morphism": {"z_components": ["z1^2"], "x_component": []}, "grid": {"p": 0, "D": 1}},
            "unknown morphism key(s) 'x_component'; allowed: x_components, z_components",
        ),
        (
            ["check", "--suite", "intertwine"],
            {"morphism": {"z_components": ["z1^2"]}, "pair": {"alpha": "1", "beta": "1"}, "seed": 1},
            "unknown pair key(s) 'beta'; allowed: alpha",
        ),
        (
            ["solve"],
            {"target": {"op": "dbar", "k": 1, "form": SOLVE_FORM}},
            "unknown target key(s) 'k'; allowed: form, op",
        ),
        (
            ["solve"],
            {"target": {"form": SOLVE_FORM, "phi": SOLVE_FORM}},
            "unknown target key(s) 'phi'; allowed: form, op",
        ),
        (
            ["solve"],
            {
                "target": {"op": "tilde", "k": 1, "phi": SOLVE_FORM, "psi": dict(SOLVE_FORM, q=0)},
                "morphism": {"z_components": ["z1^2"]},
            },
            "unknown target key(s) 'k'; allowed: op, phi, psi",
        ),
        (
            ["solve"],
            {"target": {"op": "dbar", "form": dict(SOLVE_FORM, budgte=1)}},
            "unknown target.form key(s) 'budgte'; allowed: budget, p, q, terms",
        ),
        (
            ["solve"],
            {"target": {"op": "dbar", "form": dict(SOLVE_FORM, terms=[dict(SOLVE_TERM, sign=-1)])}},
            "unknown target.form.terms[0] key(s) 'sign'; allowed: A, B, coeff",
        ),
        (
            ["solve"],
            {
                "target": {"op": "tilde", "phi": SOLVE_FORM, "psi": {"p": 0, "q": 0, "terms": [], "Q": 1}},
                "morphism": {"z_components": ["z1^2"]},
            },
            "unknown target.psi key(s) 'Q'; allowed: budget, p, q, terms",
        ),
    ],
    ids=[
        "model", "grid", "cover", "morphism", "pair", "target_k_dbar", "target_phi",
        "target_k_tilde", "form", "term", "tilde_psi",
    ],
)
def test_unknown_nested_scene_key_exits_two(tmp_path, capsys, command, entry, message):
    # a misspelt budget, D or component list used to be ignored, and the run
    # went on at the defaults
    scene = write_scene(tmp_path, "s.json", dict({"model": BASE_MODEL}, **entry))
    assert run(command + ["--scene", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


MALFORMED_FIXTURES = {
    "morphism": (
        {"morphism": {"z_component": ["z1"]}, "pair": {"beta": 1}},
        "unknown morphism key(s) 'z_component'; allowed: x_components, z_components",
    ),
    "pair": (
        {"morphism": {"z_components": ["z1^2"]}, "pair": {"beta": 1}},
        "unknown pair key(s) 'beta'; allowed: alpha",
    ),
}


@pytest.mark.parametrize("fixture", sorted(MALFORMED_FIXTURES))
@pytest.mark.parametrize("suite", [s for s in cli.SUITES if s != "intertwine"])
def test_check_parses_morphism_and_pair_on_every_suite(tmp_path, capsys, suite, fixture):
    # only the intertwine suite used to parse them: the others ran at exit 0
    # with a report, and the same scene exited 2 under intertwine
    entry, message = MALFORMED_FIXTURES[fixture]
    scene = write_scene(tmp_path, "s.json", dict(entry, model=BASE_MODEL, seed=1, trials=2))
    for name in (suite, "intertwine"):
        assert run(["check", "--suite", name, "--scene", scene]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_solve_target_k_is_read_by_dbar_f_k(tmp_path, capsys):
    zero = {"p": 0, "q": 1, "budget": 1, "terms": []}
    scene = write_scene(
        tmp_path, "s.json", {"model": BASE_MODEL, "target": {"op": "dbar_f_k", "k": 1, "form": zero}}
    )
    assert run(["solve", "--scene", scene]) == 0
    assert json.loads(capsys.readouterr().out)["found"]


@pytest.mark.parametrize(
    "model",
    [
        {"m": 2, "n": 0, "budget": 2, "f": "1+z1"},
        {"m": 2, "n": 0, "budget": 2, "f": "1"},
        {"m": 1, "n": 0, "budget": 2, "f": "1+z1"},
        {"m": 1, "n": 0, "budget": 2, "f": "2"},
        {"m": 1, "n": 1, "budget": 2, "f": "1"},
    ],
    ids=["twisted_m2", "untwisted_m2", "twisted_m1", "constant_twist", "transverse"],
)
def test_sequence_mv_rejects_a_model_the_cover_does_not_compute(tmp_path, capsys, model):
    # the covers are the untwisted d on one leafwise variable; another model
    # used to exit 0 with the m=1 report
    for kind in ("laurent", "degenerate"):
        scene = write_scene(tmp_path, "s.json", {"model": model, "cover": {"kind": kind, "D": 2}})
        assert run(["sequence", "--kind", "mv", "--scene", scene]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'model' must be m=1, n=0, f=\"1\" for sequence --kind mv")


@pytest.mark.parametrize(
    "target, message",
    [
        ({"op": ["dbar"], "form": SOLVE_FORM}, "'target.op' must be a string, got [\"dbar\"]"),
        ({"form": {"q": 1, "terms": []}}, "target.form is missing 'p'"),
        ({"form": dict(SOLVE_FORM, terms=[{"A": [], "coeff": "z1"}])}, "target.form.terms[0] is missing 'B'"),
        ({"form": dict(SOLVE_FORM, terms=5)}, "'target.form.terms' must be a list, got 5"),
        ({"form": dict(SOLVE_FORM, budget="x")}, "'target.form.budget' must be a nonnegative integer, got \"x\""),
        ({"form": dict(SOLVE_FORM, p="0")}, "'target.form.p' must be a nonnegative integer, got \"0\""),
        (
            {"form": dict(SOLVE_FORM, terms=[dict(SOLVE_TERM, coeff=3)])},
            "'target.form.terms[0].coeff' must be a string, got 3",
        ),
        (
            {"form": dict(SOLVE_FORM, terms=[dict(SOLVE_TERM, A=1)])},
            "'target.form.terms[0].A' must be a list of integers, got 1",
        ),
        (
            {"op": "tilde", "phi": {"p": 0, "q": 1, "terms": []}, "psi": {"p": 0, "terms": []}},
            "target.psi is missing 'q'",
        ),
    ],
    ids=["op_list", "form_no_p", "term_no_B", "terms_int", "budget_string", "p_string", "coeff_int", "A_int", "psi_no_q"],
)
def test_mistyped_solve_target_exits_two(tmp_path, capsys, target, message):
    # a mistyped solve target is an input error that names its key, never a traceback
    data = {"model": BASE_MODEL, "morphism": {"z_components": ["z1^2"]}, "target": target}
    assert run(["solve", "--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, entry, message",
    [
        (
            ["sequence", "--kind", "mv"],
            {"cover": {"kind": "degenerate", "D": 2}, "expect_failure": "false"},
            "'expect_failure' must be a boolean, got \"false\"",
        ),
        (["cohomology"], {"basic_twist_only": "no"}, "'basic_twist_only' must be a boolean, got \"no\""),
        (["cohomology"], {"basic_twist_only": 0}, "'basic_twist_only' must be a boolean, got 0"),
        (
            ["sequence", "--kind", "mv"],
            {"cover": {"kind": "degenerate", "D": -2}},
            "'cover.D' must be a nonnegative integer, got -2",
        ),
        (["sequence", "--kind", "mv"], {"cover": {"kind": "laurent", "D": 0}}, "the Laurent cover needs D >= 1"),
    ],
    ids=["expect_failure_string", "basic_twist_string", "basic_twist_int", "cover_D_negative", "laurent_D_zero"],
)
def test_flags_and_cover_size_are_checked(tmp_path, capsys, command, entry, message):
    # a string is not a boolean, and a negative cover size is an input
    # error, not a fault of the engine
    data = dict(entry, model={"m": 1, "n": 1, "budget": 2, "f": "1 + z1"}, grid={"p": 0, "q": 0})
    assert run(command + ["--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["cohomology", "--seed", "3"],
        ["cohomology", "--trials", "3"],
        ["sequence", "--kind", "mv", "--format", "csv"],
        ["sequence", "--kind", "mv", "--seed", "3"],
        ["solve", "--format", "json"],
        ["check", "--suite", "leibniz", "--format", "csv"],
    ],
    ids=["cohomology_seed", "cohomology_trials", "sequence_format", "sequence_seed", "solve_format", "check_format"],
)
def test_flag_of_another_subcommand_is_rejected(command, capsys):
    # each flag is registered only where it is read, so no flag is silently ignored
    with pytest.raises(SystemExit) as exc:
        run(command + ["--scene", str(SCENES / "mv_laurent.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, knobs, message",
    [
        (["--trials", "-1"], {}, "'--trials' must be a positive integer, got -1"),
        (["--trials", "0"], {}, "'--trials' must be a positive integer, got 0"),
        ([], {"trials": -4}, "'trials' must be a positive integer, got -4"),
        ([], {"trials": 0}, "'trials' must be a positive integer, got 0"),
        (["--trials", "3"], {"trials": 0}, "'trials' must be a positive integer, got 0"),
    ],
    ids=["flag_negative", "flag_zero", "scene_negative", "scene_zero", "scene_zero_under_flag"],
)
def test_non_positive_trials_exit_two(tmp_path, capsys, flags, knobs, message):
    # zero or negative trials would print a passing report of no cases
    data = dict({"model": {"m": 1, "n": 0, "budget": 2, "f": "1"}, "seed": 1}, **knobs)
    scene = write_scene(tmp_path, "s.json", data)
    assert run(["check", "--suite", "operators", "--scene", scene] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scene_trials_are_honoured(tmp_path, capsys):
    scene = write_scene(tmp_path, "s.json", {"model": {"m": 1, "n": 0, "budget": 1, "f": "1"}, "seed": 1, "trials": 3})
    assert run(["check", "--suite", "leibniz", "--scene", scene]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 3
    assert run(["check", "--suite", "leibniz", "--scene", scene, "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["identities"][0]["cases"] == 1


@pytest.mark.parametrize(
    "command, entry, message",
    [
        (["cohomology"], {"slack": -1}, "'slack' must be a nonnegative integer, got -1"),
        (["cohomology"], {"grid": {"D": -1}}, "grid axis 'D' must be nonnegative, got -1"),
        (["cohomology"], {"grid": {"D": [-1, 2]}}, "grid axis 'D' must be nonnegative, got [-1, 2]"),
        (["sequence", "--kind", "relative"], {"grid": {"p": 0, "D": -1}}, "grid axis 'D' must be nonnegative, got -1"),
        (["solve", "--slack", "-5"], {}, "'--slack' must be a nonnegative integer, got -5"),
        (["solve"], {"slack": -2}, "'slack' must be a nonnegative integer, got -2"),
    ],
    ids=["scene_slack", "grid_D", "grid_D_range", "sequence_D", "solve_flag_slack", "solve_scene_slack"],
)
def test_negative_budget_input_exits_two(tmp_path, capsys, command, entry, message):
    # a negative slack or budget is an input error, never an empty finding
    data = {
        "model": {"m": 1, "n": 0, "budget": 2, "f": "1"},
        "morphism": {"z_components": ["z1^2"], "x_components": []},
        "target": {"op": "dbar", "form": {"p": 0, "q": 1, "budget": 1, "terms": [{"A": [], "B": [1], "coeff": "z1"}]}},
    }
    data.update(entry)
    assert run(command + ["--scene", write_scene(tmp_path, "s.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_grid_memo_does_not_outlive_a_call(tmp_path, capsys, monkeypatch):
    # a corrupted matrix memoized by one grid must not reach the next grid
    import quotient_rows

    data = {"model": {"m": 2, "n": 0, "budget": 2, "f": "1 + z1*zb2"}, "grid": {"p": [0, 2], "q": [0, 2], "D": [1, 2]}}
    scene = write_scene(tmp_path, "s.json", data)
    _patch_operator_matrix(monkeypatch, _bump_first_entry("dbar_f"))
    assert run(["cohomology", "--scene", scene]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: image is not contained in the kernel: broken complex\n"
    monkeypatch.undo()
    assert run(["cohomology", "--scene", scene]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    model = cli.Scene(data).model
    for row in rows:
        want = quotient_rows.dolbeault_row(model, row["p"], row["q"], row["D"])
        assert {key: row[key] for key in want} == want


def _bench_module(monkeypatch):
    perfbench = SCENES.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_benchmark_cohomology_reports_match_recorded_digests(tmp_path, monkeypatch):
    # the benchmark's grid jobs, run in process on the benchmark's own scenes,
    # write the reports whose SHA-256 perfbench/expected.json records
    bench = _bench_module(monkeypatch)
    expected = json.loads((SCENES.parent / "perfbench" / "expected.json").read_text())
    scenes = bench.write_scenes(tmp_path, expected["seed"])
    jobs = [
        (f"{workload}/{name}", scene, args)
        for workload, entries in bench.WORKLOADS.items()
        for name, scene, args in entries
        if args[0] == "cohomology"
    ]
    assert len(jobs) == 4
    for job, scene, args in jobs:
        out = tmp_path / "report.out"
        code = run(args + ["--scene", str(scenes[scene]), "--out", str(out)])
        want = expected["jobs"][job]
        assert code == want["exit"], job
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"], job


def test_benchmark_check_and_sequence_reports_match_recorded_digests(tmp_path, monkeypatch):
    # the benchmark's check-suite and sequence jobs, run in process on the
    # benchmark's own scenes at its recorded seed, write the recorded reports
    bench = _bench_module(monkeypatch)
    expected = json.loads((SCENES.parent / "perfbench" / "expected.json").read_text())
    scenes = bench.write_scenes(tmp_path, expected["seed"])
    jobs = [
        (f"{workload}/{name}", scene, args)
        for workload, entries in bench.WORKLOADS.items()
        for name, scene, args in entries
        if args[0] in ("check", "sequence")
    ]
    assert sorted(job for job, _, _ in jobs) == [
        "identity_suites/check_intertwine",
        "identity_suites/check_leibniz",
        "identity_suites/check_operators",
        "identity_suites/check_rescale",
        "relative_les/relative",
    ]
    for job, scene, args in jobs:
        out = tmp_path / "report.out"
        code = run(args + ["--scene", str(scenes[scene]), "--out", str(out)])
        want = expected["jobs"][job]
        assert code == want["exit"], job
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"], job


@pytest.mark.parametrize("name", ["check_pairing_basic", "check_pairing_m2"])
def test_pairing_suite_reports_match_golden(tmp_path, capsys, name):
    # check --suite pairing, recorded while the suite ran through the engine's pairing_check
    golden = json.loads((SCENES.parent / "tests" / "golden" / f"{name}.json").read_text())
    scene = write_scene(tmp_path, "s.json", golden["scene"])
    assert run(golden["argv"] + ["--scene", scene]) == golden["exit"]
    captured = capsys.readouterr()
    assert captured.out == json.dumps(golden["report"], sort_keys=True, indent=2) + "\n"
    assert captured.err == ""


def test_gaussian_twist_grid_reports_match_golden(tmp_path, capsys):
    # every variant on a twist with an i and a fraction, whose matrices are
    # held realified over a common denominator; recorded from the dict engine
    golden = json.loads((SCENES.parent / "tests" / "golden" / "gaussian_twist_m2_grids.json").read_text())
    scene = write_scene(tmp_path, "s.json", golden["scene"])
    for want in golden["runs"]:
        assert run(want["argv"] + ["--scene", scene]) == want["exit"], want["argv"]
        captured = capsys.readouterr()
        assert captured.out == json.dumps(want["report"], sort_keys=True, indent=2) + "\n", want["argv"]
        assert captured.err == ""


@pytest.mark.parametrize("name", ["dolbeault_m3_D5", "dolbeault_dense_m2_D5"])
def test_large_grid_reports_match_golden(tmp_path, capsys, name):
    # rows at the m=3 and dense-twist scale, recorded from the quotient-basis engine
    golden = json.loads((SCENES.parent / "tests" / "golden" / f"{name}.json").read_text())
    scene = write_scene(tmp_path, "s.json", golden["scene"])
    assert run(golden["argv"] + ["--scene", scene]) == golden["exit"]
    assert capsys.readouterr().out == json.dumps(golden["report"], sort_keys=True, indent=2) + "\n"
