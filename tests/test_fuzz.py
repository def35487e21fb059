"""The CLI on fuzzed scene JSON and series text (derandomized hypothesis).

Each example writes one scene and runs one command on it twice, in process.
A scene is a small valid scene of that command with a few of its values
replaced: by a value of the wrong JSON type, an integer out of range, an
unknown key at the top or inside a nested object, a deleted key, or drawn
series text.  Series text mixes integers, fractions (a zero denominator
among them), ``i``, powers, variables beyond the model's m and n and
exponents past the parser's degree cap.  The property: every run returns
an exit code in 0-3, never 4 (an engine fault), and raises nothing (no
traceback); its stderr is empty or one ``error:`` line; and the two runs
give the same bytes.  A cohomology report has 0 <= im <= ker on each row,
and a twist that is zero gives im 0 on every row: every twisted operator
is then zero (README, "Budget semantics").

Models stay small (m <= 2, budgets <= 3, a twist of degree <= 4, short
grids, at most 3 trials), so every run is bounded: a valid input that is
merely large (a grid D of 40, 10^9 trials) runs unbounded by design.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from leafcoh.algebra import parse_series
from leafcoh.cli import main

_FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None)

_TWIST = "1+z1*zb2"
_FORM = {"p": 0, "q": 1, "budget": 1, "terms": [{"A": [], "B": [1], "coeff": "zb1"}]}
_GRID = {"p": [0, 1], "q": [0, 1], "D": [1, 2]}


def _model(m=2, n=0, budget=2, f=_TWIST):
    return {"m": m, "n": n, "budget": budget, "f": f}


# (argv before --scene, a valid scene of that command)
COMMANDS = [
    (["cohomology", "--variant", "dolbeault"], {"model": _model(), "grid": _GRID, "slack": 1}),
    (["cohomology", "--variant", "dolbeault", "--format", "csv"], {"model": _model(), "grid": _GRID}),
    (["cohomology", "--variant", "k"], {"model": _model(), "grid": _GRID, "k": 1, "slack": 0}),
    (["cohomology", "--variant", "bc"], {"model": _model(), "grid": _GRID}),
    (["cohomology", "--variant", "aeppli"], {"model": _model(), "grid": _GRID}),
    (["cohomology", "--variant", "canonical"], {"model": _model(), "grid": _GRID}),
    (["solve"], {"model": _model(1, 0, 1, "1"), "target": {"op": "dbar", "form": _FORM}, "slack": 1}),
    (["solve"], {"model": _model(2, 0, 2), "target": {"op": "dbar_f_k", "form": _FORM, "k": 1}}),
    (
        ["sequence", "--kind", "relative"],
        {
            "model": _model(1, 0, 2, "1"),
            "morphism": {"z_components": ["z1^2"], "x_components": []},
            "f_prime": "z1",
            "grid": {"p": 0, "D": 2},
        },
    ),
    (["sequence", "--kind", "mv"], {"model": _model(1, 0, 2, "1"), "cover": {"kind": "laurent", "D": 2}}),
    (["check", "--suite", "operators"], {"model": _model(1, 1, 2, "1+x1"), "seed": 3, "trials": 2, "g": "zb1"}),
    (["check", "--suite", "rescale"], {"model": _model(2, 0, 2), "seed": 5, "trials": 2, "h": "1+z1"}),
]

# --- series text -----------------------------------------------------------

_VARIABLES = [f"{name}{i}" for name in ("z", "zb") for i in range(4)] + ["x0", "x1", "x2", "zb", "y1"]
_EXPONENTS = ["", "", "^0", "^1", "^2", "^65", "^1000000", "^" + "9" * 30, "^-1", "^", "^1.5"]
_NUMBERS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["i", "2i", "3/4i", "0", "0/5", "1.5", "1e3", "-0", "00"]),
)
_POWERS = st.tuples(st.sampled_from(_VARIABLES), st.sampled_from(_EXPONENTS)).map("".join)
_JOINS = st.sampled_from(["+", "-", " + ", " - ", "*", "", " "])


def _sums(factors, size):
    """Text of up to ``size`` terms of one or two factors, joined by drawn operators."""
    terms = st.lists(factors, min_size=1, max_size=2).map("*".join)
    return st.lists(st.tuples(_JOINS, terms), min_size=1, max_size=size).map(
        lambda parts: "".join(join + term for join, term in parts)[1:]
    )


# a parenthesised sum nests one level, so a valid product has degree <= 4
_FACTORS = st.one_of(_POWERS, _NUMBERS, _sums(st.one_of(_POWERS, _NUMBERS), 2).map(lambda s: f"({s})"))
SERIES_TEXT = st.one_of(
    _sums(_FACTORS, 3),
    st.text(alphabet="zbxi0123^/*+-() .e", max_size=10),
    st.sampled_from(["0", "0*z1", "0/5", "(0)", "0*i*zb2"]),
)

# --- scene values ----------------------------------------------------------

_BAD_VALUES = st.sampled_from(
    [None, True, False, 1.5, "1", "", [], {}, [1, 2, 3], [3, 1], [[0, 1]], {"x": 1}, {"a": {"b": [None]}}, -1, -2]
)
# a copy each draw: a drawn object may be mutated later, and must not be shared
VALUES = st.one_of(
    _BAD_VALUES,
    st.integers(-2, 3),
    st.lists(st.integers(-2, 3), min_size=1, max_size=3),
    SERIES_TEXT,
).map(lambda value: json.loads(json.dumps(value)))
_SERIES_FIELDS = [("model", "f"), ("g",), ("h",), ("f_prime",), ("target", "form", "terms", 0, "coeff")]
_UNKNOWN_KEYS = ["slak", "extra", "D", "p", "budget", "kind", "terms", "A"]


def _objects(scene, path=()):
    """Paths of the JSON objects in the scene, itself first."""
    yield path
    items = scene.items() if isinstance(scene, dict) else enumerate(scene) if isinstance(scene, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _objects(value, path + (key,))


def _at(scene, path):
    for key in path:
        scene = scene[key]
    return scene


def _mutated(data, scene):
    """The scene with one to three drawn changes."""
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["set", "delete", "unknown", "series"]))
        if kind == "series":
            fields = [path for path in _SERIES_FIELDS if _has(scene, path)]
            if fields:
                path = data.draw(st.sampled_from(fields))
                _at(scene, path[:-1])[path[-1]] = data.draw(SERIES_TEXT)
            continue
        paths = [path for path in _objects(scene) if isinstance(_at(scene, path), dict)]
        node = _at(scene, data.draw(st.sampled_from(paths)))
        if kind == "unknown" or not node:
            node[data.draw(st.sampled_from(_UNKNOWN_KEYS))] = data.draw(VALUES)
        elif kind == "delete":
            del node[data.draw(st.sampled_from(sorted(node)))]
        else:
            node[data.draw(st.sampled_from(sorted(node)))] = data.draw(VALUES)
    return scene


def _has(scene, path):
    try:
        _at(scene, path)
    except (KeyError, IndexError, TypeError):
        return False
    return True


def _run(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--scene", str(path)])
    return code, out.getvalue(), err.getvalue()


def _runs_cleanly(argv, path):
    """Run twice; check the property and return (code, stdout)."""
    first = _run(argv, path)
    code, out, err = first
    assert code in (0, 1, 2, 3), first
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), first
    assert _run(argv, path) == first
    return code, out


def _zero_twist(text, m, n):
    try:
        return not parse_series(text, m, n, 64).packed
    except ValueError:  # SeriesError: the run exits 2 before any row
        return False


def _check_rows(scene, argv, code, out):
    if code or argv[0] != "cohomology" or "--format" in argv:
        return
    rows = json.loads(out)["rows"]
    model = scene["model"]
    zero = _zero_twist(model.get("f", "1"), model["m"], model["n"])
    for row in rows:
        if "im" in row:
            assert 0 <= row["im"] <= row["ker"] and row["dim"] == row["ker"] - row["im"], row
            assert not (zero and row["im"]), row


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@_FUZZ
@given(st.data())
def test_fuzzed_scenes_exit_cleanly_and_deterministically(scene_dir, data):
    argv, base = data.draw(st.sampled_from(COMMANDS))
    scene = _mutated(data, json.loads(json.dumps(base)))
    path = scene_dir / "scene.json"
    path.write_text(json.dumps(scene))
    code, out = _runs_cleanly(argv, path)
    _check_rows(scene, argv, code, out)


@_FUZZ
@given(SERIES_TEXT, st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1)]), st.sampled_from(["f", "coeff"]))
def test_fuzzed_series_text_exits_cleanly_and_deterministically(scene_dir, text, mn, field):
    m, n = mn
    if field == "f":
        argv = ["cohomology", "--variant", "dolbeault"]
        scene = {"model": _model(m, n, 2, text), "grid": {"p": [0, 1], "q": [0, 1], "D": [1, 2]}, "slack": 1}
    else:
        argv = ["solve"]
        form = {"p": 0, "q": 1, "budget": 3, "terms": [{"A": [], "B": [1], "coeff": text}]}
        scene = {"model": _model(m, n, 3, "1"), "target": {"op": "dbar", "form": form}, "slack": 1}
    path = scene_dir / "series.json"
    path.write_text(json.dumps(scene))
    code, out = _runs_cleanly(argv, path)
    _check_rows(scene, argv, code, out)


@pytest.mark.parametrize(
    "text",
    ["", "[", "[]", "null", "1", '"scene"', "[" * 100_000, '{"model": ' * 50_000, "{\"model\": NaN}"],
    ids=["empty", "truncated", "list", "null", "number", "string", "deep-list", "deep-object", "nan"],
)
def test_malformed_scene_files_exit_two(scene_dir, text):
    path = scene_dir / "raw.json"
    path.write_text(text)
    for argv in (["cohomology", "--variant", "dolbeault"], ["solve"], ["check", "--suite", "operators"]):
        code, _ = _runs_cleanly(argv, path)
        assert code == 2
