"""Batch front-end: JSON scenes in, deterministic JSON/CSV reports out.

Subcommands: ``check`` (property suites), ``cohomology`` (dimension grids),
``sequence`` (relative / Mayer-Vietoris long exact sequences), ``solve``
(certified primitives).  Exit codes: 0 success, 1 a property violation or
failed finding, 2 input error, 3 precondition failure, 4 an internal
invariant of the engine failed, such as a failed certification or a broken
complex (a bug, never a finding about the input).

Scenes are JSON files; identical scene plus seed gives byte-identical
reports (all randomness flows through random.Random(seed)).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import LinearAlgebraError, Series
from .forms import FoliatedForm, FoliationModel
from .operators import FoliatedMorphism, MorphismPair

# cohomology (with linalg), checks (with sampling) and sequences are imported
# only by the commands that run them, so no process compiles or loads a
# module it never calls: a check job loads linalg and cohomology only for
# --suite pairing.  A grid job compiles them after this module, which costs
# it a little peak RSS (see leafcoh/__init__.py).

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

SUITES = ("operators", "leibniz", "rescale", "intertwine", "pairing")
# the rows cohomology.variant_row computes
VARIANTS = ("dolbeault", "k", "bc", "aeppli", "canonical")

_TWIST_PARSE_BUDGET = 64  # generous cap for parsing twist polynomials


class SceneError(ValueError):
    pass


# Each command, and what selects the part of it that runs.
SELECTORS = {"check": "--suite", "cohomology": "--variant", "sequence": "--kind", "solve": "target op"}
ALL = None  # the command reads the key whatever its selector
_EVERY_COMMAND = dict.fromkeys(SELECTORS, ALL)
_RELATIVE_KINDS = ("relative", "delta", "boundary")
# The top-level keys a scene may hold (any other is most likely a typo): the
# JSON kinds of each value, checked in order when the scene loads ('grid' is
# checked by grid_axis), and the commands that read it, for ALL selector
# values or for those listed.  A command rejects a key it does not read;
# _check_reads names the first, in this order.
SCENE_KEYS = {
    "model": (("an object",), _EVERY_COMMAND),
    "seed": (("an integer",), _EVERY_COMMAND),
    "basic_twist_only": (("a boolean",), _EVERY_COMMAND),
    "trials": (("an integer", "a positive integer"), {"check": ALL}),
    "h": (("a string",), {"check": ALL}),
    "g": (("a string",), {"check": ALL}),
    "k": (("an integer",), {"cohomology": ("k",), "solve": ("dbar_f_k",)}),
    "slack": (("an integer", "a nonnegative integer"), {"cohomology": ("dolbeault", "k"), "solve": ALL}),
    "grid": ((), {"cohomology": ALL, "sequence": _RELATIVE_KINDS}),
    "morphism": (("an object",), {"check": ALL, "sequence": _RELATIVE_KINDS, "solve": ("tilde",)}),
    "f_prime": (("a string",), {"check": ALL, "sequence": _RELATIVE_KINDS, "solve": ("tilde",)}),
    "pair": (("an object",), {"check": ALL}),
    "cover": (("an object",), {"sequence": ("mv",)}),
    "target": (("an object",), {"solve": ALL}),
    "expect_failure": (("a boolean",), {"sequence": ("mv",)}),
}
MODEL_KEYS = ("m", "n", "budget", "f")
# the range of each model dimension, checked after its integer type and before the twist is parsed
MODEL_RANGES = {"m": "a positive integer", "n": "a nonnegative integer", "budget": "a nonnegative integer"}
GRID_KEYS = ("p", "q", "D")
MORPHISM_KEYS = ("z_components", "x_components")
COVER_KEYS = ("kind", "D")
PAIR_KEYS = ("alpha",)
FORM_KEYS = ("p", "q", "budget", "terms")
TERM_KEYS = ("A", "B", "coeff")
# a solve target by op (any other op takes ("op", "form")); only dbar_f_k reads k
TARGET_KEYS = {"tilde": ("op", "phi", "psi"), "dbar_f_k": ("op", "form", "k")}


_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a nonnegative integer": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "a boolean": lambda v: isinstance(v, bool),
    "a positive integer": lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of integers": lambda v: isinstance(v, list)
    and all(isinstance(x, int) and not isinstance(x, bool) for x in v),
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
}


def _typed(value, kind: str, name: str):
    """value, if it is of the JSON kind named ("an integer", ...); else a SceneError."""
    if not _KINDS[kind](value):
        raise SceneError(f"{name!r} must be {kind}, got {json.dumps(value)}")
    return value


def _known_keys(entry: dict, allowed, name: str) -> dict:
    """entry, if it holds no key outside allowed; else a SceneError naming the others."""
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise SceneError(
            f"unknown {name} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    return entry


def _field(entry: dict, key: str, kind: str, name: str):
    """entry[key], which must be present and of the JSON kind named; else a SceneError."""
    if key not in entry:
        raise SceneError(f"{name} is missing {key!r}")
    return _typed(entry[key], kind, f"{name}.{key}")


class Scene:
    """Parsed scene file: the model plus optional fixtures and knobs."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise SceneError("a scene must be a JSON object")
        _known_keys(data, SCENE_KEYS, "scene")
        if "model" not in data:
            raise SceneError("scene is missing the 'model' key")
        for key, (kinds, _) in SCENE_KEYS.items():
            if key in data:
                for kind in kinds:
                    _typed(data[key], kind, key)
        md = _known_keys(data["model"], MODEL_KEYS, "model")
        for key, kind in MODEL_RANGES.items():
            _typed(_field(md, key, "an integer", "model"), kind, f"model.{key}")
        m, n, budget = md["m"], md["n"], md["budget"]
        f = self._twist(_typed(md.get("f", "1"), "a string", "model.f"), m, n)
        if data.get("basic_twist_only") and f.depends_on("z", "zb"):
            raise SceneError(
                "scene requires a basic twist (x-variables only) but f has leafwise terms"
            )
        self.model = FoliationModel(m, n, budget, f)
        self.data = data
        self.seed = data.get("seed")
        self.trials = data.get("trials")
        self.slack = data.get("slack", 0)
        self.k = data.get("k")
        self.expect_failure = data.get("expect_failure", False)
        self.h = None
        if "h" in data:
            self.h = self._twist(data["h"], m, n)
        self.g = None
        if "g" in data:
            self.g = self._twist(data["g"], m, n)

    @staticmethod
    def _twist(text: str, m: int, n: int) -> Series:
        s = Series.parse(text, m, n, _TWIST_PARSE_BUDGET)
        return s.with_budget(s.degree)

    def grid_axis(self, name: str, default):
        """Values of a grid axis: an integer, an inclusive [lo, hi], or a list of another length."""
        grid = self.data.get("grid", {})
        if not isinstance(grid, dict):
            raise SceneError("'grid' must be an object of axes")
        _known_keys(grid, GRID_KEYS, "grid")
        axis = grid.get(name, default)
        values = axis if isinstance(axis, list) else [axis]
        if not values or any(isinstance(v, bool) or not isinstance(v, int) for v in values):
            raise SceneError(
                f"grid axis {name!r} must be an integer or a list [lo, hi] of integers, got {axis!r}"
            )
        if name == "D" and min(values) < 0:
            raise SceneError(f"grid axis 'D' must be nonnegative, got {axis!r}")
        if len(values) == 2:
            lo, hi = values
            if lo > hi:
                raise SceneError(f"grid axis {name!r} range [{lo}, {hi}] is empty: lo > hi")
            return list(range(lo, hi + 1))
        return values

    def grid_value(self, name: str, default) -> int:
        """The value of a grid axis that takes exactly one value."""
        values = self.grid_axis(name, default)
        if len(values) != 1:
            raise SceneError(
                f"grid axis {name!r} must be a single value, got {self.data['grid'][name]!r}"
            )
        return values[0]

    def morphism(self) -> FoliatedMorphism:
        if "morphism" not in self.data:
            raise SceneError("scene needs a 'morphism' for this command")
        entry = _known_keys(self.data["morphism"], MORPHISM_KEYS, "morphism")
        zc_texts = _typed(entry.get("z_components", []), "a list of strings", "morphism.z_components")
        xc_texts = _typed(entry.get("x_components", []), "a list of strings", "morphism.x_components")
        m2, n2 = len(zc_texts), len(xc_texts)
        if m2 < 1:
            raise SceneError("morphism needs at least one z-component")
        target_twist = self._twist(self.data.get("f_prime", "1"), m2, n2)
        target = FoliationModel(m2, n2, self.model.budget, target_twist)
        m, n = self.model.m, self.model.n
        zc = [self._twist(t, m, n) for t in zc_texts]
        xc = [self._twist(t, m, n) for t in xc_texts]
        return FoliatedMorphism(self.model, target, zc, xc)

    def pair(self, mu: FoliatedMorphism):
        if "pair" not in self.data:
            return None
        entry = _known_keys(self.data["pair"], PAIR_KEYS, "pair")
        alpha = self._twist(_field(entry, "alpha", "a string", "pair"), self.model.m, self.model.n)
        return MorphismPair(mu, alpha)

    def cover(self):
        from .sequences import degenerate_cover, laurent_cover

        if "cover" not in self.data:
            raise SceneError("scene needs a 'cover' for the mv command")
        entry = _known_keys(self.data["cover"], COVER_KEYS, "cover")
        kind = _field(entry, "kind", "a string", "cover")
        D = _typed(entry.get("D", self.model.budget), "an integer", "cover.D")
        _typed(D, "a nonnegative integer", "cover.D")
        if kind == "laurent":
            return kind, D, laurent_cover(D)
        if kind == "degenerate":
            return kind, D, degenerate_cover(D)
        raise SceneError(f"unknown cover kind {kind!r}")

    def target(self):
        if "target" not in self.data:
            raise SceneError("scene needs a 'target' for the solve command")
        return self.data["target"]


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(str(exc)) from exc
    except RecursionError:
        raise SceneError("scene JSON is nested too deeply") from None
    return Scene(data)


def emit(report, out_path: str | None, fmt: str = "json"):
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = report  # pre-rendered CSV
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a short report would otherwise fail only at exit
    except OSError as exc:
        if not out_path:  # the unwritten buffer would fail again at exit: let it go to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SceneError(str(exc)) from exc


def _need_seed(scene: Scene, args) -> int:
    seed = args.seed if args.seed is not None else scene.seed
    if seed is None:
        raise SceneError("randomized runs need a seed (scene 'seed' or --seed)")
    return seed


def _check_reads(scene: Scene, command: str, selected: str):
    """A SceneError naming the first key of the scene, in SCENE_KEYS order,
    that command does not read when its selector has the value selected."""
    for key, (_, readers) in SCENE_KEYS.items():
        values = readers.get(command, ())
        if key not in scene.data or values is ALL or selected in values:
            continue
        if not values:
            raise SceneError(f"{key!r} is not read by {command}")
        *rest, last = values
        names = f"{', '.join(rest)} and {last}" if rest else last
        raise SceneError(f"{key!r} is read only by {SELECTORS[command]} {names}")


def cmd_check(args) -> int:
    from .checks import run_suite

    scene = load_scene(args.scene)
    seed = _need_seed(scene, args)
    if args.trials is not None:
        trials = _typed(args.trials, "a positive integer", "--trials")
    else:
        trials = scene.trials if scene.trials is not None else 100
    morphism = pair = None
    if "morphism" not in scene.data:
        for key in ("f_prime", "pair"):
            if key in scene.data:
                raise SceneError(f"{key!r} needs a 'morphism'")
    else:  # every suite parses what it reads, so a malformed fixture exits 2 on all
        morphism = scene.morphism()
        pair = scene.pair(morphism)
    _check_reads(scene, "check", args.suite)
    report = run_suite(
        args.suite,
        scene.model,
        seed,
        trials,
        h=scene.h,
        g=scene.g,
        morphism=morphism,
        pair=pair,
    )
    emit(report, args.out)
    return EXIT_OK if report["violations_total"] == 0 else EXIT_VIOLATION


def _csv_table(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def cmd_cohomology(args) -> int:
    from .cohomology import cohomology_grid

    scene = load_scene(args.scene)
    model = scene.model
    ps = scene.grid_axis("p", [0, model.m])
    qs = scene.grid_axis("q", [0, model.m])
    ds = scene.grid_axis("D", model.budget)
    for axis, name in ((ps, "p"), (qs, "q")):
        for v in axis:
            if not 0 <= v <= model.m:
                raise SceneError(f"grid axis {name} value {v} outside [0, {model.m}]")
    if args.k is not None and args.variant != "k":
        raise SceneError("--k is read only by --variant k")
    _check_reads(scene, "cohomology", args.variant)
    k = scene.k if args.k is None else args.k
    rows = cohomology_grid(model, args.variant, ps, qs, ds, slack=scene.slack, k=k)
    if args.format == "csv":
        cols = (
            ["p", "q", "D", "domain", "codomain", "rank"]
            if args.variant == "canonical"
            else ["p", "q", "D", "ker", "im", "dim"]
        )
        emit(_csv_table(rows, cols), args.out, fmt="csv")
    else:
        emit({"variant": args.variant, "rows": rows}, args.out)
    return EXIT_OK


def cmd_sequence(args) -> int:
    from .sequences import (
        CoverValidationError,
        corollary_boundary_report,
        delta_equals_pullback_check,
        make_mv_ses,
        make_relative_complex,
        relative_les,
        snake_les,
    )

    scene = load_scene(args.scene)
    if args.kind == "mv":
        kind, cover_D, cover = scene.cover()
        model = scene.model
        if (model.m, model.n) != (1, 0) or model.f != Series.one(1, 0):
            raise SceneError(
                "'model' must be m=1, n=0, f=\"1\" for sequence --kind mv: "
                "the covers compute the untwisted d on one leafwise variable"
            )
    else:
        mu = scene.morphism()
        p = scene.grid_value("p", 0)
        D = scene.grid_value("D", scene.model.budget)
        if "q" in scene.data.get("grid", {}):
            raise SceneError(f"'grid.q' is not read by sequence --kind {args.kind}, which takes p and D")
        top = max(mu.source.m, mu.target.m)
        if not 0 <= p <= top:
            raise SceneError(f"grid axis p value {p} outside [0, {top}]")
    _check_reads(scene, "sequence", args.kind)
    if args.kind == "mv":
        try:
            ses = make_mv_ses(cover)
        except CoverValidationError as exc:
            outcome = {"ses_valid": False, "findings": exc.findings}
        else:
            les = snake_les(ses, labels=("M", "U+V", "UV"), map_labels=("A*", "B*", "delta"))
            outcome = {"ses_valid": True, "les": les}
        emit({"kind": "mv", "cover": kind, "D": cover_D, "expect_failure": scene.expect_failure, **outcome}, args.out)
        # an expected failure passes only when the cover fails
        return EXIT_VIOLATION if scene.expect_failure == outcome["ses_valid"] else EXIT_OK

    rc = make_relative_complex(mu, p, D)
    if args.kind == "relative":
        emit({"kind": "relative", "p": p, "D": D, "les": relative_les(rc)}, args.out)
        return EXIT_OK
    if args.kind == "delta":
        report, passed = delta_equals_pullback_check(rc), "all_equal"
    else:
        report, passed = corollary_boundary_report(rc), "all_pass"
    emit({"kind": args.kind, "p": p, "D": D, "report": report}, args.out)
    return EXIT_OK if report[passed] else EXIT_VIOLATION


def _form(model: FoliationModel, entry: dict, key: str) -> FoliatedForm:
    """The form under target[key], its fields type-checked before FoliatedForm.from_dict."""
    name = f"target.{key}"
    data = _known_keys(_field(entry, key, "an object", "target"), FORM_KEYS, name)
    for degree in ("p", "q"):
        _field(data, degree, "a nonnegative integer", name)
    if "budget" in data:
        _typed(data["budget"], "a nonnegative integer", f"{name}.budget")
    for i, term in enumerate(_typed(data.get("terms", []), "a list", f"{name}.terms")):
        where = f"{name}.terms[{i}]"
        _known_keys(_typed(term, "an object", where), TERM_KEYS, where)
        _field(term, "A", "a list of integers", where)
        _field(term, "B", "a list of integers", where)
        _field(term, "coeff", "a string", where)
    return FoliatedForm.from_dict(model, data)


def cmd_solve(args) -> int:
    from .cohomology import NotClosedError, solve_primitive, solve_primitive_tilde

    scene = load_scene(args.scene)
    entry = scene.target()
    slack = scene.slack if args.slack is None else _typed(args.slack, "a nonnegative integer", "--slack")
    op = _typed(entry.get("op", "dbar_f"), "a string", "target.op")
    _known_keys(entry, TARGET_KEYS.get(op, ("op", "form")), "target")
    if op == "tilde":
        mu = scene.morphism()
        phi = _form(mu.target, entry, "phi")
        psi = _form(mu.source, entry, "psi")
    else:
        target = _form(scene.model, entry, "form")
        k = _typed(entry["k"], "an integer", "target.k") if "k" in entry else scene.k
    _check_reads(scene, "solve", op)
    try:
        if op == "tilde":
            result = solve_primitive_tilde(mu, phi, psi, slack=slack)
            found = None if result is None else {"phi1": result[0].to_dict(), "psi1": result[1].to_dict()}
        else:
            primitive = solve_primitive(op, scene.model, target, slack=slack, k=k)
            found = None if primitive is None else {"primitive": primitive.to_dict()}
    except NotClosedError as exc:
        residual = exc.residual
        detail = [str(r) for r in residual] if isinstance(residual, tuple) else str(residual)
        emit({"op": op, "error": "target not closed", "residual": detail}, args.out)
        return EXIT_PRECONDITION
    if found is None:
        emit({"op": op, "found": False, "slack": slack}, args.out)
        return EXIT_VIOLATION
    emit({"op": op, "found": True, "certified": True, "slack": slack, **found}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafcoh",
        description="Exact twisted leafwise cohomology on polynomial foliation scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="path to the JSON scene")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_check = sub.add_parser("check", help="run a property suite")
    common(p_check)
    p_check.add_argument("--suite", required=True, choices=SUITES)
    p_check.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p_check.add_argument("--trials", type=int, default=None, help="override scene trials")
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="dimension tables over a (p,q,D) grid")
    common(p_coh)
    p_coh.add_argument("--variant", choices=VARIANTS, default="dolbeault")
    p_coh.add_argument("--k", type=int, default=None, help="weight shift for variant 'k'")
    p_coh.add_argument("--format", choices=("json", "csv"), default="json")
    p_coh.set_defaults(func=cmd_cohomology)

    p_seq = sub.add_parser("sequence", help="long exact sequence reports")
    common(p_seq)
    p_seq.add_argument("--kind", required=True, choices=("mv", "relative", "boundary", "delta"))
    p_seq.set_defaults(func=cmd_sequence)

    p_solve = sub.add_parser("solve", help="search for a certified primitive")
    common(p_solve)
    p_solve.add_argument("--slack", type=int, default=None, help="extra source budget")
    p_solve.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AssertionError, LinearAlgebraError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (IndexError, KeyError, TypeError) as exc:
        # input is validated before the engine runs, so these are engine faults
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:  # SceneError, SeriesError, FormError and MorphismError among them
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
