"""Every name a leafcoh module imports is used in that module, every
top-level function or class is used or exported, only the seeded generators
import ``random``, the exact engine imports neither ``sampling`` nor
``checks``, the trusted ``ChainMap._commuting`` is used only by the two
sequence builders, only ``checks`` forks, and only ``_Grid.group`` and the
``Quotient`` of ``linalg`` prove an inclusion with ``check_inclusion``.

No linter ships with the test dependencies, so the checks walk the syntax
tree with the standard library.  A name counts as used when it appears as
an identifier anywhere in the module, or inside a quoted annotation; a
string elsewhere (an operator tag such as "dbar_f") does not count.
``__init__.py`` re-exports its imports and is left out.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "leafcoh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        # quoted forward references such as "FoliatedForm" or "_Grid"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_checker_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nfrom pathlib import Path\nx: 'Path' = loads('dumps')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: dict, exported) -> list:
    """(module, name) of the top-level functions and classes of ``sources``
    (module name -> source) that no source names, as an identifier, an
    attribute or an import, and that ``exported`` does not list.  Dunder hooks
    such as a module's ``__getattr__`` are called by the interpreter and left out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in referenced
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def test_reference_finder_sees_names_attributes_and_imports():
    sources = {
        "a": "def used(): pass\ndef called(): pass\ndef dead(): pass\nclass Shown: pass\ndef public(): pass\n"
        "def __getattr__(name): pass\n",
        "b": "from .a import used\nfrom . import a\na.called()\nx = Shown\n",
    }
    assert unreferenced_definitions(sources, ["public"]) == [("a", "dead")]


def test_every_definition_is_referenced_or_exported():
    import leafcoh

    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources, leafcoh.__all__) == []


# sampling and checks draw from random.Random(seed).  The snake engine, the
# cohomology engine, the kernels and the linear algebra are exact and draw
# nothing.
RANDOM_MODULES = {"sampling", "checks"}
# the exact engine, which must never reach the seeded suites or their draws
ENGINE_MODULES = ("algebra", "forms", "operators", "linalg", "cohomology", "sequences")


def absolute_imports(source: str) -> set:
    """Top-level names of the modules a source imports absolutely, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_finder_sees_nested_and_from_imports():
    source = "import os.path\ndef f():\n    from random import Random\nfrom .sampling import random_form\n"
    assert absolute_imports(source) == {"os", "random"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_seeded_generators_import_random(path):
    if path.stem not in RANDOM_MODULES:
        assert "random" not in absolute_imports(path.read_text(encoding="utf-8"))


def package_imports(source: str) -> set:
    """Names of the leafcoh modules a source imports relatively, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
    return names


def test_package_import_finder_sees_nested_and_bare_imports():
    source = "from .linalg import rank\ndef f():\n    from .sampling import random_form\nfrom . import checks\n"
    assert package_imports(source) == {"linalg", "sampling", "checks"}


@pytest.mark.parametrize("name", ENGINE_MODULES)
def test_engine_does_not_import_the_suites(name):
    assert not package_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) & {"sampling", "checks"}


# ChainMap._commuting skips the commutation product: only the two builders
# whose inject and project maps commute by block algebra may use it
TRUSTED_CHAIN_MAP_USERS = {("sequences", "make_relative_complex"), ("sequences", "make_mv_ses")}


def attribute_users(sources: dict, attr: str) -> set:
    """(module, top-level definition) of every ``.attr`` in ``sources`` (module
    name -> source); a use outside any definition has the definition None."""
    users = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if any(isinstance(sub, ast.Attribute) and sub.attr == attr for sub in ast.walk(node)):
                users.add((module, name))
    return users


def test_attribute_finder_sees_uses_by_definition():
    sources = {
        "a": "class C:\n    @classmethod\n    def _t(cls): pass\n    def m(self): return C._t()\n"
        "def f():\n    g = C._t\n    return g()\nh = C._t\n",
        "b": "from .a import C\ndef f(): return C()\ndef g(): return [C._t() for _ in ()]\n",
    }
    assert attribute_users(sources, "_t") == {("a", "C"), ("a", "f"), ("a", None), ("b", "g")}


def test_trusted_chain_map_is_used_only_by_the_sequence_builders():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert attribute_users(sources, "_commuting") == TRUSTED_CHAIN_MAP_USERS


# the check suites' case runner is the one place that forks workers; checks
# is imported only by the commands that run it
FORKING_MODULES = {"checks"}


def fork_callers(sources: dict) -> set:
    """Modules of ``sources`` (module name -> source) that name ``os.fork``,
    as an attribute of ``os`` or imported from ``os``."""
    callers = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "fork"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name == "fork" for alias in node.names)
            ):
                callers.add(module)
    return callers


def test_fork_finder_sees_attributes_and_imports():
    sources = {
        "a": "import os\ndef f():\n    return os.fork()\n",
        "b": "from os import fork as spawn\n",
        "c": "import os\npid = os.getpid()\nfork = 1\n",
    }
    assert fork_callers(sources) == {"a", "b"}


def test_only_the_case_runner_forks():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert fork_callers(sources) == FORKING_MODULES


# a grid row proves im <= ker in _Grid.group alone; the sequences' Quotient
# proves its own, and linalg defines the product check
INCLUSION_PROVERS = {("cohomology", "_Grid"), ("linalg", "check_inclusion"), ("linalg", "Quotient")}


def name_users(sources: dict, name: str) -> set:
    """(module, top-level definition) of every identifier, attribute or
    definition called ``name`` in ``sources`` (module name -> source); an
    import does not count, and a use outside any definition has None."""
    users = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                if (
                    (isinstance(sub, ast.Name) and sub.id == name)
                    or (isinstance(sub, ast.Attribute) and sub.attr == name)
                    or (isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name == name)
                ):
                    users.add((module, owner))
    return users


def test_name_finder_sees_names_attributes_and_definitions():
    sources = {
        "a": "def prove(): pass\nclass G:\n    def group(self):\n        return prove()\n",
        "b": "from .a import prove\nfrom . import a\ndef row():\n    a.prove()\ncheck = prove\n",
        "c": "def row():\n    return 'prove'\n",
    }
    assert name_users(sources, "prove") == {("a", "prove"), ("a", "G"), ("b", "row"), ("b", None)}


def test_only_the_grid_group_and_quotient_prove_inclusions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert name_users(sources, "check_inclusion") == INCLUSION_PROVERS
