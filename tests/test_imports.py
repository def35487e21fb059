"""Every name a leafcoh module imports is used in that module, every
top-level function or class is used or exported, only the seeded generators
import ``random``, the exact engine imports neither ``sampling`` nor
``checks``, the trusted ``ChainMap._commuting`` is used only by the
Mayer-Vietoris builder, ``ShortExactSequence`` has no trusted ``_exact``
and ``make_relative_complex`` builds no identity, restriction, chain map or
sequence, only ``checks`` forks, only ``_Grid`` and the sequences' d.d proof
prove an inclusion with ``check_inclusion``, ``_Grid`` keeps no matrix
memo beside its families and only ``_Grid.prove`` runs the checks it is
handed, ``linalg`` runs one
elimination, ``_gauss_jordan(rows, ncols)``, called only by
``pivot_columns`` and ``_reduced``, which with its row step, the
inclusion proof, the products and the matrix store runs on ints, only
``linalg`` reads the ``entries`` view of a matrix, only the composition re-check
enumerates a basis, off the tables and never through ``enumerate_basis``, with
no function cache in ``forms``, exponent
tuples are read off packed monomials only at named boundary sites, and
``operators._twisted`` is the one differentiating kernel, with one exit,
no raw scalar construction in ``operators`` and one index-merging product
loop, ``forms._wedge_terms``, and ``sequences`` ranks no mapping cone: it
defines no ``_induced_rank``, and only ``make_mv_ses`` stacks matrices.

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


# ChainMap._commuting skips the commutation product: only the Mayer-Vietoris
# builder, whose stacked restrictions commute by block algebra, may use it
TRUSTED_CHAIN_MAP_USERS = {("sequences", "make_mv_ses")}


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


# every ShortExactSequence is validated before its long exact sequence is
# read: no trusted constructor marks one exact.  The relative complex is its
# three complexes, the cone's blocks joining them, so its builder makes no
# [0; I] or [I 0] to put in a sequence
RELATIVE_BUILDER_NEVER_CALLS = {"identity", "restricted", "ChainMap", "ShortExactSequence"}


def test_no_sequence_is_trusted_and_the_relative_builder_builds_none():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert name_users(sources, "_exact") == set()
    tree = ast.parse(sources["sequences"])
    (builder,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "make_relative_complex"]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None)) for node in ast.walk(builder) if isinstance(node, ast.Call)
    }
    assert called and not called & RELATIVE_BUILDER_NEVER_CALLS


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


# a grid row proves im <= ker through _Grid alone: group hands check_inclusion
# to _Grid.prove, which runs it once per set of families (group's slack path
# proves by rank instead), and the sequences prove d.d = 0 on the middle
# complex in _prove_squares; linalg defines the product check
INCLUSION_PROVERS = {
    ("cohomology", "_Grid"),
    ("linalg", "check_inclusion"),
    ("sequences", "_prove_squares"),
}


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


def test_only_the_grid_group_and_the_sequences_prove_inclusions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert name_users(sources, "check_inclusion") == INCLUSION_PROVERS


def _grid_class() -> ast.ClassDef:
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Grid")


def _grid_method(name: str) -> ast.FunctionDef:
    return next(node for node in _grid_class().body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_grid_keeps_one_family_memo_and_one_proof_memo():
    # no matrix cache: a restriction below a family's top lives for one call
    targets = [
        target
        for node in ast.walk(_grid_method("__init__"))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    assert all(isinstance(target, ast.Attribute) for target in targets)
    assert sorted(target.attr for target in targets) == ["_families", "_proved", "gap", "model"]


def test_only_grid_prove_runs_the_checks_it_is_handed():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    handed = {
        node.args[0].id
        for node in ast.walk(ast.parse(sources["cohomology"]))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "prove"
    }
    assert handed == {"check_inclusion", "_dolbeault_image_holds"}
    assert call_sites(sources, "_dolbeault_image_holds") == set()
    assert call_sites(sources, "check_inclusion") == {("sequences", "_prove_squares")}
    # prove calls its check parameter, and nothing else in _Grid or cohomology calls that name
    prove = _grid_method("prove")
    checker = prove.args.args[1].arg

    def calls(tree):
        return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == checker for node in ast.walk(tree))

    assert calls(prove) == calls(_grid_class()) > 0
    assert call_sites({"cohomology": sources["cohomology"]}, checker) == {("cohomology", "_Grid")}


# bases are positions by arithmetic over forms' monomial and pair tables.  The
# reference application of _applied_matrix (the composition re-check and
# pullback_matrix) reads (A, B, packed key) off the same tables
# (forms._basis_keys) and places them through a position dict built for one
# call; no module calls the
# public enumerate_basis, whose (A, B, expo) elements unpack every key and
# basis_form packs them back.
# forms keeps its tables in plain dicts keyed by (m, n) and (m, p, q) and has
# no function cache, so no basis keyed by budget lives for the process
BASIS_ENUMERATORS = set()


def call_sites(sources: dict, name: str) -> set:
    """(module, top-level definition) of every call of ``name``, as a bare name
    or an attribute, in ``sources`` (module name -> source); a call outside
    any definition has the definition None."""
    sites = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                    sites.add((module, owner))
    return sites


def cached_functions(source: str) -> list:
    """Names of the functions of a source decorated with functools' lru_cache
    or cache, bare, called or as an attribute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                    names.append(node.name)
    return names


def test_call_and_cache_finders():
    sources = {
        "a": "def f():\n    return g(1)\nclass C:\n    def m(self):\n        return mod.g()\nh = g\nx = g()\n",
        "b": "def g(): pass\ndef k():\n    return [g]\n",
    }
    assert call_sites(sources, "g") == {("a", "f"), ("a", "C"), ("a", None)}
    source = "import functools\n@functools.lru_cache(maxsize=None)\ndef a(): pass\n@cache\ndef b(): pass\n"
    source += "@lru_cache\ndef c(): pass\n@property\ndef d(): pass\n"
    assert cached_functions(source) == ["a", "b", "c"]


def test_only_the_recheck_enumerates_a_basis_and_forms_caches_no_function():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert call_sites(sources, "enumerate_basis") == BASIS_ENUMERATORS
    assert call_sites(sources, "basis_form") == set()
    assert call_sites(sources, "_basis_keys") == {("cohomology", "_applied_matrix")}
    assert cached_functions(sources["forms"]) == []


# every rank is linalg.pivot_columns, one forward elimination per connected
# block; kernel_basis and solve read the reduced form of _reduced, which
# clears above the pivots of one forward elimination.  No module outside
# linalg builds rows and eliminates on its own, so there is one elimination
ELIMINATORS = {("linalg", "pivot_columns"), ("linalg", "_reduced")}


def test_only_linalg_eliminates():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert call_sites(sources, "_gauss_jordan") == ELIMINATORS


def test_one_elimination_with_one_pivot_rule():
    # _gauss_jordan has no mode to switch and records nothing, and no step
    # replay (a Factorization, an _echelon with steps, a heap of due steps)
    # comes back as a second elimination path
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    (elimination,) = [
        node
        for node in ast.parse(sources["linalg"]).body
        if isinstance(node, ast.FunctionDef) and node.name == "_gauss_jordan"
    ]
    args = elimination.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["rows", "ncols"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    for name in ("Factorization", "_echelon"):
        assert name_users(sources, name) == set()
    assert "heapq" not in absolute_imports(sources["linalg"])


# the long exact sequence is arithmetic on the ranks of its three
# differentials: sequences ranks no mapping cone, so it defines no
# _induced_rank and stacks matrices only to build the Mayer-Vietoris maps
def test_sequences_build_no_cone_to_read_a_rank():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert name_users(sources, "_induced_rank") == set()
    sequences = {"sequences": sources["sequences"]}
    assert call_sites(sequences, "vstack") | call_sites(sequences, "hstack") == {("sequences", "make_mv_ses")}


# matrices are one column-compressed store of ints: the forward pass, its row
# step ``_combine``, the blocks of pivot_columns, the K * M = 0 proof, the
# products, stacks and restrictions, the store's writers and the closed-form
# assembler invert no scalar and name no GaussianRational; kernel_basis and
# solve get GaussianRationals from _reduced, which divides by the pivots as
# it reads its rows back.  The int rows of the former dict matrices
# (_integer_rows, row_dicts) are gone
INTEGER_FUNCTIONS = {
    "linalg": (
        "_gauss_jordan", "_combine", "check_inclusion", "pivot_columns", "_int_rows", "_product_columns",
        "_store", "_common_step", "_realified_column", "vstack", "hstack",
        "Matrix.mul", "Matrix.restricted", "Matrix.__add__", "Matrix.__neg__", "Matrix.__eq__",
    ),
    "cohomology": ("operator_matrix",),
}


def test_elimination_and_inclusion_proof_run_on_ints():
    for module, wanted in INTEGER_FUNCTIONS.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        functions = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                functions.update((f"{node.name}.{n.name}", n) for n in node.body if isinstance(n, ast.FunctionDef))
        assert set(wanted) <= set(functions), module
        for name in wanted:
            names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(functions[name]) if isinstance(n, ast.Attribute)}
            assert not names & {"inverse", "GaussianRational"}, name
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    for name in ("_integer_rows", "row_dicts"):
        assert name_users(sources, name) == set()


# GaussianRational entries leave a matrix through kernel_basis, solve,
# columns and matvec; the read-only ``entries`` view, a fresh dict per read,
# is for tests and for nothing in the package but linalg itself.  The other
# ``.entries`` readers are the check suites' own case tally (checks._Tally
# and the forked slice that ships it), which holds no matrix
ENTRIES_READERS = {("linalg", "Matrix"), ("checks", "_Tally"), ("checks", "_fork_slice")}


def test_only_linalg_reads_matrix_entries():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert attribute_users(sources, "entries") == ENTRIES_READERS


# A Series keeps each monomial as one packed int, and so do forms' monomial
# table and the closed-form assembler.  Exponent tuples, from ``unpack`` or
# the ``terms`` view, are read only at these boundary sites: the view and the
# formatter's sorted terms; the public (A, B, expo) elements of
# ``enumerate_basis``, which no module of the package calls; and
# ``vectorize``, which unpacks a key only to word the BudgetContractError of
# a term that fits no basis position.  A hot path that reads tuples again
# shows up here.
EXPONENT_TUPLE_READERS = {
    ("algebra", "Series"),
    ("forms", "enumerate_basis"),
    ("cohomology", "vectorize"),
}


def exponent_tuple_readers(sources: dict) -> set:
    """(module, top-level definition) of every ``.terms`` and every call of
    ``unpack`` in ``sources`` (module name -> source)."""
    return attribute_users(sources, "terms") | call_sites(sources, "unpack")


def test_exponent_tuple_finder_sees_views_and_unpacking():
    sources = {
        "a": "def f(s):\n    return s.terms\ndef g(k):\n    return unpack(1, 0, k)\nclass C:\n"
        "    def h(self, k):\n        return algebra.unpack(2, 0, k)\n",
        "b": "def f(data):\n    return data['terms'], data.packed\nterms = 1\n",
    }
    assert exponent_tuple_readers(sources) == {("a", "f"), ("a", "g"), ("a", "C")}


def test_exponent_tuples_are_read_only_at_boundary_sites():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert exponent_tuple_readers(sources) == EXPONENT_TUPLE_READERS


def test_vectorize_unpacks_only_to_word_its_error():
    # the lookup of each coefficient key is direct; the one unpack sits in
    # the raise of a term that fits no position
    source = (SRC / "cohomology.py").read_text(encoding="utf-8")
    (vectorize,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == "vectorize"]
    raised = {id(sub) for node in ast.walk(vectorize) if isinstance(node, ast.Raise) for sub in ast.walk(node)}
    unpacks = [
        sub for sub in ast.walk(vectorize) if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "unpack"
    ]
    assert unpacks and all(id(call) in raised for call in unpacks)
    assert not any(isinstance(sub, ast.Attribute) and sub.attr == "terms" for sub in ast.walk(vectorize))


# the twisted kernel is the one place that differentiates a form: dbar,
# partial and the generator images run it with f = 1, so ``_twisted`` has a
# single exit; its one derivative loop, ``_derivative_terms``, serves phi
# and the cached raw(f), with no nested kernel call; operators builds no scalar from a raw triple
# (``algebra._raw``, ``_normal``); the index-merging product of two forms is
# ``forms._wedge_terms`` alone, shared by the wedge and the kernel's weight term
INDEX_MERGERS = {("forms", "_wedge_terms")}


def module_names(source: str) -> set:
    """Every identifier, attribute and imported name or alias of a source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names} | {alias.asname for alias in node.names if alias.asname}
    return names


def return_count(source: str, name: str) -> int:
    """The return statements of the top-level function ``name``; nested
    functions and classes are left out."""
    (function,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == name]
    count, stack = 0, list(function.body)
    while stack:
        node = stack.pop()
        count += isinstance(node, ast.Return)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return count


def test_name_and_return_finders():
    source = (
        "from .algebra import _raw as r\nimport os\ndef f(x):\n    if x:\n        return os.sep\n"
        "    def g():\n        return 1\n    return algebra._normal\n"
    )
    assert module_names(source) == {"_raw", "r", "os", "x", "sep", "algebra", "_normal"}
    # the nested g's return is g's, not f's
    assert return_count(source, "f") == 2
    assert return_count("def h():\n    for i in ():\n        return i\n", "h") == 1


def test_one_twisted_kernel_and_one_wedge_loop():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert call_sites(sources, "merge_indices") == INDEX_MERGERS
    assert not module_names(sources["operators"]) & {"_raw", "_normal"}
    assert return_count(sources["operators"], "_twisted") == 1
    assert call_sites(sources, "_derivative_terms") == {("operators", "_twisted")}
    assert ("operators", "_twisted") not in call_sites(sources, "_twisted")
