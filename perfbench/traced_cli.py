"""Run one leafcoh CLI job with per-layer spans recorded from outside.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json JOB_ID -- <leafcoh arguments>

The runner wraps the entry points of each leafcoh module (and the private
helpers that carry a layer's work) in every namespace that holds them, then
calls ``leafcoh.cli.main(argv)``.  Spans (name, start, end, parent) and
counters stay in memory and are written to SPANS.json when the job ends.
Nothing in the program changes: a wrapped name that no longer exists is
listed under ``"absent"`` and the job runs on.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Dotted path under ``leafcoh`` and the modules the wrapper is installed in
# (None: every leafcoh module that holds the object, the home module too).
# The form-level operators are wrapped only where cohomology and sequences
# call them; the check suites call them too, and that time is the suites' own.
_FORM_OPS = ("cohomology", "sequences")
TARGETS = (
    ("cli.load_scene", None),
    ("cli.emit", None),
    ("cohomology._basis_cached", None),
    ("cohomology._basis_index", None),
    ("cohomology.operator_matrix", None),
    ("cohomology.pullback_matrix", None),
    ("cohomology._composed_matrix", None),
    ("operators.dbar_f", _FORM_OPS),
    ("operators.partial_f", _FORM_OPS),
    ("operators.dbar_f_k", _FORM_OPS),
    ("operators.pullback", _FORM_OPS),
    ("linalg._gauss_jordan", None),
    ("linalg.rank", None),
    ("linalg.kernel_basis", None),
    ("linalg.column_space", None),
    ("linalg.solve", None),
    ("linalg.quotient_dim", None),
    ("linalg.Subspace.__init__", None),
    ("linalg.Matrix.from_columns", None),
    ("linalg.Matrix.column", None),
    ("cohomology.dolbeault_row", None),
    ("cohomology.bott_chern_row", None),
    ("cohomology.aeppli_row", None),
    ("cohomology.canonical_map_row", None),
    ("sequences.snake_les", None),
    ("sequences.relative_les", None),
    ("sequences.delta_equals_pullback_check", None),
    ("sequences.corollary_boundary_report", None),
    ("sequences._snake", None),
    ("sequences.complex_cohomology", None),
    ("sequences._induced_matrix", None),
    ("sequences._connect_class", None),
    ("sequences._GradeCohomology.__init__", None),
    ("sequences._GradeCohomology.class_coords", None),
    ("sequences.CochainComplex.__init__", None),
    ("sequences.ChainMap.__init__", None),
    ("sequences.ShortExactSequence.validate", None),
    ("checks.run_suite", None),
    ("sampling.random_form", None),
    ("sampling.random_series", None),
    ("sampling.random_unit_series", None),
    ("sampling.random_morphism", None),
    ("sampling.random_bidegree", None),
)

ROOT_SPAN = "cli.main"
# The rank in canonical_map_row that proves the Bott-Chern image lies in the
# Dolbeault image gets a span name of its own; it is found by the caller's
# function name and the local the matrix is bound to.
WELLDEF_RANK = "cohomology.canonical_map_row.welldef_rank"
_WELLDEF_CALLER = ("canonical_map_row", "both")

ROW_FUNCTIONS = (
    "cohomology.dolbeault_row",
    "cohomology.bott_chern_row",
    "cohomology.aeppli_row",
    "cohomology.canonical_map_row",
)
# linalg entry points that hand their matrix on to elimination
ELIM_ENTRIES = ("linalg.rank", "linalg.kernel_basis", "linalg.column_space", "linalg.solve")
MATRIX_ASSEMBLERS = ("cohomology.operator_matrix", "cohomology.pullback_matrix")


def column_blocks(matrix) -> list:
    """Column counts of the connected components of a matrix's entry graph.

    Rows and columns are nodes and every stored entry joins its row to its
    column; a zero column is a block of its own.
    """
    parent = list(range(matrix.rows + matrix.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in matrix.entries:
        a, b = find(r), find(matrix.rows + c)
        if a != b:
            parent[a] = b
    sizes = Counter(find(matrix.rows + c) for c in range(matrix.cols))
    return list(sizes.values())


class Tracer:
    """In-memory spans and counters for one job.

    A span is ``[name_index, start_ns, end_ns, parent_index, bookkeeping_ns]``;
    bookkeeping is the tracer's own work done while the span was innermost
    (content keys, block analysis), which readers subtract from self time.
    """

    def __init__(self):
        self.names: list = []
        self._name_index: dict = {}
        self.spans: list = []
        self.stack: list = [-1]
        self.counts: Counter = Counter()
        self.absent: list = []
        self._caches: list = []
        self._seen_eliminations: set = set()
        self._seen_rows: set = set()

    def name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, probe=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        default_id = self.name_id(name)

        def traced(*args, **kwargs):
            name_id = default_id
            if probe is not None:
                t0 = clock()
                name_id = probe(args) or default_id
                if stack[-1] >= 0:
                    spans[stack[-1]][4] += clock() - t0
            span = [name_id, 0, 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- probes: counters that need a call's arguments or result -----------

    def _probe_elimination(self, args):
        rows, ncols = args[0], args[1]
        self.counts["linalg.elim_cols"] += ncols
        key = (ncols, tuple(tuple(sorted((c, v) for c, v in r.items() if c < ncols)) for r in rows))
        if key in self._seen_eliminations:
            self.counts["linalg.elim_repeats"] += 1
        else:
            self._seen_eliminations.add(key)
        return None

    def _probe_blocks(self, args):
        sizes = column_blocks(args[0])
        self.counts["linalg.blocks"] += len(sizes)
        largest = max(sizes, default=0)
        if largest > self.counts["linalg.largest_block_cols"]:
            self.counts["linalg.largest_block_cols"] = largest
        return None

    def _probe_rank(self, args):
        self._probe_blocks(args)
        caller = sys._getframe(2)  # _probe_rank <- traced <- caller
        fn_name, local = _WELLDEF_CALLER
        if caller.f_code.co_name == fn_name and caller.f_locals.get(local) is args[0]:
            return self.name_id(WELLDEF_RANK)
        return None

    def _probe_row(self, name):
        def probe(args):
            key = (name,) + tuple(args[1:])
            if key in self._seen_rows:
                self.counts["cohomology.rows_duplicate"] += 1
            else:
                self._seen_rows.add(key)
            return None

        return probe

    def _count_nnz(self, matrix):
        self.counts["operators.nnz"] += len(matrix.entries)

    def _hooks(self, name):
        if name == "linalg._gauss_jordan":
            return self._probe_elimination, None
        if name == "linalg.rank":
            return self._probe_rank, None
        if name in ELIM_ENTRIES:
            return self._probe_blocks, None
        if name in ROW_FUNCTIONS:
            return self._probe_row(name), None
        if name in MATRIX_ASSEMBLERS:
            return None, self._count_nnz
        return None, None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target that exists; list the others as absent."""
        modules = {
            key[len("leafcoh.") :] if key != "leafcoh" else "": mod
            for key, mod in list(sys.modules.items())
            if key == "leafcoh" or key.startswith("leafcoh.")
        }
        for path, namespaces in TARGETS:
            module_name, *attrs = path.split(".")
            owner = modules.get(module_name)
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            raw = owner.__dict__.get(attrs[-1]) if owner is not None else None
            if raw is None:
                self.absent.append(path)
                continue
            probe, after = self._hooks(path)
            if len(attrs) > 1:  # a method or classmethod on a class
                if isinstance(raw, classmethod):
                    setattr(owner, attrs[-1], classmethod(self.wrap(path, raw.__func__, probe, after)))
                else:
                    setattr(owner, attrs[-1], self.wrap(path, raw, probe, after))
                continue
            if hasattr(raw, "cache_info"):
                self._caches.append((raw, raw.cache_info()))
            wrapper = self.wrap(path, raw, probe, after)
            installed = False
            for ns_name, ns in modules.items():
                if namespaces is not None and ns_name not in namespaces:
                    continue
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, key, wrapper)
                        installed = True
            if not installed:
                self.absent.append(path)

    def dump(self, path: str, job: str):
        for fn, before in self._caches:
            now = fn.cache_info()
            self.counts["forms.basis_hits"] += now.hits - before.hits
            self.counts["forms.basis_misses"] += now.misses - before.misses
        record = {
            "job": job,
            "absent": self.absent,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write("usage: traced_cli.py SPANS.json JOB_ID -- <leafcoh arguments>\n")
        return 2
    spans_path, job = argv[0], argv[1]
    from leafcoh import cli
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap(ROOT_SPAN, cli.main)
    try:
        return run(argv[3:])
    finally:
        tracer.dump(spans_path, job)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
