"""Layer spans for the traced benchmark run.

The child process installs a `Recorder`, which wraps the public entry points
of each soclecoh module listed in `TARGETS`.  Every wrapped call appends one
span [parent id, name, start, end, attrs] to an in-memory list, where a
span's id is its index in the list; the child writes the list out when it
exits and the harness folds the spans of all commands into per-layer self
times and counts with `layer_metrics`.  A span's self time is its duration
minus the durations of its direct children.

Nothing here changes what the program computes: wrappers pass arguments and
results through unchanged, which the harness confirms by comparing report
hashes of traced and untraced runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path inside the module, layer metric prefix)
TARGETS = (
    ("fingroup", "catalog", "fingroup.group_build"),
    ("fingroup", "group_from_json", "fingroup.group_build"),
    ("fingroup", "from_cayley_table", "fingroup.group_build"),
    ("fingroup", "from_class2_presentation", "fingroup.group_build"),
    ("fingroup", "make_extension", "fingroup.extension"),
    ("gmodule", "ExtensionModules.__init__", "gmodule.extension_modules"),
    ("gmodule", "i_m", "gmodule.quotients"),
    ("gmodule", "lambda_m", "gmodule.quotients"),
    ("gmodule", "dual", "gmodule.quotients"),
    ("gmodule", "hom_g", "gmodule.hom_g"),
    ("cohomology", "inflation_h2_surjective", "cohomology.h2_check"),
    ("cohomology", "differential", "cohomology.differential"),
    ("cohomology", "CochainComplex.solver", "cohomology.solver_build"),
    ("cohomology", "CochainComplex.coboundary_witness", "cohomology.coboundary_witness"),
    ("cohomology", "connecting", "cohomology.connecting"),
    ("cohomology", "cup", "cohomology.cup"),
    ("cohomology", "d2_on_E01", "cohomology.d2"),
    ("zmodlin", "LinearSolver.__init__", "zmodlin.solver_build"),
    ("zmodlin", "LinearSolver.solve", "zmodlin.solve"),
    ("zmodlin", "howell_form_rows", "zmodlin.howell_form_rows"),
    ("obstruction", "ObstructionContext.__init__", "obstruction.context"),
    ("obstruction", "ObstructionContext.psi_generic", "obstruction.psi_generic"),
    ("obstruction", "ObstructionContext.obstruction_with_routes", "obstruction.routes"),
    ("obstruction", "ObstructionContext.psi_closed_form", "obstruction.routes"),
    ("obstruction", "ObstructionContext.psi_m2_formula", "obstruction.routes"),
    ("obstruction", "ObstructionContext.image_membership", "obstruction.image_membership"),
    ("obstruction", "ObstructionContext.verify_theorem", "obstruction.verify_theorem"),
    ("cli", "main", "cli.self"),
)

LAYER_OF = {f"{mod}.{path}": layer for mod, path, layer in TARGETS}

# Spans whose inclusive duration is the latency of deciding one phi: the
# routed computation, or a generic Psi that no routed computation encloses.
PSI_OUTER = "obstruction.ObstructionContext.obstruction_with_routes"
PSI_GENERIC = "obstruction.ObstructionContext.psi_generic"
SOLVER_BUILD = "zmodlin.LinearSolver.__init__"
COMPLEX_SOLVER = "cohomology.CochainComplex.solver"
SOLVE = "zmodlin.LinearSolver.solve"
HOWELL = "zmodlin.howell_form_rows"
H2_CHECK = "cohomology.inflation_h2_surjective"


def _nnz(row, modulus):
    if isinstance(row, int):
        return bin(row).count("1")
    values = row.values() if isinstance(row, dict) else row
    return sum(1 for v in values if v % modulus)


def _solver_build_attrs(args):
    """rows x (cols + rows) of [A | I] per engine, and nonzeros of A."""
    rows, ncols, ring = args[1], args[2], args[3]
    nrows = len(rows)
    engine = "f2" if ring.modulus == 2 else "zq"
    return {
        "engine": engine,
        "cells": nrows * (ncols + nrows),
        "nnz": sum(_nnz(r, ring.modulus) for r in rows),
    }


def _howell_attrs(args):
    return {"cells": len(args[0]) * args[1]}


class Recorder:
    """Collects spans around the wrapped entry points of one process."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn, before=None, after=None, rows_at=None):
        """fn with a span around each call.  before(args) and after(result)
        give the span's attrs; rows_at names a row argument to materialize
        first, so that before() can count rows without consuming an iterator
        (both row-taking entry points call list() on it anyway)."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rows_at is not None and not isinstance(args[rows_at], (list, tuple)):
                args = args[:rows_at] + (list(args[rows_at]),) + args[rows_at + 1 :]
            rec = [stack[-1], name, 0.0, 0.0, before(args) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                rec[4] = after(result)
            return result

        return wrapper

    def install(self):
        """Wrap every target where it is looked up: on its class for
        methods, and in every soclecoh module that imported it by name."""
        import soclecoh.cli  # noqa: F401  (loads every module)

        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("soclecoh.")]
        for mod_name, path, _ in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules[f"soclecoh.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrapped(name, orig))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrapped(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def _wrapped(self, name, fn):
        if name == SOLVER_BUILD:
            return self.wrap(name, fn, before=_solver_build_attrs, rows_at=1)
        if name == HOWELL:
            return self.wrap(name, fn, before=_howell_attrs, rows_at=0)
        if name == SOLVE:
            return self.wrap(name, fn, after=lambda x: {"found": x is not None})
        return self.wrap(name, fn)


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(50, 100 * (n - 10) // n) if n else 50


def nearest_rank(sorted_values, pct):
    k = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[k - 1]


def layer_metrics(span_lists):
    """Per-layer self times and counts from the spans of several processes.

    Gives `<layer>_s` and `<layer>.calls` for every layer of TARGETS, plus
    the counters, ratios and psi latency percentiles; BENCHMARK.json picks
    the ones the benchmark reports."""
    self_s = {}
    calls = {}
    counts = {
        "cohomology.solver.hits": 0,
        "cohomology.solver.misses": 0,
        "zmodlin.solver_build.f2_cells": 0,
        "zmodlin.solver_build.zq_cells": 0,
        "zmodlin.solver_build.nnz_in": 0,
        "zmodlin.howell_form_rows.cells": 0,
    }
    found = 0
    h2_incl = 0.0
    latencies = []
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        builds_below = [False] * len(spans)
        for parent, name, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == SOLVER_BUILD:
                    builds_below[parent] = True
        for i, (parent, name, start, end, extra) in enumerate(spans):
            layer = LAYER_OF[name]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
            calls[layer] = calls.get(layer, 0) + 1
            if name == COMPLEX_SOLVER:
                key = "misses" if builds_below[i] else "hits"
                counts[f"cohomology.solver.{key}"] += 1
            elif name == SOLVER_BUILD:
                counts[f"zmodlin.solver_build.{extra['engine']}_cells"] += extra["cells"]
                counts["zmodlin.solver_build.nnz_in"] += extra["nnz"]
            elif name == HOWELL:
                counts["zmodlin.howell_form_rows.cells"] += extra["cells"]
            elif name == SOLVE:
                found += extra["found"]
            if name == H2_CHECK:
                h2_incl += end - start
            if name == PSI_OUTER or (
                name == PSI_GENERIC and (parent < 0 or spans[parent][1] != PSI_OUTER)
            ):
                latencies.append(end - start)

    out = {}
    for layer in LAYER_OF.values():
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out.update(counts)
    out["cohomology.h2_check_incl_s"] = h2_incl
    hits, misses = counts["cohomology.solver.hits"], counts["cohomology.solver.misses"]
    out["cohomology.solver.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    solves = calls.get("zmodlin.solve", 0)
    out["zmodlin.solve.found_ratio"] = found / solves if solves else 0.0
    latencies.sort()
    pct = tail_percentile(len(latencies))
    out["obstruction.psi_latency_p50_s"] = nearest_rank(latencies, 50) if latencies else 0.0
    out["obstruction.psi_latency_tail_s"] = nearest_rank(latencies, pct) if latencies else 0.0
    out["obstruction.psi_latency_tail.pct"] = pct
    out["obstruction.psi_latency.samples"] = len(latencies)
    return out
