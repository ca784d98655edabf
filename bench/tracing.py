"""In-memory span tracer that wraps ddinv's public entry points from outside.

Each wrapped call records a span (name, start, end, parent) in a list held by
the Tracer; nothing is written until `write` is called at exit. Self time of a
span is its duration minus the durations of its direct children, which in a
single-threaded process never overlap.

A function is patched at every namespace it is reached through: `cli.py`
binds `validate_cset`, `synthesize`, `verify_certificate` and the experiment
helpers by name, so those are patched both in `ddinv.cli` and in the defining
module. `lp.solve`, `polytopes.enumerate_vertices`, the `synthesis.build_*`
builders, the `fileio` functions and the `svgplot` scenes are looked up as
module attributes (or module globals) at call time, so patching the defining
module covers them. Small helpers called per vertex or per CSV row (`gauge`,
`lyapunov_value`, ...) are left unwrapped on purpose: wrapping them would
make the tracing overhead, not the program, the dominant cost.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from math import comb

import numpy as np


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._patches = None

    # -- spans ---------------------------------------------------------------
    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        # unwind to the span being closed; an interrupt can skip inner ends
        while self.stack and self.stack.pop() != index:
            pass

    def reset_stack(self):
        """Close any span left open by an interrupted instance."""
        now = time.perf_counter()
        for index in self.stack:
            if self.spans[index][2] is None:
                self.spans[index][2] = now
        self.stack.clear()

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span around fn. `name` is a string or a
        callable of the call's arguments; `after(args, kwargs, result)`
        updates counters once fn has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------
    def install(self):
        """Patch the public entry points of every ddinv module. The wrappers
        are built on the first call and reused after."""
        if self._patches is None:
            self._patches = self._build_patches()
        for module, fn_name, original, wrapper in self._patches:
            setattr(module, fn_name, wrapper)

    def uninstall(self):
        for module, fn_name, original, wrapper in reversed(self._patches or []):
            setattr(module, fn_name, original)

    def _build_patches(self):
        from ddinv import (cli, experiment, fileio, lp, polytopes, svgplot,
                           synthesis, verification)
        patches = []

        def patch(fn_name, span, namespaces, after=None):
            original = getattr(namespaces[0], fn_name)
            wrapper = self.wrap(original, span, after)
            for module in namespaces:
                if getattr(module, fn_name, None) is original:
                    patches.append((module, fn_name, original, wrapper))

        patch("solve", "lp.solve", [lp], self._after_solve(lp))
        patch("validate_cset", "polytopes.validate_cset", [polytopes, cli])
        patch("enumerate_vertices", "polytopes.enumerate_vertices", [polytopes],
              self._after_enumerate)
        for fn_name in ("synthesize", "minimize_lambda"):
            patch(fn_name, "synthesis.synthesize", [synthesis, cli])
        for fn_name in ("build_databased_lp", "build_modelbased_lp", "build_robust_lp"):
            patch(fn_name, "synthesis.build", [synthesis])
        patch("verify_certificate", "verification.verify_certificate", [verification, cli])
        for fn_name in ("simulate", "simulate_closed_loop", "build_data_matrices",
                        "hankel", "is_persistently_exciting", "stacked_data_matrix",
                        "data_has_full_row_rank", "min_samples",
                        "random_input_sequence"):
            patch(fn_name, "experiment", [experiment, cli])
        for fn_name in ("load_problem", "load_certificate"):
            patch(fn_name, "fileio.load", [fileio], self._after_read)
        for fn_name in ("save_problem", "save_certificate"):
            patch(fn_name, "fileio.save", [fileio], self._after_write)
        patch("file_digest", "fileio.digest", [fileio], self._after_read)
        for fn_name in ("state_plane_svg", "input_signal_svg"):
            patch(fn_name, "svgplot", [svgplot], self._after_svg)
        patch("main", _cli_span_name, [cli])
        return patches

    # -- counters ------------------------------------------------------------
    def _after_solve(self, lp):
        def after(args, kwargs, sol):
            program = args[0] if args else kwargs["lp"]
            self.counts["lp.rows_sum"] += program.eq_lhs.shape[0] + program.ineq_lhs.shape[0]
            self.counts["lp.vars_sum"] += program.num_vars
            self.counts["lp.status." + sol.status.value] += 1
            if sol.primal is not None and sol.status in (lp.LpStatus.OPTIMAL,
                                                         lp.LpStatus.FEASIBLE):
                index = self.begin("trace.check")
                try:
                    if not lp.check_feasible(program, sol.primal, 1e-6):
                        self.counts["lp.bad_point"] += 1
                finally:
                    self.end(index)
        return after

    def _after_enumerate(self, args, kwargs, verts):
        rows, n = _shape(args[0] if args else kwargs["h_matrix"])
        self.counts["polytopes.subsets_sum"] += comb(rows, n)
        self.counts["polytopes.vertices_sum"] += len(verts)

    def _after_read(self, args, kwargs, result):
        self.counts["fileio.bytes_read"] += os.path.getsize(args[0])

    def _after_write(self, args, kwargs, result):
        self.counts["fileio.bytes_written"] += os.path.getsize(args[1])

    def _after_svg(self, args, kwargs, scene):
        self.counts["svgplot.bytes"] += len(scene.encode("utf-8"))

    # -- results ---------------------------------------------------------------
    def summary(self):
        """{span name: {"calls": n, "self_ms": ms}} over every closed span."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[index]) * 1e3
        return dict(out)

    def write(self, path):
        """Dump every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _shape(matrix):
    return np.atleast_2d(np.asarray(matrix, dtype=float)).shape


def _cli_span_name(args):
    argv = args[0] if args else None
    command = argv[0] if argv else "main"
    return f"cli.{command}"
