"""Per-layer spans for one traced run, recorded from outside the package.

The tracer replaces heavytail's public functions by name with wrappers
that record a span (name, layer, thread, parent, start, end) and, for some
names, exact counts taken from the call's arguments or result. A name is
rebound in every heavytail module that imported it (``models.sample_law``
is ``randkit.sample_law``), so calls through either name are seen. A
name that no longer exists is listed as missing and skipped.

Spans stay in memory; ``metrics`` reduces them once the run has ended.
A span's self time is its duration minus the part of it that its child
spans cover. Spans opened by worker threads take as parent the span
the main thread is in, which is the span that started the pool.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

LAYERS = ("randkit", "models", "tailstats", "cluster", "limits", "regen",
          "cli")


def _paths_batch(a, r):
    return {"steps": a["replicas"] * (a["n"] + a["burn_in"]),
            "burn": a["replicas"] * a["burn_in"],
            "cells": a["replicas"] * a["n"]}


def _path(a, r):
    return {"steps": a["n"] + a["burn_in"], "cells": a["n"]}


# wrapped names, each with the counts it records: f(arguments, result)
TARGETS = {
    "randkit.sample_law": None,
    "randkit.sample_pareto": None,
    "randkit.sample_stable": None,
    "randkit.derive_stream": lambda a, r: {"stream": r},
    "models.simulate_path": _path,
    "models.simulate_paths_batch": _paths_batch,
    "models.sample_tail_process_batch":
        lambda a, r: {"cells": a["replicas"] * (a["horizon"] + 1)},
    "models.tail_index": None,
    "tailstats.hill_estimate": None,
    "cluster.cluster_index_tail_process":
        lambda a, r: {"replicas": a["replicas"]},
    "cluster.telescoping_difference":
        lambda a, r: {"replicas": a["replicas"]},
    "cluster.extremal_index": lambda a, r: {"replicas": a["replicas"]},
    # the closed-form estimate reports its auxiliary-chain length as
    # its horizon (0 for the linear chain, which needs no chain)
    "cluster.closed_form_cluster_index":
        lambda a, r: {"replicas": a["replicas"],
                      "aux_steps": r.replicas * r.horizon},
    "limits.ldp_scan": None,
    "limits.stable_check": None,
    "limits.gaussian_sigma": None,
    "regen.make_var1_minorization": None,
    "regen.harvest_blocks":
        lambda a, r: {"steps": a["n"], "cycles": r.n_cycles},
    "regen.kac_check": None,
    "regen.stationary_small_set_mass": None,
    "regen.RegenBlocks.reconstruct_total": None,
    "cli.parse_config": None,
    "cli.build_spec": None,
    "cli.run": None,
}

SAMPLERS = ("randkit.sample_law", "randkit.sample_pareto",
            "randkit.sample_stable")
MC_ROUTES = ("cluster.cluster_index_tail_process",
             "cluster.telescoping_difference", "cluster.extremal_index")
REGEN_POST = ("regen.kac_check", "regen.stationary_small_set_mass",
              "regen.RegenBlocks.reconstruct_total", "limits.gaussian_sigma")

# every per-layer metric, with its unit; exact counts repeat bit-for-bit
PER_LAYER = {
    "randkit.sample_s": "s",
    "randkit.self_s": "s",
    "randkit.philox_blocks": "count",
    "randkit.streams": "count",
    "randkit.ns_per_word": "ns",
    "models.path_s": "s",
    "models.self_s": "s",
    "models.path_steps": "count",
    "models.burn_frac": "fraction",
    "models.pilot_steps": "count",
    "models.path_bytes_computed": "bytes",
    "models.tail_process_s": "s",
    "models.tail_process_cells": "count",
    "models.tail_index_calls": "count",
    "tailstats.hill_s": "s",
    "tailstats.hill_calls": "count",
    "tailstats.self_s": "s",
    "cluster.mc_s": "s",
    "cluster.closed_form_s": "s",
    "cluster.self_s": "s",
    "cluster.aux_chain_steps": "count",
    "cluster.replicas": "count",
    "limits.self_s": "s",
    "limits.chunks": "count",
    "limits.parallel_eff": "fraction",
    "limits.pilot_s": "s",
    "limits.b_pair_s": "s",
    "regen.harvest_s": "s",
    "regen.self_s": "s",
    "regen.steps": "count",
    "regen.ns_per_step": "ns",
    "regen.cycles": "count",
    "regen.post_s": "s",
    "cli.parse_s": "s",
    "cli.build_spec_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.rows_written": "count",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
    "trace.missing_names": "count",
}

EXACT = ("randkit.philox_blocks", "randkit.streams", "models.path_steps",
         "models.pilot_steps", "models.path_bytes_computed",
         "models.tail_process_cells", "models.tail_index_calls",
         "tailstats.hill_calls", "cluster.aux_chain_steps",
         "cluster.replicas", "limits.chunks", "regen.steps",
         "regen.cycles", "cli.bytes_written", "cli.rows_written",
         "trace.spans", "trace.missing_names")


class _Span:
    __slots__ = ("name", "layer", "thread", "parent", "start", "end", "meta")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.thread = threading.get_ident()
        self.parent = parent
        self.start = start
        self.end = start
        self.meta = {}


class Tracer:
    """Wraps the TARGETS names of the heavytail modules and records a
    span for every call until ``uninstall``."""

    def __init__(self, targets=TARGETS):
        self.targets = dict(targets)
        self.spans = []
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patched = []

    def install(self):
        """Wrap every target name; return the names that were missing."""
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "heavytail" or name.startswith("heavytail.")]
        layers = {m.__name__.rpartition(".")[2]: m for m in package}
        for target, hook in self.targets.items():
            layer, *path = target.split(".")
            try:
                owner = layers[layer]
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                fn = getattr(owner, path[-1])
            except (KeyError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(fn, target, layer, hook)
            self._patch(owner, path[-1], wrapper)
            if len(path) == 1:
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
        return list(self.missing)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, layer, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.meta = hook(bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    # the name survived a refactor but its arguments or
                    # result did not: report, do not crash the run
                    label = f"{name}:counts"
                    with self._lock:
                        if label not in self.missing:
                            self.missing.append(label)
            return result
        return wrapper

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = _Span(name, layer, parent, time.perf_counter())
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    # -- reduction ---------------------------------------------------------

    def metrics(self, threads: int, files) -> dict:
        """Per-layer metrics of the last ``cli.run`` span. ``files`` are
        the (path) outputs whose bytes and CSV rows are counted."""
        runs = [s for s in self.spans if s.name == "cli.run"]
        if not runs:
            raise RuntimeError("no cli.run span was recorded")
        root = runs[-1]
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)

        def self_time(s):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return (s.end - s.start) - covered

        def under_root(s):
            while s is not None:
                if s is root:
                    return True
                s = s.parent
            return False

        inside = [s for s in self.spans if under_root(s)]
        own = {id(s): self_time(s) for s in inside}

        def self_of(names):
            return sum((own[id(s)] for s in inside if s.name in names), 0.0)

        def span_of(names, parent_layer=None):
            return sum((s.end - s.start for s in inside if s.name in names
                        and (parent_layer is None or
                             (s.parent is not None
                              and s.parent.layer == parent_layer))), 0.0)

        def count(key, names):
            return sum(s.meta.get(key, 0) for s in inside if s.name in names)

        def calls(names):
            return sum(1 for s in inside if s.name in names)

        m = {f"{layer}.self_s": sum((own[id(s)] for s in inside
                                     if s.layer == layer), 0.0)
             for layer in LAYERS}
        wall = root.end - root.start

        streams = [s.meta["stream"] for s in inside
                   if "stream" in s.meta]
        try:
            blocks = sum(st.counter for st in streams)
        except AttributeError:
            blocks = 0
            self.missing.append("randkit.RngStream.counter")
        m["randkit.sample_s"] = self_of(SAMPLERS)
        m["randkit.philox_blocks"] = blocks
        m["randkit.streams"] = len(streams)
        # Philox4x64 yields four 64-bit words per counter block
        m["randkit.ns_per_word"] = \
            m["randkit.sample_s"] * 1e9 / (4 * blocks) if blocks else 0.0

        batch = ("models.simulate_paths_batch",)
        pilot = ("models.simulate_path",)
        steps = count("steps", batch)
        m["models.path_s"] = self_of(batch + pilot)
        m["models.path_steps"] = steps
        m["models.burn_frac"] = count("burn", batch) / steps if steps else 0.0
        m["models.pilot_steps"] = count("steps", pilot)
        # computed, not measured: the float64 innovations drawn plus the
        # float64 path returned, by every path kernel call
        m["models.path_bytes_computed"] = 8 * (
            steps + m["models.pilot_steps"] + count("cells", batch + pilot))
        tail = ("models.sample_tail_process_batch",)
        m["models.tail_process_s"] = self_of(tail)
        m["models.tail_process_cells"] = count("cells", tail)
        m["models.tail_index_calls"] = calls(("models.tail_index",))

        m["tailstats.hill_s"] = self_of(("tailstats.hill_estimate",))
        m["tailstats.hill_calls"] = calls(("tailstats.hill_estimate",))

        closed = ("cluster.closed_form_cluster_index",)
        m["cluster.mc_s"] = self_of(MC_ROUTES)
        m["cluster.closed_form_s"] = self_of(closed)
        m["cluster.aux_chain_steps"] = count("aux_steps", closed)
        m["cluster.replicas"] = count("replicas", MC_ROUTES + closed)

        chunk_s = enclosing = 0.0
        chunks = 0
        for s in inside:
            if s.layer != "limits":
                continue
            mine = [c for c in children.get(id(s), ()) if c.name in batch]
            if mine:
                chunks += len(mine)
                chunk_s += sum(c.end - c.start for c in mine)
                enclosing += threads * (max(c.end for c in mine)
                                        - min(c.start for c in mine))
        m["limits.chunks"] = chunks
        m["limits.parallel_eff"] = chunk_s / enclosing if enclosing else 0.0
        m["limits.pilot_s"] = span_of(pilot, "limits")
        m["limits.b_pair_s"] = span_of(MC_ROUTES + closed, "limits")

        harvest = ("regen.harvest_blocks",)
        m["regen.harvest_s"] = self_of(harvest)
        m["regen.steps"] = count("steps", harvest)
        m["regen.ns_per_step"] = m["regen.harvest_s"] * 1e9 \
            / m["regen.steps"] if m["regen.steps"] else 0.0
        m["regen.cycles"] = count("cycles", harvest)
        m["regen.post_s"] = span_of(REGEN_POST)

        setup = [s for s in self.spans if s.parent is None and s is not root]
        m["cli.parse_s"] = sum((s.end - s.start for s in setup
                                if s.name == "cli.parse_config"), 0.0)
        m["cli.build_spec_s"] = sum((s.end - s.start for s in setup
                                     if s.name == "cli.build_spec"), 0.0)
        size = rows = 0
        for path in files:
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            if path.endswith(".csv"):
                rows += data.count(b"\n") - 1
        m["cli.bytes_written"] = size
        m["cli.rows_written"] = rows

        m["trace.wall_s"] = wall
        m["trace.remainder_s"] = wall - sum(m[f"{layer}.self_s"]
                                            for layer in LAYERS)
        m["trace.spans"] = len(self.spans)
        m["trace.missing_names"] = len(self.missing)
        return m
