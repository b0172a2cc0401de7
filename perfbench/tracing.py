"""Spans and counters around the program's public functions, from outside.

The wrappers are installed only by the benchmark: the program itself carries
no tracing code.  A function is patched under every name it is looked up by,
so ``cli.check_all`` and ``builder.check_all`` are wrapped along with
``axioms.check_all``; ``ColoredGraph`` methods are patched on the class.

Spans live in memory as ``[id, parent, op, name, t0, t1]`` lists and are
written out once the run is over.  A span's self time is its duration minus
the durations of its children; spans nest strictly because the benchmark is
single-threaded.
"""

import functools
import json
import os
import sys
import time

# Boundaries timed as spans: module -> public functions (or ColoredGraph methods).
SPANS = {
    "cli": ["cmd_gen", "cmd_check", "cmd_iso", "dump_doc", "load_doc",
            "graph_to_doc", "doc_to_graph"],
    "pbw": ["generate"],
    "graph": ["is_good", "maximum_elements", "wt_assign", "string_tables"],
    "axioms": ["check_all", "check_s2_s3", "check_s4_s5", "check_s6_s9"],
    "builder": ["synthesize", "build_isomorphism"],
    "oracle": ["verify_lemmas", "verify_kakunin1", "verify_kakunin2",
               "verify_kakunin3", "verify_reversal"],
}
GRAPH_METHODS = ("is_good", "maximum_elements", "wt_assign")

# Boundaries that are only counted: they run too often to be timed.
COUNTS = {
    "kernel": ["r_transfer", "r_inverse"],
    "pbw": ["kashiwara_step"],
    "cartan": ["classify_all_pairs"],
}

OP_SPAN = "bench.op"


def span_names():
    return [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]


def count_names():
    return [f"{mod}.{fn}" for mod, fns in COUNTS.items() for fn in fns]


class Tracer:
    """Holds the spans, the call counters and the derived per-op statistics."""

    def __init__(self):
        self.spans = []
        self.op = None  # index of the op being traced, set by the harness
        self._stack = []
        self.counts = dict.fromkeys(count_names(), 0)
        self.doc_bytes = 0
        self.check_all_rejects = 0
        self.gen_kernel_calls = 0
        self.gen_vertices = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, enter=None, leave=None):
        """Wrap fn in a span; enter(args) -> token and leave(token, args,
        result) run outside the timed interval."""
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = enter(args) if enter is not None else None
            rec = [len(spans), stack[-1] if stack else None, tracer.op, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if leave is not None:
                leave(token, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-boundary hooks ------------------------------------------------

    def _kernel_total(self, _args=None):
        return self.counts["kernel.r_transfer"] + self.counts["kernel.r_inverse"]

    def _after_generate(self, token, _args, graph):
        self.gen_kernel_calls += self._kernel_total() - token
        self.gen_vertices += len(graph)

    def _after_check_all(self, _token, _args, report):
        if not report.passed:
            self.check_all_rejects += 1

    def _after_dump(self, _token, args, _result):
        self.doc_bytes += os.path.getsize(args[1])

    def _after_load(self, _token, args, _result):
        self.doc_bytes += os.path.getsize(args[0])

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every lookup site of every boundary in the b2crystal package."""
        from b2crystal.graph import ColoredGraph

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "b2crystal" or name.startswith("b2crystal.")}
        hooks = {
            "pbw.generate": (self._kernel_total, self._after_generate),
            "axioms.check_all": (None, self._after_check_all),
            "cli.dump_doc": (None, self._after_dump),
            "cli.load_doc": (None, self._after_load),
        }
        for mod, fns in SPANS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                if mod == "graph" and fn in GRAPH_METHODS:
                    orig = getattr(ColoredGraph, fn)
                    self._patch(ColoredGraph, fn, self.span(name, orig))
                    continue
                enter, leave = hooks.get(name, (None, None))
                orig = getattr(modules[f"b2crystal.{mod}"], fn)
                self._patch_everywhere(modules, orig, self.span(name, orig, enter, leave))
        for mod, fns in COUNTS.items():
            for fn in fns:
                orig = getattr(modules[f"b2crystal.{mod}"], fn)
                self._patch_everywhere(modules, orig, self.counter(f"{mod}.{fn}", orig))

    def _patch_everywhere(self, modules, orig, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self seconds of every span, indexed by span id: its duration
        minus the durations of its children."""
        own = [rec[5] - rec[4] for rec in self.spans]
        for rec in self.spans:
            if rec[1] is not None:
                own[rec[1]] -= rec[5] - rec[4]
        return own

    def write(self, path):
        """Write every span as one JSON line: id, parent, op, name, t0, t1."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
