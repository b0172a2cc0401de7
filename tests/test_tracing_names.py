"""The benchmark's tracer wraps package functions by name; every name it
lists must resolve, or a traced run would fail on a moved function."""

import importlib
import os
import runpy

from b2crystal.graph import ColoredGraph

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_traced_names_resolve():
    tracing = runpy.run_path(TRACING)  # compiled in memory; no bytecode is written
    graph_methods = tracing["GRAPH_METHODS"]
    for table in (tracing["SPANS"], tracing["COUNTS"]):
        for mod, fns in table.items():
            module = importlib.import_module(f"b2crystal.{mod}")
            for fn in fns:
                owner = ColoredGraph if mod == "graph" and fn in graph_methods else module
                assert callable(getattr(owner, fn, None)), f"{mod}.{fn}"
    for fn in graph_methods:
        assert callable(getattr(ColoredGraph, fn, None)), f"ColoredGraph.{fn}"
