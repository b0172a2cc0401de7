"""The benchmark's tracer wraps package functions by name; every name it
lists must resolve, or a traced run would fail on a moved function, and
its spans must time what they name."""

import importlib
import os
import runpy

from b2crystal import axioms, oracle, pbw
from b2crystal.graph import ColoredGraph
from test_callers import BENCHMARK_ONLY

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


def test_a_first_check_runs_each_battery_once():
    # the tracer's per-layer spans time what they name: a first check_all on
    # a fresh graph calls each battery once, the S2/S3 pass building the
    # raising groupings that the other two read; counted by wrapping the
    # module attributes, as the tracer does
    importlib.import_module("b2crystal.cli")  # loads every module the tracer patches
    tracer = runpy.run_path(TRACING)["Tracer"]()
    g = pbw.generate((3, 2))
    tracer.install()
    try:
        assert axioms.check_all(g, g.cartan).passed
    finally:
        tracer.uninstall()
    names = [rec[3] for rec in tracer.spans]
    batteries = [name for name in names if name.startswith("axioms.check_s")]
    assert batteries == ["axioms.check_s2_s3", "axioms.check_s4_s5", "axioms.check_s6_s9"]


def test_every_counter_counts_a_small_battery(tmp_path, capsys):
    # a counter whose name no longer reaches the program reads 0 without
    # failing; a small battery and a small gen call every counted boundary
    # that a program path reaches (the benchmark-only ones aside): the
    # transition maps and the oracle's guarded lowering steps, which the
    # (1,1) crystal's interlocked fork takes, and gen's pair classification
    cli = importlib.import_module("b2crystal.cli")
    tracer = runpy.run_path(TRACING)["Tracer"]()
    tracer.install()
    try:
        oracle.run_verification(max_hw=1, max_box=1, extra=())
        assert cli.main(["gen", "--hw", "1,0", "--method", "axioms", "--out", str(tmp_path / "g.json")]) == 0
    finally:
        tracer.uninstall()
    counted = {name: n for name, n in tracer.counts.items() if name.split(".")[1] not in BENCHMARK_ONLY}
    assert set(counted) >= {"kernel.r_transfer", "kernel.r_inverse", "pbw.kashiwara_step"}
    assert [name for name, n in counted.items() if n == 0] == []
