#!/usr/bin/env python3
"""The b2crystal benchmark: one workload per process, timed in-process.

    python3 perfbench/run.py --workload cli_certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The process re-executes itself once with a fixed PYTHONHASHSEED, so every
run hashes alike, and with its bytecode cache under ``.perfbench/``.  One
untimed import fills that cache before set-up is timed, so ``setup_s``
measures importing from cached bytecode, as a user's installed package does,
and not compiling the source.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see tracing.py).  ``--selfcheck`` feeds
the first op a wrong expectation, to show the checks count a failure.

Timings are nominal: raw time * REF_NOMINAL / the mean duration of the
reference task (reftask.py) run right before and right after it in the same
process.  Raw values are printed beside them.  The last line of standard
output is the JSON result; ``error_rate`` (failed / attempted ops) is printed
above it and carried by its ``attempted`` and ``failed`` fields.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [HERE, SRC]

import reftask  # noqa: E402
import tracing  # noqa: E402
from reftask import REF_NOMINAL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HASHSEED = "0"
SETUP_REPS = 9
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
HARD_CAP_S = 120.0  # stop taking ops after this long, whatever --seconds says
# stdlib modules the package imports; loaded before set-up is timed so that
# every set-up repetition does the same work
STDLIB = ("argparse", "dataclasses", "itertools", "json", "typing")

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def reexec_if_needed():
    """Restart this script with the fixed interpreter settings, once."""
    if os.environ.get("PERFBENCH_CHILD") == "1":
        return
    env = dict(os.environ, PERFBENCH_CHILD="1", PYTHONHASHSEED=HASHSEED,
               PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


# -- set-up ---------------------------------------------------------------------

class Modules:
    """Freshly imported program modules."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "b2crystal" or m.startswith("b2crystal.")]:
            del sys.modules[name]
        import b2crystal.cli
        import b2crystal.oracle
        import b2crystal.pbw

        if not b2crystal.__file__.startswith(SRC + os.sep):
            raise RuntimeError(f"b2crystal imported from {b2crystal.__file__}, not {SRC}")
        self.cli = b2crystal.cli
        self.oracle = b2crystal.oracle
        self.pbw = b2crystal.pbw


def timed_setup(workload, seed, workdir):
    """Import the package and build the inputs SETUP_REPS times.

    Returns (ops, nominal seconds per repetition, raw seconds per repetition).
    The reference task runs before and after each repetition and their mean
    normalises it.  An untimed import first fills the bytecode cache.
    """
    Modules()
    nominal, raw = [], []
    for _ in range(SETUP_REPS):
        ops = None  # the previous repetition's inputs are garbage before this one starts
        gc.collect()
        ref_before = reftask.reference_seconds()
        t0 = time.perf_counter()
        b2 = Modules()
        ops = workload.setup(b2, random.Random(seed), workdir)
        t1 = time.perf_counter()
        ref_after = reftask.reference_seconds()
        raw.append(t1 - t0)
        nominal.append((t1 - t0) * REF_NOMINAL / ((ref_before + ref_after) / 2))
    return ops, nominal, raw


# -- the op loop ----------------------------------------------------------------

class Phase:
    """Ops of one phase: raw seconds, the reference runs around them, failures.

    refs[k] runs right before op k and refs[k + 1] right after it; op k is
    normalised by their mean, which follows the machine's speed across the op.
    """

    def __init__(self):
        self.raw = []
        self.refs = []
        self.attempted = 0
        self.failures = []

    def ref(self, k):
        return (self.refs[k] + self.refs[k + 1]) / 2

    def nominal(self):
        return [raw * REF_NOMINAL / self.ref(k) for k, raw in enumerate(self.raw)]


def run_phase(workload, ops, seconds, min_ops, phase, tracer=None, wrong_first=False):
    op_fn = [op.run for op in ops]
    if tracer is not None:
        op_fn = [tracer.span(tracing.OP_SPAN, fn) for fn in op_fn]
    start = time.perf_counter()
    gc.collect()
    phase.refs.append(reftask.reference_seconds())
    k = 0
    while True:
        now = time.perf_counter()
        if now - start >= HARD_CAP_S or (now - start >= seconds and len(phase.raw) >= min_ops):
            break
        op = ops[k % len(ops)]
        if tracer is not None:
            tracer.op = k
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = op_fn[k % len(ops)]()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"raised {exc!r}"
        t1 = time.perf_counter()
        gc.collect()
        phase.raw.append(t1 - t0)
        phase.refs.append(reftask.reference_seconds())
        expected = op.expected
        if wrong_first and k == 0:
            expected = workload.corrupt(expected)
        if error is None:
            error = workload.check(out, expected)
        phase.attempted += 1
        if error is not None:
            phase.failures.append(error)
        k += 1
    return phase


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(values)
    idx = max(len(xs) - 11, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


def layer_metrics(tracer, phase):
    """Per-layer calls, self time and share, per traced op."""
    n_ops = len(phase.raw)
    scale = [REF_NOMINAL / phase.ref(k) for k in range(n_ops)]
    own = tracer.self_times()
    calls = dict.fromkeys(tracing.span_names(), 0)
    self_raw = dict.fromkeys(calls, 0.0)
    self_nom = dict.fromkeys(calls, 0.0)
    for rec, t in zip(tracer.spans, own):
        name = rec[3]
        if name in calls:
            calls[name] += 1
            self_raw[name] += t
            self_nom[name] += t * scale[rec[2]]
    op_raw = sum(phase.raw)
    out = {}
    for name in calls:
        out[f"{name}.calls"] = (calls[name] / n_ops, "count")
        out[f"{name}.self_ms"] = (1e3 * self_nom[name] / n_ops, "ms")
        out[f"{name}.share"] = (self_raw[name] / op_raw, "ratio")
    for name, n in tracer.counts.items():
        out[f"{name}.calls"] = (n / n_ops, "count")
    out["cli.doc_bytes"] = (tracer.doc_bytes / n_ops, "bytes")
    out["pbw.generate.kernel_calls_per_vertex"] = (
        tracer.gen_kernel_calls / tracer.gen_vertices if tracer.gen_vertices else 0.0,
        "calls/vertex")
    return out


# -- main -------------------------------------------------------------------------

def measure(args):
    workload = WORKLOADS[args.workload]()
    for name in STDLIB:
        __import__(name)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops, setup_nom, setup_raw = timed_setup(workload, args.seed, workdir)
        gc.collect()
        gc.freeze()
        # one untimed op: lazy imports and first-call caches fill here
        warm = Phase()
        run_phase(workload, ops, 0.0, 1, warm)
        if args.trace:
            plain = run_phase(workload, ops, args.seconds / 2, 3, Phase(),
                              wrong_first=args.selfcheck)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, ops, args.seconds / 2, 3, Phase(), tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(WORK, "trace", f"{args.workload}.spans.jsonl"))
            phases = [warm, plain, traced]
        else:
            plain = run_phase(workload, ops, args.seconds, MIN_OPS, Phase(),
                              wrong_first=args.selfcheck)
            tracer = traced = None
            phases = [warm, plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    nominal = plain.nominal()
    p50 = statistics.median(nominal)
    tail_value, tail_pct, n = tail(nominal)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    end_to_end = {
        "setup_s": statistics.median(setup_nom),
        "op_p50_ms": 1e3 * p50,
        "op_tail_ms": 1e3 * tail_value,
        "ops_per_s": len(nominal) / sum(nominal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "op_p50_ms": 1e3 * statistics.median(plain.raw),
        "ref_ms": 1e3 * statistics.median(plain.refs),
        "error_rate": len(failures) / attempted,
        "tail_percentile": tail_pct,
        "ops": n,
        "label": workload.label,
    }
    if args.trace:
        layers = layer_metrics(tracer, traced)
        n_check = sum(1 for rec in tracer.spans if rec[3] == "axioms.check_all")
        # set by the seeded input mix, not by the code: printed, not gated
        raw["check_all_reject_ratio"] = tracer.check_all_rejects / n_check if n_check else 0.0
        layers["bench.raw_op_p50_ms"] = (raw["op_p50_ms"], "ms")
        layers["bench.trace_overhead"] = (statistics.median(traced.nominal()) / p50, "ratio")
        metrics = layers
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end.items()}
    return end_to_end, raw, metrics, attempted, failures


def report(args, end_to_end, raw, metrics, attempted, failures):
    """Human-readable lines, one raw-JSON line, then the result line."""
    print(f"workload {args.workload} seed {args.seed} ({raw['label']}), "
          f"reference task v{reftask.REF_VERSION}, REF_NOMINAL {REF_NOMINAL * 1e3:g} ms")
    print(f"  error_rate            {raw['error_rate']:.4f} ratio "
          f"({len(failures)} of {attempted} ops failed)")
    for f in failures[:5]:
        print(f"    failure: {f}")
    print(f"  op_tail_ms is p{raw['tail_percentile']:.1f} of {raw['ops']} ops")
    print(f"  raw: ref {raw['ref_ms']:.2f} ms, op p50 {raw['op_p50_ms']:.2f} ms, "
          f"setup {raw['setup_s']:.4f} s")
    if args.trace:
        print(f"  axioms.check_all reject ratio {raw['check_all_reject_ratio']:.4f} "
              "(follows the input mix)")
    for name, value in end_to_end.items():
        print(f"  {name:<22}{value:12.4f} {E2E_UNITS[name]}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44}{value:14.4f} {unit}")
    print("raw-json " + json.dumps(raw))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "b2crystal", "__init__.py")):
        print(f"error: no b2crystal package under {SRC}", file=sys.stderr)
        return 2
    reexec_if_needed()
    report(args, *measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
