#!/usr/bin/env python3
"""Stage table: one pass of every pipeline stage at a few fixed weights.

    python3 perfbench/stages.py

Not a gated workload: a single pass at (20,20) costs tens of seconds and
about 530 MB.  Each weight runs in a fresh process of its own, so peak RSS
is per weight; it is read after every stage (``ru_maxrss`` only grows).
Times are nominal, like run.py's, with the raw ones beside them.  Weights
above LARGE vertices skip the stages that certify twice or more
(synthesis with its check, the isomorphism, the CLI), as the ROADMAP
baseline did.  Prints a table, then one JSON line with every number.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import reftask  # noqa: E402
from reftask import REF_NOMINAL  # noqa: E402

WEIGHTS = ("b2:6,6", "b2:12,12", "b2:20,20", "b3:1,0,0")
LARGE = 100_000


def stage(rows, name, fn):
    before = reftask.reference_seconds()
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    ref = (before + reftask.reference_seconds()) / 2
    rows[name] = {
        "ms": 1e3 * (t1 - t0) * REF_NOMINAL / ref,
        "raw_ms": 1e3 * (t1 - t0),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return out


def one_weight(spec, workdir):
    """Every stage at one weight, in this process."""
    from b2crystal import cli
    from b2crystal.axioms import check_all, check_s2_s3, check_s4_s5, check_s6_s9
    from b2crystal.builder import build_isomorphism, synthesize
    from b2crystal.cartan import b2_gcm, b3_gcm
    from b2crystal.graph import string_tables
    from b2crystal.pbw import generate

    gcm_name, hw = spec.split(":")
    lam = tuple(int(t) for t in hw.split(","))
    A = b2_gcm() if gcm_name == "b2" else b3_gcm()
    rows = {"start": {"ms": 0.0, "raw_ms": 0.0,
                      "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}
    if gcm_name == "b2":
        g = stage(rows, "pbw.generate", lambda: generate(lam))
    else:
        g = stage(rows, "synthesize(check=False)", lambda: synthesize(A, lam, check=False))
    large = len(g) > LARGE
    stage(rows, "string_tables", lambda: string_tables(g))

    def s1_max_wt():
        g.is_good()
        (x0,) = g.maximum_elements()
        g.wt_assign(x0)

    stage(rows, "S1/MAX/WT", s1_max_wt)
    stage(rows, "S2-S3", lambda: check_s2_s3(g, A))
    stage(rows, "S4-S5", lambda: check_s4_s5(g, A))
    stage(rows, "S6-S9", lambda: check_s6_s9(g, A))
    report = stage(rows, "check_all", lambda: check_all(g, A))
    if not report.passed:
        raise RuntimeError(f"{spec}: check_all failed: {report.summary()}")
    if gcm_name == "b2":
        stage(rows, "synthesize(check=False)", lambda: synthesize(A, lam, check=False))
    if not large:
        s = stage(rows, "synthesize(check=True)", lambda: synthesize(A, lam))
        stage(rows, "build_isomorphism", lambda: build_isomorphism(g, s, gcm=A))
    path = os.path.join(workdir, "g.json")
    doc = cli.graph_to_doc(g)
    stage(rows, "json dump", lambda: cli.dump_doc(doc, path))
    stage(rows, "json load", lambda: cli.load_doc(path))
    if not large:
        method = "pbw" if gcm_name == "b2" else "axioms"
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                stage(rows, f"CLI gen --method {method}",
                      lambda: cli.main(["gen", "--gcm", gcm_name, "--hw", hw, "--method", method,
                                        "--out", path])),
                stage(rows, "CLI check", lambda: cli.main(["check", "--in", path])),
                stage(rows, "CLI iso", lambda: cli.main(["iso", path, path])),
            ]
        if codes != [0, 0, 0]:
            raise RuntimeError(f"{spec}: CLI exit codes {codes}")
    return {"weight": spec, "vertices": len(g), "edges": len(g.edges()), "stages": rows}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--one", help=argparse.SUPPRESS)  # a single weight, in a child process
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.one:
        print(json.dumps(one_weight(args.one, args.workdir)))
        return
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as workdir:
        for spec in WEIGHTS:
            proc = subprocess.run([sys.executable, __file__, "--one", spec, "--workdir", workdir],
                                  capture_output=True, text=True, check=True,
                                  env=dict(os.environ, PYTHONHASHSEED="0"))
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    names = []
    for r in results:
        names += [n for n in r["stages"] if n not in names]
    print(f"reference task v{reftask.REF_VERSION}, REF_NOMINAL {REF_NOMINAL * 1e3:g} ms; "
          "nominal ms (peak RSS MB after the stage)")
    print(f"{'stage':<28}" + "".join(f"{r['weight'] + ': ' + str(r['vertices']) + ' V':>26}"
                                     for r in results))
    for n in names:
        cells = []
        for r in results:
            st = r["stages"].get(n)
            cells.append(f"{st['ms']:.1f} ms ({st['rss_mb']:.0f} MB)" if st else "-")
        print(f"{n:<28}" + "".join(f"{c:>26}" for c in cells))
    print("edges " + ", ".join(f"{r['weight']}: {r['edges']}" for r in results))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
