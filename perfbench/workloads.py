"""The benchmark's workloads: inputs built from a seed, ops, and their checks.

Every workload is closed-loop with one caller: the next op starts when the
previous one has returned.  An op list holds inputs of one size only; the
seed varies their content (which weight of a band of near-equal dimension,
which vertex-id permutation, which mutants), never their size, because
mixed sizes made the per-op median spread.

Which layers each workload loads, and which it bypasses:

cli_certify  the accept path through ``cli.main``: gen --method pbw, check,
    gen --method axioms, iso.  Loads ``axioms`` (check_all runs six times
    per op), ``cli.dump_doc``/``load_doc``, ``builder``; ``pbw.generate`` is
    a small share.  Bypasses ``oracle``.
mutant_check  the reject path: ``cli.main(["check", ...])`` on deletion,
    redirect and duplicate-arrow mutants of one crystal, plus intact copies.
    Loads ``cli.load_doc``/``doc_to_graph``, ``graph.is_good``/
    ``maximum_elements`` and ``axioms``; bypasses ``builder`` and ``oracle``,
    and ``pbw.generate`` runs only in set-up.
verify_battery  ``oracle.run_verification``: loads ``pbw`` element
    navigation, ``pbw.generate`` (48 calls per op) and ``kernel``; its
    ``axioms`` work comes through ``verify_reversal``.  Bypasses ``cli``.

A layer change should move the numbers of the workloads that load it and
leave the others alone; that pairing is how the benchmark attributes a gain:

layer metric                       should move                     should not move
axioms.*.self_ms, check_all.calls  op_p50/ops_per_s of cli_certify verify_battery (only slightly)
                                   and mutant_check
builder.*.self_ms                  cli_certify                     mutant_check
pbw.generate.self_ms, kernel.*     verify_battery; setup_s of      cli_certify (only slightly)
                                   mutant_check
graph.maximum_elements.self_ms     mutant_check
cli.dump_doc.self_ms, doc_bytes    cli_certify                     verify_battery
oracle.*                           verify_battery only
"""

import contextlib
import io
import os
import re

# B2 weights whose certify ops cost about the same: (4,4) has 625 vertices,
# (3,5) 640.  An op takes about 150 ms nominal, so a 30 s run holds over a
# hundred ops and op_tail_ms is about p90.  Near (8,8) an op takes about
# 1.8 s: a run would hold some fifteen, too few for a tail percentile.
CERTIFY_BAND = ((4, 4), (3, 5))
MUTANT_WEIGHT = (5, 5)
# Extra weights for the verification battery whose ops cost the same within
# 1% (616 and 560 vertices; the fork suites' work is not proportional to size).
BATTERY_BAND = ((7, 2), (5, 3))

# Per cycle of the mutant list: ops that run the full battery (intact copies
# and deletions that keep a unique source) outnumber the cheap early rejects
# (redirects and duplicate arrows fail is_good) three to one, so the median
# op lies well inside the full-battery mode.
N_INTACT, N_DELETE, N_REDIRECT, N_DUPLICATE = 6, 12, 3, 3

_VERTICES = re.compile(r"(\d+) vertices")


def run_cli(cli, argv):
    """cli.main with its output captured; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _vertex_count(text):
    m = _VERTICES.search(text)
    return int(m.group(1)) if m else None


def _permuted(doc, rng):
    """Copy of a document with its vertex ids renamed by a seeded permutation."""
    ids = [v["id"] for v in doc["vertices"]]
    image = dict(zip(ids, rng.sample(ids, len(ids))))
    out = dict(doc)
    out["vertices"] = sorted(({**v, "id": image[v["id"]]} for v in doc["vertices"]),
                             key=lambda v: v["id"])
    out["edges"] = sorted(({"from": image[e["from"]], "to": image[e["to"]], "color": e["color"]}
                           for e in doc["edges"]),
                          key=lambda e: (e["from"], e["to"], e["color"]))
    if "max" in doc:
        out["max"] = image[doc["max"]]
    return out


class Op:
    """One op: a zero-argument callable and the expectation its output must meet."""

    def __init__(self, run, expected):
        self.run = run
        self.expected = expected


class CliCertify:
    name = "cli_certify"

    def setup(self, b2, rng, workdir):
        lam = rng.choice(CERTIFY_BAND)
        hw = f"{lam[0]},{lam[1]}"
        doc = _permuted(b2.cli.graph_to_doc(b2.pbw.generate(lam)), rng)
        given = os.path.join(workdir, "given.json")
        b2.cli.dump_doc(doc, given)
        pbw_out = os.path.join(workdir, "pbw.json")
        synth_out = os.path.join(workdir, "synth.json")
        argvs = (
            ["gen", "--gcm", "b2", "--hw", hw, "--method", "pbw", "--out", pbw_out],
            ["check", "--in", given],
            ["gen", "--gcm", "b2", "--hw", hw, "--method", "axioms", "--out", synth_out],
            ["iso", given, synth_out],
        )
        cli = b2.cli

        def run():
            return [run_cli(cli, argv) for argv in argvs]

        dim = b2.oracle.weyl_dim_b2(*lam)
        self.label = f"hw={lam} V={dim}"
        return [Op(run, dim)]

    @staticmethod
    def check(out, dim):
        """Every step exits 0 and reports the Weyl dimension as its vertex
        count; for iso that count is the size of the isomorphism."""
        for code, text in out:
            if code != 0:
                return f"exit {code}: {text.strip()[:200]}"
            if _vertex_count(text) != dim:
                return f"vertex count {_vertex_count(text)} != {dim}: {text.strip()[:200]}"
        return None

    @staticmethod
    def corrupt(dim):
        return dim + 1


class MutantCheck:
    name = "mutant_check"

    def setup(self, b2, rng, workdir):
        lam = MUTANT_WEIGHT
        doc = _permuted(b2.cli.graph_to_doc(b2.pbw.generate(lam)), rng)
        edges = doc["edges"]
        in_deg = {}
        has_in = set()
        for e in edges:
            in_deg[e["to"]] = in_deg.get(e["to"], 0) + 1
            has_in.add((e["to"], e["color"]))
        docs = [("intact", doc, 0)]
        # deletions whose target keeps another parent: still one source,
        # so check_all runs every battery before rejecting
        keep_source = [k for k, e in enumerate(edges) if in_deg[e["to"]] >= 2]
        for k in rng.sample(keep_source, N_DELETE):
            docs.append((f"delete{k}", {**doc, "edges": edges[:k] + edges[k + 1:]}, 1))
        # redirects onto a vertex that already has an arrow of that color:
        # is_good rejects them (G2)
        targets = [v["id"] for v in doc["vertices"]]
        for k in rng.sample(range(len(edges)), N_REDIRECT):
            e = edges[k]
            w = rng.choice([t for t in targets if (t, e["color"]) in has_in and t != e["to"]])
            moved = {**e, "to": w}
            docs.append((f"redirect{k}", {**doc, "edges": edges[:k] + [moved] + edges[k + 1:]}, 1))
        for k in rng.sample(range(len(edges)), N_DUPLICATE):
            docs.append((f"duplicate{k}", {**doc, "edges": edges + [edges[k]]}, 1))

        cli = b2.cli
        dim = b2.oracle.weyl_dim_b2(*lam)
        ops = []
        for tag, d, code in docs:
            path = os.path.join(workdir, f"{tag}.json")
            b2.cli.dump_doc(d, path)
            argv = ["check", "--in", path]
            op = Op(lambda argv=argv: run_cli(cli, argv), (code, dim))
            ops.extend([op] * (N_INTACT if tag == "intact" else 1))
        rng.shuffle(ops)
        self.label = f"hw={lam} V={dim} docs={len(docs)}"
        return ops

    @staticmethod
    def check(out, expected):
        """Intact crystals exit 0 with the Weyl dimension; mutants exit 1."""
        code, text = out
        want, dim = expected
        if code != want:
            return f"exit {code}, want {want}: {text.strip()[:200]}"
        if want == 0 and _vertex_count(text) != dim:
            return f"vertex count {_vertex_count(text)} != {dim}"
        return None

    @staticmethod
    def corrupt(expected):
        return (1 - expected[0], expected[1])


class VerifyBattery:
    name = "verify_battery"

    def setup(self, b2, rng, workdir):
        lam = rng.choice(BATTERY_BAND)
        oracle = b2.oracle

        def run():
            return oracle.run_verification(max_hw=2, max_box=6, extra=(lam,))

        # lemma scan, three fork suites on 9 grid weights plus lam,
        # 9 reversal suites, one dimension suite
        n_suites = 1 + 3 * 10 + 9 + 1
        self.label = f"extra={lam}"
        return [Op(run, n_suites)]

    @staticmethod
    def check(reports, n_suites):
        """Every suite of the battery passes."""
        if len(reports) != n_suites:
            return f"{len(reports)} suites, want {n_suites}"
        failed = [r.claim for r in reports if not r.passed]
        return f"failed suites: {failed}" if failed else None

    @staticmethod
    def corrupt(n_suites):
        return n_suites + 1


WORKLOADS = {w.name: w for w in (CliCertify, MutantCheck, VerifyBattery)}
