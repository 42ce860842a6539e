#!/usr/bin/env python3
"""Certify the complete saturations behind the benchmark's answers.

    PYTHONPATH=src python3 scripts/certify_nos.py --seed 3

Builds the query lists of the four workloads of `bench/workloads.py` for
the seed, runs each query through `cli.main` in this process, and keeps
every saturation that ran to its full fixpoint.  A NO of identity,
membership, counting or recurrence and a free set rest on a triple
missing from such a relation, and a finite-freeness UNKNOWN_UP_TO on its
rule dependencies, so each one is checked by `tests/closure_referee.py`,
which shares no code with the saturation: closed under every rule, and
every derivation grounded in earlier triples and real edges.  Prints one
line per workload, and exits 1 if a relation fails or if a query
answered NO, other than a witnessed freeness or finite-freeness NO,
without a complete saturation to certify.

`bench/` is only read: the module is loaded from its file without writing
bytecode next to it.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
import types

from sl2z_semigroups import algebra, automata, cli, encodings, oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from closure_referee import certify  # noqa: E402
from report_digest import load_workloads  # noqa: E402

# answers whose witness is a multiplied product: they need no closure
WITNESSED = {"freeness", "finite_freeness"}


def run_query(argv) -> tuple:
    """(report, [(automaton, relation)] of the complete saturations the
    query ran)."""
    complete = []
    saturate = automata.saturate

    def recorded(auto, goal=None):
        sat = saturate(auto, goal)
        if sat.complete:
            complete.append((auto, sat))
        return sat

    automata.saturate = recorded
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
    finally:
        automata.saturate = saturate
    return json.loads(out.getvalue()), complete


def certify_workload(workloads, name: str, seed: int) -> tuple:
    """(queries, NO answers, certified relations, triples, faults) of one
    workload."""
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    nos = relations = triples = 0
    faults = []
    with tempfile.TemporaryDirectory(prefix="certify-nos-") as workdir:
        queries = workloads.build(pkg, workdir, name, seed)
        for q in queries:
            report, complete = run_query(q.argv)
            if report["answer"] == "NO" and report["problem"] not in WITNESSED:
                nos += 1
                if not complete:
                    faults.append(f"{q.label}: NO without a complete saturation")
            for auto, sat in complete:
                relations += 1
                triples += len(sat)
                faults += [f"{q.label}: {auto.kind} automaton: {fault}"
                           for fault in certify(auto, sat)]
    return len(queries), nos, relations, triples, faults


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    failed = False
    for name in names:
        start = time.monotonic()
        count, nos, relations, triples, faults = certify_workload(workloads, name, args.seed)
        print(f"{name:16s} {count:4d} queries, {nos:3d} NO answers, {relations:4d} complete "
              f"relations certified ({triples} triples) in {time.monotonic() - start:.1f} s",
              flush=True)
        for fault in faults:
            print(f"  fault: {fault}")
        failed = failed or bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
