#!/usr/bin/env python3
"""Certify the complete saturations behind the benchmark's answers.

    PYTHONPATH=src python3 scripts/certify_nos.py --seed 3

Replays the four workloads of `bench/workloads.py` for the seed with
`report_digest.replay`, which checks every report, and keeps every
saturation that ran to its full fixpoint, as `report_digest.saturations`
records them.  A NO of identity, membership, counting or recurrence and a
free set rest on a triple missing from such a relation, and a
finite-freeness UNKNOWN_UP_TO on its rule dependencies, so each one is
checked by `tests/closure_referee.py`, which shares no code with the
saturation: closed under every rule, and every derivation grounded in
earlier triples and real edges.  Prints one
line per workload, and exits 1 if a relation fails, if a verdict is
wrong, or if a query answered NO, other than a witnessed freeness or
finite-freeness NO, without a complete saturation to certify.

`bench/` is only read.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from closure_referee import certify  # noqa: E402
from report_digest import load_workloads, replay, saturations  # noqa: E402

# answers whose witness is a multiplied product: they need no closure
WITNESSED = {"freeness", "finite_freeness"}


def certify_workload(workloads, name: str, seed: int) -> tuple:
    """(queries, NO answers, certified relations, triples, faults) of one
    workload."""
    count = nos = relations = triples = 0
    faults = []
    with saturations() as calls:
        for count, run in enumerate(replay(workloads, name, seed), 1):
            label, report = run.query.label, run.report or {}
            complete = [(auto, sat) for auto, sat in calls if sat.complete]
            calls.clear()
            if run.wrong:
                faults.append(f"wrong verdict: {run.wrong}")
            if report.get("answer") == "NO" and report.get("problem") not in WITNESSED:
                nos += 1
                if not complete:
                    faults.append(f"{label}: NO without a complete saturation")
            for auto, sat in complete:
                relations += 1
                triples += len(sat)
                faults += [f"{label}: {auto.kind} automaton: {fault}"
                           for fault in certify(auto, sat)]
    return count, nos, relations, triples, faults


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
