#!/usr/bin/env python3
"""Size one item per diagonal (compressed chains) on the `membership` workload.

    PYTHONPATH=src python3 scripts/chain_items.py --seed 1

Builds the `membership` queries of `bench/workloads.py` for the seed.  For
each one it builds the automaton that `decisions` builds, from the
shortest conjugate of the problem (`GeneratorSet.conjugated`), and
saturates it twice: stopped at its goal, and to the full fixpoint.  In
each relation it counts:

- the triples;
- the outward extensions: triples whose recorded (lightest) derivation is
  `ss` around a triple gap, or `rrr` with exactly one triple gap, so that
  they extend that gap by one letter at each end;
- the items: every triple is one, except that an extension of an
  extension is merged into the item of its gap, so each diagonal costs
  its first two triples;
- the bound: triples less extensions, as if every extension merged into
  its gap.

Prints one line per query, the totals, and triples / items of the
goal-stopped runs of `[150, 250]` x = 400 and `[2, 3, 5, 7, 11]` x = 20,
which must both reach 3 for a compressed relation to be worth building.
Exits 0 either way.  `bench/` is only read.
"""

import argparse
import os
import sys
import tempfile
import types

from sl2z_semigroups import algebra, automata, cli, encodings, oracle

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from report_digest import load_workloads  # noqa: E402

GATED = ("identity ssp [150, 250] x=400", "identity ssp [2, 3, 5, 7, 11] x=20")
GATE = 3.0


def extended_gap(parent):
    """The gap triple that a derivation extends outward, or None."""
    if parent[0] == "ss":
        return parent[2]
    if parent[0] == "rrr" and (parent[2] is None) != (parent[4] is None):
        return parent[2] or parent[4]
    return None


def sizes(sat) -> tuple:
    """(triples, extensions, items, bound) of a saturation relation."""
    parents = sat.parents
    gaps = [extended_gap(p) for p in parents.values()]
    extensions = sum(g is not None for g in gaps)
    merged = sum(g is not None and extended_gap(parents[g]) is not None for g in gaps)
    return len(parents), extensions, len(parents) - merged, len(parents) - extensions


def query_automaton(argv):
    """The automaton `decisions` builds for an identity or member query."""
    problem = cli.parse_problem(argv[1])
    if argv[0] == "identity":
        return automata.build_loop_automaton(problem.generators.conjugated()[0])
    return automata.build_membership_automaton(*problem.generators.conjugated(problem.target))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = load_workloads()
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    totals = {"stopped": [0] * 4, "complete": [0] * 4}
    ratios = {}
    print(f"{'query':44s} {'states':>6s}  stopped: triples ext items bound"
          f"  complete: triples ext items bound")
    with tempfile.TemporaryDirectory(prefix="chain-items-") as workdir:
        for q in workloads.build(pkg, workdir, "membership", args.seed):
            auto = query_automaton(q.argv)
            stopped = sizes(automata.saturate(auto, auto.goal))
            complete = sizes(automata.saturate(auto))
            for run, row in (("stopped", stopped), ("complete", complete)):
                totals[run] = [a + b for a, b in zip(totals[run], row)]
            if q.label in GATED:
                ratios[q.label] = stopped[0] / stopped[2]
            print(f"{q.label:44s} {auto.n_states:6d}  {stopped[0]:7d} {stopped[1]:5d} "
                  f"{stopped[2]:5d} {stopped[3]:5d}  {complete[0]:7d} {complete[1]:5d} "
                  f"{complete[2]:5d} {complete[3]:5d}")
    for run, (triples, extensions, items, bound) in totals.items():
        print(f"total {run}: {triples} triples, {extensions} extensions, {items} items "
              f"({triples / items:.2f}x fewer), bound {bound} ({triples / bound:.2f}x)")
    for label, ratio in ratios.items():
        verdict = "meets" if ratio >= GATE else "misses"
        print(f"{label}: goal-stopped triples / items = {ratio:.2f}, {verdict} the {GATE:g}x gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
