#!/usr/bin/env python3
"""Size one item per diagonal (compressed chains) on the `membership` workload.

    PYTHONPATH=src python3 scripts/chain_items.py --seed 1

Replays the `membership` workload of `bench/workloads.py` for the seed
with `report_digest.replay`, and records with `report_digest.saturations`
the automaton and the goal-stopped relation of the one saturation that
`cli.main` runs for each identity or member query.  It then
saturates that automaton once more, to the full fixpoint, through the
unwrapped function.  In each relation it counts:

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
which must both reach 3 for a compressed relation to be worth building;
the gate is printed, not enforced.  Exits 1 if some verdict is wrong.
`bench/` is only read.
"""

import argparse
import os
import sys

from sl2z_semigroups import automata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from report_digest import load_workloads, replay, saturations  # noqa: E402

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    saturate = automata.saturate    # unwrapped, for the complete runs
    totals = {"stopped": [0] * 4, "complete": [0] * 4}
    ratios = {}
    wrong = []
    print(f"{'query':44s} {'states':>6s}  stopped: triples ext items bound"
          f"  complete: triples ext items bound")
    with saturations() as calls:
        for run in replay(load_workloads(), "membership", args.seed):
            label = run.query.label
            if run.wrong:
                wrong.append(run.wrong)
            for auto, sat in calls:
                stopped = sizes(sat)
                complete = sizes(saturate(auto))
                for kind, row in (("stopped", stopped), ("complete", complete)):
                    totals[kind] = [a + b for a, b in zip(totals[kind], row)]
                if label in GATED:
                    ratios[label] = stopped[0] / stopped[2]
                print(f"{label:44s} {auto.n_states:6d}  {stopped[0]:7d} {stopped[1]:5d} "
                      f"{stopped[2]:5d} {stopped[3]:5d}  {complete[0]:7d} {complete[1]:5d} "
                      f"{complete[2]:5d} {complete[3]:5d}")
            calls.clear()
    for kind, (triples, extensions, items, bound) in totals.items():
        print(f"total {kind}: {triples} triples, {extensions} extensions, {items} items "
              f"({triples / items:.2f}x fewer), bound {bound} ({triples / bound:.2f}x)")
    for label, ratio in ratios.items():
        verdict = "meets" if ratio >= GATE else "misses"
        print(f"{label}: goal-stopped triples / items = {ratio:.2f}, {verdict} the {GATE:g}x gate")
    for message in wrong:
        print(f"wrong: {message}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
