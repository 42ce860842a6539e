#!/usr/bin/env python3
"""Cyclic-GC collections per phase of one `membership` pass.

    PYTHONPATH=src python3 scripts/gc_pressure.py --seed 1

Builds the `membership` queries of `bench/workloads.py` for the seed, as
`scripts/chain_items.py` does, then runs each one once in this process,
phase by phase, as `decisions` does: parse the problem file, conjugate the
problem (`GeneratorSet.conjugated`), build its automaton, saturate it up
to its goal, and extract and re-multiply the witness of a YES.  A
`gc.callbacks` hook counts the collections of each generation that start
during each phase, and the time they take.  Prints one row per phase and
the totals.  The counts depend on the interpreter version, so nothing is
checked against them; exits 1 only if an answer is wrong.  The collector's
settings are left as they are, and `bench/` is only read.
"""

import argparse
import gc
import os
import sys
import tempfile
import time
import types
from contextlib import contextmanager

from sl2z_semigroups import algebra, automata, cli, encodings, oracle

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from report_digest import load_workloads  # noqa: E402

PHASES = ("parse", "conjugation", "build", "saturate", "extract")


class Meter:
    """Wall time per phase, and the collections and collector time per
    phase and generation, fed by a `gc.callbacks` hook."""

    def __init__(self):
        self.phase = None
        self.wall = dict.fromkeys(PHASES, 0.0)
        self.collections = {p: [0, 0, 0] for p in PHASES}
        self.gc_s = dict.fromkeys(PHASES, 0.0)
        self._started = None

    def hook(self, stage, info):
        if self.phase is None:
            return
        if stage == "start":
            self.collections[self.phase][info["generation"]] += 1
            self._started = time.perf_counter()
        elif self._started is not None:
            self.gc_s[self.phase] += time.perf_counter() - self._started
            self._started = None

    @contextmanager
    def timing(self, phase):
        self.phase = phase
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall[phase] += time.perf_counter() - start
            self.phase = None


def run_query(meter: Meter, q) -> bool:
    """Whether one `identity` or `member` query answers as expected."""
    with meter.timing("parse"):
        problem = cli.parse_problem(q.argv[1])
    gens = problem.generators
    with meter.timing("conjugation"):
        if q.argv[0] == "identity":
            conj, word = gens.conjugated()
        else:
            conj, word = gens.conjugated(problem.target)
    with meter.timing("build"):
        if word is None:
            auto = automata.build_loop_automaton(conj)
        else:
            auto = automata.build_membership_automaton(conj, word)
    with meter.timing("saturate"):
        sat = automata.saturate(auto, auto.goal)
    found = auto.goal in sat.triples
    with meter.timing("extract"):
        if found:
            seq = automata.extract_witness(auto, sat, *auto.goal)
            found = gens.product(seq) == q.expect["target"]
    return found == (q.expect["answer"] == "YES")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = load_workloads()
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    meter = Meter()
    wrong = []
    with tempfile.TemporaryDirectory(prefix="gc-pressure-") as workdir:
        queries = workloads.build(pkg, workdir, "membership", args.seed)
        gc.collect()
        gc.callbacks.append(meter.hook)
        try:
            for q in queries:
                if not run_query(meter, q):
                    wrong.append(q.label)
        finally:
            gc.callbacks.remove(meter.hook)
    print(f"{len(queries)} membership queries, seed {args.seed}, Python {sys.version.split()[0]}")
    print(f"{'phase':12s} {'wall_ms':>9s} {'gen0':>6s} {'gen1':>6s} {'gen2':>6s} {'gc_ms':>8s}")
    for phase in PHASES:
        g0, g1, g2 = meter.collections[phase]
        print(f"{phase:12s} {1000 * meter.wall[phase]:9.1f} {g0:6d} {g1:6d} {g2:6d} "
              f"{1000 * meter.gc_s[phase]:8.2f}")
    g0, g1, g2 = (sum(c[i] for c in meter.collections.values()) for i in range(3))
    print(f"{'total':12s} {1000 * sum(meter.wall.values()):9.1f} {g0:6d} {g1:6d} {g2:6d} "
          f"{1000 * sum(meter.gc_s.values()):8.2f}")
    for label in wrong:
        print(f"wrong answer: {label}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
