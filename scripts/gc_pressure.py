#!/usr/bin/env python3
"""Cyclic-GC collections per phase of one `membership` pass.

    PYTHONPATH=src python3 scripts/gc_pressure.py --seed 1

Replays the `membership` workload of `bench/workloads.py` for the seed
with `report_digest.replay`, which runs each query through `cli.main` and
checks its report.  For the length of the pass, the functions that
`decisions` calls for each phase are wrapped to time them: parse
(`cli.parse_problem`), conjugation (`GeneratorSet.conjugated`), build
(`automata.build_loop_automaton`, `automata.build_membership_automaton`),
saturate (`automata.saturate`) and extract (`automata.extract_witness`,
and `GeneratorSet.product` re-multiplying the witness).  A `gc.callbacks`
hook counts the collections of each generation that start during each
phase, and the time they take; collections outside the phases, say while
the report is written, are not counted.  Prints one row per phase and the
totals.  The counts depend on the interpreter version, so nothing is
checked against them; exits 1 only if an answer is wrong.  The collector's
settings are left as they are, and `bench/` is only read.
"""

import argparse
import contextlib
import gc
import os
import sys
import time
from unittest import mock

from sl2z_semigroups import algebra, automata, cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from report_digest import load_workloads, replay  # noqa: E402

# (phase, owner, name) of each wrapped function
WRAPPED = (
    ("parse", cli, "parse_problem"),
    ("conjugation", algebra.GeneratorSet, "conjugated"),
    ("build", automata, "build_loop_automaton"),
    ("build", automata, "build_membership_automaton"),
    ("saturate", automata, "saturate"),
    ("extract", automata, "extract_witness"),
    ("extract", algebra.GeneratorSet, "product"),
)
PHASES = tuple(dict.fromkeys(phase for phase, _, _ in WRAPPED))


class Meter:
    """Per phase: wall time, the collections of each generation, and the
    collector's time, fed by a `gc.callbacks` hook."""

    def __init__(self):
        self.phase = None
        self.rows = {p: [0.0, 0, 0, 0, 0.0] for p in PHASES}
        self._started = None

    def hook(self, stage, info):
        if self.phase is None:
            return
        if stage == "start":
            self.rows[self.phase][1 + info["generation"]] += 1
            self._started = time.perf_counter()
        else:
            # a collection runs no wrapped call, so it stops in the phase it started in
            self.rows[self.phase][4] += time.perf_counter() - self._started

    def timed(self, phase, fn):
        """fn, with its calls counted in the phase."""
        def wrapper(*args, **kwargs):
            self.phase = phase
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rows[phase][0] += time.perf_counter() - start
                self.phase = None
        return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    meter = Meter()
    gc.collect()
    gc.callbacks.append(meter.hook)
    try:
        with contextlib.ExitStack() as stack:
            for phase, owner, name in WRAPPED:
                wrapper = meter.timed(phase, getattr(owner, name))
                stack.enter_context(mock.patch.object(owner, name, wrapper))
            checks = [run.wrong for run in replay(load_workloads(), "membership", args.seed)]
    finally:
        gc.callbacks.remove(meter.hook)
    print(f"{len(checks)} membership queries, seed {args.seed}, Python {sys.version.split()[0]}")
    print(f"{'phase':12s} {'wall_ms':>9s} {'gen0':>6s} {'gen1':>6s} {'gen2':>6s} {'gc_ms':>8s}")
    total = [sum(column) for column in zip(*meter.rows.values())]
    for phase, (wall, g0, g1, g2, gc_s) in (*meter.rows.items(), ("total", total)):
        print(f"{phase:12s} {1000 * wall:9.1f} {g0:6d} {g1:6d} {g2:6d} {1000 * gc_s:8.2f}")
    wrong = [message for message in checks if message]
    for message in wrong:
        print(f"wrong answer: {message}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
