#!/usr/bin/env python3
"""Digest the reports of the benchmark's queries, to compare two versions.

    PYTHONPATH=src python3 scripts/report_digest.py --seed 3 --workload all

Replays each workload with `replay`, and prints one line per workload: its
name, the number of queries, the sha256 of every (label, exit code,
stdout) in list order, and the sha256 of every problem file the workload
wrote (name and bytes, in name order).  Two versions whose lines agree
wrote the same problem files and printed the same reports, so an encoding
change that moves a matrix but no verdict shows in the last column.  Exits
1 if some verdict is wrong.

`scripts/report_digests.txt` pins the lines of `--seed 3`, and CI diffs
the output against it, so a change that moves a report updates that file.

`replay` is the loop that `certify_nos.py`, `chain_items.py` and
`gc_pressure.py` run as well, and `saturations` records the saturations
of a pass for the first two.  `bench/` is only read: the module is
compiled from its file without writing bytecode next to it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import types
from typing import NamedTuple
from unittest import mock

from sl2z_semigroups import algebra, automata, cli, encodings, oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    """`bench/workloads.py`, compiled from its source, which writes no bytecode."""
    path = os.path.join(ROOT, "bench", "workloads.py")
    module = types.ModuleType("bench_workloads")
    module.__file__ = path
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


class Run(NamedTuple):
    query: object       # the workload's `Query`
    code: int           # cli.main's exit code
    stdout: str
    report: dict        # stdout parsed, or None if it is not JSON
    wrong: str          # why `check_report` refused the report, or None


def replay(workloads, name: str, seed: int):
    """Run one workload's queries through `cli.main` in this process.

    Builds the workload's query list for the seed, writing its problem
    files into a temporary directory that lives as long as the generator.
    Runs each query once with stdout and stderr captured, checks its report
    with `workloads.check_report`, and yields a `Run`.  A script that looks
    inside the runs wraps the real functions for the length of the pass,
    and reads what they recorded at each yield.
    """
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    with tempfile.TemporaryDirectory(prefix=f"replay-{name}-") as workdir:
        for q in workloads.build(pkg, workdir, name, seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(q.argv))
            text = out.getvalue()
            report = wrong = None
            try:
                report = json.loads(text)
                workloads.check_report(q, code, report, algebra.Mat2)
            except (ValueError, KeyError, TypeError, workloads.WrongVerdict) as exc:
                wrong = f"{q.label}: {type(exc).__name__}: {exc}"
            yield Run(q, code, text, report, wrong)


@contextlib.contextmanager
def saturations():
    """Wrap `automata.saturate` for the block, and yield the list of the
    (automaton, relation) of each call, which the caller clears after
    each run."""
    calls = []
    saturate = automata.saturate

    def recorded(auto, goal=None):
        sat = saturate(auto, goal)
        calls.append((auto, sat))
        return sat

    with mock.patch.object(automata, "saturate", recorded):
        yield calls


def digest_files(workdir: str) -> str:
    """sha256 of every (file name, bytes) in the directory, in name order."""
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, fname), "rb") as fh:
            data = fh.read()
        digest.update(json.dumps([fname, len(data)]).encode())
        digest.update(data)
    return digest.hexdigest()


def digest_workload(workloads, name: str, seed: int) -> tuple:
    """(digest line, wrong-verdict messages) of one workload."""
    digest = hashlib.sha256()
    count, problems, wrong = 0, None, []
    for count, run in enumerate(replay(workloads, name, seed), 1):
        if problems is None:
            # every problem file is written before the first run, and none after
            problems = digest_files(os.path.dirname(run.query.argv[1]))
        digest.update(json.dumps([run.query.label, run.code, run.stdout]).encode())
        if run.wrong:
            wrong.append(f"{name}: {run.wrong}")
    return f"{name:16s} {count:4d} {digest.hexdigest()} {problems}", wrong


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    failed = False
    for name in names:
        line, wrong = digest_workload(workloads, name, args.seed)
        print(line, flush=True)
        for message in wrong:
            print(f"  wrong: {message}", file=sys.stderr)
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
