#!/usr/bin/env python3
"""Digest the reports of the benchmark's queries, to compare two versions.

    PYTHONPATH=src python3 scripts/report_digest.py --seed 3 --workload all

Builds the query lists of `bench/workloads.py` for the seed, writing their
problem files into a temporary directory, runs each query once through
`cli.main` in this process, and checks each report with
`workloads.check_report`.  Prints one line per workload: its name, the
number of queries, the sha256 of every (label, exit code, stdout) in list
order, and the sha256 of every problem file the workload wrote (name and
bytes, in name order).  Two versions whose lines agree wrote the same
problem files and printed the same reports, so an encoding change that
moves a matrix but no verdict shows in the last column.  Exits 1 if some
verdict is wrong.

`scripts/report_digests.txt` pins the lines of `--seed 3`, and CI diffs
the output against it, so a change that moves a report updates that file.

`bench/` is only read: the module is loaded from its file without writing
bytecode next to it.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import types

from sl2z_semigroups import algebra, cli, encodings, oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


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
    """(query count, report digest, problem-file digest, wrong-verdict
    messages) of one workload."""
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    digest = hashlib.sha256()
    wrong = []
    with tempfile.TemporaryDirectory(prefix="report-digest-") as workdir:
        queries = workloads.build(pkg, workdir, name, seed)
        problems = digest_files(workdir)
        for q in queries:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(q.argv))
            text = out.getvalue()
            digest.update(json.dumps([q.label, code, text]).encode())
            try:
                workloads.check_report(q, code, json.loads(text), algebra.Mat2)
            except (ValueError, KeyError, TypeError, workloads.WrongVerdict) as exc:
                wrong.append(f"{name}: {q.label}: {type(exc).__name__}: {exc}")
    return len(queries), digest.hexdigest(), problems, wrong


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    failed = False
    for name in names:
        count, reports, problems, wrong = digest_workload(workloads, name, args.seed)
        print(f"{name:16s} {count:4d} {reports} {problems}", flush=True)
        for line in wrong:
            print(f"  wrong: {line}", file=sys.stderr)
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
