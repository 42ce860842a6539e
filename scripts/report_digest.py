#!/usr/bin/env python3
"""Digest the reports of the benchmark's queries, to compare two versions.

    PYTHONPATH=src python3 scripts/report_digest.py --seed 3 --workload all

Builds the query lists of `bench/workloads.py` for the seed, writing their
problem files into a temporary directory, runs each query once through
`cli.main` in this process, and checks each report with
`workloads.check_report`.  Prints one line per workload: its name, the
number of queries and the sha256 of every (label, exit code, stdout) in
list order.  Two versions whose lines agree printed the same reports.
Exits 1 if some verdict is wrong.

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


def digest_workload(workloads, name: str, seed: int) -> tuple:
    """(query count, hex digest, wrong-verdict messages) of one workload."""
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    digest = hashlib.sha256()
    wrong = []
    with tempfile.TemporaryDirectory(prefix="report-digest-") as workdir:
        queries = workloads.build(pkg, workdir, name, seed)
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
    return len(queries), digest.hexdigest(), wrong


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    failed = False
    for name in names:
        count, hexdigest, wrong = digest_workload(workloads, name, args.seed)
        print(f"{name:16s} {count:4d} {hexdigest}", flush=True)
        for line in wrong:
            print(f"  wrong: {line}", file=sys.stderr)
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
