#!/usr/bin/env python3
"""Layered benchmark of the SL(2,Z) decision procedures.

    python3 bench/run.py --workload membership --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each query is `cli.main` on a problem
file, started after the previous one returned.  Set-up imports the package
from `src/`, builds the workload's fixtures and ground truth from the seed
and writes the problem files; it is repeated and its median reported as
`setup_s`.  Passes over the query list then run until `--seconds` have
elapsed (at least one pass).  Every verdict is checked against ground truth
and every witness re-multiplied; a wrong one makes the run exit 1.  Every
reported time is scaled to a reference interpreter speed by a calibration
slice timed before each query (see `speed_factor`).

With `--trace 1`, untraced and traced passes alternate; the traced ones wrap
each module's public functions from outside (see tracing.py) and report the
per-layer metrics, plus the ratio of traced to untraced `queries_per_s`.

The last line of standard output is the JSON result; a fuller record with
the seed, commit, Python version, core count and load average goes to
`.bench_results/` at the repository root.  See bench/README.md for the
workloads and metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = "sl2z_semigroups"
MODULES = ("algebra", "automata", "grammars", "oracle", "encodings", "decisions", "cli")

import tracing  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_SLICES = 9          # calibration slices timed before each set-up
CALIBRATION_ROUNDS = 20_000
REFERENCE_SLICE_S = 0.002  # the slice time that every reported time is scaled to
QUERY_LIMIT_S = 30.0      # a query running longer counts as failed
RUN_DEADLINE_S = 150.0    # queries not finished by then count as failed
EXIT_CODES = (0, 1, 2, 3)

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("answered_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query; BaseException so no handler eats it."""


class Terminated(BaseException):
    """Raised by SIGTERM, so that the problem files are removed on the way out."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _on_term(signum, frame):
    raise Terminated()


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def calibration_slice():
    """Seconds taken by a fixed pure-Python loop that does not touch the
    program.  It allocates no container, so it never triggers the garbage
    collector and its time does not depend on the program's heap."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_factor(slices):
    """Factor that scales a time measured while `slices` were timed to the
    reference speed.  On a shared host the interpreter's speed drifts by
    15-30 % over tens of seconds; a query and the calibration loop timed
    next to it drift together, so their ratio drifts much less."""
    return REFERENCE_SLICE_S / statistics.median(slices)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_package():
    """Fresh import of every module from src/, so import time is measured."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    top = importlib.import_module(PACKAGE)
    if not os.path.abspath(top.__file__).startswith(os.path.join(SRC, PACKAGE)):
        raise SystemExit(f"error: imported {PACKAGE} from {top.__file__}, not {SRC}")
    pkg = types.SimpleNamespace()
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"{PACKAGE}.{name}"))
    pkg.modules = [top] + [getattr(pkg, name) for name in MODULES]
    return pkg


def write_problems(pkg, workload, seed):
    """Build fixtures and ground truth; write the problem files."""
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        return workdir, workloads.build(pkg, workdir, workload, seed)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Outcome:
    """One query's result; `seconds` is scaled to the reference speed once
    its pass is over, `raw_seconds` is as measured and `slice_s` is the
    calibration slice timed just before it."""

    __slots__ = ("label", "seconds", "raw_seconds", "slice_s", "failed", "reason")

    def __init__(self, label, seconds, failed, reason=""):
        self.label = label
        self.seconds = self.raw_seconds = seconds
        self.slice_s = None
        self.failed = failed
        self.reason = reason


def run_query(pkg, q, limit):
    """One query through cli.main; returns (Outcome, wrong-verdict message)."""
    if limit <= 0:
        return Outcome(q.label, 0.0, True, "run deadline passed"), None
    out, err = io.StringIO(), io.StringIO()
    code = reason = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(q.argv))
    except QueryTimeout:
        reason = f"over the {limit:.1f} s limit"
    except Exception as exc:  # any crash is a failed query, not a NO
        reason = f"raised {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        reason = f"exited with {exc.code!r}"
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if reason is None and code not in EXIT_CODES:
        reason = f"exit code {code!r}"
    if reason is not None:
        return Outcome(q.label, seconds, True, reason), None
    try:
        report = json.loads(out.getvalue())
        workloads.check_report(q, code, report, pkg.algebra.Mat2)
    except (ValueError, KeyError, TypeError, workloads.WrongVerdict) as exc:
        msg = f"{q.label}: {type(exc).__name__}: {exc}; exit {code}; stdout {out.getvalue()[:300]!r}"
        return Outcome(q.label, seconds, False), msg
    return Outcome(q.label, seconds, False), None


def pass_order(queries, seed, index):
    """The pass's query order: a seeded shuffle, so that the queries of one
    cost tier are spread over the pass instead of timed back to back."""
    order = list(queries)
    random.Random(f"{seed}/pass{index}").shuffle(order)
    return order


def run_pass(pkg, queries, started, wrong):
    """One pass, a calibration slice before each query; the pass's times are
    scaled by the median slice."""
    outcomes = []
    for q in queries:
        slice_s = calibration_slice()
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        outcome, msg = run_query(pkg, q, min(QUERY_LIMIT_S, remaining))
        outcome.slice_s = slice_s
        outcomes.append(outcome)
        if msg is not None:
            wrong.append(msg)
    factor = speed_factor([o.slice_s for o in outcomes])
    for o in outcomes:
        o.seconds = o.raw_seconds * factor
    return outcomes


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(len(sorted_values) * p / 100) - 1)]


def summarize(outcomes, field="seconds"):
    """End-to-end figures of a list of outcomes (any number of passes), from
    the scaled times or, with field="raw_seconds", the measured ones."""
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    busy = sum(getattr(o, field) for o in outcomes)
    # a failed query misses every latency limit
    times = sorted(float("inf") if o.failed else getattr(o, field) for o in outcomes)
    p50, p90 = nearest_rank(times, 50), nearest_rank(times, 90)
    return {
        "attempted": attempted,
        "failed": failed,
        "queries_per_s": (attempted - failed) / busy if busy > 0 else 0.0,
        "query_ms_p50": 1000 * min(p50, QUERY_LIMIT_S),
        "query_ms_p90": 1000 * min(p90, QUERY_LIMIT_S),
        "p90_samples_beyond": sum(t > p90 for t in times),
        "answered_share": (attempted - failed) / attempted,
        "failed_share": failed / attempted,
        "busy_s": busy,
    }


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout's git metadata if present (no subprocess)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def write_record(record):
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    env = record["environment"]
    name = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(args, started):
    setups, raw_setups = [], []
    pkg = workdir = None
    try:
        for _ in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
            factor = speed_factor([calibration_slice() for _ in range(SETUP_SLICES)])
            t0 = time.perf_counter()
            pkg = import_package()
            workdir, queries = write_problems(pkg, args.workload, args.seed)
            raw_setups.append(time.perf_counter() - t0)
            setups.append(raw_setups[-1] * factor)
        timed_from = time.monotonic()
        outcomes, wrong, passes = [], [], 0
        while passes == 0 or time.monotonic() - timed_from < args.seconds:
            order = pass_order(queries, args.seed, passes)
            outcomes += run_pass(pkg, order, started, wrong)
            passes += 1
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(outcomes)
    raw = summarize(outcomes, "raw_seconds")
    metrics = {
        "queries_per_s": summary["queries_per_s"],
        "query_ms_p50": summary["query_ms_p50"],
        "query_ms_p90": summary["query_ms_p90"],
        "answered_share": summary["answered_share"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    detail = {
        "passes": passes,
        "queries_per_pass": len(queries),
        "setup_runs_s": setups,
        "raw_setup_runs_s": raw_setups,
        "raw_metrics": {"queries_per_s": raw["queries_per_s"],
                        "query_ms_p50": raw["query_ms_p50"],
                        "query_ms_p90": raw["query_ms_p90"],
                        "setup_s": statistics.median(raw_setups)},
        "failures": sorted({f"{o.label}: {o.reason}" for o in outcomes if o.failed}),
        "samples": [[o.label, None if o.failed else o.seconds,
                     None if o.failed else o.raw_seconds, o.slice_s]
                    for o in outcomes],
        **{k: summary[k] for k in ("attempted", "failed", "failed_share",
                                   "p90_samples_beyond", "busy_s")},
    }
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:16s} {value:14.6f} {units[name]}")
    print(f"{args.workload:16s} failed_share     {summary['failed_share']:14.6f} ratio "
          f"({summary['failed']} of {summary['attempted']} queries, {passes} passes, "
          f"{summary['p90_samples_beyond']} samples beyond p90)")
    for line in detail["failures"]:
        print(f"  failed: {line}")
    return metrics, units, summary, detail, wrong


def measure_traced(args, started):
    pkg = import_package()
    tracer = tracing.Tracer(pkg)
    tracer.install_setup()
    try:
        workdir, queries = write_problems(pkg, args.workload, args.seed)
    finally:
        tracer.uninstall()
    encodings_s = tracer.times["encodings.build"]
    plain, traced, snapshots, wrong = [], [], [], []
    try:
        timed_from = time.monotonic()
        # plain and traced passes alternate, each traced pass in the order of
        # the plain pass before it
        while not traced or time.monotonic() - timed_from < args.seconds:
            order = pass_order(queries, args.seed, len(traced))
            if len(plain) == len(traced):
                plain.append(summarize(run_pass(pkg, order, started, wrong)))
                continue
            tracer.reset()
            tracer.install()
            try:
                traced.append(summarize(run_pass(pkg, order, started, wrong)))
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for name in tracing.PASS_METRICS:
        values = [s[name] for s in snapshots]
        metrics[name] = values[0] if name in tracing.COUNTERS else statistics.median(values)
    metrics["encodings.build_s"] = encodings_s
    metrics["trace.overhead_ratio"] = (
        statistics.median(s["queries_per_s"] for s in traced)
        / statistics.median(s["queries_per_s"] for s in plain))
    counters_repeat = all(
        all(s[c] == snapshots[0][c] for c in tracing.COUNTERS) for s in snapshots)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for name, _, _ in tracing.PER_LAYER:
        print(f"{args.workload:16s} {name:28s} {metrics[name]:16.6f} {units[name]}")
    if not counters_repeat:
        print("warning: size counters differ between traced passes", file=sys.stderr)
    attempted = sum(s["attempted"] for s in plain + traced)
    failed = sum(s["failed"] for s in plain + traced)
    summary = {"attempted": attempted, "failed": failed}
    detail = {"traced_passes": len(traced), "counters_repeat": counters_repeat,
              "plain_passes": plain, "traced_passes_summary": traced}
    return metrics, units, summary, detail, wrong


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def run_all(args):
    """Every workload, each in its own process so peak memory stays its own."""
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    started = time.monotonic()
    env = environment(args)
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    mode = measure_traced if args.trace else measure
    metrics, units, summary, detail, wrong = mode(args, started)
    for msg in wrong:
        print(f"WRONG: {msg}", file=sys.stderr)
    env["wall_s"] = time.monotonic() - started
    write_record({"environment": env, "metrics": metrics, "units": units,
                  "detail": detail, "wrong": wrong})
    result = {
        "correct": not wrong,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
