"""The loop that replays the benchmark's queries, as the scripts run it.

`scripts/report_digest.py` replays each workload through `cli.main` and
checks every report; `scripts/report_digests.txt` pins its `--seed 3`
lines.  Two of the four workloads, about 0.4 s together, are replayed here.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import report_digest  # noqa: E402


def test_replay_equals_the_pinned_digests():
    with open(os.path.join(ROOT, "scripts", "report_digests.txt")) as fh:
        pins = {line.split()[0]: line.rstrip("\n") for line in fh}
    workloads = report_digest.load_workloads()
    for name in ("finite_freeness", "counting"):
        line, wrong = report_digest.digest_workload(workloads, name, 3)
        assert wrong == []
        assert line == pins[name]
