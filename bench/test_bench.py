"""Tests of the benchmark itself: ground truth, verdict checking, counters.

    python3 -m pytest bench -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sl2z_semigroups import algebra, cli, decisions, encodings, oracle  # noqa: E402
from sl2z_semigroups.algebra import GeneratorSet, Mat2  # noqa: E402

PKG = type("Pkg", (), {"algebra": algebra, "cli": cli, "encodings": encodings,
                       "oracle": oracle, "decisions": decisions})
I = Mat2(1, 0, 0, 1)
PAIR = [Mat2(*m) for m in workloads.PAIR]


def product(mats, seq):
    return workloads.multiply(mats, seq, Mat2)


def run_bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- hand-written ground truth, checked against the oracle ------------------------


def test_hand_expected_agrees_with_oracle():
    hand = workloads.load_hand_expected()
    assert {v["answer"] for v in hand.values()} <= {"YES", "NO", "UNKNOWN_UP_TO"}

    # x=3 is solvable: the identity cycle pumps the target
    fx = encodings.encode_subset_sum([1, 2], 3)
    assert hand["ssp_count_1_2_x3"]["count"] == "infinite"
    cycle = fx.provenance["identity_sequence"]
    assert product([g.matrix for g in fx.generators], cycle) == I
    # x=4: one factorization up to depth 5, and no identity to pump it
    fx = encodings.encode_subset_sum([1, 2], 4)
    target = fx.expected["count_target"]
    table = oracle.enumerate_products(fx.generators, 5)
    assert table.count(target) == hand["ssp_count_1_2_x4"]["count"] == 1
    assert I not in table

    rw = encodings.recurrent_without_identity_fixture()
    assert oracle.find_pumping(rw.generators, 3, target=rw.expected["recurrent_target"])
    assert hand["rw_recurrent"]["answer"] == "YES"
    assert hand["rw_count"]["count"] == "infinite"
    assert oracle.find_pumping(rw.generators, 2) is not None
    assert hand["rw_finite_free"]["answer"] == "NO"

    essp = encodings.encode_equal_subset_sum([1, 2, 4])
    assert oracle.find_collision(essp.generators, 4) is None
    assert oracle.find_pumping(essp.generators, 3) is None

    pair = GeneratorSet.from_matrices(PAIR)
    assert oracle.find_collision(pair, 12) is None
    for seq in ([1], [2, 1], [1, 1, 2], [2, 1, 2, 2, 1]):
        assert oracle.oracle_count(pair, product(PAIR, seq), len(seq) + 3) == 1
    for words in itertools.combinations(itertools.product((1, 2), repeat=2), 2):
        gens = GeneratorSet.from_matrices([product(PAIR, w) for w in words])
        assert oracle.find_pumping(gens, 4) is None


# -- workload construction ---------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_queries_repeat_for_a_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    one = workloads.build(PKG, str(tmp_path / "a"), workload, 7)
    two = workloads.build(PKG, str(tmp_path / "b"), workload, 7)
    assert [(q.label, q.argv[0], q.argv[2:], q.expect) for q in one] == \
        [(q.label, q.argv[0], q.argv[2:], q.expect) for q in two]
    assert all(open(x.argv[1]).read() == open(y.argv[1]).read() for x, y in zip(one, two))


def test_crashing_query_is_kept(tmp_path):
    queries = workloads.build(PKG, str(tmp_path), "membership", 1)
    assert any(q.label == "identity ssp [150, 250] x=400" for q in queries)


# -- verdict checking ------------------------------------------------------------------


def _query(command, gens, expect, *extra):
    return workloads.Query("q", [command, "p.json", *extra], gens, expect)


def test_check_report_rejects_wrong_verdicts():
    check = workloads.check_report
    wrong = workloads.WrongVerdict
    target = product(PAIR, [1, 2])
    q = _query("member", PAIR, {"answer": "YES", "target": target})
    good = {"problem": "membership", "answer": "YES",
            "witness": {"kind": "sequences", "sequences": [[1, 2]]}}
    check(q, 0, good, Mat2)
    with pytest.raises(wrong):
        check(q, 0, {**good, "witness": {"kind": "sequences", "sequences": [[2, 1]]}}, Mat2)
    with pytest.raises(wrong):
        check(q, 0, {**good, "witness": {"kind": "sequences", "sequences": [[3]]}}, Mat2)
    with pytest.raises(wrong):
        check(q, 1, {"problem": "membership", "answer": "NO"}, Mat2)
    with pytest.raises(wrong):
        check(q, 1, good, Mat2)

    q = _query("check-free", PAIR, {"answer": None})
    check(q, 0, {"problem": "freeness", "answer": "YES"}, Mat2)
    with pytest.raises(wrong):
        check(q, 1, {"problem": "freeness", "answer": "NO", "witness": {
            "kind": "sequences", "sequences": [[1, 2], [2, 1]]}}, Mat2)

    q = _query("count", PAIR, {"answer": "YES", "count": 1, "target": target,
                               "sequences": [[1, 2]]})
    check(q, 0, {"problem": "count", "answer": "YES", "count": 1,
                 "witness": {"kind": "sequences", "sequences": [[1, 2]]}}, Mat2)
    with pytest.raises(wrong):
        check(q, 0, {"problem": "count", "answer": "YES", "count": 2,
                     "witness": {"kind": "sequences", "sequences": [[1, 2], [1, 2]]}}, Mat2)

    rw = [g.matrix for g in encodings.recurrent_without_identity_fixture().generators]
    m = product(rw, [1, 2])
    q = _query("check-finite-free", rw, {"answer": "NO"}, "--depth", "2")
    witness = {"kind": "recurrent_matrix",
               "matrix": [[str(m.a), str(m.b)], [str(m.c), str(m.d)]],
               "sequence": [1, 2],
               "pumping": {"alpha": [1], "sigma": [1, 2], "gamma": [3]}}
    check(q, 1, {"problem": "finite_freeness", "answer": "NO", "witness": witness}, Mat2)
    bad = {**witness, "pumping": {"alpha": [1], "sigma": [1, 2], "gamma": [2]}}
    with pytest.raises(wrong):
        check(q, 1, {"problem": "finite_freeness", "answer": "NO", "witness": bad}, Mat2)


# -- the command -----------------------------------------------------------------------


def test_result_line_names_every_end_to_end_metric():
    proc = run_bench("--workload", "membership", "--seed", "3", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_size_counters_repeat_across_processes(workload):
    """Two traced runs with one seed agree on every size counter, even with
    different string hashing."""
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "1", env=env)
        assert proc.returncode == 0, proc.stderr
        results.append(result_line(proc)["metrics"])
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in results[0].items()}
    for name in tracing.COUNTERS:
        assert results[0][name]["value"] == results[1][name]["value"], name
    assert results[0]["decisions.queries"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "membership", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
