"""Seeded query lists for the four benchmark workloads, with ground truth.

A workload is a list of `Query` objects: the CLI arguments, the generators
of the problem file they read, and the verdict the program must return.
The fixed ladders do not depend on the seed; the random parts (DFAs, query
words, random generator sets) are drawn from it with bounded sizes.

Ground truth never comes from the decision procedures under test:

- subset-sum solvability, equal-subset-sum freeness and DFA acceptance are
  recomputed here by brute force and cross-checked against
  `Fixture.expected`;
- random generator sets are judged by `oracle` tables at bounded depth;
- the remaining fixed instances and instance families read `expected.json`,
  which `test_bench.py` checks against the oracle.

`check_report` judges one CLI report, re-multiplying every witness
sequence with `algebra.Mat2`.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("membership", "freeness", "counting", "finite_freeness")

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN_UP_TO"

# report "problem" field per CLI command
PROBLEM_NAME = {
    "identity": "identity",
    "member": "membership",
    "check-free": "freeness",
    "count": "count",
    "recurrent": "recurrent",
    "check-finite-free": "finite_freeness",
}

# f(a), f(b): a free basis of a free subgroup of SL(2,Z); every product of
# them has nonnegative entries
PAIR = ((1, 2, 0, 1), (1, 0, 2, 1))

# (values, x) subset-sum instances for `identity`, k = 2..5.  A solvable
# instance costs one large saturation plus a witness extraction; the
# unsolvable ones stop after saturation.  The tiers are sized so that the
# 90th percentile of a pass lands in the middle of the eight ~0.25 s
# solvable k=3 instances: the crash, one k=5 instance of ~1.5 s and two of
# ~0.5 s lie beyond them.
SSP_IDENTITY = (
    ([150, 250], 400),          # deep witness extraction
    ([2, 3, 5, 7, 11], 20),
    ([1, 2, 3, 4], 7), ([1, 2, 3, 4, 5], 15),
    ([1, 2, 3], 2), ([1, 2, 3], 5), ([1, 2, 4], 3), ([1, 2, 4], 5),
    ([1, 2, 4], 6), ([1, 2, 4], 1), ([2, 3, 4], 5), ([2, 3, 4], 7),
    ([1, 2], 3), ([1, 2], 4), ([1, 2, 3], 7), ([1, 2, 3, 4], 11),
    ([1, 2, 3, 4, 5], 16),
)
SSP_MEMBER = ([1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5])
ESSP_FREE = ([1, 2, 4], [1, 2, 4, 8], [1, 2, 4, 8, 16])
ESSP_COLLIDING = ([1, 2, 3], [3, 5, 8, 13], [1, 2, 4, 7], [2, 3, 5, 9])


@dataclass
class Query:
    label: str
    argv: list
    gens: list          # generator matrices (Mat2) as in the problem file
    expect: dict        # answer, plus count / target / depth_bound


def load_hand_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def subset_sum_solvable(values, x) -> bool:
    return any(sum(c) == x for r in range(len(values) + 1)
               for c in itertools.combinations(values, r))


def has_equal_disjoint_subsets(values) -> bool:
    for sides in itertools.product((0, 1, 2), repeat=len(values)):
        left = [v for v, s in zip(values, sides) if s == 1]
        right = [v for v, s in zip(values, sides) if s == 2]
        if left and right and sum(left) == sum(right):
            return True
    return False


def dfa_accepts(n_states, transitions, finals, word) -> bool:
    table = {(q, sym): q2 for q, sym, q2 in transitions}
    q = 0
    for sym in word:
        q = table.get((q, sym))
        if q is None:
            return False
    return q in finals


def multiply(mats, seq, Mat2):
    """Product of the matrices picked by a 1-based index sequence."""
    m = Mat2(1, 0, 0, 1)
    for i in seq:
        m = m * mats[i - 1]
    return m


class Builder:
    """Writes problem files into `workdir` and collects the queries."""

    def __init__(self, pkg, workdir, workload, seed):
        self.pkg = pkg
        self.Mat2 = pkg.algebra.Mat2
        self.workdir = workdir
        self.rng = random.Random(f"{workload}/{seed}")
        self.hand = load_hand_expected()
        self.queries = []
        self._n_files = 0

    # -- plumbing ---------------------------------------------------------------

    def problem(self, gens, target=None) -> str:
        """Write a problem file for a GeneratorSet; returns its path."""
        cli = self.pkg.cli
        self._n_files += 1
        path = os.path.join(self.workdir, f"p{self._n_files:04d}.json")
        with open(path, "w") as fh:
            fh.write(cli.emit_problem(cli.problem_json(gens, target)))
        return path

    def add(self, label, command, path, gens, expect, *extra):
        mats = [g.matrix for g in gens]
        self.queries.append(Query(label, [command, path, *extra], mats, expect))

    def hand_expect(self, key, **extra):
        entry = self.hand[key]
        expect = {"answer": entry["answer"], **extra}
        if "count" in entry:
            expect["count"] = entry["count"]
        return expect

    # -- instance families ----------------------------------------------------------

    def pair_mats(self):
        return [self.Mat2(*m) for m in PAIR]

    def pair_set(self):
        return self.pkg.algebra.GeneratorSet.from_matrices(self.pair_mats())

    def random_pair_word(self, length):
        return [self.rng.choice((1, 2)) for _ in range(length)]

    def random_dfa(self, n_states, n_finals):
        """Complete DFA over {a, b}; a fixed shape keeps run time seed-stable."""
        rng = self.rng
        transitions = tuple((q, sym, rng.randrange(n_states))
                            for q in range(n_states) for sym in ("a", "b"))
        finals = frozenset(rng.sample(range(n_states), n_finals))
        return self.pkg.encodings.DfaSpec(n_states, ("a", "b"), transitions, finals)

    def random_word(self, length):
        return tuple(self.rng.choice("ab") for _ in range(length))

    def accept_count(self, dfas, word):
        return sum(dfa_accepts(d.n_states, d.transitions, d.finals, word) for d in dfas)

    def random_sr_set(self, max_gens, max_len):
        """Random reduced words with random signs, as in scripts/oracle_crosscheck.py."""
        rng = self.rng
        alg = self.pkg.algebra
        words = []
        for _ in range(rng.randint(1, max_gens)):
            length = rng.randint(0, max_len)
            w = ""
            while len(w) < length:
                ch = rng.choice("sr")
                if (w + ch).endswith("ss") or (w + ch).endswith("rrr"):
                    continue
                w += ch
            words.append(alg.SignedWord(rng.choice((1, -1)), w))
        return alg.GeneratorSet.from_words(words)

    def ssp_fixture(self, values, x):
        fx = self.pkg.encodings.encode_subset_sum(values, x)
        solvable = subset_sum_solvable(values, x)
        if fx.expected["identity"] != solvable:
            raise RuntimeError(f"Fixture.expected disagrees on subset sum {values}, x={x}")
        return fx, solvable

    def essp_fixture(self, values):
        fx = self.pkg.encodings.encode_equal_subset_sum(values)
        free = not has_equal_disjoint_subsets(values)
        if fx.expected["free"] != free:
            raise RuntimeError(f"Fixture.expected disagrees on equal subset sum {values}")
        return fx, free


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build_membership(b: Builder):
    ident = b.Mat2(1, 0, 0, 1)
    for values, x in SSP_IDENTITY:
        fx, solvable = b.ssp_fixture(values, x)
        path = b.problem(fx.generators)
        b.add(f"identity ssp {values} x={x}", "identity", path, fx.generators,
              {"answer": YES if solvable else NO, "target": ident})
    for values in SSP_MEMBER:
        fx, _ = b.ssp_fixture(values, sum(values) + 1)
        target = fx.expected["count_target"]
        path = b.problem(fx.generators, target)
        b.add(f"member ssp {values} count target", "member", path, fx.generators,
              {"answer": YES, "target": target})
    for n_dfas in (1, 2, 3, 4):
        dfas = [b.random_dfa(3, 1) for _ in range(n_dfas)]
        fx = b.pkg.encodings.encode_dfa_intersection(dfas)
        for _ in range(2):
            w = b.random_word(3)
            target = b.pkg.encodings.marked_query_word(fx, w)
            path = b.problem(fx.generators, target)
            accepted = b.accept_count(dfas, w)
            b.add(f"member dfa x{n_dfas} #{''.join(w)}#", "member", path,
                  fx.generators, {"answer": YES if accepted else NO, "target": target})
    pair = b.pair_set()
    # the many ~2.5 ms queries hold the median: every word of length 1..4
    # and its inverse.  Their costs differ by up to 15 %, so a seeded choice
    # of words would move the median with the seed; the full list does not.
    for length in range(1, 5):
        for seq in itertools.product((1, 2), repeat=length):
            seq = list(seq)
            target = multiply(b.pair_mats(), seq, b.Mat2)
            path = b.problem(pair, target)
            b.add(f"member pair {seq}", "member", path, pair,
                  {"answer": YES, "target": target})
            # products of f(a), f(b) have nonnegative entries; the inverse of
            # a nonempty product has a negative one
            path = b.problem(pair, target.inverse())
            b.add(f"member pair inverse {seq}", "member", path, pair,
                  {"answer": NO, "target": target.inverse()})


def build_freeness(b: Builder):
    oracle = b.pkg.oracle
    for values in ESSP_FREE + ESSP_COLLIDING:
        fx, free = b.essp_fixture(values)
        path = b.problem(fx.generators)
        b.add(f"check-free essp {values}", "check-free", path, fx.generators,
              {"answer": YES if free else NO})
    for _ in range(8):
        # a + c = (a + c) involves the first value, so the collision shows on
        # the first pattern pair and the query stays as cheap as the fixed ones
        a, c = b.rng.randint(1, 5), b.rng.randint(1, 5)
        values = [a, c, a + c, b.rng.randint(1, 8)]
        fx, free = b.essp_fixture(values)
        path = b.problem(fx.generators)
        b.add(f"check-free essp {values}", "check-free", path, fx.generators,
              {"answer": YES if free else NO})
    # the many ~2 ms random sets put the 90th percentile in the middle of the
    # collision tier above them
    for _ in range(75):
        gens = b.random_sr_set(3, 4)
        depth = min(7, oracle.max_exhaustive_depth(len(gens), 2_000))
        collision = oracle.find_collision(gens, depth)
        path = b.problem(gens)
        # no collision up to the depth leaves the verdict open: YES, or NO
        # with a witness that checks out
        expect = {"answer": NO} if collision else {"answer": None}
        b.add(f"check-free random {[str(g.word) for g in gens]}", "check-free",
              path, gens, expect)


def build_counting(b: Builder):
    for x, key in ((3, "ssp_count_1_2_x3"), (4, "ssp_count_1_2_x4")):
        fx, _ = b.ssp_fixture([1, 2], x)
        target = fx.expected["count_target"]
        path = b.problem(fx.generators, target)
        b.add(f"count ssp [1, 2] x={x}", "count", path, fx.generators,
              b.hand_expect(key, target=target))
    rw = b.pkg.encodings.recurrent_without_identity_fixture()
    target = rw.expected["recurrent_target"]
    path = b.problem(rw.generators, target)
    b.add("recurrent rw", "recurrent", path, rw.generators,
          b.hand_expect("rw_recurrent", target=target))
    b.add("count rw", "count", path, rw.generators,
          b.hand_expect("rw_count", target=target))
    # words of one length over a 2-state DFA keep each count near 0.5 s
    short_words = list(itertools.product("ab", repeat=2))
    for _ in range(3):
        accepted = rejected = []
        while not (accepted and rejected):
            dfa = b.random_dfa(2, 1)
            accepted = [w for w in short_words if b.accept_count([dfa], w)]
            rejected = [w for w in short_words if not b.accept_count([dfa], w)]
        fx = b.pkg.encodings.encode_dfa_intersection([dfa])
        for w in (b.rng.choice(accepted), b.rng.choice(accepted), b.rng.choice(rejected)):
            n = b.accept_count([dfa], w)
            target = b.pkg.encodings.marked_query_word(fx, w)
            path = b.problem(fx.generators, target)
            b.add(f"count dfa #{''.join(w)}#", "count", path, fx.generators,
                  {"answer": YES if n else NO, "count": n, "target": target})
    pair = b.pair_set()
    # the ~15 ms pair counts hold the median; word lengths cycle so that
    # their cost does not depend on the seed
    for i in range(24):
        seq = b.random_pair_word(i % 4 + 2)
        target = multiply(b.pair_mats(), seq, b.Mat2)
        path = b.problem(pair, target)
        b.add(f"count pair {seq}", "count", path, pair,
              b.hand_expect("pair_product_count", target=target, sequences=[seq]))
        if i % 3 == 0:
            b.add(f"recurrent pair {seq}", "recurrent", path, pair,
                  b.hand_expect("pair_product_recurrent", target=target))


def build_finite_freeness(b: Builder):
    fx, _ = b.essp_fixture([1, 2, 4])
    path = b.problem(fx.generators)
    b.add("check-finite-free essp [1, 2, 4] depth 2", "check-finite-free", path,
          fx.generators, b.hand_expect("essp_1_2_4_finite_free", depth_bound=2),
          "--depth", "2")
    rw = b.pkg.encodings.recurrent_without_identity_fixture()
    path = b.problem(rw.generators)
    for depth in (2, 3):
        b.add(f"check-finite-free rw depth {depth}", "check-finite-free", path,
              rw.generators, b.hand_expect("rw_finite_free"), "--depth", str(depth))
    pair = b.pair_set()
    path = b.problem(pair)
    for depth in (4, 5):
        b.add(f"check-finite-free pair depth {depth}", "check-finite-free", path,
              pair, b.hand_expect("pair_finite_free", depth_bound=depth),
              "--depth", str(depth))
    # every set of two distinct length-2 words over the free pair, ten times
    # at depth 2 (~40 ms, they hold the median) and once at depth 3 (~120 ms,
    # the 90th percentile falls among them).  The sets' costs differ by up
    # to 30 %, so the seed does not pick them; it picks the order of the two
    # generators in each problem file, which moves the cost by a few percent.
    length2 = list(itertools.product((1, 2), repeat=2))
    for depth, copies in ((3, 1), (2, 10)):
        for pair_words in itertools.combinations(length2, 2):
            for _ in range(copies):
                words = list(pair_words)
                b.rng.shuffle(words)
                gens = b.pkg.algebra.GeneratorSet.from_matrices(
                    [multiply(b.pair_mats(), w, b.Mat2) for w in words])
                path = b.problem(gens)
                b.add(f"check-finite-free pair words {words} depth {depth}",
                      "check-finite-free", path, gens,
                      b.hand_expect("pair_word_set_finite_free", depth_bound=depth),
                      "--depth", str(depth))


BUILDERS = {
    "membership": build_membership,
    "freeness": build_freeness,
    "counting": build_counting,
    "finite_freeness": build_finite_freeness,
}


def build(pkg, workdir, workload, seed) -> list:
    b = Builder(pkg, workdir, workload, seed)
    BUILDERS[workload](b)
    return b.queries


# ---------------------------------------------------------------------------
# verdict checking
# ---------------------------------------------------------------------------


class WrongVerdict(Exception):
    pass


def _product(q: Query, seq, Mat2):
    if not isinstance(seq, list) or not seq:
        raise WrongVerdict(f"witness sequence {seq!r} is not a nonempty list")
    if not all(isinstance(i, int) and 1 <= i <= len(q.gens) for i in seq):
        raise WrongVerdict(f"witness index out of range in {seq!r}")
    return multiply(q.gens, seq, Mat2)


def _matrix(doc, Mat2):
    try:
        return Mat2(*(int(x) for row in doc for x in row))
    except (TypeError, ValueError) as exc:
        raise WrongVerdict(f"malformed witness matrix {doc!r}: {exc}")


def _sequences(report) -> list:
    witness = report.get("witness")
    if not isinstance(witness, dict) or witness.get("kind") != "sequences":
        raise WrongVerdict(f"expected a sequences witness, got {witness!r}")
    return witness["sequences"]


def check_report(q: Query, code: int, report: dict, Mat2):
    """Raise WrongVerdict unless the report answers q correctly."""
    command = q.argv[0]
    expect = q.expect
    if report.get("problem") != PROBLEM_NAME[command]:
        raise WrongVerdict(f"report names problem {report.get('problem')!r}")
    answer = report.get("answer")
    want_code = {YES: 0, NO: 1, UNKNOWN: 2}.get(answer)
    if want_code is None or code != want_code:
        raise WrongVerdict(f"answer {answer!r} with exit code {code}")
    if expect["answer"] is not None and answer != expect["answer"]:
        raise WrongVerdict(f"answer {answer}, expected {expect['answer']}")
    if "depth_bound" in expect and report.get("depth_bound") != expect["depth_bound"]:
        raise WrongVerdict(f"depth bound {report.get('depth_bound')!r}")

    if command in ("identity", "member") and answer == YES:
        (seq,) = _sequences(report)[:1] or [None]
        if _product(q, seq, Mat2) != expect["target"]:
            raise WrongVerdict(f"witness {seq} does not multiply to the target")
    elif command == "check-free" and answer == NO:
        seqs = _sequences(report)
        if len(seqs) != 2 or seqs[0] == seqs[1]:
            raise WrongVerdict(f"freeness witness {seqs} is not two distinct sequences")
        if _product(q, seqs[0], Mat2) != _product(q, seqs[1], Mat2):
            raise WrongVerdict(f"freeness witness {seqs} has unequal products")
    elif command == "count":
        _check_count(q, report, Mat2)
    elif command == "recurrent" and answer == YES:
        witness = report.get("witness")
        # the grammar-cycle certificate is not multiplicable; only its shape
        # can be checked until recurrence witnesses become index sequences
        if not isinstance(witness, dict) or not witness.get("cycle"):
            raise WrongVerdict(f"recurrent YES without a certificate: {witness!r}")
    elif command == "check-finite-free" and answer == NO:
        _check_finite_free_no(q, report, Mat2)


def _check_count(q: Query, report, Mat2):
    expect = q.expect
    got = report.get("count")
    if got != expect["count"]:
        raise WrongVerdict(f"count {got!r}, expected {expect['count']!r}")
    if report["answer"] == NO:
        return
    seqs = _sequences(report)
    for seq in seqs:
        if _product(q, seq, Mat2) != expect["target"]:
            raise WrongVerdict(f"factorization {seq} does not multiply to the target")
    if isinstance(got, int):
        if len(seqs) != got or len({tuple(s) for s in seqs}) != got:
            raise WrongVerdict(f"{len(seqs)} witness sequences for count {got}")
        if "sequences" in expect and sorted(seqs) != sorted(expect["sequences"]):
            raise WrongVerdict(f"factorizations {seqs}, expected {expect['sequences']}")


def _check_finite_free_no(q: Query, report, Mat2):
    witness = report.get("witness") or {}
    ident = Mat2(1, 0, 0, 1)
    if witness.get("kind") == "sequences":
        (seq,) = witness["sequences"][:1] or [None]
        if _product(q, seq, Mat2) != ident:
            raise WrongVerdict(f"identity witness {seq} does not multiply to I")
        return
    if witness.get("kind") != "recurrent_matrix":
        raise WrongVerdict(f"unknown finite-freeness witness {witness!r}")
    m = _matrix(witness.get("matrix"), Mat2)
    if _product(q, witness.get("sequence"), Mat2) != m:
        raise WrongVerdict("recurrent matrix is not the product of its sequence")
    pumping = witness.get("pumping")
    if pumping is None:
        raise WrongVerdict("recurrent matrix without a pumping triple")
    alpha, sigma, gamma = pumping.get("alpha"), pumping.get("sigma"), pumping.get("gamma")
    if not sigma or not (alpha or gamma):
        raise WrongVerdict(f"degenerate pumping triple {pumping!r}")
    for n in (1, 2, 3):
        if _product(q, alpha * n + sigma + gamma * n, Mat2) != m:
            raise WrongVerdict(f"pumped sequence for n={n} misses the recurrent matrix")
