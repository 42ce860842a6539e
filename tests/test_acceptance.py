"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime.  Witnesses produced anywhere in this module are
pooled and re-verified wholesale by the final criterion.
"""

import random
import time
from itertools import product as iproduct

import pytest

from sl2z_semigroups.algebra import (
    IDENTITY, R, S, T, GeneratorSet, Mat2, SignedWord, decompose, evaluate,
    reduce,
)
from sl2z_semigroups import oracle
from sl2z_semigroups.automata import (
    build_loop_automaton, build_membership_automaton, build_pattern_automaton,
    saturate,
)
from sl2z_semigroups.decisions import (
    NO, YES, count_factorizations, finite_freeness,
    identity_in_semigroup, is_free, is_recurrent, membership,
)
from sl2z_semigroups.encodings import (
    DfaSpec, alpha, closed_form, encode_dfa_intersection,
    encode_equal_subset_sum, encode_subset_sum, f_matrix, marked_query_word,
    recurrent_without_identity_fixture,
)
from sl2z_semigroups.grammars import build_target_grammar, words_up_to

from brute import all_reduced_words, brute_trivial_relation

F_A = evaluate(SignedWord(1, "srsr"))
F_B = evaluate(SignedWord(1, "srrsrr"))

# (generators, sequence, expected product) pooled for the final criterion
WITNESS_POOL = []


def pool(gens, seq, expected):
    WITNESS_POOL.append((gens, list(seq), expected))


class criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        budget = f" / budget {self.budget_s}s" if self.budget_s else ""
        print(f"ACCEPTANCE {self.number}: {status} "
              f"({elapsed:.1f}s{budget}) {self.description}")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.1f}s)")
        return False


def test_criterion_01_canonical_form():
    with criterion(1, "canonical form round trips", 10):
        for word in all_reduced_words(10):
            for sign in (1, -1):
                x = SignedWord(sign, word)
                assert decompose(evaluate(x)) == x
        rng = random.Random(1)
        t_inv = T.inverse()
        for _ in range(1000):
            m = IDENTITY
            for _ in range(rng.randint(1, 30)):
                step = rng.choice((S, T, t_inv))
                m = m * step
            assert evaluate(decompose(m)) == m


def test_criterion_02_defining_constants():
    with criterion(2, "generator orders and encoding constants", None):
        assert S * S == -IDENTITY
        assert R * R * R == -IDENTITY
        assert f_matrix((("a", False),)) == Mat2(1, 2, 0, 1)
        assert f_matrix(alpha(((1, False),))) == Mat2(5, -8, 2, -3)
        assert closed_form(1, 1) == Mat2(5, -8, 2, -3)


def test_criterion_03_grammar_oracle_equivalence():
    with criterion(3, "target grammars match the phi oracle exhaustively", 60):
        value_of = {}
        for length in range(10):
            for tup in iproduct("sr", repeat=length):
                value_of[tup] = evaluate(reduce("".join(tup), 1)).entries()
        targets = [SignedWord(sign, w)
                   for w in all_reduced_words(5) for sign in (1, -1)]
        assert len(targets) == 44
        for target in targets:
            grammar_side = words_up_to(build_target_grammar(target), 9)
            wanted = evaluate(target).entries()
            oracle_side = {w for w, v in value_of.items() if v == wanted}
            assert grammar_side == oracle_side, f"mismatch at target {target}"


def test_criterion_04_saturation_completeness():
    with criterion(4, "saturation equals path enumeration on <=12-state automata", None):
        autos = []
        for mats in ([S], [R], [-S], [-IDENTITY], [S, R], [S, -S],
                     [S, R, -IDENTITY], [F_A], [F_A, F_B], [R, -IDENTITY]):
            autos.append(build_loop_automaton(GeneratorSet.from_matrices(mats)))
        for mats, i, j in ([[S, R], 1, 2], [[S, S], 1, 2], [[S, R], 2, 1],
                           [[S, -S], 1, 2], [[R, -IDENTITY], 1, 2]):
            autos.append(build_pattern_automaton(i, j, GeneratorSet.from_matrices(mats)))
        two = GeneratorSet.from_matrices([S, R])
        autos.append(build_membership_automaton(two, decompose(R * S)))
        autos.append(build_membership_automaton(two, decompose(-(S * R))))
        checked = 0
        for auto in autos:
            if auto.n_states > 12:
                continue
            assert saturate(auto).triples == brute_trivial_relation(auto, 12)
            checked += 1
        assert checked >= 15


def test_criterion_05_recurrent_without_identity():
    with criterion(5, "recurrent matrix exists while identity does not", 30):
        fx = recurrent_without_identity_fixture()
        gens = fx.generators
        target = fx.expected["recurrent_target"]
        assert identity_in_semigroup(gens).answer == NO
        assert is_recurrent(gens, target).answer == YES
        verdict = finite_freeness(gens, 2)
        assert verdict.answer == NO
        assert verdict.witness["kind"] == "recurrent_matrix"
        p = verdict.witness["pumping"]
        combined = p["alpha"] + p["sigma"] + p["gamma"]
        assert gens.product(combined) == gens.product(p["sigma"])
        pool(gens, combined, gens.product(p["sigma"]))
        # the pumped element really repeats: alpha^n sigma gamma^n stays put
        for n in (2, 3):
            seq = p["alpha"] * n + p["sigma"] + p["gamma"] * n
            assert gens.product(seq) == gens.product(p["sigma"])


def test_criterion_06_subset_sum_reproduction():
    with criterion(6, "subset-sum instances: identity and unique count", 60):
        solvable = encode_subset_sum([1, 2], 3)
        verdict = identity_in_semigroup(solvable.generators)
        assert verdict.answer == YES
        seq = verdict.witness["sequences"][0]
        assert solvable.generators.product(seq) == IDENTITY
        pool(solvable.generators, seq, IDENTITY)

        unsolvable = encode_subset_sum([1, 2], 4)
        assert identity_in_semigroup(unsolvable.generators).answer == NO
        # brute-force corroboration to the deepest exhaustive depth the
        # default budget allows (10 generators: depth 6 is 1.1e6 sequences;
        # depth 10 would be 1e10 and is out of reach for any budget)
        depth = oracle.max_exhaustive_depth(len(unsolvable.generators))
        assert depth >= 6
        assert IDENTITY not in oracle.enumerate_products(unsolvable.generators, depth)

        target = unsolvable.expected["count_target"]
        verdict = count_factorizations(unsolvable.generators, target, cap=8)
        assert verdict.count.kind == "exact" and verdict.count.value == 1
        assert verdict.witness["sequences"] == [[2]]
        pool(unsolvable.generators, [2], target)


def test_criterion_07_equal_subset_sum_reproduction():
    with criterion(7, "equal-subset-sum instances: freeness both ways", 120):
        bad = encode_equal_subset_sum([1, 2, 3])
        verdict = is_free(bad.generators)
        assert verdict.answer == NO
        a, b = verdict.witness["sequences"]
        assert a != b
        prod = bad.generators.product(a)
        assert prod == bad.generators.product(b)
        pool(bad.generators, a, prod)
        pool(bad.generators, b, prod)

        good = encode_equal_subset_sum([1, 2, 4])
        assert is_free(good.generators).answer == YES
        # collision-free to the deepest exhaustive depth in budget (6
        # generators: depth 8 is 2.0e6 sequences; depth 10 would be 7.3e7)
        depth = oracle.max_exhaustive_depth(len(good.generators),
                                            budget=2_100_000)
        assert depth >= 8
        assert oracle.find_collision(good.generators, depth,
                                     budget=2_100_000) is None


def test_criterion_08_dfa_intersection_encoding():
    with criterion(8, "DFA-intersection encoding matches DFA acceptance", None):
        rng = random.Random(8)
        alphabet = ("a", "b")

        def random_dfa():
            n = rng.randint(1, 3)
            trans = []
            for q in range(n):
                for sym in alphabet:
                    if rng.random() < 0.85:
                        trans.append((q, sym, rng.randrange(n)))
            finals = frozenset(q for q in range(n) if rng.random() < 0.5)
            if not finals:
                finals = frozenset({rng.randrange(n)})
            return DfaSpec(n, alphabet, tuple(trans), finals)

        dfas = [random_dfa() for _ in range(3)]
        fx = encode_dfa_intersection(dfas)
        words = [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
                 for _ in range(20)]
        for w in words:
            m = marked_query_word(fx, w)
            expected = any(d.accepts(w) for d in dfas)
            verdict = membership(fx.generators, m)
            assert (verdict.answer == YES) == expected, f"mismatch on {w}"
            if verdict.answer == YES:
                seq = verdict.witness["sequences"][0]
                assert fx.generators.product(seq) == m
                pool(fx.generators, seq, m)


def random_generator_set(rng):
    words = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, 4)
        w = ""
        while len(w) < length:
            ch = rng.choice("sr")
            if (w + ch).endswith("ss") or (w + ch).endswith("rrr"):
                continue
            w += ch
        words.append(SignedWord(rng.choice((1, -1)), w))
    return GeneratorSet.from_words(words)


def test_criterion_09_decision_oracle_agreement():
    with criterion(9, "decisions agree with exhaustive enumeration", None):
        rng = random.Random(99)
        depth = 8
        for trial in range(50):
            gens = random_generator_set(rng)
            budget_depth = min(depth, oracle.max_exhaustive_depth(len(gens)))
            assert budget_depth == depth
            table = oracle.enumerate_products(gens, depth)
            collision = oracle.find_collision(gens, depth)
            freeness = is_free(gens)
            if collision is not None:
                assert freeness.answer == NO
            if freeness.answer == YES:
                assert collision is None
            if freeness.answer == NO:
                a, b = freeness.witness["sequences"]
                prod = gens.product(a)
                assert prod == gens.product(b) and a != b
                pool(gens, a, prod)
                pool(gens, b, prod)

            mats = table.matrices()
            samples = mats[:2] + mats[-1:]
            for m in samples:
                verdict = membership(gens, m)
                assert verdict.answer == YES
                seq = verdict.witness["sequences"][0]
                assert gens.product(seq) == m
                pool(gens, seq, m)

            m = mats[0]
            verdict = count_factorizations(gens, m, cap=5)
            oracle_c = table.count(m)
            if verdict.count.kind == "exact":
                assert oracle_c <= verdict.count.value
                longest = max(len(s) for s in verdict.witness["sequences"])
                if longest <= depth:
                    assert oracle_c == verdict.count.value
                for seq in verdict.witness["sequences"]:
                    pool(gens, seq, m)
            else:
                # unbounded or capped counts need at least one realization
                assert oracle_c >= 1


def test_criterion_10_witness_soundness():
    with criterion(10, "every pooled witness re-multiplies exactly", None):
        assert len(WITNESS_POOL) >= 100
        for gens, seq, expected in WITNESS_POOL:
            assert gens.product(seq) == expected
