"""Decision procedures against the brute-force oracle and the fixtures."""

import functools
import itertools
import random
import time

import pytest

from sl2z_semigroups.algebra import (
    IDENTITY, R, S, GeneratorSet, Mat2, SignedWord, evaluate,
)
from sl2z_semigroups import automata, grammars, oracle
from sl2z_semigroups import decisions
from sl2z_semigroups.decisions import (
    NO, UNKNOWN, YES, DecisionError, Verdict, count_factorizations, finite_freeness,
    identity_in_semigroup, is_free, is_recurrent, membership,
)
from sl2z_semigroups.encodings import (
    encode_equal_subset_sum, encode_subset_sum,
    recurrent_without_identity_fixture,
)

F_A = evaluate(SignedWord(1, "srsr"))
F_B = evaluate(SignedWord(1, "srrsrr"))


def random_generators(rng, max_gens=3, max_len=4):
    """Random small generator sets from reduced words."""
    words = []
    for _ in range(rng.randint(1, max_gens)):
        length = rng.randint(0, max_len)
        w = ""
        while len(w) < length:
            ch = rng.choice("sr")
            if (w + ch).endswith("ss") or (w + ch).endswith("rrr"):
                continue
            w += ch
        words.append(SignedWord(rng.choice((1, -1)), w))
    return GeneratorSet.from_words(words)


class TestIdentity:
    def test_s_power_four(self):
        v = identity_in_semigroup(GeneratorSet.from_matrices([S]))
        assert v.answer == YES
        assert v.witness["sequences"] == [[1, 1, 1, 1]]

    def test_free_pair(self):
        v = identity_in_semigroup(GeneratorSet.from_matrices([F_A, F_B]))
        assert v.answer == NO

    def test_subset_sum_solvable(self):
        fx = encode_subset_sum([1, 2], 3)
        v = identity_in_semigroup(fx.generators)
        assert v.answer == YES
        seq = v.witness["sequences"][0]
        assert fx.generators.product(seq) == IDENTITY


class TestWrongWitnessRefused:
    """Each witness is multiplied once, by the decision procedure: a decoder
    that returns a wrong sequence is caught there."""

    @pytest.fixture
    def short_decoder(self, monkeypatch):
        decode = automata.path_sequence
        monkeypatch.setattr(automata, "path_sequence",
                            lambda auto, path: decode(auto, path)[:-1])

    def test_identity_refuses(self, short_decoder):
        with pytest.raises(DecisionError):
            identity_in_semigroup(GeneratorSet.from_matrices([S]))

    def test_membership_refuses(self, short_decoder):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        with pytest.raises(DecisionError):
            membership(gens, F_A * F_B)

    def test_is_free_refuses_unequal_products(self, monkeypatch):
        # {a, b, ab} has no identity, so the witness is the freeness path's
        decode = automata.decode_pattern_witness

        def unequal(auto, path):
            alpha, beta = decode(auto, path)
            return alpha, beta + [1]
        gens = GeneratorSet.from_matrices([F_A, F_B, F_A * F_B])
        assert is_free(gens).answer == NO
        monkeypatch.setattr(automata, "decode_pattern_witness", unequal)
        with pytest.raises(DecisionError):
            is_free(gens)

    @pytest.fixture
    def degenerate_cycle(self, monkeypatch):
        # a growth cycle A => A at the first start pumps nothing: the paths
        # around A are empty, so the three pumped sequences are one
        def degenerate(g, starts=None):
            a = g.start if starts is None else next(iter(starts))
            return [], [(a, (a,), 0)]
        monkeypatch.setattr(grammars, "find_growth_cycle", degenerate)

    def test_recurrence_refuses_equal_pumped_sequences(self, degenerate_cycle):
        fx = recurrent_without_identity_fixture()
        with pytest.raises(DecisionError, match="not distinct"):
            is_recurrent(fx.generators, fx.expected["recurrent_target"])

    def test_finite_freeness_refuses_equal_pumped_sequences(self, degenerate_cycle):
        fx = recurrent_without_identity_fixture()
        with pytest.raises(DecisionError, match="not distinct"):
            finite_freeness(fx.generators, 2)

    def test_products_per_identity_witness(self, monkeypatch):
        products = []
        product = GeneratorSet.product

        def counted(self, seq):
            products.append(list(seq))
            return product(self, seq)
        monkeypatch.setattr(GeneratorSet, "product", counted)
        fx = encode_subset_sum([1, 2, 4], 5)
        v = identity_in_semigroup(fx.generators)
        assert products == v.witness["sequences"]


class TestMembership:
    def test_product_member(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        v = membership(gens, Mat2(5, 2, 2, 1))
        assert v.answer == YES
        assert v.witness["sequences"] == [[1, 2]]

    def test_non_member(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        assert membership(gens, S).answer == NO

    def test_neg_identity_member(self):
        gens = GeneratorSet.from_matrices([S])
        v = membership(gens, -IDENTITY)
        assert v.answer == YES
        assert v.witness["sequences"] == [[1, 1]]

    def test_identity_membership_needs_nonempty_product(self):
        gens = GeneratorSet.from_matrices([F_A])
        assert membership(gens, IDENTITY).answer == NO


class TestFreeness:
    def test_s_not_free(self):
        v = is_free(GeneratorSet.from_matrices([S]))
        assert v.answer == NO
        assert v.witness["sequences"] == [[1], [1, 1, 1, 1, 1]]

    def test_free_pair(self):
        assert is_free(GeneratorSet.from_matrices([F_A, F_B])).answer == YES

    def test_duplicate_generators_never_free(self):
        v = is_free(GeneratorSet.from_matrices([F_A, F_A]))
        assert v.answer == NO
        a, b = v.witness["sequences"]
        assert a != b

    def test_equal_subset_sum_instances(self):
        bad = encode_equal_subset_sum([1, 2, 3])
        v = is_free(bad.generators)
        assert v.answer == NO
        a, b = v.witness["sequences"]
        assert a != b
        assert bad.generators.product(a) == bad.generators.product(b)
        good = encode_equal_subset_sum([1, 2, 4])
        assert is_free(good.generators).answer == YES


class TestCounting:
    def test_infinite_for_torsion(self):
        v = count_factorizations(GeneratorSet.from_matrices([S]), -IDENTITY, cap=5)
        assert v.count.kind == "infinite"

    def test_free_cube(self):
        gens = GeneratorSet.from_matrices([F_A])
        v = count_factorizations(gens, F_A * F_A * F_A, cap=5)
        assert v.count.kind == "exact" and v.count.value == 1
        assert v.witness["sequences"] == [[1, 1, 1]]

    def test_count_zero_for_non_member(self):
        gens = GeneratorSet.from_matrices([F_A])
        v = count_factorizations(gens, S, cap=3)
        assert v.answer == NO and v.count.value == 0

    def test_rejects_cap_zero(self):
        with pytest.raises(DecisionError):
            count_factorizations(GeneratorSet.from_matrices([S]), S, cap=0)

    def test_subset_sum_unsolvable_unique(self):
        fx = encode_subset_sum([1, 2], 4)
        v = count_factorizations(fx.generators, fx.expected["count_target"], cap=8)
        assert v.count.kind == "exact" and v.count.value == 1
        assert v.witness["sequences"] == [[2]]

    def test_subset_sum_solvable_not_unique(self):
        fx = encode_subset_sum([1, 2], 3)
        v = count_factorizations(fx.generators, fx.expected["count_target"], cap=1)
        assert v.count.kind in ("more_than", "infinite")

    def test_more_than_cap(self):
        # -I over {S, -I}: sequences [2], [1,1], ... exceed cap 1
        gens = GeneratorSet.from_matrices([S, -IDENTITY])
        v = count_factorizations(gens, -IDENTITY, cap=1)
        assert v.count.kind in ("more_than", "infinite")

    def test_sign_parity_exactness(self):
        # single generator -T^2: only [1] multiplies to it, and T^2 itself
        # is not in the semigroup at all despite having the same word part
        neg_shear = -Mat2(1, 2, 0, 1)
        gens = GeneratorSet.from_matrices([neg_shear])
        v = count_factorizations(gens, neg_shear, cap=5)
        assert v.count.kind == "exact" and v.count.value == 1
        assert membership(gens, Mat2(1, 2, 0, 1)).answer == NO

    @pytest.mark.parametrize("gens, m, kind", [
        (GeneratorSet.from_matrices([S]), -IDENTITY, "infinite"),
        (GeneratorSet.from_matrices([F_A]), F_A * F_A * F_A, "exact"),
    ])
    def test_one_growth_cycle_search_per_count(self, monkeypatch, gens, m, kind):
        from sl2z_semigroups import grammars
        calls = []
        search = grammars._growth_search

        def counted(g, starts=None):
            calls.append(g)
            return search(g, starts)
        monkeypatch.setattr(grammars, "_growth_search", counted)
        assert count_factorizations(gens, m, cap=5).count.kind == kind
        assert len(calls) == 1

    def test_two_paths_decoding_to_one_factorization_raise(self, monkeypatch):
        # F_A^2 over {F_A, F_A^2} has the factorizations [1, 1] and [2]; a
        # decoder that maps both paths to one sequence must not merge them
        gens = GeneratorSet.from_matrices([F_A, F_A * F_A])
        assert count_factorizations(gens, F_A * F_A).count.value == 2
        decode, first = automata.path_sequence, []

        def one_sequence(auto, path):
            first.append(decode(auto, path))
            return first[0]
        monkeypatch.setattr(automata, "path_sequence", one_sequence)
        with pytest.raises(DecisionError):
            count_factorizations(gens, F_A * F_A)

    def test_count_monotone_in_generators(self):
        small = GeneratorSet.from_matrices([S])
        big = GeneratorSet.from_matrices([S, -IDENTITY])
        m = -IDENTITY
        v_small = count_factorizations(small, m, cap=4)
        v_big = count_factorizations(big, m, cap=4)
        order = {"exact": 0, "more_than": 1, "infinite": 2}
        assert order[v_big.count.kind] >= order[v_small.count.kind]


class TestRecurrence:
    def test_fixture_target_recurrent_without_identity(self):
        fx = recurrent_without_identity_fixture()
        target = fx.expected["recurrent_target"]
        assert identity_in_semigroup(fx.generators).answer == NO
        assert is_recurrent(fx.generators, target).answer == YES

    def test_witness_repeats_within_a_process(self):
        fx = recurrent_without_identity_fixture()
        target = fx.expected["recurrent_target"]
        first = is_recurrent(fx.generators, target)
        second = is_recurrent(fx.generators, target)
        assert first.witness == second.witness

    @pytest.mark.parametrize("case", ["fixture", "torsion", "identity_pumps"])
    def test_witness_sequences_multiply_to_the_target(self, case):
        if case == "fixture":
            fx = recurrent_without_identity_fixture()
            gens, m = fx.generators, fx.expected["recurrent_target"]
        elif case == "torsion":
            gens, m = GeneratorSet.from_matrices([S]), -IDENTITY
        else:
            fx = encode_subset_sum([1, 2], 3)
            gens, m = fx.generators, fx.expected["count_target"]
        v = is_recurrent(gens, m)
        assert v.answer == YES and v.witness["kind"] == "grammar_cycle"
        cycle, seqs = v.witness["cycle"], v.witness["sequences"]
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert len(seqs) == 3 and len({tuple(s) for s in seqs}) == 3
        assert all(gens.product(seq) == m for seq in seqs)
        # u x^n w y^n v: each step adds the same nonempty blocks
        assert len(seqs[2]) - len(seqs[1]) == len(seqs[1]) - len(seqs[0]) > 0

    def test_free_generator_not_recurrent(self):
        gens = GeneratorSet.from_matrices([F_A])
        assert is_recurrent(gens, F_A * F_A * F_A).answer == NO

    def test_long_power_not_recurrent_within_budget(self):
        # the membership automaton of M^3200 has a 16,000-edge target chain;
        # its derivation grammar must list each rule instance of the
        # relation once, not join the rule shape again for every triple
        gens = GeneratorSet.from_matrices([Mat2(2, 1, 1, 1)])
        m = gens.product([1] * 3200)
        start = time.perf_counter()
        assert is_recurrent(gens, m).answer == NO
        assert time.perf_counter() - start < 4.0

    def test_around_is_linear_in_the_steps(self):
        # 100,000 steps whose bodies hold only edges besides the child: the
        # left pieces in step order, the right pieces last step's first,
        # each piece in body order, without rebuilding the paths per step
        n = 100_000
        steps = [(k, (4 * k, 4 * k + 1, ("child",), 4 * k + 2, 4 * k + 3), 2)
                 for k in range(n)]
        start = time.perf_counter()
        left, right = decisions._around(None, None, steps)
        assert time.perf_counter() - start < 3.0
        assert left == [e for k in range(n) for e in (4 * k, 4 * k + 1)]
        assert right == [e for k in reversed(range(n)) for e in (4 * k + 2, 4 * k + 3)]

    def test_identity_makes_members_recurrent(self):
        gens = GeneratorSet.from_matrices([S])
        table = oracle.enumerate_products(gens, 4)
        for m in table.matrices():
            assert is_recurrent(gens, m).answer == YES


class TestFiniteFreeness:
    def test_torsion_generator(self):
        v = finite_freeness(GeneratorSet.from_matrices([S]), 1)
        assert v.answer == NO
        seq = v.witness["sequences"][0]
        assert GeneratorSet.from_matrices([S]).product(seq) == IDENTITY

    def test_recurrent_fixture_found_at_depth_two(self):
        fx = recurrent_without_identity_fixture()
        v = finite_freeness(fx.generators, 2)
        assert v.answer == NO
        assert v.witness["kind"] == "recurrent_matrix"
        assert "pumping" in v.witness
        p = v.witness["pumping"]
        g = fx.generators
        assert g.product(p["alpha"] + p["sigma"] + p["gamma"]) == g.product(p["sigma"])
        assert p == dict(zip(("alpha", "sigma", "gamma"), oracle.find_pumping(
            g, 2, target=g.product(v.witness["sequence"]))))
        seqs = v.witness["sequences"]
        assert len({tuple(s) for s in seqs}) == 3
        assert all(g.product(seq) == g.product(v.witness["sequence"]) for seq in seqs)

    def test_free_pair_unknown(self):
        v = finite_freeness(GeneratorSet.from_matrices([F_A, F_B]), 3)
        assert v.answer == UNKNOWN
        assert v.depth_bound == 3

    def test_recurrent_fixture_witness(self):
        fx = recurrent_without_identity_fixture()
        for depth in (2, 3):
            v = finite_freeness(fx.generators, depth)
            assert v.witness == {
                "kind": "recurrent_matrix",
                "matrix": [["-19", "88"], ["-8", "37"]],
                "sequence": [1, 2],
                "sequences": [[1, 1, 2, 3], [1, 1, 1, 2, 3, 3],
                              [1, 1, 1, 1, 2, 3, 3, 3]],
                "pumping": {"alpha": [1], "sigma": [1, 2], "gamma": [3]},
            }

    @pytest.mark.parametrize("gens, depth", [
        (GeneratorSet.from_matrices([F_A * F_A, F_A * F_B]), 3),
        (GeneratorSet.from_matrices([F_B * F_A, F_A * F_A]), 2),
        (encode_equal_subset_sum([1, 2, 4]).generators, 2),
        (GeneratorSet.from_matrices([F_A]), 6),
    ])
    def test_free_sets_look_at_no_candidate(self, monkeypatch, gens, depth):
        def refuse(*args, **kwargs):
            raise AssertionError("a free set needs no candidate")
        monkeypatch.setattr(decisions.FactorizationCounter, "recurrence_certificate", refuse)
        monkeypatch.setattr(oracle, "enumerate_products", refuse)
        assert is_free(gens).answer == YES
        assert finite_freeness(gens, depth) == Verdict("finite_freeness", UNKNOWN,
                                                       depth_bound=depth)

    def test_random_sets_agree_with_the_candidate_loop(self):
        # random sets, and sets {X A X^-1, X A^-1 Y^-1, Y A^-1 Y^-1} over the
        # free pair, in which X Y^-1 = w1^n w2 w3^(n-1) for every n >= 1; the
        # referee asks `is_recurrent` of every product of <= 3 generators
        rng = random.Random(8128)
        answers = set()
        for k in range(400):
            gens = random_generators(rng) if k % 2 else conjugate_set(rng)
            v = finite_freeness(gens, 3)
            table = oracle.enumerate_products(gens, 3)
            recurrent = any(is_recurrent(gens, m).answer == YES for m in table.matrices())
            if recurrent:
                assert v.answer == NO
            if v.answer == NO:
                check_finite_freeness_no(gens, v.witness)
            else:
                assert v == Verdict("finite_freeness", UNKNOWN, depth_bound=3)
            identity = identity_in_semigroup(gens).answer == YES
            assert ((v.witness or {}).get("kind") == "sequences") == identity
            answers.add((v.answer, (v.witness or {}).get("kind"), is_free(gens).answer))
        assert answers == {(NO, "sequences", NO), (NO, "recurrent_matrix", NO),
                           (UNKNOWN, None, NO), (UNKNOWN, None, YES)}


def conjugate_set(rng):
    """{X A X^-1, X A^-1 Y^-1, Y A^-1 Y^-1} for products X, Y, A of one or
    two matrices of the free pair."""
    def free_pair_product():
        m = IDENTITY
        for _ in range(rng.randint(1, 2)):
            m = m * rng.choice((Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)))
        return m
    x, y, a = free_pair_product(), free_pair_product(), free_pair_product()
    return GeneratorSet.from_matrices([x * a * x.inverse(), x * a.inverse() * y.inverse(),
                                       y * a.inverse() * y.inverse()])


def check_finite_freeness_no(gens, witness):
    """A finite-freeness NO witness: a product equal to I, or a recurrent
    matrix whose pumping triple is not degenerate and whose pumped
    sequences for n = 1, 2, 3 are distinct and multiply to it."""
    if witness["kind"] == "sequences":
        (seq,) = witness["sequences"]
        assert gens.product(seq) == IDENTITY
        return
    assert witness["kind"] == "recurrent_matrix"
    m = gens.product(witness["sequence"])
    assert witness["matrix"] == [[str(m.a), str(m.b)], [str(m.c), str(m.d)]]
    p = witness["pumping"]
    assert p["sigma"] == witness["sequence"] and (p["alpha"] or p["gamma"])
    pumped = [p["alpha"] * n + p["sigma"] + p["gamma"] * n for n in (1, 2, 3)]
    assert witness["sequences"] == pumped
    assert len({tuple(seq) for seq in pumped}) == 3
    assert all(gens.product(seq) == m for seq in pumped)


class TestOneFreenessSaturation:
    """`is_free` saturates the loop automaton, then at most the freeness
    automaton once; `finite_freeness` saturates the loop automaton alone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        saturate = automata.saturate

        def counted(auto, goal=None):
            calls.append(auto.kind)
            return saturate(auto, goal)
        monkeypatch.setattr(automata, "saturate", counted)
        certificate = decisions.FactorizationCounter.recurrence_certificate

        def candidate(self, *args, **kwargs):
            calls.append("candidate")
            return certificate(self, *args, **kwargs)
        monkeypatch.setattr(decisions.FactorizationCounter, "recurrence_certificate",
                            candidate)
        return calls

    @pytest.mark.parametrize("values, answer", [
        ([1, 2, 4], YES), ([1, 2, 4, 8], YES), ([1, 2, 3], NO), ([3, 5, 8, 13], NO),
        ([1, 2, 4, 7], NO), ([2, 3, 5, 9], NO), ([1, 1, 4, 4], NO),
    ])
    def test_is_free(self, calls, values, answer):
        assert is_free(encode_equal_subset_sum(values).generators).answer == answer
        assert calls == ["loop", "freeness"]

    @pytest.mark.parametrize("mats, kinds", [
        ([S], ["loop"]), ([S, R], ["loop"]), ([F_A], ["loop"]),
        ([F_A, F_A], ["loop", "freeness"]),
    ])
    def test_is_free_small_sets(self, calls, mats, kinds):
        is_free(GeneratorSet.from_matrices(mats))
        assert calls == kinds

    def test_finite_freeness_before_any_candidate(self, calls, monkeypatch):
        # no candidate product, no oracle and no freeness automaton: one
        # saturation of the loop automaton answers, on a recurrent set, an
        # identity set and a free set
        def refuse(*args, **kwargs):
            raise AssertionError("finite freeness needs one saturation only")
        for name in ("enumerate_products", "find_collision", "find_pumping",
                     "oracle_count", "max_exhaustive_depth"):
            monkeypatch.setattr(oracle, name, refuse)
        monkeypatch.setattr(oracle.ProductTable, "pumping", refuse)
        monkeypatch.setattr(automata, "build_freeness_automaton", refuse)
        for gens, answer in ((recurrent_without_identity_fixture().generators, NO),
                             (GeneratorSet.from_matrices([S, R]), NO),
                             (GeneratorSet.from_matrices([F_A, F_B]), UNKNOWN)):
            del calls[:]
            assert finite_freeness(gens, 25).answer == answer
            assert calls == ["loop"]


def least_identity_product(gens, max_len):
    """The least index sequence of at most max_len generators that
    multiplies to I, in (length, lexicographic) order, or None.

    A sequence of length L is a head of ceil(L/2) generators and a tail of
    the rest; heads run in lexicographic order, and the first whose
    inverse is the product of a tail, with that product's least tail, is
    the least sequence of length L.
    """
    indices = range(1, len(gens) + 1)
    # tails[k]: product of k generators -> its least sequence
    tails = [{IDENTITY.entries(): ()}]
    for k in range(1, max_len // 2 + 1):
        level = {}
        for seq in itertools.product(indices, repeat=k):
            level.setdefault(gens.product(seq).entries(), seq)
        tails.append(level)
    for length in range(1, max_len + 1):
        head_len = (length + 1) // 2
        for head in itertools.product(indices, repeat=head_len):
            tail = tails[length - head_len].get(gens.product(head).inverse().entries())
            if tail is not None:
                return list(head + tail)
    return None


class TestPinnedWitnesses:
    """Witnesses pinned to the least factorization that `saturate` reads.

    The saturation is lightest first: each triple's witness is its least
    path in (number of marks, marks in path order), and on the loop and
    membership automata the marks of a path are its index sequence.  So an
    identity or membership witness is the least factorization in (length,
    lexicographic) order, `ProductTable.first_sequence`, which these pins
    check wherever the oracle's table reaches; a freeness witness is the
    colliding pair's collision with the fewest generators in all.  A change
    to how the agenda weighs paths fails them.
    """

    def test_subset_sum_identity(self):
        fx = encode_subset_sum([1, 2, 4], 5)
        v = identity_in_semigroup(fx.generators)
        assert v.witness["sequences"] == [[1, 4, 5, 13, 7, 10, 11, 14]]
        # 14 generators: a table of depth 8 is out of reach, so halves of
        # at most 4 generators meet in the middle
        assert least_identity_product(fx.generators, 8) == [1, 4, 5, 13, 7, 10, 11, 14]

    @pytest.mark.parametrize("words, pair", [
        ([(1, "r"), (1, "rr")], [[1], [1, 2, 2, 2]]),
        ([(1, "r"), (-1, "srsr"), (1, "r")], [[1], [1, 1, 1, 1, 1, 1, 1]]),
    ])
    def test_freeness_collision(self, words, pair):
        # I is a product, so the witness is [1] and [1] + the least one
        gens = GeneratorSet.from_words([SignedWord(*w) for w in words])
        assert is_free(gens).witness["sequences"] == pair
        assert pair[1] == [1] + oracle.enumerate_products(gens, 6).first_sequence(IDENTITY)

    @pytest.mark.parametrize("values, pair", [
        ([1, 2, 3], [[1, 3, 6], [2, 4, 5]]),
        ([3, 5, 8, 13], [[1, 3, 6], [2, 4, 5]]),
        ([1, 2, 4, 7], [[1, 3, 5, 8], [2, 4, 6, 7]]),
        ([2, 3, 5, 9], [[1, 3, 6], [2, 4, 5]]),
        ([1, 1, 4, 4], [[1, 4], [2, 3]]),
    ])
    def test_equal_subset_sum_collision(self, values, pair):
        # the paper's family: an equal-sum split is a collision
        assert is_free(encode_equal_subset_sum(values).generators).witness["sequences"] == pair

    @pytest.mark.parametrize("words, seq", [
        ([(1, "r"), (-1, ""), (1, "rr")], [2, 2]),
        ([(1, "sr"), (-1, ""), (1, "rs")], [2, 2]),
    ])
    def test_minus_identity_generator(self, words, seq):
        # -I is a generator, so the loop automaton has an epsilon edge
        gens = GeneratorSet.from_words([SignedWord(*w) for w in words])
        assert identity_in_semigroup(gens).witness["sequences"] == [seq]
        assert seq == oracle.enumerate_products(gens, 4).first_sequence(IDENTITY)

    @pytest.mark.parametrize("mats, seq", [
        ([S], [1, 1, 1, 1]), ([-IDENTITY], [1, 1]), ([R], [1, 1, 1, 1, 1, 1]),
        ([S, R], [1, 1, 1, 1]),
    ])
    def test_finite_freeness_identity_branch(self, mats, seq):
        # -I is a product in each set, so I = (-I)(-I) is one too and the
        # (hub, hub, +1) lookup alone answers branch (a)
        gens = GeneratorSet.from_matrices(mats)
        v = finite_freeness(gens, 1)
        assert v.answer == NO
        assert v.witness["sequences"] == [seq]
        assert seq == oracle.enumerate_products(gens, 6).first_sequence(IDENTITY)


class TestCanonicalWitnesses:
    """Witnesses against the oracle's least sequences, on seeded random
    sets: the least factorization for identity, membership and a count
    past its cap, and the fewest generators for a collision."""

    DEPTH = 5

    def cases(self, seed, n_sets):
        rng = random.Random(seed)
        for _ in range(n_sets):
            gens = random_generators(rng)
            yield gens, oracle.enumerate_products(gens, self.DEPTH)

    def test_identity_and_member_witnesses_are_first_sequences(self):
        checked = {"identity": 0, "member": 0}
        for gens, table in self.cases(31, 60):
            v = identity_in_semigroup(gens)
            if IDENTITY in table:
                assert v.witness["sequences"] == [table.first_sequence(IDENTITY)]
                checked["identity"] += 1
            elif v.answer == YES:
                assert len(v.witness["sequences"][0]) > self.DEPTH
            for m in table.matrices()[:12]:
                assert membership(gens, m).witness["sequences"] == [table.first_sequence(m)]
                checked["member"] += 1
        assert min(checked.values()) >= 20, checked

    def test_count_past_its_cap_gives_the_first_sequence(self):
        checked = 0
        for gens, table in self.cases(32, 60):
            for m in table.matrices()[:4]:
                v = count_factorizations(gens, m, cap=2)
                if v.count.kind != "exact":
                    assert v.witness["sequences"] == [table.first_sequence(m)]
                    checked += 1
        assert checked >= 20

    def test_freeness_witness_has_the_fewest_generators_of_its_pair(self):
        # products of one to three matrices of a free pair: no product is
        # I, and a generator that is a product of others collides
        rng = random.Random(33)
        pair = (Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1))
        sets = [GeneratorSet.from_matrices([
            functools.reduce(Mat2.__mul__, rng.choices(pair, k=rng.randint(1, 3)))
            for _ in range(rng.randint(2, 4))]) for _ in range(40)]
        sets += [encode_equal_subset_sum(values).generators
                 for values in ([1, 2, 3], [3, 5, 8, 13], [1, 1, 4, 4])]
        checked = 0
        for gens in sets:
            v = is_free(gens)
            if v.answer != NO or identity_in_semigroup(gens).answer == YES:
                continue
            alpha, beta = v.witness["sequences"]
            table = oracle.enumerate_products(gens, min(self.DEPTH, len(alpha) + len(beta)))
            sizes = [len(x) + len(y) for m in table.matrices()
                     for x in table.sequences(m) for y in table.sequences(m)
                     if (x[0], y[0]) == (alpha[0], beta[0])]
            assert min(sizes, default=len(alpha) + len(beta)) >= len(alpha) + len(beta)
            checked += 1
        assert checked >= 10, checked


class TestOracleAgreement:
    def test_random_sets_agree_with_enumeration(self):
        rng = random.Random(20240811)
        depth = 6
        for _ in range(12):
            gens = random_generators(rng)
            table = oracle.enumerate_products(gens, depth)
            collision = oracle.find_collision(gens, depth)
            free = is_free(gens)
            if collision is not None:
                assert free.answer == NO
            if free.answer == YES:
                assert collision is None
            # membership of a few sampled products; witnesses within depth
            mats = table.matrices()
            for m in mats[:3] + mats[-2:]:
                v = membership(gens, m)
                assert v.answer == YES
                seq = v.witness["sequences"][0]
                assert gens.product(seq) == m
                if len(seq) <= depth:
                    assert table.count(m) >= 1
            # count agreement on the first product
            m = mats[0]
            v = count_factorizations(gens, m, cap=5)
            if v.count.kind == "exact":
                assert oracle.oracle_count(gens, m, depth) <= v.count.value
                max_len = max(len(s) for s in v.witness["sequences"])
                if max_len <= depth:
                    assert oracle.oracle_count(gens, m, depth) == v.count.value
            else:
                assert table.count(m) >= 1
