"""Group-alphabet encodings and instance fixtures.

Ground truth: free reduction of group words, exhaustive subset enumeration,
direct DFA simulation, and the brute-force product oracle.
"""

import importlib.util
import os
import random
import re
import sys
import types
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from sl2z_semigroups.algebra import IDENTITY, Mat2, SignedWord, decompose
from sl2z_semigroups import algebra, cli, encodings, oracle
from sl2z_semigroups.encodings import (
    DfaSpec, EncodingError, alpha, closed_form, encode_dfa_intersection,
    encode_equal_subset_sum, encode_subset_sum, f_matrix, f_word, free_reduce,
    inverse_word, letter, marked_query_word, recurrent_without_identity_fixture,
    verify_fixture, word,
)

A, B = ("a", False), ("b", False)
A_INV, B_INV = ("a", True), ("b", True)

LETTER_MATRICES = {
    A: Mat2(1, 2, 0, 1), A_INV: Mat2(1, -2, 0, 1),
    B: Mat2(1, 0, 2, 1), B_INV: Mat2(1, 0, -2, 1),
}


def letterwise_f(w) -> Mat2:
    """Reference f: one Mat2 product per letter."""
    m = IDENTITY
    for lt in w:
        if lt not in LETTER_MATRICES:
            raise EncodingError(f"letter outside the binary group alphabet: {lt!r}")
        m = m * LETTER_MATRICES[lt]
    return m


def load_bench_workloads():
    """bench/workloads.py, loaded from its file without writing bytecode."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class TestAlpha:
    def test_letter_images(self):
        assert alpha(((2, False),)) == (A, A, B, A_INV, A_INV)
        assert alpha(((1, True),)) == (A, B_INV, A_INV)

    def test_inverse_pairs_cancel(self):
        assert free_reduce(alpha(((1, False), (1, True)))) == ()

    def test_rejects_bad_index(self):
        with pytest.raises(EncodingError):
            alpha((("z", False),))
        with pytest.raises(EncodingError):
            alpha(((3, False),), n_letters=2)


class TestFMatrix:
    def test_letter_matrices(self):
        assert f_matrix((A,)) == Mat2(1, 2, 0, 1)
        assert f_matrix((B,)) == Mat2(1, 0, 2, 1)
        assert f_matrix((A, A_INV)) == IDENTITY
        assert f_matrix((A, B)) == Mat2(5, 2, 2, 1)

    def test_rejects_foreign_letter(self):
        with pytest.raises(EncodingError):
            f_matrix((("c", False),))
        # first, middle and last position
        for foreign in (("c", False), ("a", None), ("B", True), "a"):
            for position in (0, 2, 4):
                w = [A, B, A_INV, B_INV]
                w.insert(position, foreign)
                with pytest.raises(EncodingError, match="outside the binary group alphabet"):
                    f_matrix(w)

    def test_equals_letterwise_product(self):
        rng = random.Random(20161)
        letters = [A, B, A_INV, B_INV]
        words = [()] + [tuple(rng.choice(letters) for _ in range(rng.randint(0, 40)))
                        for _ in range(1200)]
        for w in words:
            assert f_matrix(w) == letterwise_f(w)

    def test_monomorphism_small_exhaustive(self):
        # value I iff the word freely reduces to nothing (length <= 4)
        letters = [A, B, A_INV, B_INV]
        for length in range(5):
            for w in iproduct(letters, repeat=length):
                assert (f_matrix(w) == IDENTITY) == (free_reduce(w) == ())

    def test_alpha_then_f_monomorphism(self):
        letters = [(i, inv) for i in (1, 2) for inv in (False, True)]
        for length in range(5):
            for w in iproduct(letters, repeat=length):
                image_trivial = f_matrix(alpha(w)) == IDENTITY
                assert image_trivial == (free_reduce(w) == ())


class TestFWord:
    """`f_word` joins the letters' words instead of decomposing the matrix."""

    def test_letter_words(self):
        assert f_word((A,)) == SignedWord(1, "srsr")
        assert f_word((B,)) == SignedWord(1, "srrsrr")
        assert f_word(()) == SignedWord(1, "")
        assert f_word((A, A_INV)) == SignedWord(1, "")

    def test_equals_decompose_on_random_words(self):
        rng = random.Random(20162)
        letters = [A, B, A_INV, B_INV]
        for _ in range(600):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 40)))
            assert f_word(w) == decompose(f_matrix(w))

    def test_merged_alpha_keeps_the_value(self):
        # the generators' words come from alpha with its a-runs merged
        rng = random.Random(20163)
        for _ in range(300):
            w = tuple((rng.randint(1, 5), rng.random() < 0.5)
                      for _ in range(rng.randint(0, 8)))
            merged = encodings._merged_alpha(w)
            assert len(merged) <= len(alpha(w))
            assert f_word(merged) == decompose(f_matrix(alpha(w)))


class TestClosedForm:
    def test_base_case(self):
        assert closed_form(1, 1) == Mat2(5, -8, 2, -3)

    def test_derived_case(self):
        # substitute and verify by repeated multiplication
        m = closed_form(3, 2)
        assert m == Mat2(25, -96, 6, -23)
        single = f_matrix(alpha(((2, False),)))
        assert single * single * single == m

    def test_matches_repeated_product_range(self):
        for i in range(1, 6):
            for j in range(1, 6):
                assert closed_form(i, j) == f_matrix(alpha(((j, False),) * i))

    def test_determinant_forced(self):
        for i, j in ((1, 4), (7, 2), (11, 3)):
            closed_form(i, j)  # construction itself enforces det == 1


class TestEqualSubsetSum:
    def test_generator_count(self):
        assert len(encode_equal_subset_sum([1, 2, 3]).generators) == 6
        assert len(encode_equal_subset_sum([5]).generators) == 2

    def test_not_free_instance(self):
        fx = encode_equal_subset_sum([1, 2, 3])
        assert fx.expected["free"] is False
        assert fx.provenance["equal_sum_subsets"] == [[1, 2], [3]]
        col = oracle.find_collision(fx.generators, 3)
        assert col is not None
        a, b = col
        assert a != b and fx.generators.product(a) == fx.generators.product(b)

    def test_free_instance(self):
        fx = encode_equal_subset_sum([1, 2, 4])
        assert fx.expected["free"] is True
        assert oracle.find_collision(fx.generators, 4) is None

    def test_verify_fixture(self):
        assert verify_fixture(encode_equal_subset_sum([1, 2, 3]), 3)
        assert verify_fixture(encode_equal_subset_sum([1, 2, 4]), 4)

    def test_rejects_bad_input(self):
        with pytest.raises(EncodingError):
            encode_equal_subset_sum([])
        with pytest.raises(EncodingError):
            encode_equal_subset_sum([0, 2])


class TestSubsetSum:
    def test_word_count(self):
        fx = encode_subset_sum([1, 2], 3)
        assert len(fx.generators) == 4 * 2 + 2

    def test_solvable_instance(self):
        fx = encode_subset_sum([1, 2], 3)
        assert fx.expected["identity"] is True
        assert fx.provenance["subset"] == [1, 2]
        seq = fx.provenance["identity_sequence"]
        assert fx.generators.product(seq) == IDENTITY

    def test_unsolvable_instance(self):
        fx = encode_subset_sum([1, 2], 4)
        assert fx.expected["identity"] is False
        assert fx.expected["count_target"] == fx.generators.matrix(2)

    def test_oracle_replay_small(self):
        fx = encode_subset_sum([1], 1)
        assert verify_fixture(fx, 4)

    def test_partial_cycle_shape(self):
        # reduced products keep uncancellable border letters at both ends
        fx = encode_subset_sum([1, 2], 3)
        borders = {str(i) for i in range(6)}
        for seq in ([0, 1], [2, 3], [0, 2, 4], [8, 9]):
            w = free_reduce(sum((fx.words[i] for i in seq), ()))
            assert w[0][0] in borders and w[-1][0] in borders


class TestWordLengthLimit:
    """Each builder counts the letters of its words after alpha, and refuses
    an input past `MAX_WORD_LETTERS` before it builds a word."""

    @staticmethod
    def alpha_letters(fx):
        return sum(len(alpha(tuple((fx.z_index[sym], inv) for sym, inv in w)))
                   for w in fx.words)

    @pytest.mark.parametrize("build, field", [
        (lambda: encode_subset_sum([1, 2], 5), "--x"),
        (lambda: encode_equal_subset_sum([3, 1]), "--set entry 2"),
        (lambda: encode_dfa_intersection([
            DfaSpec(2, ("a",), ((0, "a", 1), (1, "a", 0)), frozenset({1}))]),
         "DFA state count and alphabet (2 states in all, 1 symbols)"),
    ], ids=["ssp", "essp", "dfa"])
    def test_limit_is_the_exact_letter_count(self, monkeypatch, build, field):
        fx = build()
        n = self.alpha_letters(fx)
        monkeypatch.setattr(encodings, "MAX_WORD_LETTERS", n)
        again = build()
        assert again.words == fx.words
        assert cli.problem_json(again.generators) == cli.problem_json(fx.generators)
        monkeypatch.setattr(encodings, "MAX_WORD_LETTERS", n - 1)
        with pytest.raises(EncodingError, match="^" + re.escape(f"{field} is too large")):
            build()

    def test_huge_inputs_refused(self):
        huge = 10 ** 23
        with pytest.raises(EncodingError, match="^--x is too large"):
            encode_subset_sum([1, 2], huge)
        with pytest.raises(EncodingError, match="^--set entry 1 is too large"):
            encode_subset_sum([huge, 2], 3)
        with pytest.raises(EncodingError, match="^--set entry 1 is too large"):
            encode_equal_subset_sum([huge])
        with pytest.raises(EncodingError, match="^DFA state count"):
            encode_dfa_intersection([DfaSpec(huge, ("a",), (), frozenset())])


@pytest.mark.parametrize("workload", ["membership", "freeness", "counting",
                                      "finite_freeness"])
def test_bench_problem_files_match_letterwise_reference(workload, tmp_path, monkeypatch):
    """The benchmark's fixtures (subset-sum and equal-subset-sum ladders, DFA
    encodings, the recurrent fixture) write byte-identical problem files
    with the letterwise reference in place of `f_matrix`."""
    workloads = load_bench_workloads()
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)

    def problem_files(workdir):
        workdir.mkdir()
        workloads.build(pkg, str(workdir), workload, 3)
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    fast = problem_files(tmp_path / "fast")
    monkeypatch.setattr(encodings, "f_matrix", letterwise_f)
    reference = problem_files(tmp_path / "reference")
    assert fast and fast == reference


@pytest.mark.parametrize("workload", ["membership", "freeness", "counting",
                                      "finite_freeness"])
def test_bench_fixture_words_equal_decompose(workload, tmp_path, monkeypatch):
    """Every generator of the benchmark's fixtures carries the word that
    `decompose` gives for its matrix."""
    workloads = load_bench_workloads()
    pkg = types.SimpleNamespace(algebra=algebra, cli=cli, encodings=encodings,
                                oracle=oracle)
    built = []
    generator_set = encodings._generator_set

    def recording(words, z_index):
        built.append(generator_set(words, z_index))
        return built[-1]

    monkeypatch.setattr(encodings, "_generator_set", recording)
    workloads.build(pkg, str(tmp_path), workload, 3)
    assert built
    for gens in built:
        for g in gens:
            assert g.word == decompose(g.matrix)


class TestRecurrentFixture:
    def test_exact_word_set(self):
        fx = recurrent_without_identity_fixture()
        assert len(fx.generators) == 3
        assert fx.words[0] == word(letter("0"), letter("a"), letter("0", True))

    def test_first_two_words_telescope(self):
        fx = recurrent_without_identity_fixture()
        reduced = free_reduce(fx.words[0] + fx.words[1])
        assert reduced == (("0", False), ("1", True))

    def test_pumping_identity(self):
        fx = recurrent_without_identity_fixture()
        g = fx.generators
        target = fx.expected["recurrent_target"]
        # w1^n w2 w3^(n-1) all reduce to the target
        for n in (1, 2, 3, 4):
            seq = [1] * n + [2] + [3] * (n - 1)
            assert g.product(seq) == target

    def test_no_identity_in_oracle_range(self):
        fx = recurrent_without_identity_fixture()
        table = oracle.enumerate_products(fx.generators, 7)
        assert IDENTITY not in table


class TestDfaIntersection:
    def test_single_state_star(self):
        d = DfaSpec(1, ("a",), ((0, "a", 0),), frozenset({0}))
        fx = encode_dfa_intersection([d])
        assert len(fx.generators) == 3
        assert fx.words[0] == word(letter("#"), letter("d0_0", True))
        assert fx.words[1] == word(letter("d0_0"), letter("a"), letter("d0_0", True))
        assert fx.words[2] == word(letter("d0_0"), letter("#"))

    def test_query_word_telescopes(self):
        d = DfaSpec(1, ("a",), ((0, "a", 0),), frozenset({0}))
        fx = encode_dfa_intersection([d])
        m = marked_query_word(fx, ("a", "a"))
        chain = fx.generators.product([1, 2, 2, 3])
        assert m == chain

    def test_acceptance_ground_truth(self):
        d1 = DfaSpec(2, ("a", "b"), ((0, "a", 1), (1, "a", 1)), frozenset({1}))
        d2 = DfaSpec(1, ("a", "b"), ((0, "b", 0),), frozenset({0}))
        assert d1.accepts(("a", "a")) and not d1.accepts(("b",))
        assert d2.accepts(()) and d2.accepts(("b", "b")) and not d2.accepts(("a",))

    def test_shared_alphabet_enforced(self):
        d1 = DfaSpec(1, ("a",), (), frozenset())
        d2 = DfaSpec(1, ("b",), (), frozenset())
        with pytest.raises(EncodingError):
            encode_dfa_intersection([d1, d2])

    @pytest.mark.parametrize("d", [
        DfaSpec(2, ("#",), ((0, "#", 1), (1, "#", 1)), frozenset({0})),
        DfaSpec(2, ("d0_0",), ((0, "d0_0", 0), (1, "d0_0", 0)), frozenset({1})),
    ], ids=["hash", "border-letter"])
    def test_alphabet_of_the_encodings_own_letters_refused(self, d):
        # with such a symbol "# w # is a member iff some DFA accepts w" fails:
        # the first accepts only the empty word and the second nothing, yet
        # "# # # #" and "# #" were members
        with pytest.raises(EncodingError, match=r"^alphabet: symbols \['"):
            encode_dfa_intersection([d])

    def test_word_outside_both_languages_rejected(self):
        from sl2z_semigroups.decisions import membership
        only_a = DfaSpec(1, ("a", "b"), ((0, "a", 0),), frozenset({0}))
        only_b = DfaSpec(1, ("a", "b"), ((0, "b", 0),), frozenset({0}))
        fx = encode_dfa_intersection([only_a, only_b])
        mixed = marked_query_word(fx, ("a", "b"))
        assert membership(fx.generators, mixed).answer == "NO"
        accepted = marked_query_word(fx, ("b", "b"))
        assert membership(fx.generators, accepted).answer == "YES"


class TestGroupWords:
    def test_inverse_word(self):
        w = word(letter("0"), letter("a"), letter("1", True))
        assert inverse_word(w) == (("1", False), ("a", True), ("0", True))
        assert free_reduce(w + inverse_word(w)) == ()

    def test_free_reduction_confluent_shape(self):
        w = word(letter("0"), letter("a"), letter("a", True), letter("0", True),
                 letter("0"), letter("1", True))
        assert free_reduce(w) == (("0", False), ("1", True))


group_words = st.lists(
    st.tuples(st.integers(1, 3), st.booleans()), max_size=8).map(tuple)


@given(group_words)
def test_alpha_image_mirrors_free_reduction(w):
    # the embedded matrix is trivial exactly when the word freely reduces away
    assert (f_matrix(alpha(w)) == IDENTITY) == (free_reduce(w) == ())


@given(group_words, group_words)
def test_encoding_is_a_homomorphism(u, v):
    assert f_matrix(alpha(u + v)) == f_matrix(alpha(u)) * f_matrix(alpha(v))


@given(group_words)
def test_inverse_word_inverts_the_matrix(w):
    assert f_matrix(alpha(w)) * f_matrix(alpha(inverse_word(w))) == IDENTITY
