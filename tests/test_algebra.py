"""Core arithmetic and the signed-word normal form.

The independent oracle here is a random-order rewriter: it deletes "ss" /
"rrr" redexes in arbitrary order, so agreement with the stack-based reduce
checks confluence rather than assuming it.
"""

import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

from sl2z_semigroups.algebra import (
    IDENTITY, R, S, T, AlgebraError, Generator, GeneratorSet, Mat2, SelfCheckError, SignedWord,
    decimal_int, decimal_str, decompose, evaluate, inv, mul, reduce, shortest_conjugate,
)
from sl2z_semigroups import algebra

from brute import all_reduced_words

sr_words = st.text(alphabet="sr", max_size=20)
signs = st.sampled_from([1, -1])


def random_order_reduce(word, sign, rng):
    """Delete a randomly chosen redex until none remain."""
    word = list(word)
    while True:
        redexes = []
        for i in range(len(word) - 1):
            if word[i] == "s" and word[i + 1] == "s":
                redexes.append((i, 2))
        for i in range(len(word) - 2):
            if word[i] == word[i + 1] == word[i + 2] == "r":
                redexes.append((i, 3))
        if not redexes:
            return SignedWord(sign, "".join(word))
        i, n = rng.choice(redexes)
        del word[i:i + n]
        sign = -sign


def stack_reduce(raw, sign):
    """Referee for `reduce`: one stack pass, deleting leftmost-innermost."""
    stack = []
    for ch in raw:
        if ch == "s" and stack[-1:] == ["s"]:
            stack.pop()
            sign = -sign
        elif ch == "r" and stack[-2:] == ["r", "r"]:
            del stack[-2:]
            sign = -sign
        else:
            stack.append(ch)
    return SignedWord(sign, "".join(stack))


def letter_evaluate(x):
    """Referee for `evaluate`: the entries multiplied through one letter at
    a time."""
    a, b, c, d = 1, 0, 0, 1
    for ch in x.word:
        if ch == "s":
            a, b, c, d = b, -a, d, -c
        else:
            a, b, c, d = b, b - a, d, d - c
    return Mat2(a, b, c, d) if x.sign == 1 else Mat2(-a, -b, -c, -d)


def nest(depth):
    """r s (nest of depth - 1) s rr: reducing it deletes one level per
    round of `reduce`, down to the empty word."""
    return "rs" * depth + "srr" * depth


def joined_decompose(m):
    """Referee for `decompose`: the same Euclidean quotients, but one signed
    word per shear power T^q = (-sr)^q or (-rrs)^-q, and one per S^-1 = -s,
    joined right to left and then reduced."""
    from sl2z_semigroups.algebra import _nearest_toward_zero
    quotients = []
    a, b, c, d = m.entries()
    while c != 0:
        q = _nearest_toward_zero(a, c)
        a, b, c, d = -c, -d, a - q * c, b - q * d
        quotients.append(q)

    def t_power(q):
        return SignedWord((-1) ** abs(q), ("sr" if q > 0 else "rrs") * abs(q))
    pieces = [t_power(a * b)]
    for q in reversed(quotients):
        pieces += [SignedWord(-1, "s"), t_power(q)]
    sign = a
    for piece in pieces:
        sign *= piece.sign
    return reduce("".join(piece.word for piece in reversed(pieces)), sign)


class TestMat2:
    def test_generator_orders(self):
        assert S * S == -IDENTITY
        assert R * R * R == -IDENTITY
        assert S.entries() == (0, -1, 1, 0)
        assert R.entries() == (0, -1, 1, 1)

    def test_rejects_other_determinants(self):
        with pytest.raises(AlgebraError):
            Mat2(1, 0, 0, 0)
        with pytest.raises(AlgebraError):
            Mat2(2, 0, 0, 3)

    def test_inverse(self):
        m = Mat2(5, 2, 2, 1)
        assert m * m.inverse() == IDENTITY
        assert m.inverse() * m == IDENTITY


class TestReduce:
    def test_ss_is_minus_identity(self):
        assert reduce("ss", 1) == SignedWord(-1, "")

    def test_already_reduced(self):
        assert reduce("rsr", 1) == SignedWord(1, "rsr")

    def test_cascading(self):
        # rewriting to a fixpoint, cross-checked below against random orders
        assert reduce("rrsrrrs", 1) == SignedWord(1, "rr")

    @given(sr_words, signs, st.integers(0, 2**32))
    def test_confluence_random_orders(self, word, sign, seed):
        rng = random.Random(seed)
        assert reduce(word, sign) == random_order_reduce(word, sign, rng)

    def test_sign_parity_matches_deletion_count(self):
        # deletions remove 2 s's or 3 r's, so their number is determined by
        # the letter counts alone; the sign must match that parity exactly
        for word in all_reduced_words(4):
            for junk in ("ss", "rrr", "ssrrr", "rrrss"):
                for cut in range(len(word) + 1):
                    raw = word[:cut] + junk + word[cut:]
                    res = reduce(raw, 1)
                    deletions = ((raw.count("s") - res.word.count("s")) // 2
                                 + (raw.count("r") - res.word.count("r")) // 3)
                    assert res.sign == (-1) ** deletions

    def test_result_always_reduced(self):
        for word in ("sssss", "rrrrrr", "srsrssrrrs"):
            assert reduce(word, 1).is_reduced()

    def test_equals_the_stack_pass_on_random_raw_words(self):
        rng = random.Random(808)
        for _ in range(3000):
            p_s = rng.choice((0.2, 0.4, 0.5, 0.7))
            raw = "".join("s" if rng.random() < p_s else "r" for _ in range(rng.randint(0, 60)))
            sign = rng.choice((1, -1))
            assert reduce(raw, sign) == stack_reduce(raw, sign), raw

    def test_equals_the_stack_pass_on_nests_deeper_than_the_round_cap(self, monkeypatch):
        stack_passes = []
        monkeypatch.setattr(algebra, "_stack_reduce", lambda raw, sign: (
            stack_passes.append(raw) or stack_reduce(raw, sign)))
        rng = random.Random(909)
        cap = algebra._REDUCE_ROUNDS
        for depth in [*range(3 * cap), 1000]:
            for raw in (nest(depth), "s" + nest(depth) + "rsr",
                        nest(depth).replace("ss", "s" + nest(rng.randint(0, cap)) + "s", 1)):
                for sign in (1, -1):
                    assert reduce(raw, sign) == stack_reduce(raw, sign)
        assert reduce(nest(cap - 1), 1) == SignedWord(1, "")
        # each round takes one level off, and the stack pass gets the rest
        assert nest(1000 - cap) in stack_passes
        stack_passes.clear()
        reduce(nest(cap - 1), 1)
        assert not stack_passes

    def test_letters_outside_s_and_r_are_named(self):
        with pytest.raises(AlgebraError, match="'x'"):
            reduce("ssrxs")


class TestMulInv:
    def test_s_squared(self):
        assert mul(SignedWord(1, "s"), SignedWord(1, "s")) == SignedWord(-1, "")

    def test_minus_r_times_r_squared(self):
        # (-R) R^2 = -R^3 = I, checked against matrices
        x, y = SignedWord(-1, "r"), SignedWord(1, "rr")
        assert mul(x, y) == SignedWord(1, "")
        assert evaluate(x) * evaluate(y) == IDENTITY

    def test_identity_neutral(self):
        w = SignedWord(-1, "rsr")
        assert mul(SignedWord(1, ""), w) == w
        assert mul(w, SignedWord(1, "")) == w

    @given(sr_words, signs, sr_words, signs)
    def test_mul_is_homomorphism(self, w1, s1, w2, s2):
        x = reduce(w1, s1)
        y = reduce(w2, s2)
        assert evaluate(mul(x, y)) == evaluate(x) * evaluate(y)

    def test_inv_examples(self):
        assert inv(SignedWord(1, "s")) == SignedWord(-1, "s")
        assert inv(SignedWord(1, "r")) == SignedWord(-1, "rr")
        assert inv(SignedWord(1, "")) == SignedWord(1, "")

    @given(sr_words, signs)
    def test_inv_cancels(self, w, s):
        x = reduce(w, s)
        assert mul(x, inv(x)) == SignedWord(1, "")
        assert mul(inv(x), x) == SignedWord(1, "")


class TestEvaluate:
    def test_letters(self):
        assert evaluate(SignedWord(1, "s")) == S
        assert evaluate(SignedWord(1, "r")) == R
        assert evaluate(SignedWord(-1, "")) == -IDENTITY

    def test_t_constants(self):
        assert evaluate(SignedWord(-1, "sr")) == T
        assert evaluate(SignedWord(-1, "rrs")) == T.inverse()

    @given(st.text(alphabet="sr", max_size=40), signs)
    def test_matches_product_of_letter_matrices(self, word, sign):
        m = IDENTITY
        for ch in word:
            m = m * {"s": S, "r": R}[ch]
        assert evaluate(SignedWord(sign, word)) == (m if sign == 1 else -m)

    def test_equals_the_letter_loop_at_every_length_to_25(self):
        rng = random.Random(2025)
        for length in range(26):
            for _ in range(40):
                x = SignedWord(rng.choice((1, -1)),
                               "".join(rng.choice("sr") for _ in range(length)))
                assert evaluate(x) == letter_evaluate(x), x

    def test_equals_the_letter_loop_on_a_long_word(self):
        rng = random.Random(100_000)
        x = SignedWord(-1, "".join(rng.choice("sr") for _ in range(100_000)))
        assert evaluate(x) == letter_evaluate(x)


class TestDecompose:
    def test_generator_round_trip(self):
        assert decompose(S) == SignedWord(1, "s")
        assert decompose(R) == SignedWord(1, "r")

    def test_shear_examples(self):
        # (SR)^2 and (SR^2)^2, verified by direct multiplication
        sr2 = S * R * S * R
        assert sr2 == Mat2(1, 2, 0, 1)
        assert decompose(sr2) == SignedWord(1, "srsr")
        lower = S * R * R * S * R * R
        assert lower == Mat2(1, 0, 2, 1)
        assert decompose(lower) == SignedWord(1, "srrsrr")

    def test_round_trip_exhaustive_short(self):
        for word in all_reduced_words(7):
            for sign in (1, -1):
                x = SignedWord(sign, word)
                assert decompose(evaluate(x)) == x

    @given(st.lists(st.tuples(st.booleans(), st.integers(-5, 5)), max_size=25))
    def test_round_trip_random_products(self, steps):
        m = IDENTITY
        t_pow = {1: T, -1: T.inverse()}
        for use_s, k in steps:
            if use_s:
                m = m * S
            elif k:
                step = t_pow[1 if k > 0 else -1]
                for _ in range(abs(k)):
                    m = m * step
        assert evaluate(decompose(m)) == m

    def test_output_reduced(self):
        for word in all_reduced_words(6):
            got = decompose(evaluate(SignedWord(1, word)))
            assert got.is_reduced()

    def test_equals_the_joined_referee_on_random_matrices(self):
        # +-1 times up to 14 factors S or T^k, -6 <= k <= 6
        rng = random.Random(1729)
        for _ in range(6000):
            m = IDENTITY if rng.random() < 0.5 else -IDENTITY
            for _ in range(rng.randint(0, 14)):
                m = m * (S if rng.random() < 0.4 else Mat2(1, rng.randint(-6, 6), 0, 1))
            assert decompose(m) == joined_decompose(m)

    def test_self_check_fires_on_the_from_matrices_path(self, monkeypatch):
        # GeneratorSet.from_matrices does not evaluate the words again, so
        # a corrupt reduction must be caught inside decompose, as a fault
        # of the program, not of its input
        from sl2z_semigroups import algebra
        honest = algebra.reduce
        monkeypatch.setattr(algebra, "reduce", lambda raw, sign=1: honest(raw, -sign))
        with pytest.raises(SelfCheckError, match="self-check failed"):
            GeneratorSet.from_matrices([S * R * S])
        with pytest.raises(SelfCheckError, match="self-check failed"):
            decompose(Mat2(1, 2, 0, 1))

    def test_letters_left_refuses_exactly_the_longer_words(self):
        # the refusal before the letters are built counts 5 deletions per
        # separator; a word of exactly the letters left passes
        rng = random.Random(4242)
        for _ in range(3000):
            m = IDENTITY
            for _ in range(rng.randint(0, 14)):
                m = m * rng.choice((S, R, Mat2(1, rng.randint(-6, 6), 0, 1),
                                    Mat2(1, 0, rng.randint(-6, 6), 1)))
            w = decompose(m)
            assert decompose(m, len(w)) == w
            with pytest.raises(AlgebraError, match="past the letter budget"):
                decompose(m, len(w) - 1)

    def test_letters_left_fires_before_any_letter_is_built(self, monkeypatch):
        # T^-4 S T^100: 12 + 1 + 200 letters, at most 5 of them deleted
        from sl2z_semigroups import algebra
        built = []
        monkeypatch.setattr(algebra, "_t_letters", built.append)
        m = Mat2(1, -4, 0, 1) * S * Mat2(1, 100, 0, 1)
        with pytest.raises(AlgebraError, match="past the letter budget"):
            decompose(m, 207)
        assert built == []

    def test_word_limit_fires_before_any_letter_is_built(self, monkeypatch):
        # lower shear by 10^7: quotients 0, then -10^7 past the limit
        from sl2z_semigroups import algebra
        built = []
        monkeypatch.setattr(algebra, "_t_letters", built.append)
        with pytest.raises(AlgebraError, match="past the word limit"):
            decompose(Mat2(1, 0, 10 ** 7, 1))
        assert built == []

    def test_whole_word_limit_fires_before_any_letter_is_built(self, monkeypatch):
        # (T^1000000 S)^4 has 24-digit entries and every shear is within the
        # limit, but its normal form needs about 8,000,000 letters
        from sl2z_semigroups import algebra
        built = []
        monkeypatch.setattr(algebra, "_t_letters", built.append)
        m = IDENTITY
        for _ in range(4):
            m = m * Mat2(1, 10 ** 6, 0, 1) * S
        with pytest.raises(AlgebraError, match="past the word limit"):
            decompose(m)
        assert built == []

    def test_whole_word_limit_counts_shears_and_separators(self, monkeypatch):
        # T^5 S^-1 T^-7 S^-1 T^4: 10 + 1 + 21 + 1 + 8 = 41 letters before the
        # reduction, which leaves 39
        from sl2z_semigroups import algebra
        s_inv = Mat2(0, 1, -1, 0)
        m = Mat2(1, 5, 0, 1) * s_inv * Mat2(1, -7, 0, 1) * s_inv * Mat2(1, 4, 0, 1)
        monkeypatch.setattr(algebra, "MAX_WORD_LETTERS", 41)
        assert len(decompose(m).word) == 39
        monkeypatch.setattr(algebra, "MAX_WORD_LETTERS", 40)
        with pytest.raises(AlgebraError, match="past the word limit"):
            decompose(m)


class TestQuotientRounding:
    def test_nearest_with_ties_toward_zero(self):
        from sl2z_semigroups.algebra import _nearest_toward_zero as q
        assert q(1, 2) == 0 and q(-1, 2) == 0
        assert q(3, 2) == 1 and q(-3, 2) == -1
        assert q(5, 2) == 2 and q(-5, 2) == -2
        assert q(7, 3) == 2 and q(8, 3) == 3
        assert q(3, -2) == -1 and q(-3, -2) == 1
        assert q(4, 2) == 2 and q(-4, -2) == 2

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_rounding_always_within_half(self, a, c):
        from fractions import Fraction
        from sl2z_semigroups.algebra import _nearest_toward_zero
        if c == 0:
            return
        q = _nearest_toward_zero(a, c)
        assert abs(Fraction(a, c) - q) <= Fraction(1, 2)

    @given(st.integers(-50, 50), st.integers(-12, 12))
    def test_ties_round_toward_zero(self, a, c):
        from fractions import Fraction
        from sl2z_semigroups.algebra import _nearest_toward_zero
        if c == 0:
            return
        f = Fraction(a, c)
        below = f.numerator // f.denominator
        if f - below == Fraction(1, 2):
            expected = below if f > 0 else below + 1
        else:
            expected = round(f)
        assert _nearest_toward_zero(a, c) == expected


class TestGeneratorSet:
    def test_from_matrices_round_trip(self):
        g = GeneratorSet.from_matrices([S, R])
        assert len(g) == 2
        assert g.word(1) == SignedWord(1, "s")
        assert g.product([1, 2]) == S * R

    def test_from_words_normalizes(self):
        g = GeneratorSet.from_words([SignedWord(1, "ss")])
        assert g.word(1) == SignedWord(-1, "")
        assert g.matrix(1) == -IDENTITY

    def test_rejects_empty(self):
        with pytest.raises(AlgebraError):
            GeneratorSet.from_matrices([])

    def test_mismatch_names_the_generator_index(self):
        entries = [Generator(S, SignedWord(1, "s")), Generator(R, SignedWord(1, "s"))]
        with pytest.raises(AlgebraError, match="mismatch for generator 2$"):
            GeneratorSet(entries)

    def test_rejects_empty_product(self):
        g = GeneratorSet.from_matrices([S])
        with pytest.raises(AlgebraError):
            g.product([])


def random_word_of(rng, n, reduced) -> str:
    """n random letters, with no "ss" or "rrr" if `reduced`."""
    w = ""
    while len(w) < n:
        ch = rng.choice("sr")
        if not (reduced and (w + ch).endswith(("ss", "rrr"))):
            w += ch
    return w


def padded_sets(seed, n_sets):
    """(matrices, target) pairs: up to 4 random words and a target, each
    conjugated by one random product of up to 8 letters, so that every word
    carries the same padding at its ends, as the hardness encodings do."""
    rng = random.Random(seed)
    for _ in range(n_sets):
        def word(max_len):
            return random_word_of(rng, rng.randint(0, max_len), reduced=True)
        pad = evaluate(SignedWord(1, word(8)))
        mats = [pad.inverse() * evaluate(SignedWord(rng.choice((1, -1)), word(6))) * pad
                for _ in range(rng.randint(1, 4))]
        yield mats, pad.inverse() * evaluate(SignedWord(1, word(6))) * pad


class TestShortestConjugate:
    """The descent's end-updates, its words, and `GeneratorSet.conjugated`."""

    def test_end_update_is_the_reduced_conjugate_exhaustively(self):
        # every reduced signed word up to 6 letters, conjugated by s, r, rr
        for w in all_reduced_words(6):
            for sign in (1, -1):
                for i, (x, _) in enumerate(algebra._CONJUGATORS):
                    want = mul(mul(inv(SignedWord(1, x)), SignedWord(sign, w)), SignedWord(1, x))
                    letters, signs, keys = [deque(w)], [sign], [algebra._end_key(w)]
                    algebra._conjugate_all(letters, signs, keys, algebra._STEPS[i])
                    assert (signs[0], "".join(letters[0])) == (want.sign, want.word), (w, x)
                    assert keys[0] == algebra._end_key(want.word)
                    assert algebra._DELTAS[algebra._end_key(w)][i] == len(want) - len(w)
                    m = evaluate(SignedWord(1, x))
                    assert evaluate(want) == m.inverse() * evaluate(SignedWord(sign, w)) * m

    def test_words_are_the_decompositions_of_the_conjugates(self):
        for mats, target in padded_sets(11, 300):
            words = [decompose(g) for g in mats + [target]]
            m, conjugates = shortest_conjugate(words)
            assert conjugates == [decompose(m.inverse() * g * m) for g in mats + [target]]
            assert sum(map(len, conjugates)) <= sum(map(len, words))

    def test_the_descent_strips_a_common_padding(self):
        # T^-5 X T^5 for X in {S, R, S R}, of 24, 26 and 2 letters: the shear
        # runs at the ends go
        pad = Mat2(1, 5, 0, 1)
        words = [decompose(pad.inverse() * x * pad) for x in (S, R, S * R)]
        m, conjugates = shortest_conjugate(words)
        assert [len(w) for w in conjugates] == [1, 1, 2]
        assert conjugates == [decompose(m.inverse() * g * m) for g in (evaluate(w) for w in words)]

    def test_work_stays_within_twice_the_letters(self, monkeypatch):
        # T^-2000 S T^2000 beside 300 copies of T: every step updates the
        # copies and none shortens them, so the descent stops after about
        # 70 steps instead of stripping the whole padding
        pad = Mat2(1, 2000, 0, 1)
        words = [decompose(pad.inverse() * S * pad)] + [decompose(T)] * 300
        steps = []
        honest = algebra._conjugate_all
        monkeypatch.setattr(algebra, "_conjugate_all", lambda *args: steps.append(honest(*args)))
        m, conjugates = shortest_conjugate(words)
        assert 0 < len(steps) * len(words) <= 2 * sum(map(len, words))
        assert len(conjugates[0]) < len(words[0])
        assert conjugates == [decompose(m.inverse() * evaluate(w) * m) for w in words]

    def test_no_step_returns_the_words_themselves(self):
        words = [decompose(Mat2(1, 2, 0, 1)), decompose(Mat2(1, 0, 2, 1))]
        assert shortest_conjugate(words) == (IDENTITY, words)
        assert shortest_conjugate(words)[1] is words

    def test_conjugated_set_holds_the_conjugate_matrices(self):
        for mats, target in padded_sets(12, 100):
            gens = GeneratorSet.from_matrices(mats)
            conj, word = gens.conjugated(target)
            m, _ = shortest_conjugate([gens.word(i) for i in range(1, len(gens) + 1)]
                                      + [decompose(target)])
            assert [g.matrix for g in conj] == [m.inverse() * g * m for g in mats]
            assert [g.word for g in conj] == [decompose(g.matrix) for g in conj]
            assert evaluate(word) == m.inverse() * target * m

    def test_self_check_fires_on_a_wrong_conjugate(self, monkeypatch):
        # a descent that claims M = S but leaves the words as they are
        monkeypatch.setattr(algebra, "shortest_conjugate", lambda words: (S, list(words)))
        with pytest.raises(SelfCheckError, match="conjugated word 1 failed its self-check"):
            GeneratorSet.from_matrices([R]).conjugated()

    def test_letter_budget_counts_the_conjugated_words_and_the_target(self, monkeypatch):
        # the free pair: 4 and 6 letters, which the descent leaves as they are
        gens = GeneratorSet.from_matrices([Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)])
        monkeypatch.setattr(algebra, "MAX_PROBLEM_LETTERS", 14)
        gens.conjugated(Mat2(1, 2, 0, 1))
        monkeypatch.setattr(algebra, "MAX_PROBLEM_LETTERS", 13)
        with pytest.raises(AlgebraError, match="past the letter budget.* more than 13 letters"):
            gens.conjugated(Mat2(1, 2, 0, 1))
        gens.conjugated()
        # T^-5 R T^5 has 26 letters, and its conjugate r has 1
        padded = GeneratorSet.from_matrices([Mat2(1, -5, 0, 1) * R * Mat2(1, 5, 0, 1)])
        assert len(padded.word(1)) > 13 and len(padded.conjugated()[0].word(1)) <= 13

    def test_words_past_twice_the_budget_are_refused_before_the_descent(self, monkeypatch):
        # T^-5 R T^5 has 26 letters and its conjugate r has 1, but the
        # descent would hold all 26 in a deque
        padded = GeneratorSet.from_matrices([Mat2(1, -5, 0, 1) * R * Mat2(1, 5, 0, 1)])
        monkeypatch.setattr(algebra, "MAX_PROBLEM_LETTERS", 13)
        assert len(padded.conjugated()[0].word(1)) == 1
        monkeypatch.setattr(algebra, "MAX_PROBLEM_LETTERS", 12)
        monkeypatch.setattr(algebra, "shortest_conjugate",
                            lambda words: pytest.fail("the descent ran"))
        with pytest.raises(AlgebraError, match="past the letter budget.* more than 24 letters"):
            padded.conjugated()


class TestDecimalStrings:
    """Entries past the interpreter's limit on int/str conversion digits
    (Python >= 3.11) convert without changing that limit."""

    def big_values(self):
        return [10 ** 4300, 7 ** 9000 + 1, -(3 ** 12000), 10 ** 9001 - 1]

    def test_round_trip_past_the_limit(self):
        import sys
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        for n in self.big_values():
            text = decimal_str(n)
            assert text.lstrip("-").isdigit() and len(text) > 4300
            assert decimal_int(text) == n
            assert decimal_int(text) == sum(
                int(ch) * 10 ** k for k, ch in enumerate(reversed(text.lstrip("-")))
            ) * (-1 if n < 0 else 1)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_short_values_are_str_and_int(self):
        for n in (0, 1, -1, 10 ** 30, -(2 ** 200)):
            assert decimal_str(n) == str(n)
            assert decimal_int(str(n)) == n

    @pytest.mark.parametrize("text", ["", "-", "--5", "1" * 5000 + "x", "+" + "1" * 5000])
    def test_rejects_what_int_rejects(self, text):
        with pytest.raises(ValueError):
            decimal_int(text)
