"""Grammar machinery against the phi-evaluation oracle.

Ground truth throughout: evaluate every candidate word letter by letter and
compare matrices.  The grammar layer must agree with that on exhaustive
small ranges.  Growth-cycle search and enumeration take proper grammars,
so general grammars go through the test-side proper form first.
"""

from itertools import product as iproduct

import pytest

from sl2z_semigroups.algebra import (
    IDENTITY, R, S, GeneratorSet, SignedWord, evaluate, reduce,
)
from sl2z_semigroups.grammars import (
    Grammar, GrammarError, IntersectionEngine, build_marked_semigroup_dfa,
    build_target_grammar, enumerate_words, find_growth_cycle, intersect,
    lift_over_markers, words_up_to,
)

from brute import all_reduced_words
from grammar_referee import classic_is_finite, proper_form, trim

F_A = evaluate(SignedWord(1, "srsr"))
F_B = evaluate(SignedWord(1, "srrsrr"))


def phi_words(target_matrix, max_len):
    """Oracle: all words up to max_len whose letterwise value is the matrix."""
    out = set()
    for length in range(max_len + 1):
        for tup in iproduct("sr", repeat=length):
            if evaluate(reduce("".join(tup), 1)) == target_matrix:
                out.add(tup)
    return out


def all_reduced_targets(max_len):
    return [SignedWord(sign, w) for w in all_reduced_words(max_len) for sign in (1, -1)]


class TestTargetGrammar:
    def test_identity_target_examples(self):
        g = build_target_grammar(SignedWord(1, ""))
        words = words_up_to(g, 4)
        assert () in words
        assert ("s", "s") not in words
        assert ("s", "s", "s", "s") in words

    def test_s_target_examples(self):
        g = build_target_grammar(SignedWord(1, "s"))
        words = words_up_to(g, 5)
        assert ("s",) in words
        assert ("s",) * 3 not in words
        assert ("s",) * 5 in words

    def test_neg_identity_examples(self):
        g = build_target_grammar(SignedWord(-1, ""))
        words = words_up_to(g, 3)
        assert ("s", "s") in words
        assert ("r", "r", "r") in words
        assert () not in words

    def test_rejects_unreduced_target(self):
        with pytest.raises(GrammarError):
            build_target_grammar(SignedWord(1, "ss"))

    @pytest.mark.parametrize("target", all_reduced_targets(3))
    def test_agrees_with_phi_oracle(self, target):
        g = build_target_grammar(target)
        assert words_up_to(g, 7) == phi_words(evaluate(target), 7)

    def test_trivial_nonterminals_exhaustive(self):
        # N+ derives exactly the value-I words, N- the value-(-I) words
        gp = build_target_grammar(SignedWord(1, ""))
        gm = build_target_grammar(SignedWord(-1, ""))
        assert words_up_to(gp, 7) == phi_words(IDENTITY, 7)
        assert words_up_to(gm, 7) == phi_words(-IDENTITY, 7)


class TestLift:
    def test_epsilon_language_becomes_marker_star(self):
        base = Grammar({"X"}, {"s"}, [("X", ())], "X")
        lifted = lift_over_markers(base, ["#1"])
        assert words_up_to(lifted, 2) == {(), ("#1",), ("#1", "#1")}

    def test_interleavings(self):
        base = Grammar({"X"}, {"s"}, [("X", ("s",))], "X")
        lifted = lift_over_markers(base, ["#1", "#2"])
        words = words_up_to(lifted, 4)
        assert ("#2", "s") in words
        assert ("s",) in words
        assert ("#1", "#1", "s", "#2") in words
        assert ("s", "s") not in words

    def test_erasure_lands_in_base_language(self):
        base = build_target_grammar(SignedWord(-1, ""))
        lifted = lift_over_markers(base, ["#1"])
        base_words = words_up_to(base, 6)
        for w in words_up_to(lifted, 6):
            erased = tuple(x for x in w if x != "#1")
            assert erased in base_words


class TestMarkedDfa:
    def test_marker_mandatory(self):
        d = build_marked_semigroup_dfa(GeneratorSet.from_matrices([S]))
        assert d.run(("#1", "s"))
        assert d.run(("#1", "s", "#1", "s"))
        assert not d.run(("s",))
        assert not d.run(())

    def test_two_generator_blocks(self):
        d = build_marked_semigroup_dfa(GeneratorSet.from_matrices([F_A, F_B]))
        w2 = ("#2",) + tuple("srrsrr") + ("#1",) + tuple("srsr")
        assert d.run(w2)
        assert not d.run(("#2",) + tuple("srsr"))

    def test_empty_word_generator(self):
        d = build_marked_semigroup_dfa(GeneratorSet.from_matrices([-IDENTITY]))
        assert d.run(("#1",))
        assert d.run(("#1", "#1"))

    def test_decode(self):
        d = build_marked_semigroup_dfa(GeneratorSet.from_matrices([F_A, F_B]))
        w = ("#2",) + tuple("srrsrr") + ("#1",) + tuple("srsr")
        assert d.decode(w) == [2, 1]

    def test_marker_bijection(self):
        # distinct index sequences give distinct marked words, and decoding
        # the spelled word recovers the sequence
        import itertools
        gens = GeneratorSet.from_matrices([S, -IDENTITY, F_A])
        d = build_marked_semigroup_dfa(gens)
        seen = {}
        for length in (1, 2, 3):
            for seq in itertools.product((1, 2, 3), repeat=length):
                w = ()
                for i in seq:
                    w += (d.markers[i - 1],) + tuple(gens.word(i).word)
                assert d.run(w)
                assert tuple(d.decode(w)) == seq
                assert w not in seen
                seen[w] = seq

    def test_markers_are_numbered_from_one(self):
        gens = GeneratorSet.from_matrices([S, -IDENTITY, F_A])
        d = build_marked_semigroup_dfa(gens)
        assert d.markers == ("#1", "#2", "#3")
        assert d.alphabet == ("#1", "#2", "#3", "s", "r")

    def test_sign_parity_refinement(self):
        gens = GeneratorSet.from_matrices([-S])  # sign -1 generator
        plus = build_marked_semigroup_dfa(gens, sign_parity=1)
        minus = build_marked_semigroup_dfa(gens, sign_parity=-1)
        one = ("#1", "s")
        two = one + one
        assert not plus.run(one) and minus.run(one)
        assert plus.run(two) and not minus.run(two)


class TestIntersect:
    def test_s_semigroup_neg_identity(self):
        gens = GeneratorSet.from_matrices([S])
        d = build_marked_semigroup_dfa(gens)
        g = lift_over_markers(build_target_grammar(SignedWord(-1, "")), d.markers)
        gi = intersect(g, d)
        words = words_up_to(gi, 4)
        assert ("#1", "s", "#1", "s") in words
        assert ("#1", "s") not in words

    def test_empty_when_no_identity(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        d = build_marked_semigroup_dfa(gens)
        g = lift_over_markers(build_target_grammar(SignedWord(1, "")), d.markers)
        assert not proper_form(intersect(g, d)).productions

    @pytest.mark.parametrize("mats,target,bound", [
        ([S], SignedWord(-1, ""), 8),
        ([S], SignedWord(1, "s"), 8),
        ([S, R], SignedWord(1, "s"), 6),
        ([-IDENTITY], SignedWord(1, ""), 8),
        ([F_A], SignedWord(1, "srsr"), 8),
    ])
    def test_against_brute_force(self, mats, target, bound):
        # membership in the intersection <=> membership in both languages
        gens = GeneratorSet.from_matrices(mats)
        d = build_marked_semigroup_dfa(gens)
        g = lift_over_markers(build_target_grammar(target), d.markers)
        gi = intersect(g, d)
        expected = {w for w in words_up_to(g, bound) if d.run(w)}
        assert words_up_to(gi, bound) == expected


class TestIntersectionEngine:
    def filled(self):
        gens = GeneratorSet.from_matrices([S, R])
        d = build_marked_semigroup_dfa(gens)
        g = lift_over_markers(build_target_grammar(SignedWord(-1, "")), d.markers)
        eng = IntersectionEngine(d)
        eng.add_rules(g.productions)
        return g, eng

    def test_rules_are_added_once(self):
        g, eng = self.filled()
        with pytest.raises(GrammarError):
            eng.add_rules(g.productions)

    def test_clone_keeps_items_and_grammar(self):
        g, eng = self.filled()
        twin = eng.clone()
        assert twin.from_idx == eng.from_idx and twin.to_idx == eng.to_idx
        assert twin.from_idx is not eng.from_idx
        ours, theirs = (e.extract_grammar(g.start, g.terminals) for e in (eng, twin))
        assert ours.productions
        assert (ours.nonterminals, ours.start) == (theirs.nonterminals, theirs.start)
        assert sorted(ours.productions, key=repr) == sorted(theirs.productions, key=repr)
        with pytest.raises(GrammarError):
            twin.add_rules(g.productions)


class TestAnalyses:
    def test_trim_drops_useless(self):
        g = Grammar({"X", "Dead", "Loop"}, {"s"},
                    [("X", ("s",)), ("Dead", ("s",)), ("Loop", ("Loop",))], "X")
        t = trim(g)
        assert t.nonterminals == {"X"}

    def test_empty_language(self):
        g = Grammar({"X"}, {"s"}, [("X", ("X",))], "X")
        assert not trim(g).productions
        assert trim(Grammar({"X"}, {"s"}, [("X", ())], "X")).productions

    def test_infinite_when_identity_repeats(self):
        gens = GeneratorSet.from_matrices([S])
        d = build_marked_semigroup_dfa(gens)
        g = lift_over_markers(build_target_grammar(SignedWord(-1, "")), d.markers)
        gi = proper_form(intersect(g, d))
        assert gi.productions
        assert find_growth_cycle(gi) is not None

    def test_finite_singleton(self):
        g = Grammar({"X"}, {"s", "r"}, [("X", ("s", "r"))], "X")
        assert find_growth_cycle(g) is None
        res = enumerate_words(g)
        assert res.exact and res.words == frozenset({("s", "r")}) and res.count == 1

    def test_unit_cycle_with_finite_language(self):
        # a dependency cycle without growth must still count as finite
        g = Grammar({"A", "B"}, {"s"},
                    [("A", ("B",)), ("B", ("A",)), ("A", ("s",))], "A")
        assert classic_is_finite(g)
        res = enumerate_words(proper_form(g))
        assert res.exact and res.words == frozenset({("s",)})

    def test_nullable_cycle_finite(self):
        g = Grammar({"A"}, {"s"}, [("A", ("A", "A")), ("A", ()), ("A", ("s",))], "A")
        # A A with both sides able to be nonempty pumps: infinite
        assert not classic_is_finite(g)
        assert find_growth_cycle(proper_form(g)) is not None

    def test_finiteness_agrees_with_bounded_growth(self):
        # structural cross-check: finite <=> no new words between B and 2B
        cases = []
        gens = GeneratorSet.from_matrices([S])
        d = build_marked_semigroup_dfa(gens)
        cases.append(intersect(
            lift_over_markers(build_target_grammar(SignedWord(-1, "")), d.markers), d))
        cases.append(Grammar({"X"}, {"s", "r"}, [("X", ("s", "r"))], "X"))
        cases.append(Grammar({"A"}, {"s"}, [("A", ("s",)), ("A", ())], "A"))
        for g in cases:
            bound = 2 * max(4, len(trim(g).nonterminals))
            bound = min(bound, 12)  # keep the cross-check tractable
            lo = words_up_to(g, bound)
            hi = words_up_to(g, 2 * bound)
            assert (find_growth_cycle(proper_form(g)) is None) == (lo == hi)


class TestEnumerate:
    def test_epsilon_language(self):
        # the proper form drops the empty word, which is all X derives
        g = Grammar({"X"}, {"s"}, [("X", ())], "X")
        assert words_up_to(g, 3) == {()}
        res = enumerate_words(proper_form(g))
        assert res.exact and res.words == frozenset() and res.count == 0

    def test_two_word_language(self):
        g = Grammar({"X"}, {"s", "r"}, [("X", ("s",)), ("X", ("r", "r"))], "X")
        res = enumerate_words(g)
        assert res.exact and res.words == {("s",), ("r", "r")} and res.count == 2

    def test_cap_exceeded(self):
        g = Grammar({"X"}, {"s", "r"},
                    [("X", ("s",)), ("X", ("r",)), ("X", ("s", "r"))], "X")
        res = enumerate_words(g, cap=2)
        assert not res.exact and res.cap == 2 and res.cycle is None

    def test_infinite_needs_cap(self):
        g = Grammar({"X"}, {"s"}, [("X", ("s",)), ("X", ("s", "X"))], "X")
        with pytest.raises(GrammarError):
            enumerate_words(g)
        res = enumerate_words(g, cap=5)
        assert not res.exact and res.cap == 5
        assert res.cycle == find_growth_cycle(g)

    def test_growth_cycle_follows_the_first_back_edge(self):
        # S -> a A; A -> b B; B -> c | c A: the stem S -> A, the loop A -> B -> A
        g = Grammar({"S", "A", "B"}, {"a", "b", "c"},
                    [("S", ("a", "A")), ("A", ("b", "B")), ("B", ("c",)),
                     ("B", ("c", "A"))], "S")
        stem, loop = find_growth_cycle(g)
        assert stem == [("S", ("a", "A"), 1)]
        assert loop == [("A", ("b", "B"), 1), ("B", ("c", "A"), 1)]

    def test_shared_nonterminals_enumerate_once(self):
        # X -> Y Y | Y s and Y -> s | r r share Y; "ss" and "rrs" come twice
        g = Grammar({"X", "Y"}, {"s", "r"},
                    [("X", ("Y", "Y")), ("X", ("Y", "s")), ("Y", ("s",)),
                     ("Y", ("r", "r"))], "X")
        res = enumerate_words(g)
        assert res.exact and res.words == frozenset(words_up_to(g, 8))
        assert res.count == 4
