"""Cancellation automata and saturation.

Independent oracle: bounded path enumeration.  Every edge path of length up
to a bound is walked and its word reduced directly, giving the ground-truth
trivial-path relation to compare saturation against.
"""

import random
import sys

import pytest

from sl2z_semigroups.algebra import (
    IDENTITY, R, S, GeneratorSet, SignedWord, evaluate, inv, reduce,
)
from sl2z_semigroups.automata import (
    AutomatonError, CancellationAutomaton, WitnessError, build_freeness_automaton,
    build_loop_automaton, build_membership_automaton, build_pattern_automaton,
    decode_pattern_witness, extract_path, extract_witness, path_sequence, saturate,
)
from sl2z_semigroups.algebra import decompose

from brute import brute_trivial_relation

F_A = evaluate(SignedWord(1, "srsr"))
F_B = evaluate(SignedWord(1, "srrsrr"))


class TestLoopAutomaton:
    def test_single_letter_chain(self):
        auto = build_loop_automaton(GeneratorSet.from_matrices([S]))
        assert auto.n_states == 1
        assert auto.edges == [(0, 0, "s", 1)]
        assert auto.goal == (0, 0, 1)

    def test_neg_identity_epsilon_edge(self):
        auto = build_loop_automaton(GeneratorSet.from_matrices([-IDENTITY]))
        assert auto.edges == [(0, 0, None, -1)]

    def test_chain_lengths(self):
        # srsr and srrsrr share the suffix r: the hub, 3 states of srsr and
        # 4 more of srrsrr; 4 edges for srsr and 5 more for srrsrr
        auto = build_loop_automaton(GeneratorSet.from_matrices([F_A, F_B]))
        assert len(auto.edges) == 4 + 5
        assert auto.n_states == 1 + 3 + 4
        assert sorted(auto.opens.values()) == [1, 2]
        assert all(auto.edges[e][0] == auto.initial for e in auto.opens)
        assert auto.goal == (auto.initial, auto.final, 1) == (0, 0, 1)

    def test_generator_sign_on_first_edge(self):
        auto = build_loop_automaton(GeneratorSet.from_matrices([-S]))
        assert auto.edges == [(0, 0, "s", -1)]


class TestSaturation:
    def test_s_loop_relation(self):
        auto = build_loop_automaton(GeneratorSet.from_matrices([S]))
        sat = saturate(auto)
        assert sat.triples == {(0, 0, -1), (0, 0, 1)}

    def test_free_generator_empty(self):
        auto = build_loop_automaton(GeneratorSet.from_matrices([F_A]))
        assert len(saturate(auto)) == 0

    def test_free_pair_loop_empty(self):
        auto = build_loop_automaton(GeneratorSet.from_matrices([F_A, F_B]))
        assert len(saturate(auto)) == 0

    @pytest.mark.parametrize("mats", [
        [S], [R], [-IDENTITY], [S, R], [S, -S], [S, R, -IDENTITY], [F_A],
    ])
    def test_matches_path_enumeration(self, mats):
        auto = build_loop_automaton(GeneratorSet.from_matrices(mats))
        sat = saturate(auto)
        brute = brute_trivial_relation(auto, 12)
        assert brute <= sat.triples
        # small automata: every triple also has a short witness
        assert sat.triples == brute

    def test_pattern_matches_path_enumeration(self):
        gens = GeneratorSet.from_matrices([S, R])
        auto = build_pattern_automaton(1, 2, gens)
        sat = saturate(auto)
        brute = brute_trivial_relation(auto, 12)
        assert brute <= sat.triples

    def test_soundness_every_triple_extracts(self):
        for mats in ([S], [S, R], [-IDENTITY, R]):
            auto = build_loop_automaton(GeneratorSet.from_matrices(mats))
            sat = saturate(auto)
            for (q, p, sigma) in sat.triples:
                path = extract_path(auto, sat, q, p, sigma)
                assert auto.path_value(path) == SignedWord(sigma, "")

    def test_goal_from_a_state_with_a_lead_raises(self):
        # the lead bound counts marks from the hub, so a goal must start
        # where no mark is needed to arrive
        auto = build_loop_automaton(GeneratorSet.from_matrices([F_A, F_B]))
        start = next(x for x, ms in enumerate(auto.lead) if ms)
        with pytest.raises(AutomatonError, match="lead"):
            saturate(auto, (start, auto.initial, 1))

    def test_monotone_under_new_generators(self):
        small = build_loop_automaton(GeneratorSet.from_matrices([S]))
        big = build_loop_automaton(GeneratorSet.from_matrices([S, R]))
        assert saturate(small).triples <= saturate(big).triples


class TestWitnesses:
    def test_s_identity_witness(self):
        gens = GeneratorSet.from_matrices([S])
        auto = build_loop_automaton(gens)
        sat = saturate(auto)
        assert extract_witness(auto, sat, 0, 0, 1) == [1, 1, 1, 1]

    def test_neg_identity_witness(self):
        gens = GeneratorSet.from_matrices([-IDENTITY])
        auto = build_loop_automaton(gens)
        sat = saturate(auto)
        assert extract_witness(auto, sat, 0, 0, 1) == [1, 1]

    def test_deep_derivation_needs_no_call_stack(self):
        # the witness of {150, 250}, x = 400 has a derivation ~1700 levels
        # deep; expanding it recursively overflowed the default limit
        from sl2z_semigroups.encodings import encode_subset_sum
        gens = encode_subset_sum([150, 250], 400).generators
        auto = build_loop_automaton(gens)
        sat = saturate(auto)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            path = extract_path(auto, sat, auto.initial, auto.final, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert auto.path_value(path) == SignedWord(1, "")

    def test_missing_triple_raises(self):
        gens = GeneratorSet.from_matrices([F_A])
        auto = build_loop_automaton(gens)
        sat = saturate(auto)
        with pytest.raises(WitnessError):
            extract_path(auto, sat, 0, 0, 1)


class TestPatternAutomaton:
    def test_rejects_equal_indices(self):
        gens = GeneratorSet.from_matrices([S, R])
        with pytest.raises(AutomatonError):
            build_pattern_automaton(1, 1, gens)

    def test_duplicate_generators_trivially_accepted(self):
        gens = GeneratorSet.from_matrices([S, S])
        auto = build_pattern_automaton(1, 2, gens)
        assert auto.goal == (auto.initial, auto.final, 1)
        sat = saturate(auto)
        assert sat.has(auto.initial, auto.final, 1)
        path = extract_path(auto, sat, auto.initial, auto.final, 1)
        alpha, beta = decode_pattern_witness(auto, path)
        assert (alpha, beta) == ([1], [2])
        assert gens.product(alpha) == gens.product(beta)

    def test_free_pair_has_no_collision_path(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        auto = build_pattern_automaton(1, 2, gens)
        sat = saturate(auto)
        assert not sat.has(auto.initial, auto.final, 1)

    def test_decoded_pair_verifies(self):
        gens = GeneratorSet.from_matrices([S, R])
        auto = build_pattern_automaton(1, 2, gens)
        sat = saturate(auto)
        path = extract_path(auto, sat, auto.initial, auto.final, 1)
        alpha, beta = decode_pattern_witness(auto, path)
        assert alpha != beta
        assert alpha[0] == 1 and beta[0] == 2
        assert gens.product(alpha) == gens.product(beta)


class TestMembershipAutomaton:
    def test_product_of_free_pair(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        target = F_A * F_B
        auto = build_membership_automaton(gens, decompose(target))
        assert auto.final != auto.initial
        assert auto.goal == (auto.initial, auto.final, 1) == (0, auto.final, 1)
        sat = saturate(auto)
        assert sat.has(auto.initial, auto.final, 1)
        assert extract_witness(auto, sat, auto.initial, auto.final, 1) == [1, 2]

    def test_non_member(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        auto = build_membership_automaton(gens, decompose(S))
        sat = saturate(auto)
        assert not sat.has(auto.initial, auto.final, 1)

    def test_chain_carries_the_sign_and_the_goal_is_positive(self):
        # inv(S) = -S: the chain's first edge carries the sign, not the goal
        gens = GeneratorSet.from_matrices([S])
        auto = build_membership_automaton(gens, decompose(S))
        assert auto.edges[-1] == (0, auto.final, "s", -1)
        assert auto.goal == (0, auto.final, 1)
        assert extract_witness(auto, saturate(auto, auto.goal), *auto.goal) == [1]

    def test_signed_identity_target_is_the_loop_automaton(self):
        # for +-I the chain is empty: the loop automaton, whose goal
        # carries the target's sign
        rng = random.Random(2016)
        sets = [GeneratorSet.from_matrices([S]), GeneratorSet.from_matrices([-IDENTITY])]
        for _ in range(60):
            sets.append(GeneratorSet.from_words([
                reduce("".join(rng.choice("sr") for _ in range(rng.randint(0, 8))),
                       rng.choice((1, -1)))
                for _ in range(rng.randint(1, 4))]))
        for gens in sets:
            loop = build_loop_automaton(gens)
            assert loop.goal == (0, 0, 1)
            for sign in (1, -1):
                auto = build_membership_automaton(gens, SignedWord(sign, ""))
                assert auto.kind == "loop"
                assert (auto.n_states, auto.edges, auto.marks, auto.opens) == \
                    (loop.n_states, loop.edges, loop.marks, loop.opens)
                assert auto.goal == (0, 0, sign)


class TestWitnessDecodingRejects:
    """Decoding accepts only paths in the shape of the automaton's witnesses:
    one joined path of whole loops from the hub, closed on a membership
    automaton by the target chain, or one joined path from an initial tap
    to a final tap on a pattern or freeness automaton.  Every other edge
    path raises instead of decoding."""

    def loop_pair(self):
        """The loops of F_A and -F_A, found by their structure.  Both spell
        srsr, so they share the path r s r back to the hub and differ in
        their own first edges, which carry the signs."""
        auto = build_loop_automaton(GeneratorSet.from_matrices([F_A, -F_A]))
        edges = auto.edges
        own = {g: e for e, g in auto.opens.items()}
        at = edges[own[1]][1]
        assert edges[own[2]][1] == at
        shared = []
        while at != auto.initial:
            (e,) = [e for e, edge in enumerate(edges) if edge[0] == at]
            shared.append(e)
            at = edges[e][1]
        loops = [own[1]] + shared, [own[2]] + shared
        assert [[edges[e][2:] for e in loop] for loop in loops] == [
            [("s", 1), ("r", 1), ("s", 1), ("r", 1)],
            [("s", -1), ("r", 1), ("s", 1), ("r", 1)],
        ]
        return auto, loops

    def test_whole_chains_decode(self):
        auto, (first, second) = self.loop_pair()
        assert path_sequence(auto, second + first) == [2, 1]

    def test_path_starting_mid_chain(self):
        # joined, and back at the hub, but it starts inside the first loop
        auto, (first, second) = self.loop_pair()
        with pytest.raises(WitnessError):
            path_sequence(auto, first[1:] + second)

    def test_path_cut_inside_a_chain(self):
        auto, (first, second) = self.loop_pair()
        with pytest.raises(WitnessError):
            path_sequence(auto, first + second[:2])

    def test_first_edge_of_one_chain_then_the_rest_of_another(self):
        # from the hub back to it, with one own edge, but after the first
        # loop the shared edges start away from the hub: the edges do not join
        auto, (first, second) = self.loop_pair()
        with pytest.raises(WitnessError):
            path_sequence(auto, first + second[1:])

    def test_membership_path_without_the_target_chain(self):
        gens = GeneratorSet.from_matrices([F_A, F_B])
        target = decompose(F_A * F_B)
        auto = build_membership_automaton(gens, target)
        sat = saturate(auto)
        path = extract_path(auto, sat, auto.initial, auto.final, 1)
        assert path_sequence(auto, path) == [1, 2]
        loops_only = path[:-len(target.word)]
        assert path_sequence(build_loop_automaton(gens), loops_only) == [1, 2]
        with pytest.raises(WitnessError):
            path_sequence(auto, loops_only)

    def test_membership_path_of_the_target_chain_alone(self):
        # joined, from the hub to the final state, but through no loop
        gens = GeneratorSet.from_matrices([F_A, F_B])
        target = decompose(F_A * F_B)
        auto = build_membership_automaton(gens, target)
        sat = saturate(auto)
        path = extract_path(auto, sat, auto.initial, auto.final, 1)
        chain_only = path[-len(target.word):]
        assert not any(e in auto.opens for e in chain_only)
        with pytest.raises(WitnessError, match="at least one generator"):
            path_sequence(auto, chain_only)

    def test_pattern_path_not_from_entry_to_exit(self):
        gens = GeneratorSet.from_matrices([S, R])
        auto = build_pattern_automaton(1, 2, gens)
        sat = saturate(auto)
        path = extract_path(auto, sat, auto.initial, auto.final, 1)
        decode_pattern_witness(auto, path)
        entry = len(gens.word(1).word)
        exit_ = len(inv(gens.word(2)).word)
        for cut in (path[entry:], path[:-exit_]):
            with pytest.raises(WitnessError):
                decode_pattern_witness(auto, cut)

    def s_twice(self):
        """Pattern (1, 2) of {S, S} and its edges, found by their ends: the
        initial tap, the epsilon edge from A to B, the final tap, and a loop
        s at A.  S^-1 = -S, so the final tap is an s edge of weight -1."""
        gens = GeneratorSet.from_matrices([S, S])
        auto = build_pattern_automaton(1, 2, gens)
        edges = auto.edges
        (entry,) = [e for e, edge in enumerate(edges) if edge[0] == auto.initial]
        (exit_,) = [e for e, edge in enumerate(edges) if edge[1] == auto.final]
        a, b = edges[entry][1], edges[exit_][0]
        (bridge,) = [e for e, edge in enumerate(edges) if edge == (a, b, None, 1)]
        loop = next(e for e, edge in enumerate(edges) if edge == (a, a, "s", 1))
        assert edges[entry] == (auto.initial, a, "s", 1)
        assert edges[exit_] == (b, auto.final, "s", -1)
        return gens, auto, entry, bridge, exit_, loop

    def test_pattern_path_from_the_loops_at_a(self):
        # with S twice, the path A --s--> A --eps--> B --(-s)--> final would
        # decode to the equal products [1] and [2], but it skips the
        # initial tap
        gens, auto, entry, bridge, exit_, loop = self.s_twice()
        assert decode_pattern_witness(auto, [entry, bridge, exit_]) == ([1], [2])
        with pytest.raises(WitnessError):
            decode_pattern_witness(auto, [loop, bridge, exit_])

    def test_pattern_path_that_breaks_off(self):
        # both taps, and [1] and [2] multiply alike, but no edge joins them
        gens, auto, entry, bridge, exit_, loop = self.s_twice()
        with pytest.raises(WitnessError):
            decode_pattern_witness(auto, [entry, exit_])

    def test_freeness_path_from_initial_i_to_final_i(self):
        # with S twice, initial_1 --s--> A --eps--> B --(-s)--> final_1 runs
        # from a tap to a tap, but it decodes to [1] twice: no collision
        gens = GeneratorSet.from_matrices([S, S])
        auto, _ = build_freeness_automaton(gens)
        edges = auto.edges
        entry = {g: e for e, g in auto.heads.items()}
        exit_ = {g: e for e, g in auto.tails.items()}
        (bridge,) = auto.eps_edges
        a, b = edges[bridge][:2]
        assert [edges[entry[1]][1], edges[exit_[1]][0], edges[exit_[2]][0]] == [a, b, b]
        assert decode_pattern_witness(auto, [entry[1], bridge, exit_[2]]) == ([1], [2])
        with pytest.raises(WitnessError, match="identical"):
            decode_pattern_witness(auto, [entry[1], bridge, exit_[1]])

    def freeness_witness(self):
        """{S, R} on the freeness automaton: pair (1, 2)'s witness path."""
        gens = GeneratorSet.from_matrices([S, R])
        auto, goals = build_freeness_automaton(gens)
        (pair, goal), = goals
        sat = saturate(auto, goal)
        path = extract_path(auto, sat, *goal)
        alpha, beta = decode_pattern_witness(auto, path)
        assert (alpha[0], beta[0]) == pair
        assert gens.product(alpha) == gens.product(beta)
        return gens, auto, path

    def test_freeness_single_final_tap(self):
        gens, auto, _ = self.freeness_witness()
        for tap in auto.tails:
            with pytest.raises(WitnessError):
                decode_pattern_witness(auto, [tap])

    def test_freeness_path_cut_after_its_initial_tap(self):
        gens, auto, path = self.freeness_witness()
        for cut in (path[:1], path[1:]):
            with pytest.raises(WitnessError):
                decode_pattern_witness(auto, cut)

    def test_freeness_path_ending_before_its_final_tap(self):
        gens, auto, path = self.freeness_witness()
        with pytest.raises(WitnessError):
            decode_pattern_witness(auto, path[:-1])


class TestRecurrentFixtureAutomaton:
    def test_relation_nonempty_but_acyclic(self):
        # partial cancellations bridge states, yet no trivial cycle exists
        # (the semigroup has no +-I element)
        from sl2z_semigroups.encodings import recurrent_without_identity_fixture
        fx = recurrent_without_identity_fixture()
        auto = build_loop_automaton(fx.generators)
        sat = saturate(auto)
        assert len(sat) > 0
        assert all(q != p for (q, p, _) in sat.triples)
        # soundness spot-check on a slice of the relation
        for triple in sorted(sat.triples)[:25]:
            path = extract_path(auto, sat, *triple)
            assert auto.path_value(path) == SignedWord(triple[2], "")


class TestEpsilonCycle:
    """A trivial cycle anywhere in a loop automaton's relation forces +-I at
    the hub, which is why finite_freeness only looks at the hub."""

    @pytest.mark.parametrize("mats", [
        [S], [R], [-IDENTITY], [F_A], [F_A, F_B], [S, R],
    ])
    def test_cycle_iff_plus_minus_identity_at_hub(self, mats):
        auto = build_loop_automaton(GeneratorSet.from_matrices(mats))
        sat = saturate(auto)
        has_cycle = any(q == p for (q, p, _) in sat)
        at_hub = sat.has(0, 0, 1) or sat.has(0, 0, -1)
        assert has_cycle == at_hub


# -- referee of the loop layout ------------------------------------------------
# The builders lay each loop's new states as one run and walk the shared
# part of the tree only; these copies lay every loop a letter at a time
# through a (state, letter) dict, and record the first loop through each
# state in a dict.  Every field of every automaton must come out equal.

def _referee_hub_loops(auto, hub, gens, first_loop):
    edges = auto.edges
    n = auto.n_states
    firsts = []
    into = {}
    for g in range(1, len(gens) + 1):
        w = gens.word(g)
        node = hub
        for ch in reversed(w.word[1:]):
            src = into.get((node, ch))
            if src is None:
                src = into[node, ch] = n
                first_loop[n] = g
                n += 1
                edges.append((src, node, ch, 1))
            node = src
        auto.opens[len(edges)] = g
        firsts.append(len(edges))
        edges.append((hub, node, w.word[:1] or None, w.sign))
    auto.n_states = n
    return firsts


def _referee_index(auto, first_loop):
    auto.index()
    auto.lead = [()] * auto.n_states
    for x, g in first_loop.items():
        auto.lead[x] = (g,)
    return auto


def referee_hub_automaton(gens, target_word):
    w = inv(target_word)
    auto = CancellationAutomaton("membership" if w.word else "loop")
    auto.initial = 0
    auto.n_states = 1
    first_loop = {}
    _referee_hub_loops(auto, 0, gens, first_loop)
    n = auto.n_states
    auto.n_states = n + len(w.word)
    prev, weight = 0, w.sign
    for ch, nxt in zip(w.word, [*range(n + 1, n + len(w.word)), n]):
        auto.edges.append((prev, nxt, ch, weight))
        prev, weight = nxt, 1
    auto.final = prev
    auto.goal = (0, prev, weight)
    return _referee_index(auto, first_loop)


def referee_shared_loops(kind, gens, heads, tails):
    auto = CancellationAutomaton(kind)
    edges = auto.edges
    a, b = 0, 1
    auto.n_states = 2
    first_loop = {}
    firsts = _referee_hub_loops(auto, a, gens, first_loop)
    edges.append((a, b, None, 1))
    n = auto.n_states
    lasts = []
    out = {}
    for g in range(1, len(gens) + 1):
        w = inv(gens.word(g))
        node = b
        for ch in w.word[:-1]:
            dst = out.get((node, ch))
            if dst is None:
                dst = out[node, ch] = n
                n += 1
                edges.append((node, dst, ch, 1))
            node = dst
        auto.closes[len(edges)] = g
        lasts.append(len(edges))
        edges.append((node, b, w.word[-1:] or None, w.sign))
    initials = []
    for g in heads:
        _, dst, label, weight = edges[firsts[g - 1]]
        initials.append(n)
        auto.heads[len(edges)] = g
        edges.append((n, dst, label, weight))
        n += 1
    finals = []
    for g in tails:
        src, _, label, weight = edges[lasts[g - 1]]
        finals.append(n)
        auto.tails[len(edges)] = g
        edges.append((src, n, label, weight))
        n += 1
    auto.n_states = n
    return _referee_index(auto, first_loop), initials, finals


LAYOUT_FIELDS = ("kind", "n_states", "initial", "final", "goal", "edges", "s_in", "s_out",
                 "r_in", "r_out", "eps_edges", "marks", "lead")


def assert_same_layout(auto, ref):
    for field in LAYOUT_FIELDS:
        assert getattr(auto, field) == getattr(ref, field), field
    for named in ("opens", "closes", "heads", "tails"):
        assert list(getattr(auto, named).items()) == list(getattr(ref, named).items()), named


def assert_builders_match_referee(gens, target):
    assert_same_layout(build_loop_automaton(gens), referee_hub_automaton(gens, SignedWord(1, "")))
    assert_same_layout(build_membership_automaton(gens, target),
                       referee_hub_automaton(gens, target))
    if len(gens) >= 2:
        ref, (ref.initial,), (ref.final,) = referee_shared_loops("pattern", gens, (2,), (1,))
        ref.goal = (ref.initial, ref.final, 1)
        assert_same_layout(build_pattern_automaton(2, 1, gens), ref)
    everyone = range(1, len(gens) + 1)
    auto, goals = build_freeness_automaton(gens)
    ref, initials, finals = referee_shared_loops("freeness", gens, everyone, everyone)
    assert_same_layout(auto, ref)
    assert goals == [((i, j), (initials[i - 1], finals[j - 1], 1))
                     for i in everyone for j in range(i + 1, len(gens) + 1)]


def layout_sets(seed=41, n_sets=300):
    """(generators, target word, what the set shows): seeded sets of 1-5
    words, with duplicates, suffixes and prefixes of earlier words, the
    empty word (+-I), one-letter words and random reduced words."""
    rng = random.Random(seed)
    for _ in range(n_sets):
        words, shows = [], set()
        for _ in range(rng.randint(1, 5)):
            pick = rng.random()
            if words and pick < 0.15:
                word = rng.choice(words).word
                shows.add("duplicate")
            elif words and pick < 0.4:
                base = rng.choice(words).word
                cut = rng.randint(1, max(1, len(base) - 1))
                word, side = (base[cut:], "suffix") if rng.random() < 0.5 else (base[:cut], "prefix")
                shows.add(side)
            elif pick < 0.5:
                word = ""
            elif pick < 0.6:
                word = rng.choice("sr")
            else:
                word = reduce("".join(rng.choice("sr") for _ in range(rng.randint(2, 12)))).word
            words.append(SignedWord(rng.choice((1, -1)), word))
        shows.update(("empty",) * ("" in (w.word for w in words)),
                     ("one letter",) * any(len(w.word) == 1 for w in words))
        target = reduce("".join(rng.choice("sr") for _ in range(rng.randint(0, 8))))
        yield GeneratorSet.from_words(words), target, shows


class TestLoopLayoutReferee:
    def test_builders_match_the_letter_by_letter_layout(self):
        seen = dict.fromkeys(("duplicate", "suffix", "prefix", "empty", "one letter"), 0)
        n_sets = 0
        for gens, target, shows in layout_sets():
            assert_builders_match_referee(gens, target)
            for what in shows:
                seen[what] += 1
            n_sets += 1
        assert n_sets >= 300
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("values, x", [
        ([1, 2], 3), ([1, 2, 4], 5), ([2, 3, 5], 7), ([1, 2, 3, 4], 11),
        ([2, 3, 5, 7, 11], 20), ([150, 250], 400),
    ])
    def test_builders_match_the_letter_by_letter_layout_on_subset_sum(self, values, x):
        from sl2z_semigroups.encodings import encode_subset_sum
        gens = encode_subset_sum(values, x).generators
        target = gens.word(1)
        assert_builders_match_referee(gens, target)
        conj, conj_target = gens.conjugated(gens.matrix(1))
        assert_builders_match_referee(conj, conj_target)
