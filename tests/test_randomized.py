"""Adversarial randomized cross-checks of the core fixpoints.

Saturation and its derivation grammar run against bounded path enumeration
on arbitrary random automata (not just the fixture shapes), the
derivations saturation records, in order, against its plain lightest-first
loop, each witness path against the lightest path of its triple, a run
stopped at a goal triple against that loop stopped at the goal and against
the full run (a prefix of it where no state has a `lead`), each `lead`
against the least path into its state, and every complete relation
against the closure referee (`closure_referee`).  The
shared freeness automaton, and the pattern automata built the same way,
run against the chain-based pattern automaton of each pair
(`pattern_referee`); identity, membership and counting on the loop and
membership automata, whose loops share suffixes, run against the layout
with one chain per generator (`loop_referee`), and their closed hub paths
against the index sequences they must decode to.
Growth-cycle search and enumeration on the proper form of random grammars
run against an independent implementation of the classic elimination route
and against bounded enumeration of the raw grammar, and factorization
counting runs against the Bar-Hillel intersection of the target grammar
with the marked semigroup DFA.
"""

import copy
import heapq
import itertools
import random

from sl2z_semigroups.algebra import (
    IDENTITY, S, GeneratorSet, Mat2, SignedWord, decompose, evaluate, inv, reduce,
)
import pytest

from sl2z_semigroups.automata import (
    AutomatonError, CancellationAutomaton, WitnessError, build_freeness_automaton,
    build_loop_automaton, build_membership_automaton, build_pattern_automaton,
    decode_pattern_witness, derivation_grammar, extract_path, path_sequence,
    saturate,
)
from sl2z_semigroups.decisions import (
    NO, YES, FactorizationCounter, count_factorizations, identity_in_semigroup,
    is_free, membership,
)
from sl2z_semigroups.encodings import (
    DfaSpec, encode_dfa_intersection, encode_equal_subset_sum, encode_subset_sum,
    marked_query_word, recurrent_without_identity_fixture,
)
from sl2z_semigroups.grammars import (
    Grammar, build_marked_semigroup_dfa, build_target_grammar, enumerate_words,
    find_growth_cycle, intersect, lift_over_markers, words_up_to,
)
from sl2z_semigroups.oracle import enumerate_products

from grammar_referee import (
    assert_growth_cycle, assert_proper, classic_is_finite, proper_form,
)
from brute import brute_trivial_relation
from closure_referee import certify, closure_faults, grounding_faults
from loop_referee import chain_count, chain_witness
from pattern_referee import pattern_collisions


def random_automaton(rng, max_edges=10):
    auto = CancellationAutomaton("random")
    n = auto.n_states = rng.randint(1, 6)
    auto.initial, auto.final = 0, n - 1
    for _ in range(rng.randint(1, max_edges)):
        auto.edges.append((rng.randrange(n), rng.randrange(n),
                           rng.choice(["s", "r", "s", "r", None]),
                           rng.choice([1, 1, 1, -1])))
    auto.index()
    return auto


def edge_lists(auto):
    """Per-state s/r edge ids (s_in, s_out, r_in, r_out) and the epsilon
    edges, rebuilt from the edge list alone."""
    n = auto.n_states
    s_in = [[] for _ in range(n)]
    s_out = [[] for _ in range(n)]
    r_in = [[] for _ in range(n)]
    r_out = [[] for _ in range(n)]
    eps_edges = []
    for e, (src, dst, label, weight) in enumerate(auto.edges):
        if label == "s":
            s_in[dst].append(e)
            s_out[src].append(e)
        elif label == "r":
            r_in[dst].append(e)
            r_out[src].append(e)
        else:
            eps_edges.append(e)
    return s_in, s_out, r_in, r_out, eps_edges


def test_saturation_on_random_automata():
    rng = random.Random(12345)
    for _ in range(250):
        auto = random_automaton(rng)
        sat = saturate(auto)
        # complete wrt every path of <= 10 edges
        assert brute_trivial_relation(auto, 10) <= sat.triples
        # sound: every triple expands to a path spelling (sigma, e)
        for (q, p, sigma) in sat.triples:
            path = extract_path(auto, sat, q, p, sigma)
            assert auto.path_value(path) == SignedWord(sigma, "")


def reference_saturate(auto, goal=None):
    """Derivations of `saturate` by a plain lightest-first loop: {triple:
    parent}, in the order the triples became final.

    Every rule instance is offered: its conclusion goes on the heap with
    the marks of its edges and gaps in path order, and the first pop of a
    triple makes it final; later pops of it are skipped.  No offer is
    pruned, so this shows the order `saturate` has to keep without its
    shortcuts.  With a goal it stops once the goal pops, and it discards
    a popped triple (q, p, sigma) other than the goal when lead[q] is not
    () and lead[q] + its marks is not lighter than the goal's least offer
    so far; off a state of lead (), a triple pops before the goal only if
    it weighs no more.  Its edge index and edge marks are rebuilt from the
    edge list and the named edges, and the automaton's own must equal
    them.
    """
    edges = auto.edges
    s_in, s_out, r_in, r_out, eps_edges = edge_lists(auto)
    # the automaton keeps each state's edges in a tuple
    assert [[list(es) for es in lists]
            for lists in (auto.s_in, auto.s_out, auto.r_in, auto.r_out)] + [auto.eps_edges] == \
        [s_in, s_out, r_in, r_out, eps_edges]
    marks = [()] * len(edges)
    for named in (auto.opens, auto.closes, auto.heads, auto.tails):
        for e, g in named.items():
            assert marks[e] == ()
            marks[e] = (g,)
    assert auto.marks == marks
    parents = {}
    # (far end, sign, triple or None for the empty gap, marks)
    gaps_from = [[(x, 1, None, ())] for x in range(auto.n_states)]
    gaps_to = [[(x, 1, None, ())] for x in range(auto.n_states)]
    heap = []
    counter = itertools.count()
    bound = None    # the weight of the goal's least offer so far

    def offer(q, p, sigma, ms, parent):
        nonlocal bound
        if (q, p, sigma) == goal and (bound is None or (len(ms), ms) < bound):
            bound = (len(ms), ms)
        heapq.heappush(heap, (len(ms), ms, next(counter), (q, p, sigma), parent))

    def fire(x, y, sg, t, gm):
        for e1 in s_in[x]:
            for e2 in s_out[y]:
                offer(edges[e1][0], edges[e2][1], -sg * edges[e1][3] * edges[e2][3],
                      marks[e1] + gm + marks[e2], ("ss", e1, t, e2))
        for e1 in r_in[x]:
            for e2 in r_out[y]:
                for (u, sg2, t2, m2) in gaps_from[edges[e2][1]]:
                    for e3 in r_out[u]:
                        offer(edges[e1][0], edges[e3][1],
                              -sg * sg2 * edges[e1][3] * edges[e2][3] * edges[e3][3],
                              marks[e1] + gm + marks[e2] + m2 + marks[e3],
                              ("rrr", e1, t, e2, t2, e3))
        if t is None:
            return
        for e3 in r_out[y]:
            for e2 in r_in[x]:
                for (q1, sg1, t1, m1) in gaps_to[edges[e2][0]]:
                    for e1 in r_in[q1]:
                        offer(edges[e1][0], edges[e3][1],
                              -sg * sg1 * edges[e1][3] * edges[e2][3] * edges[e3][3],
                              marks[e1] + m1 + marks[e2] + gm + marks[e3],
                              ("rrr", e1, t1, e2, t, e3))
        for (u, sg2, t2, m2) in gaps_from[y][1:]:
            offer(x, u, sg * sg2, gm + m2, ("compose", t, t2))
        for (q0, sg0, t0, m0) in gaps_to[x][1:]:
            offer(q0, y, sg0 * sg, m0 + gm, ("compose", t0, t))

    for e in eps_edges:
        src, dst, _, weight = edges[e]
        offer(src, dst, weight, marks[e], ("eps", e))
    for x in range(auto.n_states):
        fire(x, x, 1, None, ())
    while heap:
        _, ms, _, t, parent = heapq.heappop(heap)
        if t in parents:
            continue
        lead = auto.lead[t[0]]
        if t != goal and lead and bound is not None and (len(lead + ms), lead + ms) >= bound:
            continue
        parents[t] = parent
        if t == goal:
            break
        x, y, sg = t
        gaps_from[x].append((y, sg, t, ms))
        gaps_to[y].append((x, sg, t, ms))
        fire(x, y, sg, t, ms)
    return parents


def assert_gaps_from_in_order(sat, n_states):
    """`derivation_grammar` reads the gaps leaving each state from here."""
    assert len(sat.gaps_from) == n_states
    for x in range(n_states):
        assert list(sat.gaps_from[x]) == [t for t in sat.parents if t[0] == x]


def assert_same_derivations(auto):
    sat = saturate(auto)
    assert list(sat.parents.items()) == list(reference_saturate(auto).items())
    assert_gaps_from_in_order(sat, auto.n_states)


def test_saturation_derivations_match_reference_on_random_automata():
    rng = random.Random(12345)
    for _ in range(400):
        assert_same_derivations(random_automaton(rng, max_edges=rng.choice((10, 20))))


def test_saturation_derivations_match_reference_on_subset_sum_ladder():
    for values, x in [([1, 2], 3), ([1, 2], 4), ([1, 2, 4], 5), ([1, 2, 4], 8),
                      ([2, 3, 5], 7), ([1, 2, 3, 4], 11)]:
        gens = encode_subset_sum(values, x).generators
        assert_same_derivations(build_loop_automaton(gens))
        if len(values) == 2:
            assert_same_derivations(build_pattern_automaton(1, 2, gens))


def mark_randomly(rng, auto):
    """Name about half the edges of a random automaton in `opens`,
    `closes`, `heads` or `tails`, with a generator of 1-3, so that the
    triples weigh apart; the automaton is indexed again."""
    for e in range(len(auto.edges)):
        if rng.random() < 0.5:
            getattr(auto, rng.choice(("opens", "closes", "heads", "tails")))[e] = rng.randint(1, 3)
    auto.index()
    return auto


def path_weight(auto, path):
    """(number of marks, the marks in path order) of an edge path."""
    ms = tuple(g for e in path for g in auto.marks[e])
    return len(ms), ms


def test_saturation_derivations_match_reference_on_marked_random_automata():
    rng = random.Random(2468)
    for _ in range(300):
        auto = random_automaton(rng, max_edges=rng.choice((10, 20)))
        assert_same_derivations(mark_randomly(rng, auto))


def test_saturation_witnesses_are_the_lightest_paths():
    """Each triple's witness path weighs no more than any path of the
    triple of <= 5 edges, found by brute force."""
    rng = random.Random(97531)
    for _ in range(150):
        auto = mark_randomly(rng, random_automaton(rng, max_edges=6))
        sat = saturate(auto)
        for t, paths in brute_trivial_paths(auto, 5).items():
            got = path_weight(auto, extract_path(auto, sat, *t))
            assert got <= min(path_weight(auto, p) for p in paths)


class Relation:
    """A relation as `closure_referee` reads it: derivations in order."""

    def __init__(self, parents, complete=True):
        self.parents, self.complete = parents, complete
        self.triples = parents.keys()


def test_closure_referee_certifies_random_saturations():
    """Every complete saturation is closed and grounded; dropping any one
    of its triples fails closure, and recording a composition's first part
    after it fails grounding."""
    rng = random.Random(12345)
    dropped = 0
    for k in range(400):
        auto = random_automaton(rng, max_edges=rng.choice((10, 20)))
        if k % 2:
            mark_randomly(rng, auto)
        sat = saturate(auto)
        assert certify(auto, sat) == []
        if k % 8:
            continue
        items = list(sat.parents.items())
        for i in range(len(items)):
            assert closure_faults(auto, Relation(dict(items[:i] + items[i + 1:])))
            dropped += 1
        # a derivation that cites a triple recorded after it is not grounded
        for t, parent in items:
            if parent[0] == "compose" and parent[1] != t:
                late = dict(items)
                late[parent[1]] = late.pop(parent[1])
                assert grounding_faults(auto, Relation(late))
                break
    assert dropped >= 200


def test_closure_referee_certifies_ladder_saturations():
    """The loop automata of the subset-sum ladder, and the freeness
    automata of its pairs, whose long loops hold rule instances that small
    random automata seldom need."""
    for values, x in [([1, 2], 3), ([1, 2], 4), ([1, 2, 4], 5), ([2, 3, 5], 7)]:
        gens = encode_subset_sum(values, x).generators
        autos = [build_loop_automaton(gens)]
        if len(values) == 2:
            autos.append(build_freeness_automaton(gens)[0])
        for auto in autos:
            assert certify(auto, saturate(auto)) == []


def test_closure_referee_refuses_a_stopped_relation():
    auto = build_loop_automaton(encode_subset_sum([1, 2], 3).generators)
    sat = saturate(auto, (auto.initial, auto.initial, 1))
    assert not sat.complete
    assert certify(auto, sat)[0] == "the relation is not complete"
    assert closure_faults(auto, sat)


def goal_stopped_lengths(auto, goals):
    """Check each goal-stopped run against `reference_saturate` with its
    goal and, where every `lead` is (), against a prefix of the full run;
    the number of triples each one recorded."""
    full = saturate(auto)
    assert full.complete
    items = list(full.parents.items())
    lengths = []
    for goal in goals:
        sat = saturate(auto, goal)
        got = list(sat.parents.items())
        assert got == list(reference_saturate(auto, goal).items())
        if not any(auto.lead):
            assert got == items[:len(got)]
        assert_gaps_from_in_order(sat, auto.n_states)
        if goal in full.triples:
            assert goal in sat.triples
        else:
            # nothing to stop at: the full fixpoint
            assert got == items and sat.complete
        lengths.append(len(got))
    return lengths


def test_goal_stop_is_a_prefix_on_random_automata():
    rng = random.Random(12345)
    stopped = 0
    for _ in range(400):
        auto = random_automaton(rng, max_edges=rng.choice((10, 20)))
        full = list(saturate(auto).triples)
        absent = [(q, p, sigma) for q in range(auto.n_states)
                  for p in range(auto.n_states) for sigma in (1, -1)
                  if (q, p, sigma) not in full]
        goals = [(auto.initial, auto.final, 1), (auto.initial, auto.final, -1)]
        goals += [full[len(full) // 2]] if full else []
        goals += absent[:1]
        lengths = goal_stopped_lengths(auto, goals)
        stopped += any(n < len(full) for n in lengths)
    assert stopped >= 100


def test_goal_stop_is_a_prefix_on_marked_random_automata():
    """Goals of each weight class: the goal's bound drops offers that
    weigh as much as the goal, or more, and keeps the lighter ones."""
    rng = random.Random(8642)
    stopped = 0
    for _ in range(300):
        auto = mark_randomly(rng, random_automaton(rng, max_edges=rng.choice((10, 20))))
        full = list(saturate(auto).triples)
        goals = [(auto.initial, auto.final, 1), (auto.initial, auto.final, -1)]
        goals += [full[len(full) // 3], full[-1]] if full else []
        lengths = goal_stopped_lengths(auto, goals)
        stopped += any(n < len(full) for n in lengths)
    assert stopped >= 100


def test_goal_stop_is_a_prefix_on_subset_sum_ladder():
    for values, x in [([1, 2], 3), ([1, 2], 4), ([1, 2, 4], 5), ([1, 2, 4], 8),
                      ([2, 3, 5], 7), ([1, 2, 3, 4], 11)]:
        fx = encode_subset_sum(values, x)
        auto = build_loop_automaton(fx.generators)
        hub = auto.initial
        full = len(saturate(auto))
        plus, _ = goal_stopped_lengths(auto, [(hub, hub, 1), (hub, hub, -1)])
        if fx.expected["identity"]:
            assert plus < full
        if len(values) == 2:
            auto = build_pattern_automaton(1, 2, fx.generators)
            goal_stopped_lengths(auto, [(auto.initial, auto.final, 1)])


def random_complete_dfa(rng, n_states):
    """A complete DFA over {a, b} with one final state."""
    transitions = tuple((q, sym, rng.randrange(n_states))
                        for q in range(n_states) for sym in "ab")
    return DfaSpec(n_states, ("a", "b"), transitions,
                   frozenset({rng.randrange(n_states)}))


def test_goal_stop_is_a_prefix_on_membership_automata():
    """The target-chain layout with its goal (hub, final, +1): the
    subset-sum count targets, and words that seeded one- and two-DFA
    encodings accept or reject."""
    cases = []    # (automaton, whether the target is a product)
    for values in ([1, 2], [1, 2, 4], [1, 2, 3, 4]):
        fx = encode_subset_sum(values, sum(values) + 1)
        target = decompose(fx.expected["count_target"])
        cases.append((build_membership_automaton(fx.generators, target), True))
    rng = random.Random(2024)
    words = [w for n in (1, 2) for w in itertools.product("ab", repeat=n)]
    for n_dfas in (1, 2, 1, 2):
        dfas = [random_complete_dfa(rng, rng.randint(1, 3)) for _ in range(n_dfas)]
        fx = encode_dfa_intersection(dfas)
        accepted = [w for w in words if any(d.accepts(w) for d in dfas)]
        rejected = [w for w in words if w not in accepted]
        for w in rng.sample(accepted, min(2, len(accepted))) + rejected[:1]:
            target = decompose(marked_query_word(fx, w))
            cases.append((build_membership_automaton(fx.generators, target),
                          w in accepted))
    assert {member for _, member in cases} == {True, False}
    stopped = 0
    for auto, member in cases:
        goal = (auto.initial, auto.final, 1)
        full = saturate(auto)
        assert (goal in full.triples) == member
        (length,) = goal_stopped_lengths(auto, [goal])
        stopped += length < len(full)
    assert stopped >= 1


def derivation_marks(auto, parents):
    """The marks of each triple's derivation, in path order, read from
    the derivations alone."""
    marks = {}
    for t, parent in parents.items():
        marks[t] = tuple(itertools.chain.from_iterable(
            () if x is None else auto.marks[x] if isinstance(x, int) else marks[x]
            for x in parent[1:]))
    return marks


def goal_stop_drops(auto, goals):
    """Check each goal-stopped run against the full run; how many of them
    dropped a triple that the full run makes final before the goal."""
    full = saturate(auto)
    items = list(full.parents.items())
    order = {t: k for k, t in enumerate(full.triples)}
    marks = derivation_marks(auto, full.parents)
    plain = copy.copy(auto)
    plain.lead = [()] * auto.n_states
    dropped = 0
    for goal in goals:
        sat = saturate(auto, goal)
        got = list(sat.parents.items())
        # an in-order subsequence with the same derivations
        rest = iter(items)
        assert all(item in rest for item in got)
        if goal not in order:
            assert got == items and sat.complete
            continue
        goal_weight = (len(marks[goal]), marks[goal])
        before = [t for t, _ in items[:order[goal]]]
        assert got[-1][0] == goal
        for t in before:
            ms = auto.lead[t[0]] + marks[t]
            assert (len(ms), ms) >= goal_weight or t in sat.triples
        assert extract_path(auto, sat, *goal) == extract_path(plain, saturate(plain, goal), *goal)
        dropped += len(got) < len(before) + 1
    return dropped


def test_goal_stop_drops_only_triples_past_the_goal():
    """On loop and membership automata, both goal signs, of 500 seeded
    sets and of the subset-sum ladder, a goal-stopped run keeps, in order
    and with the full run's derivations, every triple before the goal
    whose lead plus weight is lighter than the goal's, and extracts the
    goal path that the same automaton without leads gives."""
    autos = []
    for gens, (product, _) in loop_referee_cases(seed=31, n_sets=500):
        autos += [build_loop_automaton(gens), build_membership_automaton(gens, decompose(product))]
    for values, x in [([1, 2], 3), ([1, 2, 4], 5), ([1, 2, 4], 8), ([2, 3, 5], 7),
                      ([1, 2, 3, 4], 11)]:
        fx = encode_subset_sum(values, x)
        autos += [build_loop_automaton(fx.generators), build_membership_automaton(
            fx.generators, decompose(fx.expected["count_target"]))]
    dropped = sum(goal_stop_drops(auto, [(auto.initial, auto.final, sign) for sign in (1, -1)])
                  for auto in autos)
    assert dropped >= 100


def least_path_weights(auto, starts):
    """Per state the least weight of a path to it from one of the starts,
    or None, by relaxing every edge until no weight falls: a least path
    is simple, and appending marks never makes a path lighter."""
    least = [None] * auto.n_states
    for x in starts:
        least[x] = (0, ())
    changed = True
    while changed:
        changed = False
        for e, (src, dst, _, _) in enumerate(auto.edges):
            if least[src] is None:
                continue
            ms = least[src][1] + auto.marks[e]
            if least[dst] is None or (len(ms), ms) < least[dst]:
                least[dst] = (len(ms), ms)
                changed = True
    return least


def test_lead_bounds_every_path_into_a_state():
    """On loop, membership, pattern and freeness automata of random sets,
    lead[q] weighs no more than any path from `initial` (on a freeness
    automaton, from any initial tap) to q, and no more than lead[q'] plus
    the mark of any edge q' -> q."""
    rng = random.Random(4321)
    passed = 0
    for gens, (product, outsider) in loop_referee_cases(seed=37, n_sets=200):
        autos = [(auto, [auto.initial]) for auto in (
            build_loop_automaton(gens), build_membership_automaton(gens, decompose(product)),
            build_membership_automaton(gens, decompose(outsider)),
            build_pattern_automaton(*rng.sample(range(1, len(gens) + 1), 2), gens))]
        auto, _ = build_freeness_automaton(gens)
        autos.append((auto, [auto.edges[e][0] for e in auto.heads]))
        for auto, starts in autos:
            lead = [(len(ms), ms) for ms in auto.lead]
            for x, w in enumerate(least_path_weights(auto, starts)):
                assert w is None or lead[x] <= w
            for e, (src, dst, _, _) in enumerate(auto.edges):
                ms = auto.lead[src] + auto.marks[e]
                assert lead[dst] <= (len(ms), ms)
            passed += any(auto.lead)
    assert passed >= 500


def test_derivation_grammar_refuses_a_goal_stopped_relation():
    auto = build_loop_automaton(encode_subset_sum([1, 2], 3).generators)
    goal = (auto.initial, auto.initial, 1)
    sat = saturate(auto, goal)
    assert goal in sat.triples and not sat.complete
    with pytest.raises(AutomatonError):
        derivation_grammar(auto, sat, goal)
    full = saturate(auto)
    assert len(sat) < len(full)
    assert derivation_grammar(auto, full, goal).productions


def random_reduced_word(rng, length):
    """A reduced word of the given length, letter by letter."""
    w = ""
    while len(w) < length:
        ch = rng.choice("sr")
        if not (w + ch).endswith(("ss", "rrr")):
            w += ch
    return w


def test_freeness_automaton_matches_pattern_automata():
    rng = random.Random(1729)
    seen = {"one generator": 0, "+-I": 0, "one letter": 0, "duplicate": 0,
            "colliding pair": 0, "free pair": 0, "collision without I": 0}
    for _ in range(320):
        words = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("+-I", "one letter", "duplicate") + ("word",) * 9)
            if kind == "duplicate" and words:
                words.append(rng.choice(words))
            elif kind == "+-I":
                words.append(SignedWord(rng.choice((1, -1)), ""))
            elif kind == "one letter":
                words.append(SignedWord(rng.choice((1, -1)), rng.choice("sr")))
            else:
                words.append(SignedWord(rng.choice((1, -1)),
                                        random_reduced_word(rng, rng.randint(2, 5))))
        gens = GeneratorSet.from_words(words)
        n = len(gens)
        auto, goals = build_freeness_automaton(gens)
        assert [pair for pair, _ in goals] == \
            [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        triples = saturate(auto).triples
        collisions = pattern_collisions(gens)
        assert [pair for pair, goal in goals if goal in triples] == collisions
        for pair, _ in goals:
            pattern = build_pattern_automaton(*pair, gens)
            goal = (pattern.initial, pattern.final, 1)
            sat = saturate(pattern, goal)
            assert (goal in sat.triples) == (pair in collisions)
            if pair in collisions:
                alpha, beta = decode_pattern_witness(
                    pattern, extract_path(pattern, sat, *goal))
                assert (alpha[0], beta[0]) == pair
                assert gens.product(alpha) == gens.product(beta)
        # without I, is_free's witness comes from the least colliding pair
        verdict = is_free(gens)
        if identity_in_semigroup(gens).answer == NO:
            assert (verdict.answer == NO) == bool(collisions)
            if collisions:
                alpha, beta = verdict.witness["sequences"]
                assert (alpha[0], beta[0]) == collisions[0]
                assert alpha != beta and gens.product(alpha) == gens.product(beta)
                seen["collision without I"] += 1
        seen["one generator"] += n == 1
        seen["+-I"] += any(not w.word for w in words)
        seen["one letter"] += any(len(w.word) == 1 for w in words)
        seen["duplicate"] += len(set(words)) < n
        seen["colliding pair"] += len(collisions)
        seen["free pair"] += len(goals) - len(collisions)
    assert min(seen.values()) >= 20, seen


def random_signed_words(rng, n_gens, max_len):
    return [SignedWord(rng.choice((1, -1)), random_reduced_word(rng, rng.randint(0, max_len)))
            for _ in range(rng.randint(*n_gens))]


def loop_referee_cases(seed=7, n_sets=300):
    """(generators, targets): seeded random sets of 2-4 generators with
    words of 0-8 letters, each with a product of 1-3 of its generators
    and the value of a random word as membership targets."""
    rng = random.Random(seed)
    for _ in range(n_sets):
        gens = GeneratorSet.from_words(random_signed_words(rng, (2, 4), 8))
        seq = [rng.randint(1, len(gens)) for _ in range(rng.randint(1, 3))]
        outsider = evaluate(SignedWord(1, random_reduced_word(rng, rng.randint(1, 8))))
        yield gens, [gens.product(seq), outsider]


def test_loop_automata_match_chain_referee():
    """Shared suffixes move no verdict and no count; a witness may move,
    but every one re-multiplies.  Counts, which read the derivation
    grammar of the complete saturation, are checked on every fourth set."""
    seen = {"identity": 0, "no identity": 0, "member": 0, "non-member": 0,
            "exact count": 0, "infinite count": 0}
    for case, (gens, targets) in enumerate(loop_referee_cases()):
        ident = identity_in_semigroup(gens)
        ref = chain_witness(gens, IDENTITY)
        assert (ident.answer == YES) == (ref is not None)
        if ref is not None:
            assert gens.product(ref) == IDENTITY
            assert gens.product(ident.witness["sequences"][0]) == IDENTITY
        seen["identity" if ref is not None else "no identity"] += 1
        for m in targets:
            v = membership(gens, m)
            ref = chain_witness(gens, m)
            assert (v.answer == YES) == (ref is not None)
            if ref is not None:
                assert gens.product(ref) == m
                assert gens.product(v.witness["sequences"][0]) == m
            seen["member" if ref is not None else "non-member"] += 1
            if case % 4:
                continue
            kind, value, sequences = chain_count(gens, m, 4)
            counted = count_factorizations(gens, m, cap=4)
            assert (counted.count.kind, counted.count.value) == (kind, value)
            if kind == "exact":
                assert (counted.witness or {}).get("sequences", []) == sequences
            seen["exact count" if kind == "exact" else "infinite count"] += kind != "more_than"
    assert min(seen.values()) >= 20, seen


def padded_cases(seed=29, n_sets=100):
    """(generators, targets) of `loop_referee_cases`, with every generator
    and target conjugated by one random product of up to 6 letters: the
    shear padding at the ends that the hardness encodings carry."""
    rng = random.Random(seed)
    for gens, targets in loop_referee_cases(seed, n_sets):
        pad = evaluate(SignedWord(1, random_reduced_word(rng, rng.randint(0, 6))))
        padded = [pad.inverse() * m * pad for m in [*(g.matrix for g in gens), *targets]]
        yield GeneratorSet.from_matrices(padded[:len(gens)]), padded[len(gens):]


def element_reports(gens, targets, count):
    """(answer, witness, count) of identity, and of membership and, if
    `count`, counting (cap 4) for each target."""
    verdicts = [identity_in_semigroup(gens)]
    for m in targets:
        verdicts.append(membership(gens, m))
        if count:
            verdicts.append(count_factorizations(gens, m, cap=4))
    return [(v.answer, v.witness, v.count) for v in verdicts]


def test_conjugated_automata_answer_as_the_original_ones(monkeypatch):
    """Every automaton is built from the shortest conjugate of the problem
    (`GeneratorSet.conjugated`); identity, membership and counting give
    the same answers, sequences and counts as automata built on the words
    as given.  Counts, which read complete saturations, are compared on
    every third set."""
    cases = list(padded_cases())
    got = [element_reports(gens, targets, k % 3 == 0) for k, (gens, targets) in enumerate(cases)]
    shortened = sum(sum(len(g.word) for g in gens) > sum(len(g.word) for g in gens.conjugated()[0])
                    for gens, _ in cases)
    monkeypatch.setattr(GeneratorSet, "conjugated", lambda gens, target=None: (
        gens, None if target is None else decompose(target)))
    assert got == [element_reports(gens, targets, k % 3 == 0)
                   for k, (gens, targets) in enumerate(cases)]
    assert shortened >= len(cases) // 2
    assert sum(report[0][0] == YES for report in got) >= 20


def loop_edges(gens, g):
    """Edges of generator g's loop: its letters, or one epsilon edge."""
    return max(len(gens.word(g).word), 1)


def sequences_within(gens, budget):
    """Every nonempty index sequence whose loops have <= budget edges."""
    found, frontier = [], [[]]
    while frontier:
        nxt = []
        for seq in frontier:
            used = sum(loop_edges(gens, g) for g in seq)
            for g in range(1, len(gens) + 1):
                if used + loop_edges(gens, g) <= budget:
                    nxt.append(seq + [g])
        found += nxt
        frontier = nxt
    return sorted(found)


def paths_to_final(auto, max_edges):
    """Every edge path of <= max_edges edges from `initial` to `final`."""
    out_edges = {}
    for e, (src, _, _, _) in enumerate(auto.edges):
        out_edges.setdefault(src, []).append(e)
    found, frontier = [], [()]
    for _ in range(max_edges):
        frontier = [path + (e,) for path in frontier
                    for e in out_edges.get(auto.edges[path[-1]][1] if path else auto.initial, ())]
        found += [list(path) for path in frontier if auto.edges[path[-1]][1] == auto.final]
    return found


def test_closed_hub_paths_decode_to_every_short_sequence():
    """The closed hub paths of <= L edges decode exactly to the index
    sequences whose loops have <= L edges in all, one path per sequence;
    on a membership automaton the same holds for the paths hub -> final,
    less the target chain's edges."""
    rng = random.Random(11)
    budget = 6
    for _ in range(60):
        gens = GeneratorSet.from_words(random_signed_words(rng, (1, 3), 4))
        auto = build_loop_automaton(gens)
        decoded = sorted(path_sequence(auto, p) for p in paths_to_final(auto, budget))
        assert decoded == sequences_within(gens, budget)
        target = SignedWord(1, random_reduced_word(rng, rng.randint(1, 2)))
        auto = build_membership_automaton(gens, target)
        chain = len(inv(target).word)
        paths = paths_to_final(auto, budget)
        # the target chain alone is the one path hub -> final without a loop
        bare = [p for p in paths if not set(p) & auto.opens.keys()]
        assert bare == [list(range(len(auto.edges) - chain, len(auto.edges)))]
        with pytest.raises(WitnessError):
            path_sequence(auto, bare[0])
        decoded = sorted(path_sequence(auto, p) for p in paths if p not in bare)
        assert decoded == sequences_within(gens, budget - chain)


@pytest.mark.parametrize("values", [
    [1, 2, 4], [1, 2, 4, 8], [1, 2, 4, 8, 16],
    [1, 2, 3], [3, 5, 8, 13], [1, 2, 4, 7], [2, 3, 5, 9],
])
def test_is_free_on_equal_subset_sum(values):
    fx = encode_equal_subset_sum(values)
    v = is_free(fx.generators)
    assert v.answer == (YES if fx.expected["free"] else NO)
    if v.answer == NO:
        alpha, beta = v.witness["sequences"]
        assert alpha != beta
        assert fx.generators.product(alpha) == fx.generators.product(beta)


def brute_trivial_paths(auto, max_edges):
    """(q, p, sigma) -> every path of <= max_edges edges q -> p of value sigma * I."""
    out_edges = {}
    for e, (src, _, _, _) in enumerate(auto.edges):
        out_edges.setdefault(src, []).append(e)
    found = {}
    frontier = [(e,) for e in range(len(auto.edges))]
    while frontier:
        nxt = []
        for path in frontier:
            value = auto.path_value(path)
            if value.word == "":
                t = (auto.edges[path[0]][0], auto.edges[path[-1]][1], value.sign)
                found.setdefault(t, set()).add(path)
            if len(path) < max_edges:
                nxt.extend(path + (e,) for e in out_edges.get(auto.edges[path[-1]][1], ()))
        frontier = nxt
    return found


def test_derivation_grammar_on_random_automata():
    rng = random.Random(4242)
    for _ in range(60):
        auto = random_automaton(rng, max_edges=6)
        sat = saturate(auto)
        paths = brute_trivial_paths(auto, 5)
        assert set(paths) <= sat.triples
        for q in range(auto.n_states):
            for p in range(auto.n_states):
                for sigma in (1, -1):
                    grammar = derivation_grammar(auto, sat, (q, p, sigma))
                    assert words_up_to(grammar, 5) == paths.get((q, p, sigma), set())
                    assert_proper(grammar)
                    growth = find_growth_cycle(grammar)
                    if growth is not None:
                        assert_growth_cycle(grammar, growth)


def random_grammar(rng):
    nts = [f"A{i}" for i in range(rng.randint(1, 4))]
    prods = []
    for _ in range(rng.randint(1, 7)):
        head = rng.choice(nts)
        body = tuple(rng.choice(nts + ["s", "r"])
                     for _ in range(rng.randint(0, 3)))
        prods.append((head, body))
    return Grammar(set(nts), {"s", "r"}, prods, nts[0])


def test_finiteness_matches_classic_route():
    rng = random.Random(777)
    for _ in range(2000):
        g = random_grammar(rng)
        proper = proper_form(g)
        growth = find_growth_cycle(proper)
        assert (growth is None) == classic_is_finite(g)
        if growth is None:
            words = enumerate_words(proper).words
            assert {w for w in words if len(w) <= 9} == words_up_to(g, 9) - {()}
        else:
            assert_growth_cycle(proper, growth)
            assert enumerate_words(proper, cap=1).cycle == growth
            # length 9 would cost seconds on the infinite languages
            assert words_up_to(proper, 6) == words_up_to(g, 6) - {()}


def test_enumeration_matches_bounded_fixpoint():
    rng = random.Random(31337)
    checked = 0
    for _ in range(2000):
        g = random_grammar(rng)
        if not classic_is_finite(g):
            continue
        proper = proper_form(g)
        enum = enumerate_words(proper)
        assert enum.exact and enum.count == len(enum.words)
        # every enumerated word of length <= 9 appears in the bounded
        # fixpoint of the raw grammar and vice versa, but for the empty word
        short = {w for w in enum.words if len(w) <= 9}
        assert short == words_up_to(g, 9) - {()}
        capped = enumerate_words(proper, cap=2)
        assert capped.exact == (enum.count <= 2)
        if capped.exact:
            assert capped.words == enum.words
        checked += 1
    assert checked >= 500


def referee_count(gens, m, cap):
    """(count kind, value, sequences, recurrent) by the Bar-Hillel route.

    For each phi in +-1 the target grammar of (phi, w), lifted over the
    markers, meets the marked DFA whose generator-sign parity is sign * phi,
    where m = sign * phi(w); the two languages split the factorizations.
    """
    target = decompose(m)
    comps = []
    for phi in (1, -1):
        dfa = build_marked_semigroup_dfa(gens, sign_parity=target.sign * phi)
        lifted = lift_over_markers(build_target_grammar(SignedWord(phi, target.word)),
                                   dfa.markers)
        comps.append((proper_form(intersect(lifted, dfa)), dfa))
    if any(find_growth_cycle(g) is not None for g, _ in comps):
        return "infinite", None, None, True
    sequences = set()
    for g, dfa in comps:
        enum = enumerate_words(g, cap=cap)
        if not enum.exact:
            return "more_than", cap, None, False
        sequences |= {tuple(dfa.decode(w)) for w in enum.words}
    if len(sequences) > cap:
        return "more_than", cap, None, False
    ordered = sorted(sequences, key=lambda s: (len(s), s))
    return "exact", len(ordered), [list(s) for s in ordered], False


def referee_cases():
    rng = random.Random(2718)
    for _ in range(12):
        gens = GeneratorSet.from_matrices([
            evaluate(reduce("".join(rng.choice("sr") for _ in range(rng.randint(1, 6))),
                            rng.choice((1, -1))))
            for _ in range(rng.randint(1, 3))])
        products = enumerate_products(gens, 3).matrices()
        yield gens, rng.sample(products, min(5, len(products)))
    rw = recurrent_without_identity_fixture()
    yield rw.generators, [rw.expected["recurrent_target"]]
    # words over a free pair: finite counts above 1 and past the cap
    a, b = Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)
    yield GeneratorSet.from_matrices([a, b, a * b]), [a * b * a * b, a * b * a, a * b * a * b * a * b]
    yield GeneratorSet.from_matrices([S]), [S, -IDENTITY, IDENTITY]
    yield GeneratorSet.from_matrices([S, -IDENTITY]), [S, -S, IDENTITY]


def test_counter_matches_bar_hillel_referee():
    for gens, targets in referee_cases():
        counter = FactorizationCounter(gens)
        for m in targets:
            kind, value, sequences, recurrent = referee_count(gens, m, cap=4)
            cnt, seqs = counter.count(m, 4)
            assert (cnt.kind, cnt.value) == (kind, value)
            if kind == "exact":
                assert seqs == sequences
            assert (counter.recurrence_certificate(m) is not None) == recurrent
