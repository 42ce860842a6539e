"""Test-side referee for freeness: the chain-based pattern automaton.

`automata.build_freeness_automaton` and `automata.build_pattern_automaton`
share one construction, whose loops share suffixes and prefixes.  The
tests check that construction against this independent one, in which every
loop and every inverse loop is a chain of its own: a pair (i, j) collides
iff the goal triple (initial, final, +1) of `build_chain_pattern_automaton`
is in its saturation.
"""

from sl2z_semigroups.algebra import GeneratorSet, SignedWord, inv
from sl2z_semigroups.automata import CancellationAutomaton, saturate


def add_chain(auto: CancellationAutomaton, src, dst, word: SignedWord):
    """Simple path src -> dst spelling word, its sign on the first edge.

    An empty word becomes a base epsilon edge carrying the sign.  The
    caller indexes the automaton after its last chain.
    """
    letters = word.word
    if not letters:
        auto.edges.append((src, dst, None, word.sign))
        return
    prev = src
    for pos, ch in enumerate(letters):
        if pos == len(letters) - 1:
            nxt = dst
        else:
            nxt = auto.n_states
            auto.n_states += 1
        auto.edges.append((prev, nxt, ch, word.sign if pos == 0 else 1))
        prev = nxt


def build_chain_pattern_automaton(i: int, j: int, gens: GeneratorSet) -> CancellationAutomaton:
    """Accepts the values of M_i u v^-1 M_j^-1 for u, v in G* (1-based i != j).

    initial --w_i--> A; loops at A spell every w_g; chains A -> B and loops
    at B spell every inv(w_g); A -> final and B -> final spell inv(w_j).
    A positively-signed trivial path initial -> final therefore witnesses
    M_i u = M_j v, two factorizations starting with different generators.
    """
    assert i != j
    n = len(gens)
    auto = CancellationAutomaton("pattern")
    initial, a, b, final = range(4)
    auto.n_states = 4
    auto.initial, auto.final = initial, final
    add_chain(auto, initial, a, gens.word(i))
    for g in range(1, n + 1):
        add_chain(auto, a, a, gens.word(g))
    for g in range(1, n + 1):
        w = inv(gens.word(g))
        add_chain(auto, a, b, w)
        add_chain(auto, b, b, w)
    exit_word = inv(gens.word(j))
    add_chain(auto, a, final, exit_word)
    add_chain(auto, b, final, exit_word)
    auto.index()
    return auto


def pattern_collisions(gens: GeneratorSet) -> list:
    """The pairs i < j whose chain-based pattern automaton has its goal triple."""
    n = len(gens)
    found = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            auto = build_chain_pattern_automaton(i, j, gens)
            goal = (auto.initial, auto.final, 1)
            if goal in saturate(auto, goal).triples:
                found.append((i, j))
    return found
