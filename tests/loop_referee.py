"""Test-side referee for identity, membership and counting: chain layout.

`automata.build_loop_automaton` and `automata.build_membership_automaton`
lay their generator loops out with shared suffixes.  The tests check them
against this independent layout, in which every generator loop is a chain
of its own at the hub, decoded by whole chains: a run of consecutive edge
ids from a chain's first edge.  Verdicts and counts must agree; witnesses
may differ, but each must re-multiply.
"""

from sl2z_semigroups.algebra import GeneratorSet, Mat2, SignedWord, decompose, inv
from sl2z_semigroups.automata import (
    CancellationAutomaton, derivation_grammar, extract_path, saturate,
)
from sl2z_semigroups.grammars import enumerate_words

from pattern_referee import add_chain

LOOP = "loop"              # full generator chain hub -> hub
TARGET_INV = "target_inv"  # membership automaton: hub -> final


class ChainAutomaton(CancellationAutomaton):
    """A cancellation automaton that records its chains."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.chains = {}   # first edge id -> (kind, 1-based gen or 0, length)

    def record_chain(self, src, dst, word: SignedWord, kind: str, gen: int):
        self.chains[len(self.edges)] = (kind, gen, len(word.word))
        add_chain(self, src, dst, word)


def _chain_loops(kind: str, gens: GeneratorSet) -> ChainAutomaton:
    """Hub state 0 with one LOOP chain per generator, not yet indexed."""
    auto = ChainAutomaton(kind)
    auto.initial = auto.final = 0
    auto.n_states = 1
    for g in range(1, len(gens) + 1):
        auto.record_chain(auto.initial, auto.initial, gens.word(g), LOOP, g)
    return auto


def build_chain_loop_automaton(gens: GeneratorSet) -> ChainAutomaton:
    """Hub state 0 with one LOOP chain per generator."""
    auto = _chain_loops("loop", gens)
    auto.index()
    return auto


def build_chain_membership_automaton(gens: GeneratorSet, target_word: SignedWord) -> ChainAutomaton:
    """The chain loop automaton plus a TARGET_INV chain hub -> final
    spelling inv(target); the target is not +-I."""
    w = inv(target_word)
    assert w.word
    auto = _chain_loops("membership", gens)
    auto.final = auto.n_states
    auto.n_states += 1
    auto.record_chain(auto.initial, auto.final, w, TARGET_INV, 0)
    auto.index()
    return auto


def chain_sequence(auto: ChainAutomaton, path: list) -> list:
    """Generator index sequence of a path of whole chains: whole LOOP
    chains, closed on a membership automaton by the TARGET_INV chain."""
    runs = []
    idx = 0
    while idx < len(path):
        first = path[idx]
        kind, gen, length = auto.chains[first]
        end = idx + max(length, 1)
        assert path[idx:end] == list(range(first, first + end - idx))
        runs.append((kind, gen))
        idx = end
    if auto.final != auto.initial:
        assert runs and runs.pop()[0] == TARGET_INV
    assert runs and all(kind == LOOP for kind, _ in runs)
    return [gen for _, gen in runs]


def chain_target_automaton(gens: GeneratorSet, m: Mat2) -> tuple:
    """(automaton, sigma): the chain layout of
    `automata.build_membership_automaton(gens, decompose(m))`, and the sign
    of its goal; for +-I that is the loop automaton, with m's sign."""
    target = decompose(m)
    if target.word:
        return build_chain_membership_automaton(gens, target), 1
    return build_chain_loop_automaton(gens), target.sign


def chain_witness(gens: GeneratorSet, m: Mat2):
    """A factorization of m read off the goal-stopped saturation, or None."""
    auto, sigma = chain_target_automaton(gens, m)
    goal = (auto.initial, auto.final, sigma)
    sat = saturate(auto, goal)
    if goal not in sat.triples:
        return None
    return chain_sequence(auto, extract_path(auto, sat, *goal))


def chain_count(gens: GeneratorSet, m: Mat2, cap: int) -> tuple:
    """(count kind, value, sequences): every factorization, shortest first,
    when the count is exact, else None for the sequences."""
    auto, sigma = chain_target_automaton(gens, m)
    sat = saturate(auto)
    grammar = derivation_grammar(auto, sat, (auto.initial, auto.final, sigma))
    enum = enumerate_words(grammar, cap=cap)
    if not enum.exact:
        return ("more_than", cap, None) if enum.cycle is None else ("infinite", None, None)
    sequences = {tuple(chain_sequence(auto, list(path))) for path in enum.words}
    ordered = sorted(sequences, key=lambda s: (len(s), s))
    return "exact", len(ordered), [list(s) for s in ordered]
