"""Decision procedures over generator sets, with machine-checkable verdicts.

Identity, membership and freeness are decided exactly through saturation of
cancellation automata; factorization counting and recurrence go through the
target-grammar / marked-DFA intersection.  Every YES carries a witness that
is re-multiplied with exact arithmetic before being returned.
"""

from dataclasses import dataclass

from .algebra import GeneratorSet, Mat2, decompose
from . import automata as am
from . import grammars as gr
from . import oracle as oracle_mod


class DecisionError(ValueError):
    pass


YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN_UP_TO"

_ID = Mat2(1, 0, 0, 1)


@dataclass
class Count:
    kind: str            # "exact" | "more_than" | "infinite"
    value: int = None    # the count, or the exceeded cap

    def __repr__(self):
        if self.kind == "exact":
            return f"Count({self.value})"
        if self.kind == "more_than":
            return f"Count(>{self.value})"
        return "Count(infinite)"


@dataclass
class Verdict:
    problem: str
    answer: str
    witness: dict = None
    count: Count = None
    depth_bound: int = None

    def __repr__(self):
        extra = ""
        if self.count is not None:
            extra += f", count={self.count}"
        if self.depth_bound is not None:
            extra += f", depth={self.depth_bound}"
        return f"Verdict({self.problem}: {self.answer}{extra})"


def _sequences_witness(*seqs) -> dict:
    return {"kind": "sequences", "sequences": [list(s) for s in seqs]}


def _check_product(gens: GeneratorSet, seq, expected: Mat2, what: str):
    got = gens.product(seq)
    if got != expected:
        raise DecisionError(f"{what} witness {list(seq)} multiplies to {got}, "
                            f"expected {expected}")


def _trivial_path_witness(gens: GeneratorSet, auto, targets, what: str):
    """Saturate auto once; for the first (sigma, m) in targets with a
    sigma-signed trivial path initial -> final, return (sigma, sequence)
    with the sequence re-multiplied to m.  None when there is no such path.
    """
    sat = am.saturate(auto)
    for sigma, m in targets:
        if sat.has(auto.initial, auto.final, sigma):
            seq = am.extract_witness(auto, sat, auto.initial, auto.final, sigma, gens)
            _check_product(gens, seq, m, what)
            return sigma, seq
    return None


def identity_in_semigroup(gens: GeneratorSet) -> Verdict:
    """Does some nonempty product of generators equal the identity matrix?

    Exact: the saturation relation of the loop automaton contains
    (hub, hub, +) iff such a product exists.
    """
    found = _trivial_path_witness(gens, am.build_loop_automaton(gens),
                                  [(1, _ID)], "identity")
    if found is None:
        return Verdict("identity", NO)
    return Verdict("identity", YES, _sequences_witness(found[1]))


def membership(gens: GeneratorSet, m: Mat2) -> Verdict:
    """Is m a nonempty product of generators?  Exact.

    For m != +-I a chain spelling inv(m) is appended to the loop automaton
    and a positive trivial path hub -> final is queried; the +-I cases are
    (hub, hub, sign) queries on the loop automaton itself.
    """
    target = decompose(m)
    if target.word:
        auto, sigma = am.build_membership_automaton(gens, target), 1
    else:
        auto, sigma = am.build_loop_automaton(gens), target.sign
    found = _trivial_path_witness(gens, auto, [(sigma, m)], "membership")
    if found is None:
        return Verdict("membership", NO)
    return Verdict("membership", YES, _sequences_witness(found[1]))


def is_free(gens: GeneratorSet) -> Verdict:
    """Does every semigroup element factor uniquely over the generators?

    Exact.  Two distinct equal-product sequences either strip (dropping the
    common prefix) to a nonempty product equal to I, or to sequences
    starting with different generators i != j, which is precisely a positive
    trivial path through the pattern automaton M_i G* (G^-1)* M_j^-1.  Pairs
    are scanned in lexicographic order; the first witness found is reported.
    """
    found = _trivial_path_witness(gens, am.build_loop_automaton(gens),
                                  [(1, _ID)], "identity")
    if found is not None:
        alpha, beta = [1], [1] + found[1]
        _check_product(gens, alpha, gens.matrix(1), "freeness")
        _check_product(gens, beta, gens.matrix(1), "freeness")
        return Verdict("freeness", NO, _sequences_witness(alpha, beta))
    n = len(gens)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            auto = am.build_pattern_automaton(i, j, gens)
            sat = am.saturate(auto)
            if not sat.has(auto.initial, auto.final, 1):
                continue
            path = am.extract_path(auto, sat, auto.initial, auto.final, 1)
            alpha, beta = am.decode_pattern_witness(auto, path, gens)
            return Verdict("freeness", NO, _sequences_witness(alpha, beta))
    return Verdict("freeness", YES)


# ---------------------------------------------------------------------------
# factorization counting through the grammar pipeline
# ---------------------------------------------------------------------------


class FactorizationCounter:
    """Counts factorizations of targets over one generator set.

    The marked DFA carries the running generator-sign parity, so the two
    intersection components below together derive exactly the marked words
    of true factorizations of m:

      value(seq) = (sign product) * phi(concatenated words), hence
      seq multiplies to m  iff  phi-part == phi(w_m)  and parity == sign(m),
                            or  phi-part == -phi(w_m) and parity == -sign(m).

    The N+/N- core of the target grammar never mentions the target word, so
    its item fixpoint over the DFA is computed once and cloned per target.
    """

    def __init__(self, gens: GeneratorSet):
        self.gens = gens
        self.dfa = gr.build_marked_semigroup_dfa(gens, sign_parity=1)
        lifted_core = gr.lift_over_markers(
            gr.Grammar({gr.N_POS, gr.N_NEG}, {"s", "r"},
                       gr._n_core_productions(), gr.N_POS),
            self.dfa.markers)
        core_prods = [(h, b) for h, b in lifted_core.productions
                      if h != lifted_core.start]
        self._core = gr.IntersectionEngine(self.dfa)
        self._core.add_rules(core_prods)

    def components(self, m: Mat2) -> list:
        """Two trimmed intersection grammars whose languages partition the
        marked words of the true factorizations of m."""
        target = decompose(m)
        eng = self._core.clone()
        wired = []
        for head, body in gr.target_chain_productions(target.word):
            wired.append((head, tuple(
                gr._lift_symbol(x) if x in ("s", "r") else x for x in body)))
        starts = {}
        for phi_sign in (1, -1):
            st = ("counting_start", phi_sign)
            starts[phi_sign] = st
            wired.append((st, (gr.LIFT_PAD, gr._chain_symbol(1, phi_sign))))
        eng.add_rules(wired)
        comps = []
        for phi_sign in (1, -1):
            parity = target.sign * phi_sign
            finals = [self.dfa.hub_states[parity]]
            comps.append(eng.extract_grammar(starts[phi_sign],
                                             set(self.dfa.alphabet), finals))
        return comps

    def count(self, m: Mat2, cap: int):
        """(Count, ordered sequences or None)."""
        comps = self.components(m)
        if any(gr.find_growth_cycle(c) is not None for c in comps):
            return Count("infinite"), None
        sequences = set()
        for comp in comps:
            enum = gr.enumerate_words(comp, cap=cap)
            if not enum.exact:
                return Count("more_than", cap), None
            for wtuple in enum.words:
                seq = tuple(self.dfa.decode(wtuple))
                _check_product(self.gens, seq, m, "factorization")
                sequences.add(seq)
            if len(sequences) > cap:
                return Count("more_than", cap), None
        ordered = sorted(sequences, key=lambda s: (len(s), s))
        return Count("exact", len(ordered)), [list(s) for s in ordered]

    def recurrence_certificate(self, m: Mat2):
        """Growth cycle of a component grammar, or None."""
        for comp in self.components(m):
            cycle = gr.find_growth_cycle(comp)
            if cycle is not None:
                return cycle
        return None


def count_factorizations(gens: GeneratorSet, m: Mat2, cap: int = 8) -> Verdict:
    """Number of distinct index sequences multiplying to m.

    Exact when finite and <= cap; MORE_THAN(cap) past the cap; INFINITE when
    the intersection grammar pumps.  Every enumerated sequence is re-verified
    by multiplication.
    """
    if cap < 1:
        raise DecisionError("cap must be >= 1")
    member = membership(gens, m)
    if member.answer == NO:
        return Verdict("count", NO, count=Count("exact", 0))
    counter = FactorizationCounter(gens)
    cnt, seqs = counter.count(m, cap)
    if cnt.kind == "exact" and cnt.value == 0:
        raise DecisionError(f"membership says YES but counting found nothing for {m}")
    witness = _sequences_witness(*seqs) if seqs else member.witness
    return Verdict("count", YES, witness, count=cnt)


def is_recurrent(gens: GeneratorSet, m: Mat2) -> Verdict:
    """Does m have infinitely many factorizations?  Exact via finiteness of
    the intersection grammar."""
    cycle = FactorizationCounter(gens).recurrence_certificate(m)
    if cycle is not None:
        return Verdict("recurrent", YES,
                       {"kind": "grammar_cycle", "cycle": [repr(x) for x in cycle]})
    return Verdict("recurrent", NO)


def finite_freeness(gens: GeneratorSet, depth: int = 4) -> Verdict:
    """Does some semigroup element have infinitely many factorizations?

    Branch (a), exact: +-I in the semigroup, i.e. a (hub, hub, +-1) triple
    of the loop automaton, which pumps every element.  A trivial cycle at
    any other state would say no more: a cycle at a mid-chain state q of
    chain c forces M_c * X = +-I for the block X of full chains it
    traverses.  Branch (b), exact per candidate: a recurrent product of
    <= depth generators (a recurrent matrix can exist without +-I, so
    branch (a) alone is not a complete criterion).  With neither, the
    honest answer is UNKNOWN_UP_TO(depth).
    """
    if depth < 1:
        raise DecisionError("depth must be >= 1")
    found = _trivial_path_witness(gens, am.build_loop_automaton(gens),
                                  [(1, _ID), (-1, -_ID)], "finite freeness")
    if found is not None:
        sign, seq = found
        if sign == -1:
            seq = seq + seq
            _check_product(gens, seq, _ID, "finite freeness")
        return Verdict("finite_freeness", NO, _sequences_witness(seq))

    counter = FactorizationCounter(gens)
    table = oracle_mod.enumerate_products(gens, depth)
    for m in table.matrices():
        gcycle = counter.recurrence_certificate(m)
        if gcycle is None:
            continue
        witness = {
            "kind": "recurrent_matrix",
            "matrix": [[str(m.a), str(m.b)], [str(m.c), str(m.d)]],
            "sequence": table.first_sequence(m),
            "grammar_cycle": [repr(x) for x in gcycle],
        }
        pumping = oracle_mod.find_pumping(gens, depth, target=m)
        if pumping is not None:
            alpha, sigma, gamma = pumping
            left = alpha + sigma + gamma
            _check_product(gens, left, m, "pumping")
            witness["pumping"] = {"alpha": alpha, "sigma": sigma, "gamma": gamma}
        return Verdict("finite_freeness", NO, witness)
    return Verdict("finite_freeness", UNKNOWN, depth_bound=depth)
