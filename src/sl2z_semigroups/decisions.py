"""Decision procedures over generator sets, with machine-checkable verdicts.

Every procedure saturates cancellation automata.  Identity and membership
look up one triple, and their saturation stops once it is derived; one
saturation of the freeness automaton, stopped at pair (1, 2)'s goal,
decides every pair of generators and gives the least colliding pair's
witness; factorization counting and recurrence read the complete
relation's derivation grammar, whose words are the automaton paths of the
factorizations.  Every witness is re-multiplied once with exact arithmetic
before being returned.
"""

from dataclasses import dataclass

from .algebra import GeneratorSet, Mat2, SignedWord, decimal_str, decompose
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


def _trivial_path_witness(gens: GeneratorSet, auto, sigma: int, m: Mat2, what: str):
    """Sequence of a sigma-signed trivial path initial -> final of auto,
    re-multiplied to m, or None when there is no such path.  Saturation
    stops once that triple is derived.
    """
    goal = (auto.initial, auto.final, sigma)
    sat = am.saturate(auto, goal)
    if goal not in sat.triples:
        return None
    seq = am.extract_witness(auto, sat, *goal)
    _check_product(gens, seq, m, what)
    return seq


def identity_in_semigroup(gens: GeneratorSet) -> Verdict:
    """Does some nonempty product of generators equal the identity matrix?

    Exact: the saturation relation of the loop automaton contains
    (hub, hub, +) iff such a product exists.
    """
    seq = _trivial_path_witness(gens, am.build_loop_automaton(gens), 1, _ID,
                                "identity")
    if seq is None:
        return Verdict("identity", NO)
    return Verdict("identity", YES, _sequences_witness(seq))


def _target_automaton(gens: GeneratorSet, m: Mat2, target: SignedWord = None) -> tuple:
    """(automaton, sigma): the sigma-signed trivial paths initial -> final
    spell the factorizations of m.

    For m != +-I a chain spelling inv(m) is appended to the loop automaton
    and sigma is +1; the +-I cases are (hub, hub, sign) on the loop
    automaton itself.  `target` is m's reduced word when the caller has
    it, else `decompose(m)`.
    """
    if target is None:
        target = decompose(m)
    if target.word:
        return am.build_membership_automaton(gens, target), 1
    return am.build_loop_automaton(gens), target.sign


def membership(gens: GeneratorSet, m: Mat2) -> Verdict:
    """Is m a nonempty product of generators?  Exact: one lookup of the
    root triple of the target automaton."""
    auto, sigma = _target_automaton(gens, m)
    seq = _trivial_path_witness(gens, auto, sigma, m, "membership")
    if seq is None:
        return Verdict("membership", NO)
    return Verdict("membership", YES, _sequences_witness(seq))


def _first_collision(gens: GeneratorSet):
    """(freeness automaton, relation, goal) of the least pair i < j, in
    lexicographic order, such that some product starting with generator i
    equals one starting with j; or None.

    One saturation, stopped at pair (1, 2)'s goal, decides every pair: if
    (1, 2) collides it is the least pair, and if it does not, the goal is
    outside the relation and the saturation runs to the full fixpoint.
    """
    auto, goals = am.build_freeness_automaton(gens)
    if not goals:
        return None
    sat = am.saturate(auto, goals[0][1])
    goal = next((goal for _, goal in goals if goal in sat.triples), None)
    return None if goal is None else (auto, sat, goal)


def is_free(gens: GeneratorSet) -> Verdict:
    """Does every semigroup element factor uniquely over the generators?

    Exact.  Two distinct equal-product sequences either strip (dropping the
    common prefix) to a nonempty product equal to I, or to sequences
    starting with different generators i != j, which is precisely a positive
    trivial path initial_i -> final_j through the freeness automaton, whose
    paths there spell M_i G* (G^-1)* M_j^-1.  Without I, the witness is the
    path of the least colliding pair in lexicographic order
    (`_first_collision`), read off the same relation.
    """
    seq = _trivial_path_witness(gens, am.build_loop_automaton(gens), 1, _ID,
                                "identity")
    if seq is not None:
        # seq multiplies to I, so [1] + seq multiplies to M_1
        return Verdict("freeness", NO, _sequences_witness([1], [1] + seq))
    collision = _first_collision(gens)
    if collision is None:
        return Verdict("freeness", YES)
    auto, sat, goal = collision
    alpha, beta = am.decode_pattern_witness(auto, am.extract_path(auto, sat, *goal))
    _check_product(gens, beta, gens.product(alpha), "freeness")
    return Verdict("freeness", NO, _sequences_witness(alpha, beta))


# ---------------------------------------------------------------------------
# factorization counting on the derivation grammar of the saturation
# ---------------------------------------------------------------------------


class FactorizationCounter:
    """Counts factorizations of targets over one generator set.

    The paths of the target automaton (`_target_automaton`) that realize
    its root triple are runs of whole generator loops, closed by the target
    chain when m != +-I, so they biject with the factorizations of m.  The
    saturation's derivation grammar derives exactly those paths: a growth
    cycle in it certifies infinitely many factorizations, and its finite
    language decodes path by path into the factorizations.
    """

    def __init__(self, gens: GeneratorSet):
        self.gens = gens

    def _paths(self, m: Mat2, target: SignedWord = None):
        """(automaton, saturation, root triple, derivation grammar) of m."""
        auto, sigma = _target_automaton(self.gens, m, target)
        sat = am.saturate(auto)
        root = (auto.initial, auto.final, sigma)
        return auto, sat, root, am.derivation_grammar(auto, sat, root)

    def count(self, m: Mat2, cap: int):
        """(Count, sequences).

        The sequences are every factorization, shortest first, when the
        count is exact; one re-multiplied factorization when it is not; and
        empty when m is not a product.  Distinct paths decode to distinct
        factorizations, so two paths decoding to one raise.
        """
        auto, sat, root, grammar = self._paths(m)
        enum = gr.enumerate_words(grammar, cap=cap)
        if enum.exact:
            sequences = sorted((am.path_sequence(auto, list(path)) for path in enum.words),
                               key=lambda s: (len(s), s))
            for k, seq in enumerate(sequences):
                _check_product(self.gens, seq, m, "factorization")
                if k and seq == sequences[k - 1]:
                    raise DecisionError(f"two paths decode to the factorization {seq}")
            return Count("exact", len(sequences)), sequences
        cnt = Count("more_than", cap) if enum.cycle is None else Count("infinite")
        seq = am.extract_witness(auto, sat, *root)
        _check_product(self.gens, seq, m, "membership")
        return cnt, [seq]

    def recurrence_certificate(self, m: Mat2, target: SignedWord = None):
        """(growth cycle, pumped factorizations) of m, or None; `target` is
        m's reduced word when the caller has it.

        The derivation grammar's growth cycle runs through a triple A; the
        cycle is reported as its triples [A, ..., A].  Filling the other
        symbols of each step's body (a triple with `extract_path`, an edge
        with itself) splits the stem into paths u, v around A and the loop
        into x, y around A, so with w a path of A every u x^n w y^n v
        realizes the root triple.  The factorizations decoded for n = 1, 2,
        3 are each re-multiplied to m and must be pairwise distinct.
        """
        auto, sat, root, grammar = self._paths(m, target)
        growth = gr.find_growth_cycle(grammar)
        if growth is None:
            return None
        stem, loop = growth

        def fill(symbols):
            return [e for x in symbols for e in
                    (am.extract_path(auto, sat, *x) if isinstance(x, tuple) else [x])]

        def around(steps):
            left, right = [], []
            for _, body, i in steps:
                left, right = left + fill(body[:i]), fill(body[i + 1:]) + right
            return left, right

        (u, v), (x, y), w = around(stem), around(loop), fill([loop[0][0]])
        sequences = [am.path_sequence(auto, u + x * n + w + y * n + v) for n in (1, 2, 3)]
        for seq in sequences:
            _check_product(self.gens, seq, m, "recurrence")
        if len({tuple(seq) for seq in sequences}) != 3:
            raise DecisionError(f"pumped factorizations {sequences} are not distinct")
        cycle = [list(head) for head, _, _ in loop] + [list(loop[0][0])]
        return cycle, sequences


def count_factorizations(gens: GeneratorSet, m: Mat2, cap: int = 8) -> Verdict:
    """Number of distinct index sequences multiplying to m.

    Exact when finite and <= cap; MORE_THAN(cap) past the cap; INFINITE when
    the derivation grammar pumps.  Every enumerated sequence is re-verified
    by multiplication.
    """
    if cap < 1:
        raise DecisionError("cap must be >= 1")
    cnt, seqs = FactorizationCounter(gens).count(m, cap)
    if not seqs:
        return Verdict("count", NO, count=cnt)
    return Verdict("count", YES, _sequences_witness(*seqs), count=cnt)


def is_recurrent(gens: GeneratorSet, m: Mat2) -> Verdict:
    """Does m have infinitely many factorizations?  Exact via finiteness of
    the derivation grammar of m's target automaton."""
    certificate = FactorizationCounter(gens).recurrence_certificate(m)
    if certificate is None:
        return Verdict("recurrent", NO)
    cycle, sequences = certificate
    return Verdict("recurrent", YES, {"kind": "grammar_cycle", "cycle": cycle,
                                      "sequences": sequences})


def finite_freeness(gens: GeneratorSet, depth: int = 4) -> Verdict:
    """Does some semigroup element have infinitely many factorizations?

    Branch (a), exact: I in the semigroup, i.e. the (hub, hub, +1) triple
    of the loop automaton, which pumps every element.  -I needs no lookup
    of its own: if -I is a nonempty product P then P * P = I.  A trivial
    cycle at any other state would say no more: one at a shared state q
    spells v X u, X whole loops and u v = w_g for a loop g through q, so
    X * M_g = +-I.  Without I, a set in which no pair of generators
    collides (`_first_collision`, the freeness automaton's one saturation)
    is free: every element factors uniquely, so none is recurrent and no
    candidate is looked at.
    Otherwise branch (b), `recurrent_product_sweep`, exact per candidate: a
    recurrent product of <= depth generators (a recurrent matrix can exist
    without I, so branch (a) alone is not a complete criterion).  With
    neither, the honest answer is UNKNOWN_UP_TO(depth).
    """
    if depth < 1:
        raise DecisionError("depth must be >= 1")
    seq = _trivial_path_witness(gens, am.build_loop_automaton(gens), 1, _ID,
                                "finite freeness")
    if seq is not None:
        return Verdict("finite_freeness", NO, _sequences_witness(seq))
    if _first_collision(gens) is None:
        return Verdict("finite_freeness", UNKNOWN, depth_bound=depth)
    return recurrent_product_sweep(gens, depth)


def recurrent_product_sweep(gens: GeneratorSet, depth: int) -> Verdict:
    """Branch (b) of `finite_freeness` on its own: NO with the first
    recurrent product of <= depth generators, in the oracle table's order,
    else UNKNOWN_UP_TO(depth).

    Every product is a candidate, so the oracle's sequence budget applies
    (`oracle.OracleBudgetError`).  A candidate's target word is the reduced
    join of the generator words of its first sequence.
    """
    counter = FactorizationCounter(gens)
    table = oracle_mod.enumerate_products(gens, depth)
    for m in table.matrices():
        sequence = table.first_sequence(m)
        certificate = counter.recurrence_certificate(m, gens.sequence_word(sequence))
        if certificate is None:
            continue
        witness = {
            "kind": "recurrent_matrix",
            "matrix": [[decimal_str(m.a), decimal_str(m.b)],
                       [decimal_str(m.c), decimal_str(m.d)]],
            "sequence": sequence,
            "sequences": certificate[1],
        }
        pumping = table.pumping(m)
        if pumping is not None:
            alpha, sigma, gamma = pumping
            _check_product(gens, alpha + sigma + gamma, m, "pumping")
            witness["pumping"] = {"alpha": alpha, "sigma": sigma, "gamma": gamma}
        return Verdict("finite_freeness", NO, witness)
    return Verdict("finite_freeness", UNKNOWN, depth_bound=depth)
