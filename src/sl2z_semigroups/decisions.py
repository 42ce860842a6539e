"""Decision procedures over generator sets, with machine-checkable verdicts.

Every procedure saturates cancellation automata, lightest path first
(`automata.saturate`): a path weighs the generators its edges name, in
path order, so the witness of a triple is its least path.  Identity and
membership look up one triple, and their saturation stops once it is
final; their witness is the least factorization in (length,
lexicographic) order, the oracle's `ProductTable.first_sequence`.  A
stopped saturation also drops each triple that the marks of any path
into its start (`CancellationAutomaton.lead`) put past the goal's best
offer, which no witness can use.  One
saturation of the freeness automaton, stopped at pair (1, 2)'s goal,
decides every pair of generators and gives the least colliding pair's
witness, a collision of that pair with the fewest generators in all;
factorization counting and recurrence read the complete
relation's derivation grammar, whose words are the automaton paths of the
factorizations; finite freeness looks up the identity in the loop
automaton and otherwise searches the complete loop relation's rule
dependencies for one cycle.  Every witness is re-multiplied once with exact
arithmetic before being returned.

Every automaton is built from the shortest conjugate of the problem
(`GeneratorSet.conjugated`): the generators, and a target, conjugated by
one matrix M, which removes the shear padding the encodings put at the
ends of every word.  Conjugation is an automorphism, so it moves no
answer, count or index sequence; witness checks, reported matrices and
`_recurrent_matrix` use the original generators.  Only certificates that
name automaton states can move: `recurrent` cycles, the growth cycle a
finite-freeness witness is pumped along, and freeness paths of equal
weight that decode two ways.
"""

from dataclasses import dataclass

from .algebra import GeneratorSet, Mat2, matrix_json
from . import automata as am
from . import grammars as gr


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


def _goal_witness(gens: GeneratorSet, auto, m: Mat2, what: str):
    """(relation, sequence): the sequence of the least path of auto's goal,
    re-multiplied to m, or None when there is no such path.  Saturation
    stops once the goal is final, so without one the relation is complete.
    """
    sat = am.saturate(auto, auto.goal)
    if auto.goal not in sat.triples:
        return sat, None
    seq = am.extract_witness(auto, sat, *auto.goal)
    _check_product(gens, seq, m, what)
    return sat, seq


def _product_verdict(problem: str, gens: GeneratorSet, auto, m: Mat2) -> Verdict:
    """Is m a nonempty product of generators?  Exact: one lookup of the
    goal of its hub automaton."""
    _, seq = _goal_witness(gens, auto, m, problem)
    if seq is None:
        return Verdict(problem, NO)
    return Verdict(problem, YES, _sequences_witness(seq))


def identity_in_semigroup(gens: GeneratorSet) -> Verdict:
    """Does some nonempty product of generators equal the identity matrix?"""
    conj, _ = gens.conjugated()
    return _product_verdict("identity", gens, am.build_loop_automaton(conj), _ID)


def membership(gens: GeneratorSet, m: Mat2) -> Verdict:
    """Is m a nonempty product of generators?"""
    conj, target = gens.conjugated(m)
    return _product_verdict("membership", gens, am.build_membership_automaton(conj, target), m)


def is_free(gens: GeneratorSet) -> Verdict:
    """Does every semigroup element factor uniquely over the generators?

    Exact.  Two distinct equal-product sequences either strip (dropping the
    common prefix) to a nonempty product equal to I, or to sequences
    starting with different generators i != j, which is precisely a positive
    trivial path initial_i -> final_j through the freeness automaton, whose
    paths there spell M_i G* (G^-1)* M_j^-1.  Without I, the witness is the
    path of the least colliding pair i < j in lexicographic order.  One
    saturation, stopped at pair (1, 2)'s goal, decides every pair: if (1, 2)
    collides it is the least pair, and if it does not, the goal is outside
    the relation and the saturation runs to the full fixpoint.
    """
    conj, _ = gens.conjugated()
    _, seq = _goal_witness(gens, am.build_loop_automaton(conj), _ID, "identity")
    if seq is not None:
        # seq multiplies to I, so [1] + seq multiplies to M_1
        return Verdict("freeness", NO, _sequences_witness([1], [1] + seq))
    auto, goals = am.build_freeness_automaton(conj)
    sat = am.saturate(auto, goals[0][1]) if goals else None
    goal = next((goal for _, goal in goals if goal in sat.triples), None)
    if goal is None:
        return Verdict("freeness", YES)
    alpha, beta = am.decode_pattern_witness(auto, am.extract_path(auto, sat, *goal))
    _check_product(gens, beta, gens.product(alpha), "freeness")
    return Verdict("freeness", NO, _sequences_witness(alpha, beta))


# ---------------------------------------------------------------------------
# factorization counting on the derivation grammar of the saturation
# ---------------------------------------------------------------------------


class FactorizationCounter:
    """Counts factorizations of targets over one generator set.

    The paths of m's membership automaton that realize its goal are runs
    of whole generator loops, closed by the target chain when m != +-I, so
    they biject with the factorizations of m.  The saturation's derivation
    grammar derives exactly those paths: a growth cycle in it certifies
    infinitely many factorizations, and its finite language decodes path
    by path into the factorizations.
    """

    def __init__(self, gens: GeneratorSet):
        self.gens = gens

    def _paths(self, m: Mat2):
        """(automaton, saturation, derivation grammar of the goal) of m."""
        auto = am.build_membership_automaton(*self.gens.conjugated(m))
        sat = am.saturate(auto)
        return auto, sat, am.derivation_grammar(auto, sat, auto.goal)

    def count(self, m: Mat2, cap: int):
        """(Count, sequences).

        The sequences are every factorization, shortest first, when the
        count is exact; the least factorization, re-multiplied, when it is
        not; and empty when m is not a product.  Distinct paths decode to distinct
        factorizations, so two paths decoding to one raise.
        """
        auto, sat, grammar = self._paths(m)
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
        seq = am.extract_witness(auto, sat, *auto.goal)
        _check_product(self.gens, seq, m, "membership")
        return cnt, [seq]

    def recurrence_certificate(self, m: Mat2):
        """(growth cycle, pumped factorizations) of m, or None.

        The derivation grammar's growth cycle runs through a triple A; the
        cycle is reported as its triples [A, ..., A].  Filling the other
        symbols of each step's body (`_around`) splits the stem into paths
        u, v around A and the loop into x, y around A, so with w a path of
        A every u x^n w y^n v realizes the goal.  The factorizations
        decoded for n = 1, 2, 3 are each re-multiplied to m and must be
        pairwise distinct.
        """
        auto, sat, grammar = self._paths(m)
        growth = gr.find_growth_cycle(grammar)
        if growth is None:
            return None
        stem, loop = growth
        (u, v), (x, y), w = (_around(auto, sat, stem), _around(auto, sat, loop),
                             _fill(auto, sat, [loop[0][0]]))
        sequences = [am.path_sequence(auto, u + x * n + w + y * n + v) for n in (1, 2, 3)]
        _check_pumped(self.gens, sequences, m)
        cycle = [list(head) for head, _, _ in loop] + [list(loop[0][0])]
        return cycle, sequences


def _fill(auto, sat, symbols) -> list:
    """The edge path that a body's symbols spell: a triple's `extract_path`,
    an edge itself."""
    return [e for x in symbols for e in
            (am.extract_path(auto, sat, *x) if isinstance(x, tuple) else [x])]


def _around(auto, sat, steps) -> tuple:
    """(left, right): the paths that the steps of a growth cycle put before
    and after their last step's child, the other symbols of each body
    filled by `_fill`.  Each step's right piece goes before the right
    pieces of the steps above it, so they are joined once, last step's
    first, and the time is linear in the paths."""
    left, rights = [], []
    for _, body, i in steps:
        left += _fill(auto, sat, body[:i])
        rights.append(_fill(auto, sat, body[i + 1:]))
    return left, [e for piece in reversed(rights) for e in piece]


def _check_pumped(gens: GeneratorSet, sequences, m: Mat2):
    """Re-multiply pumped factorizations to m; they must be pairwise distinct."""
    for seq in sequences:
        _check_product(gens, seq, m, "recurrence")
    if len({tuple(seq) for seq in sequences}) != len(sequences):
        raise DecisionError(f"pumped factorizations {sequences} are not distinct")


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

    One saturation of the loop automaton, and NO is exact at any depth.
    Branch (a): I in the semigroup, i.e. the (hub, hub, +1) triple, which
    pumps every element.  -I needs no lookup of its own: if -I is a
    nonempty product P then P * P = I.  A trivial cycle at any other state
    would say no more: one at a shared state q spells v X u, X whole loops
    and u v = w_g for a loop g through q, so X * M_g = +-I.

    Without I the saturation ran to the complete relation, and some element
    is recurrent iff the rule dependencies of its triples (each triple
    depends on the triples in the bodies `automata.derivation_grammar`
    lists under it) have a cycle A =>+ x A y.  Such a cycle pumps: x y is
    nonempty and val(x) val(y) = I, and every state lies on a hub loop, so
    the closed hub paths through x^n w y^n (w a path of A) are distinct
    factorizations of one element.
    Conversely a recurrent element's membership grammar has a growth cycle
    A =>+ x A y, x and y closed paths at A's ends.  Without I neither is
    empty, since the other would be a trivial cycle; target-chain states
    lie on no cycle, so the cycle lies among the loop states, whose triples
    and bodies are the loop relation's.  One `find_growth_cycle` over every
    triple finds a cycle, and `_recurrent_matrix` reads the witness off it.
    An acyclic relation answers UNKNOWN_UP_TO(depth), the answer of a
    bounded search, though then no element is recurrent at any depth.
    """
    if depth < 1:
        raise DecisionError("depth must be >= 1")
    auto = am.build_loop_automaton(gens.conjugated()[0])
    sat, seq = _goal_witness(gens, auto, _ID, "finite freeness")
    if seq is not None:
        return Verdict("finite_freeness", NO, _sequences_witness(seq))
    growth = gr.find_growth_cycle(am.derivation_grammar(auto, sat), sat.triples)
    if growth is None:
        return Verdict("finite_freeness", UNKNOWN, depth_bound=depth)
    return Verdict("finite_freeness", NO, _recurrent_matrix(gens, auto, sat, growth[1]))


def _past_hub(auto, path: list) -> int:
    """The length of the path's prefix up to its first edge into the hub."""
    return next((k + 1 for k, e in enumerate(path) if auto.edges[e][1] == auto.initial), 0)


def _recurrent_matrix(gens: GeneratorSet, auto, sat, loop) -> dict:
    """The witness of a growth cycle A =>+ x A y of the loop relation.

    A = (q, p, sigma), x is closed at q and y at p, and every cycle of the
    loop automaton runs through the hub, so x = x1 x2 and y = y1 y2 split
    there (`_past_hub`).  Then alpha = seq(x2 x1), sigma = seq(x2 w y1) and
    gamma = seq(y2 y1), with w a path of A, and alpha^n sigma gamma^n is
    seq(x2 x^n w y^n y1), one element for every n.  Without I neither side
    is empty: with one empty, the other would be a closed trivial path,
    whose rotation through the hub is a product equal to I.  So a cycle
    with an empty side pumps no distinct sequences, and raises.  The pumped
    sequences for n = 1, 2, 3 are re-multiplied and must be pairwise
    distinct.
    """
    (x, y), w = _around(auto, sat, loop), _fill(auto, sat, [loop[0][0]])
    if not (x and y):
        raise DecisionError("a growth cycle with an empty side pumps sequences "
                            "that are not distinct")
    i, j = _past_hub(auto, x), _past_hub(auto, y)
    alpha = am.path_sequence(auto, x[i:] + x[:i])
    gamma = am.path_sequence(auto, y[j:] + y[:j])
    sigma = am.path_sequence(auto, x[i:] + w + y[:j])
    m = gens.product(sigma)
    sequences = [alpha * n + sigma + gamma * n for n in (1, 2, 3)]
    _check_pumped(gens, sequences, m)
    return {"kind": "recurrent_matrix", "matrix": matrix_json(m), "sequence": sigma,
            "sequences": sequences,
            "pumping": {"alpha": alpha, "sigma": sigma, "gamma": gamma}}
