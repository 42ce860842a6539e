"""Cancellation automata over {s,r} and their signed epsilon-saturation.

An automaton edge carries a label in {s, r, eps} and a weight in {+1,-1};
the value of a path is the product of weight * phi(label) over its edges.
Saturation computes every triple (q, p, sigma) such that some nonempty path
q -> p has value sigma * I, i.e. its letter word reduces to the empty word
with accumulated sign sigma.  It derives the triples lightest first, a path
weighing the generators its edges name, so the derivation recorded for a
triple expands into its least path (and hence, on a loop or membership
automaton, the least generator sequence); every rule instance, listed
under the triple it yields, gives the grammar of all its paths.
"""

from heapq import heappop, heappush
from itertools import chain, repeat

from .algebra import GeneratorSet, SignedWord, _stack_reduce, inv
from .grammars import Grammar


class AutomatonError(ValueError):
    pass


class WitnessError(RuntimeError):
    """A requested witness does not exist or failed re-verification."""


class CancellationAutomaton:
    """Finite automaton over {s,r} with sign-weighted base epsilon edges.

    States are ints and edges are ids into `edges`.  A builder counts the
    states in `n_states`, appends each edge to `edges` as a tuple, and calls
    `index` once at the end.  `s_in`/`s_out`/`r_in`/`r_out` then hold per
    state a tuple of the s/r edges entering / leaving it, in id order, as
    `eps_edges` lists the base epsilon edges.  Paths decode by the loops'
    own edges and the taps, named in `opens`, `closes`, `heads` and `tails`
    (see `_hub_loops` and `_shared_loops`), and `marks` holds per edge the
    generator it names there, as a tuple of none or one, which `saturate`
    weighs paths by.  `lead` holds per state a lower bound on the marks of
    every path from `initial` (or from an initial tap) to it: `(g,)` on a
    state of the hub's loops, g the first generator whose loop passes it,
    which every path into it opens or taps, and `()` on every other state.
    `first_loop` holds per generator g the range of the states that its
    loop at the hub creates, the states whose first loop is g's, and
    `index` gives them all one shared `(g,)`.
    An automaton that answers one question names its triple in `goal`.
    Immutable once built (builders below do all mutation).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.n_states = 0
        self.initial = None
        self.final = None
        self.goal = None      # (initial, final, sign) of a single-question automaton
        self.edges = []       # (src, dst, label in 'sr' or None, weight)
        # edge id -> the 1-based generator whose loop at the hub (A) it opens,
        # whose loop at B it closes, or whose initial / final tap it is
        self.opens, self.closes, self.heads, self.tails = {}, {}, {}, {}
        self.first_loop = []  # per generator, the range of hub-loop states its loop creates
        self.s_in = self.s_out = self.r_in = self.r_out = None
        self.eps_edges = self.marks = self.lead = None

    def index(self) -> None:
        """Index the finished edge list per state and label, in one pass,
        then the marks per edge and the leads per state."""
        # per-state edge lists are tuples without spare room, and most states
        # of a loop have one edge in and one out, so most share the empty one
        # or hold the one (e,) that both lists of edge e start from
        n = self.n_states
        s_in, s_out, r_in, r_out = [()] * n, [()] * n, [()] * n, [()] * n
        eps_edges = []
        for e, (src, dst, label, _) in enumerate(self.edges):
            ids = (e,)  # () + ids is ids itself
            if label == "s":
                s_in[dst] += ids
                s_out[src] += ids
            elif label == "r":
                r_in[dst] += ids
                r_out[src] += ids
            else:
                eps_edges.append(e)
        self.s_in, self.s_out, self.r_in, self.r_out = s_in, s_out, r_in, r_out
        self.eps_edges = eps_edges
        marks = [()] * len(self.edges)
        for named in (self.opens, self.closes, self.heads, self.tails):
            for e, g in named.items():
                marks[e] = (g,)
        self.marks = marks
        lead = [()] * n
        for g, states in enumerate(self.first_loop, start=1):
            lead[states.start:states.stop] = [(g,)] * len(states)
        self.lead = lead

    # -- views -----------------------------------------------------------------

    def path_value(self, edge_ids) -> SignedWord:
        """Reduced signed word spelled by an edge path, by `reduce`'s stack
        pass: the paths checked here are trivial ones, whose words are deep
        nests that `reduce`'s rounds would hand to that pass anyway."""
        sign = 1
        letters = []
        for e in edge_ids:
            src, dst, label, weight = self.edges[e]
            sign *= weight
            if label is not None:
                letters.append(label)
        return _stack_reduce("".join(letters), sign)

    def __repr__(self):
        return (f"CancellationAutomaton({self.kind}, {self.n_states} states, "
                f"{len(self.edges)} edges)")


def _hub_loops(auto: CancellationAutomaton, hub: int, words: list, inward: bool) -> list:
    """Lay one loop at hub per word, generator g's the g-th; the loops' own
    edges.

    Each loop's own edge carries its sign, and the rest of the loop is a
    path of +1 edges in a tree that the loops share, so each state of the
    tree has one path to the hub or from it.  Inward (A, the words w_g),
    the own edge spells the first letter out of the hub, is recorded in
    `auto.opens`, and enters the tree of the words' suffixes, which leads
    back to the hub.  Outward (B, the words inv(w_g)), the tree of the
    prefixes leaves the hub, and the own edge spells the last letter back
    into it and is recorded in `auto.closes`.

    A loop walks the tree only through the part it shares with earlier
    loops, then lays the rest as one run of new states n, n+1, ..., each
    edge joining a state to the one before it (the first to where the walk
    stopped), with one `extend`.  So the tree keeps one entry per loop:
    `branch` maps (state, letter) to the run that leaves the state by that
    letter, and inside a run the next state is the next number.  The loops
    are laid in index order, so the loop that creates a state is the first
    that passes it; inward, `auto.first_loop` keeps each loop's run."""
    edges = auto.edges
    n = auto.n_states
    own, runs = [], []
    branch = {}   # (state, letter) -> (first state of the run leaving it by that letter, its path)
    for w in words:
        # the letters of the tree's path, from the hub
        path = w.word[:0:-1] if inward else w.word[:-1]
        # the walk is at `node`, d letters from the hub, on the run of `along`
        node, along, d = hub, "", 0
        while d < len(path):
            ch = path[d]
            if d < len(along) and along[d] == ch:
                node += 1
            else:
                hit = branch.get((node, ch))
                if hit is None:
                    break
                node, along = hit
            d += 1
        run = range(n, n + len(path) - d)
        runs.append(run)
        if run:
            branch[node, path[d]] = n, path
            before = chain((node,), run[:-1])
            edges.extend(zip(run, before, path[d:], repeat(1)) if inward
                         else zip(before, run, path[d:], repeat(1)))
            node, n = run[-1], run.stop
        own.append(len(edges))
        if inward:
            edges.append((hub, node, w.word[:1] or None, w.sign))
        else:
            edges.append((node, hub, w.word[-1:] or None, w.sign))
    (auto.opens if inward else auto.closes).update(zip(own, range(1, len(own) + 1)))
    if inward:
        auto.first_loop = runs
    auto.n_states = n
    return own


def _hub_automaton(gens: GeneratorSet, target_word: SignedWord) -> CancellationAutomaton:
    """Hub state 0 with one loop per generator (`_hub_loops`) and a chain
    spelling inv(target) from the hub to `final`.

    Closed paths at the hub are in bijection with nonempty generator index
    sequences.  For a target other than +-I the chain is nonempty and
    reduced, its first edge carries the sign, and the goal is
    (hub, final, +1): a trivial path of it traverses at least one loop and
    spells a factorization of the target.  For +-I the chain is empty,
    `final` is the hub, and the goal (hub, hub, sign) carries the sign.
    """
    w = inv(target_word)
    auto = CancellationAutomaton("membership" if w.word else "loop")
    auto.initial = 0
    auto.n_states = 1
    _hub_loops(auto, 0, [g.word for g in gens], True)
    # the chain hub -> final: final, then the chain's inner states in order
    n = auto.n_states
    auto.n_states = n + len(w.word)
    prev, weight = 0, w.sign
    for ch, nxt in zip(w.word, [*range(n + 1, n + len(w.word)), n]):
        auto.edges.append((prev, nxt, ch, weight))
        prev, weight = nxt, 1
    # the sign that no chain edge took is the goal's
    auto.final = prev
    auto.goal = (0, prev, weight)
    auto.index()
    return auto


def build_loop_automaton(gens: GeneratorSet) -> CancellationAutomaton:
    """The hub automaton of I: (hub, hub, +1) in the saturation relation
    says exactly that I is a nonempty product."""
    return _hub_automaton(gens, SignedWord(1, ""))


def _shared_loops(kind: str, gens: GeneratorSet, heads, tails) -> tuple:
    """(automaton, [initial_g for g in heads], [final_g for g in tails]).

    A carries the loops w_g of `_hub_loops`, an epsilon edge of weight +1
    joins A to B, and B carries the loops inv(w_g), which share their
    prefixes and each end with an own edge carrying the sign.  A tap copies
    the first edge of A's loop g out of initial_g, or the last edge of B's
    loop g into final_g.  Shared states lead to A, or are reached from B,
    one way only, so a path initial_i -> final_j spells
    w_i u inv(v) inv(w_j) with u, v in G*.  The automaton records the
    generator whose loop each own edge opens or closes, and whose initial
    (`heads`) or final (`tails`) tap each tap is.
    """
    auto = CancellationAutomaton(kind)
    edges = auto.edges
    a, b = 0, 1
    auto.n_states = 2
    words = [g.word for g in gens]
    firsts = _hub_loops(auto, a, words, True)
    edges.append((a, b, None, 1))
    lasts = _hub_loops(auto, b, [inv(w) for w in words], False)
    n = auto.n_states
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
    auto.index()
    return auto, initials, finals


def build_pattern_automaton(i: int, j: int, gens: GeneratorSet) -> CancellationAutomaton:
    """Accepts the values of M_i u v^-1 M_j^-1 for u, v in G* (1-based i != j).

    `_shared_loops` tapped for initial_i and final_j only, its initial and
    final states.  A trivial path of its goal (initial, final, +1)
    witnesses M_i u = M_j v, two factorizations starting with different
    generators, which `decode_pattern_witness` reads off the path.
    """
    if i == j:
        raise AutomatonError("pattern automaton needs two distinct indices")
    n = len(gens)
    if not (1 <= i <= n and 1 <= j <= n):
        raise AutomatonError(f"indices out of range: ({i}, {j}) with {n} generators")
    auto, (auto.initial,), (auto.final,) = _shared_loops("pattern", gens, (i,), (j,))
    auto.goal = (auto.initial, auto.final, 1)
    return auto


def build_freeness_automaton(gens: GeneratorSet) -> tuple:
    """One automaton for every pattern pair: (automaton, [((i, j), goal)]).

    `_shared_loops` tapped for every generator: the paths initial_i ->
    final_j spell the words of `build_pattern_automaton(i, j)`, so the goal
    (initial_i, final_j, +1) answers that pair.  The pairs i < j come in
    lexicographic order.
    """
    n = len(gens)
    everyone = range(1, n + 1)
    auto, initials, finals = _shared_loops("freeness", gens, everyone, everyone)
    goals = [((i, j), (initials[i - 1], finals[j - 1], 1))
             for i in everyone for j in range(i + 1, n + 1)]
    return auto, goals


def build_membership_automaton(gens: GeneratorSet, target_word: SignedWord) -> CancellationAutomaton:
    """The hub automaton of any target: for +-I it is the loop automaton,
    with the target's sign in its goal."""
    return _hub_automaton(gens, target_word)


class SaturationRelation:
    """Triples (q, p, sigma) with a nonempty trivial path q -> p.

    `parents` is the relation itself: it maps each triple, in the order the
    triples became final, to its lightest derivation, which witness
    extraction expands:
      ("eps", edge, marks)                        base epsilon edge
      ("ss", e1, gap, e2, marks)                  s (gap) s cancellation
      ("rrr", e1, gap1, e2, gap2, e3, marks)      r (gap1) r (gap2) r
      ("compose", t1, t2, marks)                  transitive composition
    where a gap is a triple, or None for the empty path, and `marks`, last,
    is the triple's weight.  A triple weighs (number of marks, the marks in
    path order) of the path its derivation expands into, a mark being the
    generator an edge names in `opens`, `heads`, `closes` or `tails`; no
    path of the triple weighs less.  On a
    loop or membership automaton the marks are the path's index sequence,
    so the witness of a triple is its least factorization in (length,
    lexicographic) order.  `triples` is the key view, and `gaps_from[q]`
    lists the triples leaving state q, in the same order: it is the shared
    empty tuple `()` until the first such triple, which makes it a list, so
    a state that no triple leaves costs no list.

    `complete` is False when `saturate` stopped at its goal: `parents` is
    then the full relation's prefix up to the goal, in order and with the
    same derivations, less the triples that no goal path lighter than the
    goal's could pass (see `saturate`).  It holds the goal and every triple
    before it whose `lead` at its start plus its weight is lighter than the
    goal's weight, which is all a lookup or a witness needs.  Counting and
    recurrence read the complete relation.
    """

    def __init__(self, n_states: int):
        self.parents = {}
        self.gaps_from = [()] * n_states
        self.complete = True

    @property
    def triples(self):
        return self.parents.keys()

    def has(self, q: int, p: int, sigma: int) -> bool:
        return (q, p, sigma) in self.parents

    def __len__(self):
        return len(self.parents)

    def __iter__(self):
        return iter(self.parents)


def saturate(auto: CancellationAutomaton, goal: tuple = None) -> SaturationRelation:
    """Least fixpoint of the cancellation rules, lightest triple first, or
    its prefix up to a goal.

    (q,p,sigma) enters the relation iff some nonempty edge path q -> p spells
    a word reducing to the empty word with total sign sigma (edge weights
    times one flip per deleted "ss"/"rrr").  Sound and complete: deletions in
    a word nest, so the first letter of a trivial word cancels against later
    matching letters with trivial gaps in between, which is exactly the rule
    shape below.

    The agenda is Knuth's lightest derivation (Knuth, "A generalization of
    Dijkstra's algorithm", IPL 1977; Felzenszwalb and McAllester, "The
    generalized A* architecture", JAIR 2007).  A rule instance weighs
    (number of marks, the marks in path order) of its edges and gaps
    (`SaturationRelation`), and its conclusion is offered with that
    weight.  Concatenation is monotone in (length, lexicographic) order and
    no lighter than either part, so the least offered weight is final.  The
    agenda is a heap of the weights offered and not yet taken, each with
    the triples offered at it in offer order: triples pop by (weight, offer
    order), as from a heap of (length, marks, counter, triple), and an
    offer of the weight being taken joins the end of its list.  The marks
    fix the weight, so the lists are keyed by the marks, and a weight goes
    on the heap only when its list is made; a pending offer is its
    derivation, whose last element is its marks, and a final triple keeps
    the same tuple in `parents`.  An offer replaces a triple's pending one
    only when it is strictly lighter; the superseded entry comes up after
    the triple became final and is skipped.  A popped triple is final with
    its least weight and its first derivation of that weight.  Rules pair
    it only with final triples, through each state's lists of the final
    triples leaving / entering it, made at the first such triple
    (`SaturationRelation`), so each instance fires once its last gap is
    final; an instance whose conclusion is final offers nothing.

    Every gap is optional.  The empty gap (x, x, +) of each state with an s
    edge in and an s edge out, or an r edge in and an r edge out, fires its
    instances of rules (i) and (ii) once at the start, after the
    epsilon-edge offers; at any other state it fires none.  An instance
    with one empty gap of rule (ii) fires when its other gap becomes final.

    With a goal triple the agenda stops once the goal is final.  The goal
    must start at a state of `lead` (), as every builder's goals do, or
    it raises.  A path of the goal through a triple (q, p, sigma) runs from
    the goal's start to q, then along the triple's path, then on from p, so
    it weighs at least lead[q] + w, w the triple's weight: the context
    bound of lightest-derivation search (Felzenszwalb and McAllester), used
    only to discard.  An offer is dropped when that is no lighter than the
    goal's best offer (`bound`); for the goal, whose start has lead (), this
    is w >= bound, an offer that would pop after the goal.  A triple
    offered before the bound fell this low is tested again when it pops,
    unless it leaves a state of lead (): such a triple pops before the goal
    only if it was offered before it at no more than its weight.  Since
    lead[q] is at most lead[q'] plus the mark of any edge q' -> q, a triple
    whose derivation uses a dropped one is dropped too.  So the stopped
    relation is the full one's prefix up to the goal less the dropped
    triples, in order, with the same derivations, and the goal's witness is
    its least path.  A goal outside the relation is never offered, so there
    is no bound and its run is the full fixpoint.  The relation records
    whether it is complete.
    """
    n = auto.n_states
    edges = auto.edges
    s_in, s_out, r_in, r_out = auto.s_in, auto.s_out, auto.r_in, auto.r_out
    marks, lead = auto.marks, auto.lead
    if goal is not None and lead[goal[0]]:
        raise AutomatonError(f"goal {goal} starts at a state with a lead")

    rel = SaturationRelation(n)
    parents = rel.parents
    # the final triples leaving / entering each state, in the order they
    # became final
    gaps_from = rel.gaps_from
    gaps_to = [()] * n
    best = {}       # triple -> its lightest offer, a derivation ending in its marks
    weights = []    # heap of the weights offered and not yet popped
    buckets = {}    # marks -> the triples offered at them, in offer order
    bound = None    # the weight of the goal's lightest offer

    def past_goal(t, w):
        """Whether every path of the goal through a triple of weight w
        weighs at least the goal's best offer."""
        q_lead = lead[t[0]]
        return (len(q_lead) + w[0], q_lead + w[1]) >= bound

    def offer(t, parent):
        """Queue a derivation of a triple not yet final, if it is the
        lightest offer yet and not `past_goal`."""
        nonlocal bound
        ms = parent[-1]
        old = best.get(t)
        if old is not None:
            om = old[-1]
            if len(ms) > len(om) or len(ms) == len(om) and ms >= om:
                return
        if bound is not None and past_goal(t, (len(ms), ms)):
            return
        best[t] = parent
        queue = buckets.get(ms)
        if queue is None:
            buckets[ms] = queue = []
            heappush(weights, (len(ms), ms))
        queue.append(t)
        if t == goal:
            bound = (len(ms), ms)

    def first_gap(x, y, sg, gm, t):
        """Rules (i) and (ii) with the gap x -> y (t, None if empty; marks
        gm) first."""
        # rule (i): the gap between two s edges
        for e1 in s_in[x]:
            q, _, _, w1 = edges[e1]
            base = -sg * w1
            head = marks[e1] + gm
            for e2 in s_out[y]:
                _, p, _, w2 = edges[e2]
                t3 = (q, p, base * w2)
                if t3 not in parents:
                    offer(t3, ("ss", e1, t, e2, head + marks[e2]))
        # rule (ii): the first gap of r (gap) r (gap) r
        for e1 in r_in[x]:
            q, _, _, w1 = edges[e1]
            head = marks[e1] + gm
            for e2 in r_out[y]:
                _, z, _, w2 = edges[e2]
                base = -sg * w1 * w2
                mid = head + marks[e2]
                # the empty second gap, then the final triples leaving z
                for e3 in r_out[z]:
                    _, p, _, w3 = edges[e3]
                    t3 = (q, p, base * w3)
                    if t3 not in parents:
                        offer(t3, ("rrr", e1, t, e2, None, e3, mid + marks[e3]))
                for t2 in gaps_from[z]:
                    m2 = mid + parents[t2][-1]
                    _, u, sg2 = t2
                    for e3 in r_out[u]:
                        _, p, _, w3 = edges[e3]
                        t3 = (q, p, base * sg2 * w3)
                        if t3 not in parents:
                            offer(t3, ("rrr", e1, t, e2, t2, e3, m2 + marks[e3]))

    for e in auto.eps_edges:
        src, dst, _, weight = edges[e]
        offer((src, dst, weight), ("eps", e, marks[e]))
    # only a state with an s edge in and out, or an r edge in and out, has a
    # rule instance around its empty gap
    for x in range(n):
        if s_in[x] and s_out[x] or r_in[x] and r_out[x]:
            first_gap(x, x, 1, (), None)

    while weights and goal not in parents:
        # the triples offered at the least weight, in offer order; offers of
        # the same weight made meanwhile join the end of the list
        w = heappop(weights)
        gm = w[1]
        for t in buckets[gm]:
            entry = best.pop(t, None)
            if entry is None:
                continue    # superseded by a lighter offer, which popped first
            if bound is not None and lead[t[0]] and past_goal(t, w):
                # offered before the bound fell this low; off a state of
                # lead (), a triple pops before the goal only if it was
                # offered before it at no more than its weight, and stays
                continue
            parents[t] = entry
            x, y, sg = t
            # a state's gap list is made at its first triple
            if gaps_from[x]:
                gaps_from[x].append(t)
            else:
                gaps_from[x] = [t]
            if gaps_to[y]:
                gaps_to[y].append(t)
            else:
                gaps_to[y] = [t]
            if t == goal:
                break
            first_gap(x, y, sg, gm, t)

            # rule (ii): the second gap
            for e3 in r_out[y]:
                _, p, _, w3 = edges[e3]
                tail = gm + marks[e3]
                for e2 in r_in[x]:
                    y1, _, _, w2 = edges[e2]
                    base = -sg * w2 * w3
                    mid = marks[e2] + tail
                    # the empty first gap, then the final triples entering y1
                    for e1 in r_in[y1]:
                        q, _, _, w1 = edges[e1]
                        t3 = (q, p, base * w1)
                        if t3 not in parents:
                            offer(t3, ("rrr", e1, None, e2, t, e3, marks[e1] + mid))
                    for t1 in gaps_to[y1]:
                        m1 = parents[t1][-1] + mid
                        q1, _, sg1 = t1
                        for e1 in r_in[q1]:
                            q, _, _, w1 = edges[e1]
                            t3 = (q, p, base * sg1 * w1)
                            if t3 not in parents:
                                offer(t3, ("rrr", e1, t1, e2, t, e3, marks[e1] + m1))

            # rule (iii): transitive composition with the final triples
            for t2 in gaps_from[y]:
                t3 = (x, t2[1], sg * t2[2])
                if t3 not in parents:
                    offer(t3, ("compose", t, t2, gm + parents[t2][-1]))
            for t0 in gaps_to[x]:
                t3 = (t0[0], y, t0[2] * sg)
                if t3 not in parents:
                    offer(t3, ("compose", t0, t, parents[t0][-1] + gm))
        del buckets[gm]

    # the goal's turn is the last one: once it is final the run stops, and
    # some offers may have been dropped or left on the agenda
    rel.complete = goal not in parents
    return rel


def derivation_grammar(auto: CancellationAutomaton, sat: SaturationRelation,
                       root: tuple = None) -> Grammar:
    """Grammar of every edge path that realizes the root triple.

    Nonterminals are the triples of the relation, also those the root does
    not reach, and terminals are edge ids.  A triple's productions are the
    bodies of every instance of a `saturate` rule that yields it, so each
    triple (q, p, sigma) derives exactly the nonempty paths q -> p of value
    sigma * I.  One forward pass lists them, and the grammar takes the
    listing as it is, each triple's bodies in listing order: the epsilon edges, then at each state q that some triple
    leaves, the instances leaving q, `s gap s`, `r gap r gap r`, then the
    compositions of each triple leaving q with the triples leaving its
    end.  A gap is the empty path or a triple, read from `gaps_from` after
    the empty one.  The relation is closed under the rules, so every
    instance yields one of its triples.  There are no epsilon or unit
    productions, and every triple of the relation derives a path, so the
    grammar is proper in the sense of `grammars.find_growth_cycle`.  A root
    outside the relation gives the empty grammar.  Without a root the
    grammar has no start.  The relation must be complete: a
    goal-stopped one lacks rule instances, so it raises.
    """
    if not sat.complete:
        raise AutomatonError("derivation grammar needs the complete saturation, "
                             "not one stopped at a goal")
    triples = sat.triples
    terminals = set(range(len(auto.edges)))
    if root is not None and root not in triples:
        return Grammar({root}, terminals, [], root)
    edges, gaps_from, s_out, r_out = auto.edges, sat.gaps_from, auto.s_out, auto.r_out
    bodies = {t: [] for t in triples}

    def gap_edge(x, out):
        """(far end, sign, body piece) of each gap leaving x, the empty one
        first, followed by an edge of `out`."""
        gaps = chain([(x, 1, ())], ((t[1], t[2], (t,)) for t in gaps_from[x]))
        for y, sg, g in gaps:
            for e in out[y]:
                _, p, _, w = edges[e]
                yield p, sg * w, (*g, e)

    for e in auto.eps_edges:
        src, dst, _, weight = edges[e]
        bodies[src, dst, weight].append((e,))
    for q in range(auto.n_states):
        if not gaps_from[q]:
            continue    # no triple leaves q, so no instance does
        for e1 in s_out[q]:
            _, x, _, w1 = edges[e1]
            for p, sg, piece in gap_edge(x, s_out):
                bodies[q, p, -w1 * sg].append((e1, *piece))
        for e1 in r_out[q]:
            _, x, _, w1 = edges[e1]
            for z, sg1, piece1 in gap_edge(x, r_out):
                for p, sg2, piece2 in gap_edge(z, r_out):
                    bodies[q, p, -w1 * sg1 * sg2].append((e1, *piece1, *piece2))
        for t1 in gaps_from[q]:
            _, y, sg1 = t1
            for t2 in gaps_from[y]:
                bodies[q, t2[1], sg1 * t2[2]].append((t1, t2))
    prods = [(t, body) for t, listed in bodies.items() for body in listed]
    return Grammar(set(bodies), terminals, prods, root)


def extract_path(auto: CancellationAutomaton, sat: SaturationRelation,
                 frm: int, to: int, sigma: int) -> list:
    """Edge path realizing the triple, rebuilt from the stored derivations.

    The derivation tree is walked with an explicit stack of edges and
    triples, so its depth is bounded by memory, not by the call stack.
    """
    root = (frm, to, sigma)
    if root not in sat.triples:
        raise WitnessError(f"no trivial path for {root}")
    parents = sat.parents
    path = []
    stack = [root]
    while stack:
        item = stack.pop()
        if item is None:
            continue
        if isinstance(item, int):
            path.append(item)
            continue
        parent = parents[item]
        # push the parts, without the marks, right to left so they pop in
        # path order
        stack.extend(reversed(parent[1:-1]))
    value = auto.path_value(path)
    if value != SignedWord(sigma, ""):
        raise WitnessError(f"extracted path value {value} disagrees with sign {sigma}")
    return path


def _joined(edges, path) -> bool:
    """Whether each edge of the path leaves where the last one ended."""
    return all(edges[e][1] == edges[f][0] for e, f in zip(path, path[1:]))


def path_sequence(auto: CancellationAutomaton, path: list) -> list:
    """Generator index sequence of a loop/membership-automaton path.

    The path must run, edge after joined edge, from the hub (`initial`) to
    `final`.  Shared states lead to the hub one way only, so it is a run of
    whole loops, closed on a membership automaton by the target chain, and
    the loops' own edges (`opens`) name its generators; else it raises.
    """
    if auto.kind not in ("loop", "membership"):
        raise WitnessError(f"no index-sequence decoding for {auto.kind} automata")
    edges = auto.edges
    if not (path and edges[path[0]][0] == auto.initial
            and edges[path[-1]][1] == auto.final and _joined(edges, path)):
        raise WitnessError("path must run, joined, from the hub to the final state")
    seq = [auto.opens[e] for e in path if e in auto.opens]
    if not seq:
        raise WitnessError("witness must use at least one generator")
    return seq


def extract_witness(auto: CancellationAutomaton, sat: SaturationRelation,
                    frm: int, to: int, sigma: int) -> list:
    """Generator index sequence for a loop/membership-automaton triple: the
    `path_sequence` of its `extract_path`.  The caller re-multiplies it."""
    return path_sequence(auto, extract_path(auto, sat, frm, to, sigma))


def decode_pattern_witness(auto: CancellationAutomaton, path: list) -> tuple:
    """Two distinct equal-product sequences from a tap-to-tap path of a
    pattern or freeness automaton.

    The path must run, edge after joined edge, from an initial tap
    (`heads`) to a final tap (`tails`); the tap states are its ends.  It
    spells w_i u inv(v) inv(w_j), and decodes to alpha = [i] + the
    generators whose loops its own first edges open, and beta = [j] + those
    whose loops its own last edges close, reversed.  The two must differ;
    the caller multiplies them.
    """
    if not (path and path[0] in auto.heads and path[-1] in auto.tails
            and _joined(auto.edges, path)):
        raise WitnessError("pattern path must run from an initial tap to a final tap")
    alpha = [auto.heads[path[0]]] + [auto.opens[e] for e in path if e in auto.opens]
    beta = [auto.tails[path[-1]]] + [auto.closes[e] for e in reversed(path)
                                     if e in auto.closes]
    if alpha == beta:
        raise WitnessError("pattern decode produced identical sequences")
    return alpha, beta
