"""Context-free machinery: growth cycles, enumeration and the Bar-Hillel route.

`find_growth_cycle` and `enumerate_words` take proper grammars only: no
body is empty, no body is a single nonterminal, and every nonterminal
derives a word.  The derivation grammars of `automata.derivation_grammar`
are proper by construction, so every dependency edge pumps: the language is
infinite iff a dependency cycle is reachable from the start, and otherwise
the nonterminals below the start form a DAG.  `words_up_to` takes any
grammar.

The target grammar of a signed reduced word t derives exactly the unreduced
words over {s,r} with the same value.  Lifting over markers closes the
language under inserting marker symbols anywhere, and intersecting with the
marked semigroup DFA (blocks "#i w_i") leaves one word per factorization.
This Bar-Hillel route answers the counting and recurrence questions without
the saturation; no decision procedure uses it, and the tests use it as the
exact referee for them.  Its grammars have empty and unit bodies, so the
tests bring them into proper form first.

Words are tuples of terminal symbols.  Nonterminals and terminals may be any
hashable values; the Bar-Hillel construction uses (state, symbol, state)
triples as nonterminals.
"""

from collections import deque
from dataclasses import dataclass

from .algebra import GeneratorSet, SignedWord


class GrammarError(ValueError):
    pass


N_POS = "N+"
N_NEG = "N-"


@dataclass
class Grammar:
    nonterminals: set
    terminals: set
    productions: list  # (head, tuple body)
    start: object

    def __repr__(self):
        return (f"Grammar({len(self.nonterminals)} nonterminals, "
                f"{len(self.productions)} productions)")


def _n_core_productions():
    """Words deriving +-I: N+ <=> value I, N- <=> value -I.

    s (gap) s flips the gap's sign and r g1 r g2 r flips the product of both
    gap signs, since phi(ss) = phi(rrr) = -I; the binary productions compose
    consecutive trivial blocks.
    """
    return [
        (N_POS, ()),
        (N_POS, ("s", N_NEG, "s")),
        (N_POS, ("r", N_POS, "r", N_NEG, "r")),
        (N_POS, ("r", N_NEG, "r", N_POS, "r")),
        (N_POS, (N_POS, N_POS)),
        (N_POS, (N_NEG, N_NEG)),
        (N_NEG, ("s", N_POS, "s")),
        (N_NEG, ("r", N_POS, "r", N_POS, "r")),
        (N_NEG, ("r", N_NEG, "r", N_NEG, "r")),
        (N_NEG, (N_POS, N_NEG)),
        (N_NEG, (N_NEG, N_POS)),
    ]


def _n_symbol(sign: int):
    return N_POS if sign == 1 else N_NEG


def _chain_symbol(i: int, sign: int):
    return ("B", i, sign)


def build_target_grammar(target: SignedWord) -> Grammar:
    """Grammar of every word w over {s,r} with reduce(w, +) == target.

    Such a word splits as gap t_1 gap t_2 ... t_n gap around the surviving
    target letters, each gap reducing to +-I with the gap signs multiplying
    to the target sign.  The suffix chain ("B", i, tau) derives letters i..
    of the target interleaved with gaps whose sign product is tau, and the
    start ("B", 1, sign) selects the target's sign.
    """
    if not target.is_reduced():
        raise GrammarError(f"target must be reduced: {target}")
    word = target.word
    n = len(word)
    prods = _n_core_productions()
    for i in range(1, n + 1):
        for tau in (1, -1):
            prods.append((_chain_symbol(i, tau), (N_POS, word[i - 1], _chain_symbol(i + 1, tau))))
            prods.append((_chain_symbol(i, tau), (N_NEG, word[i - 1], _chain_symbol(i + 1, -tau))))
    for tau in (1, -1):
        prods.append((_chain_symbol(n + 1, tau), (_n_symbol(tau),)))
    start = _chain_symbol(1, target.sign)
    nts = {h for h, _ in prods}
    return Grammar(nts, {"s", "r"}, prods, start)


LIFT_PAD = "K"


def _lift_symbol(t):
    return ("lifted", t)


def lift_over_markers(g: Grammar, markers) -> Grammar:
    """Inverse image of L(g) under erasing the marker symbols.

    Each terminal a becomes a nonterminal deriving a K, with K matching any
    run of markers, and one leading K is prepended at the start.
    """
    markers = list(markers)
    prods = [(LIFT_PAD, ())]
    for m in markers:
        prods.append((LIFT_PAD, (m, LIFT_PAD)))
    for t in sorted(g.terminals, key=repr):
        prods.append((_lift_symbol(t), (t, LIFT_PAD)))
    for head, body in g.productions:
        prods.append((head, tuple(_lift_symbol(x) if x in g.terminals else x
                                  for x in body)))
    start = ("lift_start",)
    prods.append((start, (LIFT_PAD, g.start)))
    nts = {h for h, _ in prods}
    return Grammar(nts, set(g.terminals) | set(markers), prods, start)


@dataclass
class MarkedDfa:
    """DFA over {s,r} + markers accepting (#i w_i)+ block sequences.

    With sign_parity set, only sequences whose generator signs multiply to
    that parity are accepted (states carry the running parity; marker edges
    flip it by the sign of the generator they open).
    """

    n_states: int
    initial: int
    finals: frozenset
    alphabet: tuple
    transitions: dict  # (state, symbol) -> state
    markers: tuple
    sign_parity: object = None   # None, +1 or -1

    def run(self, word) -> bool:
        q = self.initial
        for sym in word:
            q = self.transitions.get((q, sym))
            if q is None:
                return False
        return q in self.finals

    def decode(self, word) -> list:
        """Marked word -> 1-based generator index sequence."""
        marker_index = {m: i for i, m in enumerate(self.markers, start=1)}
        if not word or word[0] not in marker_index:
            raise GrammarError(f"marked word does not start with a marker: {word}")
        seq = []
        for sym in word:
            if sym in marker_index:
                seq.append(marker_index[sym])
            elif sym not in ("s", "r"):
                raise GrammarError(f"unexpected symbol in marked word: {sym!r}")
        return seq

    def __repr__(self):
        return f"MarkedDfa({self.n_states} states, {len(self.markers)} markers)"


def build_marked_semigroup_dfa(gens: GeneratorSet, sign_parity=None) -> MarkedDfa:
    """DFA for (#1 w_1 | ... | #n w_n)+ over the generators' reduced words.

    Generator i opens its block with the marker "#i".  Generator signs are
    not spelled; accepted words biject with nonempty index sequences.
    sign_parity refines acceptance by the product of the generators' signs
    (used to count true factorizations exactly).
    """
    markers = tuple(f"#{i}" for i in range(1, len(gens) + 1))
    parities = (1,) if sign_parity is None else (1, -1)
    states = {}

    def intern(key):
        if key not in states:
            states[key] = len(states)
        return states[key]

    trans = {}
    for p in parities:
        intern(("start", p))
        intern(("hub", p))
    for p in parities:
        for src_kind in ("start", "hub"):
            src = intern((src_kind, p))
            for i, (g, marker) in enumerate(zip(gens, markers), start=1):
                p2 = p * g.word.sign if sign_parity is not None else p
                word = g.word.word
                if not word:
                    trans[(src, marker)] = intern(("hub", p2))
                    continue
                trans[(src, marker)] = intern(("chain", i, 0, p2))
                for pos in range(len(word)):
                    cur = intern(("chain", i, pos, p2))
                    nxt = (intern(("hub", p2)) if pos == len(word) - 1
                           else intern(("chain", i, pos + 1, p2)))
                    trans[(cur, word[pos])] = nxt
    finals = frozenset(
        intern(("hub", p)) for p in parities
        if sign_parity is None or p == sign_parity
    )
    alphabet = tuple(markers) + ("s", "r")
    return MarkedDfa(len(states), intern(("start", parities[0])), finals,
                     alphabet, trans, markers, sign_parity)


# ---------------------------------------------------------------------------
# sparse Bar-Hillel intersection
# ---------------------------------------------------------------------------


def _binarize(productions) -> list:
    """Bodies of length <= 2.  Each continuation symbol ("cat", k) is named
    by the number k of rules before it, so equal inputs get equal names."""
    prods = []
    for head, body in productions:
        while len(body) > 2:
            sym = ("cat", len(prods))
            prods.append((head, (body[0], sym)))
            head, body = sym, body[1:]
        prods.append((head, body))
    return prods


def _nullable_symbols(prods):
    nullable = set()
    changed = True
    while changed:
        changed = False
        for head, body in prods:
            if head not in nullable and all(x in nullable for x in body):
                nullable.add(head)
                changed = True
    return nullable


class IntersectionEngine:
    """Agenda-based derivability of (state, symbol, state) items over a DFA.

    An item (p, X, q) means X derives some word driving the DFA from p to q.
    `add_rules` runs once per engine: it seeds the DFA's transitions and the
    nullable symbols' empty items, then runs the agenda to the fixpoint.
    """

    def __init__(self, dfa: MarkedDfa):
        self.dfa = dfa
        self.from_idx = {}   # sym -> {p: set(q)}
        self.to_idx = {}     # sym -> {q: set(p)}
        self.rules = None    # binarized productions, once added
        self._agenda = deque()

    def clone(self) -> "IntersectionEngine":
        """An independent copy of the engine's items and rules."""
        eng = IntersectionEngine(self.dfa)
        eng.from_idx = {s: {p: set(qs) for p, qs in idx.items()}
                        for s, idx in self.from_idx.items()}
        eng.to_idx = {s: {q: set(ps) for q, ps in idx.items()}
                      for s, idx in self.to_idx.items()}
        eng.rules = self.rules
        return eng

    # -- item bookkeeping ------------------------------------------------------

    def has_item(self, p, sym, q) -> bool:
        return q in self.from_idx.get(sym, {}).get(p, ())

    def _add(self, p, sym, q):
        idx = self.from_idx.setdefault(sym, {})
        bucket = idx.setdefault(p, set())
        if q in bucket:
            return
        bucket.add(q)
        self.to_idx.setdefault(sym, {}).setdefault(q, set()).add(p)
        self._agenda.append((p, sym, q))

    # -- the fixpoint ------------------------------------------------------------

    def add_rules(self, productions):
        """Binarize the productions, seed and run to the fixpoint; once."""
        if self.rules is not None:
            raise GrammarError("an intersection engine takes its rules once")
        self.rules = _binarize(productions)
        unit_prods, left_prods, right_prods = {}, {}, {}
        for head, body in self.rules:
            if len(body) == 1:
                unit_prods.setdefault(body[0], []).append(head)
            elif len(body) == 2:
                x, y = body
                left_prods.setdefault(x, []).append((head, y))
                right_prods.setdefault(y, []).append((head, x))
        add = self._add
        for (q, sym), q2 in self.dfa.transitions.items():
            add(q, sym, q2)
        for a in _nullable_symbols(self.rules):
            for p in range(self.dfa.n_states):
                add(p, a, p)
        agenda, from_idx, to_idx = self._agenda, self.from_idx, self.to_idx
        while agenda:
            p, x, q = agenda.popleft()
            for a in unit_prods.get(x, ()):
                add(p, a, q)
            for (a, y) in left_prods.get(x, ()):
                for r in list(from_idx.get(y, {}).get(q, ())):
                    add(p, a, r)
            for (a, y) in right_prods.get(x, ()):
                for o in list(to_idx.get(y, {}).get(p, ())):
                    add(o, a, q)

    # -- output --------------------------------------------------------------------

    def extract_grammar(self, start_symbol, terminals) -> Grammar:
        """Trimmed Bar-Hillel grammar over the items reachable from the start.

        Bodies are materialized by re-joining the item indexes, so the
        unreachable bulk of the database is never touched.
        """
        start = ("bh_start",)
        initial = self.dfa.initial
        roots = [(initial, start_symbol, f) for f in sorted(self.dfa.finals)
                 if self.has_item(initial, start_symbol, f)]
        if not roots:
            return Grammar({start}, set(terminals), [], start)
        prods = [(start, (item,)) for item in roots]
        seen = set(roots)
        stack = list(roots)
        rules_by_head = {}
        for head, body in self.rules:
            rules_by_head.setdefault(head, []).append(body)

        def visit(it):
            if it not in seen:
                seen.add(it)
                stack.append(it)

        while stack:
            item = stack.pop()
            p, sym, q = item
            if sym in terminals:
                prods.append((item, (sym,)))
                continue
            for body in rules_by_head.get(sym, ()):
                if len(body) == 0:
                    if p == q:
                        prods.append((item, ()))
                elif len(body) == 1:
                    x = body[0]
                    if self.has_item(p, x, q):
                        sub = (p, x, q)
                        prods.append((item, (sub,)))
                        visit(sub)
                else:
                    x, y = body
                    x_from = self.from_idx.get(x, {}).get(p, ())
                    y_from = self.from_idx.get(y, {})
                    for mid in x_from:
                        if q in y_from.get(mid, ()):
                            left, right = (p, x, mid), (mid, y, q)
                            prods.append((item, (left, right)))
                            visit(left)
                            visit(right)
        nts = {h for h, _ in prods}
        return Grammar(nts, set(terminals), prods, start)


def intersect(g: Grammar, d: MarkedDfa) -> Grammar:
    """Bar-Hillel intersection L(g) & L(d), trimmed.

    Only derivable (state, symbol, state) triples are materialized, keeping
    the construction proportional to what the two languages actually share
    rather than |productions| * |states|^3.
    """
    eng = IntersectionEngine(d)
    eng.add_rules(g.productions)
    return eng.extract_grammar(g.start, g.terminals)


# ---------------------------------------------------------------------------
# growth cycles and enumeration of proper grammars
# ---------------------------------------------------------------------------


def _growth_search(g: Grammar, starts=None) -> tuple:
    """(cycle, done, bodies): the result of `find_growth_cycle`, the
    nonterminals whose search finished, as the keys of `done` in the order
    it finished them, and `bodies`, head -> its bodies in production order.
    Without a cycle each nonterminal finishes after every nonterminal in
    its bodies."""
    nts = g.nonterminals
    bodies = {}
    for head, body in g.productions:
        bodies.setdefault(head, []).append(body)

    def steps(head):
        return ((head, body, i) for body in bodies.get(head, ())
                for i, x in enumerate(body) if x in nts)

    path = []                  # steps from the start to the open frame
    depth = {}                 # open nonterminal -> number of steps to it
    done = {}                  # finished nonterminal -> None, in finish order
    starts = (g.start,) if starts is None else starts
    for start in (s for s in starts if s not in done):
        depth[start] = 0
        frames = [(start, steps(start))]
        while frames:
            head, todo = frames[-1]
            for step in todo:
                child = step[1][step[2]]
                if child in depth:
                    k = depth[child]
                    return (path[:k], path[k:] + [step]), done, bodies
                if child not in done:
                    depth[child] = len(path) + 1
                    path.append(step)
                    frames.append((child, steps(child)))
                    break
            else:
                frames.pop()
                del depth[head]
                done[head] = None
                if path:
                    path.pop()
    return None, done, bodies


def find_growth_cycle(g: Grammar, starts=None):
    """Certificate (stem, loop) that L(g) is infinite, or None.

    g must be proper: no body is empty, no body is a single nonterminal, and
    every nonterminal derives a word (a start without productions stands
    for the empty language), as in `automata.derivation_grammar`.  Then a
    body that holds a nonterminal also holds a nonempty word beside it, so
    every dependency edge pumps, and L(g) is infinite iff a dependency cycle
    is reachable from the start.  One depth-first search, through the
    productions in order, stops at the first back edge.  It runs from each
    of `starts` in turn (by default the start alone), and a nonterminal
    finished from one is not searched again from the next.  The search is
    `_growth_search`, which `enumerate_words` runs as well.

    A step (head, body, i) is a production of head whose body[i] is the
    head of the next step.  The stem leads from the start it ran from to
    the cycle's first head A, and the loop from A back to A.
    """
    return _growth_search(g, starts)[0]


@dataclass
class WordEnumeration:
    exact: bool
    words: frozenset = None   # set of word tuples when exact
    count: int = 0
    cap: int = None           # the exceeded cap when not exact
    cycle: tuple = None       # find_growth_cycle's certificate when infinite

    def __repr__(self):
        if self.exact:
            return f"WordEnumeration(count={self.count})"
        return f"WordEnumeration(more_than={self.cap})"


def enumerate_words(g: Grammar, cap: int = None) -> WordEnumeration:
    """Distinct words of L(g): the exact set, or "more than cap".

    g must be proper, as for `find_growth_cycle`, whose search
    (`_growth_search`) runs once: an infinite language needs a cap and
    short-circuits to more-than with its growth cycle.  Otherwise the
    nonterminals below the start form a DAG, and each one's word set is
    built once, in the order the search finished them, so after the sets
    of the nonterminals in its bodies.  Distinct derivations of one word
    count once.  Every nonterminal below the start puts at least as many
    words into the start's set, so the first set past the cap ends the
    work.
    """
    growth, done, bodies = _growth_search(g)
    if growth is not None:
        if cap is None:
            raise GrammarError("enumerate_words on an infinite grammar needs a cap")
        return WordEnumeration(False, cap=cap, cycle=growth)
    nts = g.nonterminals
    sets = {}
    for head in done:
        words = set()
        for body in bodies.get(head, ()):
            partial = {()}
            for x in body:
                pieces = sets[x] if x in nts else ((x,),)
                partial = {w + piece for w in partial for piece in pieces}
                if cap is not None and len(partial) > cap:
                    # each partial word extends to a distinct word of head
                    return WordEnumeration(False, cap=cap)
            words |= partial
        if cap is not None and len(words) > cap:
            return WordEnumeration(False, cap=cap)
        sets[head] = words
    words = frozenset(sets[g.start])
    return WordEnumeration(True, words, len(words))


def words_up_to(g: Grammar, max_len: int) -> set:
    """All words of L(g) of length <= max_len, by bottom-up fixpoint."""
    sets = {t: {(t,)} for t in g.terminals}
    for a in g.nonterminals:
        sets[a] = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            partial = {()}
            for x in body:
                nxt = set()
                for w in partial:
                    room = max_len - len(w)
                    for piece in sets[x]:
                        if len(piece) <= room:
                            nxt.add(w + piece)
                partial = nxt
                if not partial:
                    break
            bucket = sets[head]
            before = len(bucket)
            bucket.update(partial)
            if len(bucket) != before:
                changed = True
    return set(sets[g.start])
