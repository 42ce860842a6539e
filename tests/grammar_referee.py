"""Test-side referee for general grammars: trimming and the proper form.

`grammars.find_growth_cycle` and `grammars.enumerate_words` take proper
grammars only: no empty body, no body that is a single nonterminal, and
every nonterminal derives a word.  The tests bring arbitrary grammars (the
random ones, and the Bar-Hillel intersections with their empty and unit
bodies) into that form here by the classic route: eliminate empty bodies,
eliminate unit bodies, trim.  `classic_is_finite` decides finiteness on
that form with a cycle search of its own.
"""

from sl2z_semigroups.grammars import Grammar


def _derivers(productions, ready) -> set:
    """Heads that derive a string of `ready` symbols, by a worklist: each
    production counts the symbols of its body not yet shown to derive one."""
    waiting = {}
    missing = []
    queue = []
    for k, (head, body) in enumerate(productions):
        need = set(body) - ready
        missing.append(len(need))
        for x in need:
            waiting.setdefault(x, []).append(k)
        if not need:
            queue.append(head)
    found = set()
    while queue:
        a = queue.pop()
        if a in found:
            continue
        found.add(a)
        for k in waiting.get(a, ()):
            missing[k] -= 1
            if not missing[k]:
                queue.append(productions[k][0])
    return found


def _productive(g: Grammar) -> set:
    return _derivers(g.productions, g.terminals)


def trim(g: Grammar) -> Grammar:
    """Drop unproductive and unreachable nonterminals (and their productions)."""
    productive = _productive(g)
    if g.start not in productive:
        return Grammar({g.start}, set(g.terminals), [], g.start)
    useful = [(h, b) for h, b in g.productions
              if h in productive and all(x in productive or x in g.terminals for x in b)]
    by_head = {}
    for head, body in useful:
        by_head.setdefault(head, []).append(body)
    reach = {g.start}
    stack = [g.start]
    while stack:
        for body in by_head.get(stack.pop(), ()):
            for x in body:
                if x not in g.terminals and x not in reach:
                    reach.add(x)
                    stack.append(x)
    kept = [(h, b) for h, b in useful if h in reach]
    return Grammar(reach, set(g.terminals), kept, g.start)


def proper_form(g: Grammar) -> Grammar:
    """A proper grammar of L(g) minus the empty word."""
    gt = trim(g)
    nullable = _derivers(gt.productions, set())
    # every way of dropping nullable symbols, in production order
    prods = {}
    for head, body in gt.productions:
        optional = [i for i, x in enumerate(body) if x in nullable]
        for mask in range(1 << len(optional)):
            drop = {optional[k] for k in range(len(optional)) if mask >> k & 1}
            new = tuple(x for i, x in enumerate(body) if i not in drop)
            if new:
                prods[(head, new)] = None
    nts = set(gt.nonterminals)
    by_head = {}
    units = {}
    for head, body in prods:
        if len(body) == 1 and body[0] in nts:
            units.setdefault(head, []).append(body[0])
        else:
            by_head.setdefault(head, []).append(body)
    # A takes the non-unit bodies of every B it reaches through unit bodies
    final = {}
    for a in sorted(nts, key=repr):
        closure = [a]
        seen = {a}
        for b in closure:
            for c in units.get(b, ()):
                if c not in seen:
                    seen.add(c)
                    closure.append(c)
        for b in closure:
            for body in by_head.get(b, ()):
                final[(a, body)] = None
    return trim(Grammar(nts, set(gt.terminals), list(final), gt.start))


def classic_is_finite(g: Grammar) -> bool:
    """Independent route: eps-eliminate, unit-eliminate, trim, cycle-check."""
    g2 = proper_form(g)
    deps = {}
    for head, body in g2.productions:
        deps.setdefault(head, set()).update(
            x for x in body if x in g2.nonterminals)
    color = {}

    def dfs(u, stack):
        color[u] = "gray"
        stack.add(u)
        for v in deps.get(u, ()):
            if v in stack:
                return True
            if color.get(v) is None and dfs(v, stack):
                return True
        stack.discard(u)
        color[u] = "black"
        return False

    return not any(color.get(root) is None and dfs(root, set())
                   for root in list(deps))


def assert_proper(g: Grammar):
    """No empty body, no single-nonterminal body, every nonterminal productive."""
    for _, body in g.productions:
        assert body and not (len(body) == 1 and body[0] in g.nonterminals)
    if g.productions:
        assert _productive(g) == set(g.nonterminals)


def assert_growth_cycle(g: Grammar, growth):
    """The cycle is a chain of real dependency edges reachable from the start."""
    stem, loop = growth
    assert loop
    productions = set(g.productions)
    head = g.start
    for step in stem + loop:
        h, body, i = step
        assert h == head and (h, body) in productions
        head = body[i]
        assert head in g.nonterminals
    assert head == loop[0][0]
