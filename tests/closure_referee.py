"""Test-side referee for NO answers and least witnesses: is a saturation
relation closed, grounded and least?

A NO from identity, membership, counting or recurrence, and a free set,
rest on a triple missing from a complete saturation.  This module checks
such a relation without trusting the agenda that built it, and shares no
code with `automata.saturate` or `automata.derivation_grammar`: its edge
lists and edge marks are rebuilt from the edge list and the named edges,
and every rule runs as a plain loop over edges and triples.

A derivation ends in its marks, the generators that the edges of its path
name, in path order; (number of marks, marks) is the triple's weight.

`closure_faults` checks closure and least weights: the triple of every
epsilon edge is in the relation, and so is the conclusion of every
instance of rule (i) `s gap s`, rule (ii) `r gap r gap r` and rule (iii)
composition whose parts are in it, a gap being the empty path (x, x, +1)
or a triple; and no instance, weighed by its edges' marks and its gaps'
recorded marks, weighs less than its conclusion's recorded marks.  The
least fixpoint is the least relation so closed, and every triple the
relation holds has a path (below), so a closed relation is the fixpoint
and a missing triple has no trivial path.

`grounding_faults` checks that every recorded derivation cites edges of
the right labels, joined end to end, with the triple's ends and sign, and
only triples recorded before it, and that its recorded marks are those
its edges and its gaps' recorded marks spell, in path order; by induction
on that order every triple then has a trivial path of its recorded
weight.  A trivial path is one rule instance whose gaps are shorter
trivial paths, and concatenation is monotone in (length, marks) order, so
by induction on its length no path of a triple weighs less than the
recorded weight when both checks pass: on a loop or membership automaton
every witness read from the relation is its least factorization.

References: McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms", Computer Science Review 5(2), 2011; Knuth, "A generalization
of Dijkstra's algorithm", IPL 6(1), 1977.
"""


def _edge_marks(auto):
    """Per edge the generator it names, as a tuple of none or one."""
    marks = [()] * len(auto.edges)
    for named in (auto.opens, auto.closes, auto.heads, auto.tails):
        for e, g in named.items():
            marks[e] = (g,)
    return marks


def _edges_out(auto, label, marks):
    """Per state, the (id, dst, weight, marks) of its edges with that label."""
    out = [[] for _ in range(auto.n_states)]
    for e, (src, dst, lab, weight) in enumerate(auto.edges):
        if lab == label:
            out[src].append((e, dst, weight, marks[e]))
    return out


def _leaving(parents, n_states):
    """Per state, the (far end, sign, recorded marks) of the triples
    leaving it, after the empty gap (state, +1, ())."""
    out = [[(x, 1, ())] for x in range(n_states)]
    for (q, p, sigma), parent in parents.items():
        out[q].append((p, sigma, parent[-1]))
    return out


def closure_faults(auto, sat, limit=5) -> list:
    """Up to `limit` rule instances over the relation whose conclusion it
    lacks, or records heavier than the instance, described as text; empty
    when the relation is closed and every recorded weight is least."""
    recorded = {t: parent[-1] for t, parent in sat.parents.items()}
    faults = []

    def need(t, ms, why):
        if len(faults) >= limit:
            return
        if t not in recorded:
            faults.append(f"{why} gives {t}, which is missing")
        elif (len(ms), ms) < (len(recorded[t]), recorded[t]):
            faults.append(f"{why} gives {t} with marks {ms}, lighter than "
                          f"its recorded {recorded[t]}")

    marks = _edge_marks(auto)
    s_out, r_out = _edges_out(auto, "s", marks), _edges_out(auto, "r", marks)
    gaps = _leaving(sat.parents, auto.n_states)
    for q, eps in enumerate(_edges_out(auto, None, marks)):
        for e, p, weight, m in eps:
            need((q, p, weight), m, f"epsilon edge {e}")
    for q in range(auto.n_states):
        for e1, x, w1, m1 in s_out[q]:
            for y, sg, g in gaps[x]:
                for e2, p, w2, m2 in s_out[y]:
                    need((q, p, -sg * w1 * w2), m1 + g + m2,
                         f"s {e1} gap ({x}, {y}, {sg}) s {e2}")
        for e1, x, w1, m1 in r_out[q]:
            for y, sg1, g1 in gaps[x]:
                for e2, z, w2, m2 in r_out[y]:
                    for u, sg2, g2 in gaps[z]:
                        for e3, p, w3, m3 in r_out[u]:
                            need((q, p, -sg1 * sg2 * w1 * w2 * w3),
                                 m1 + g1 + m2 + g2 + m3,
                                 f"r {e1} gap ({x}, {y}, {sg1}) r {e2} "
                                 f"gap ({z}, {u}, {sg2}) r {e3}")
    for (q, y, sg1), g1 in recorded.items():
        for p, sg2, g2 in gaps[y][1:]:
            need((q, p, sg1 * sg2), g1 + g2, f"({q}, {y}, {sg1}) then ({y}, {p}, {sg2})")
    return faults


def grounding_faults(auto, sat, limit=5) -> list:
    """Up to `limit` recorded derivations that do not cite real edges and
    earlier triples, joined end to end with the triple's ends and sign, or
    whose recorded marks are not the ones their parts spell; empty when
    every one does."""
    edges = auto.edges
    marks = _edge_marks(auto)
    earlier = {}    # triple -> its recorded marks
    faults = []

    def edge(e, label):
        """(src, dst, weight, marks) of an edge id with that label, or None."""
        if isinstance(e, int) and 0 <= e < len(edges) and edges[e][2] == label:
            return edges[e][0], edges[e][1], edges[e][3], marks[e]
        return None

    def gap(g, x):
        """(far end, sign, marks) of a gap that starts at x, or None."""
        if g is None:
            return x, 1, ()
        if g in earlier and g[0] == x:
            return g[1], g[2], earlier[g]
        return None

    def spelled(t, parent):
        """The marks of the trivial path with t's ends and sign that the
        derivation spells, or None if it spells none."""
        q, p, sigma = t
        kind, parts = parent[0], parent[1:-1]
        if kind == "eps" and len(parts) == 1:
            e = edge(parts[0], None)
            return e[3] if e is not None and e[:3] == (q, p, sigma) else None
        if kind == "ss" and len(parts) == 3:
            first, second = edge(parts[0], "s"), edge(parts[2], "s")
            if first is None or second is None or first[0] != q or second[1] != p:
                return None
            g = gap(parts[1], first[1])
            if g is not None and g[0] == second[0] and \
                    -g[1] * first[2] * second[2] == sigma:
                return first[3] + g[2] + second[3]
            return None
        if kind == "rrr" and len(parts) == 5:
            first, mid, last = (edge(parts[0], "r"), edge(parts[2], "r"),
                                edge(parts[4], "r"))
            if None in (first, mid, last) or first[0] != q or last[1] != p:
                return None
            g1, g2 = gap(parts[1], first[1]), gap(parts[3], mid[1])
            if g1 is not None and g2 is not None and g1[0] == mid[0] and \
                    g2[0] == last[0] and \
                    -g1[1] * g2[1] * first[2] * mid[2] * last[2] == sigma:
                return first[3] + g1[2] + mid[3] + g2[2] + last[3]
            return None
        if kind == "compose" and len(parts) == 2:
            t1, t2 = parts
            if t1 in earlier and t2 in earlier and t1[0] == q and \
                    t1[1] == t2[0] and t2[1] == p and t1[2] * t2[2] == sigma:
                return earlier[t1] + earlier[t2]
        return None

    for t, parent in sat.parents.items():
        ms = spelled(t, parent)
        if len(faults) < limit:
            if ms is None:
                faults.append(f"{t} <- {parent} is not grounded")
            elif ms != parent[-1]:
                faults.append(f"{t} <- {parent} records marks {parent[-1]}, "
                              f"but its parts spell {ms}")
        earlier[t] = parent[-1]
    return faults


def certify(auto, sat) -> list:
    """Every fault of a relation meant to be the complete saturation."""
    faults = [] if sat.complete else ["the relation is not complete"]
    return faults + closure_faults(auto, sat) + grounding_faults(auto, sat)
