"""Test-side referee for NO answers: is a saturation relation closed?

A NO from identity, membership, counting or recurrence, and a free set,
rest on a triple missing from a complete saturation.  This module checks
such a relation without trusting the agenda that built it, and shares no
code with `automata.saturate` or `automata.derivation_grammar`: its edge
lists are rebuilt from the edge list, and every rule runs as a plain loop
over edges and triples.

`closure_faults` checks closure: the triple of every epsilon edge is in
the relation, and so is the conclusion of every instance of rule (i)
`s gap s`, rule (ii) `r gap r gap r` and rule (iii) composition whose
parts are in it, a gap being the empty path (x, x, +1) or a triple.  The
least fixpoint is the least relation so closed, and every triple the
relation holds has a path (below), so a closed relation is the fixpoint
and a missing triple has no trivial path.

`grounding_faults` checks that every recorded derivation cites edges of
the right labels, joined end to end, with the triple's ends and sign, and
only triples recorded before it; by induction on that order every triple
then has a trivial path.

Reference: McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms", Computer Science Review 5(2), 2011.
"""


def _edges_out(auto, label):
    """Per state, the (id, dst, weight) of its edges with that label."""
    out = [[] for _ in range(auto.n_states)]
    for e, (src, dst, lab, weight) in enumerate(auto.edges):
        if lab == label:
            out[src].append((e, dst, weight))
    return out


def _leaving(triples, n_states):
    """Per state, the (far end, sign) of the triples leaving it, after
    the empty gap (state, +1)."""
    out = [[(x, 1)] for x in range(n_states)]
    for q, p, sigma in triples:
        out[q].append((p, sigma))
    return out


def closure_faults(auto, sat, limit=5) -> list:
    """Up to `limit` rule instances over the relation whose conclusion it
    lacks, described as text; empty when the relation is closed."""
    triples = set(sat.triples)
    faults = []

    def need(t, why):
        if t not in triples and len(faults) < limit:
            faults.append(f"{why} gives {t}, which is missing")

    s_out, r_out = _edges_out(auto, "s"), _edges_out(auto, "r")
    gaps = _leaving(triples, auto.n_states)
    for q, eps in enumerate(_edges_out(auto, None)):
        for e, p, weight in eps:
            need((q, p, weight), f"epsilon edge {e}")
    for q in range(auto.n_states):
        for e1, x, w1 in s_out[q]:
            for y, sg in gaps[x]:
                for e2, p, w2 in s_out[y]:
                    need((q, p, -sg * w1 * w2), f"s {e1} gap ({x}, {y}, {sg}) s {e2}")
        for e1, x, w1 in r_out[q]:
            for y, sg1 in gaps[x]:
                for e2, z, w2 in r_out[y]:
                    for u, sg2 in gaps[z]:
                        for e3, p, w3 in r_out[u]:
                            need((q, p, -sg1 * sg2 * w1 * w2 * w3),
                                 f"r {e1} gap ({x}, {y}, {sg1}) r {e2} "
                                 f"gap ({z}, {u}, {sg2}) r {e3}")
    for q, y, sg1 in triples:
        for p, sg2 in gaps[y][1:]:
            need((q, p, sg1 * sg2), f"({q}, {y}, {sg1}) then ({y}, {p}, {sg2})")
    return faults


def grounding_faults(auto, sat, limit=5) -> list:
    """Up to `limit` recorded derivations that do not cite real edges and
    earlier triples, joined end to end with the triple's ends and sign;
    empty when every one does."""
    edges = auto.edges
    earlier = set()
    faults = []

    def edge(e, label):
        """(src, dst, weight) of an edge id with that label, or None."""
        if isinstance(e, int) and 0 <= e < len(edges) and edges[e][2] == label:
            return edges[e][0], edges[e][1], edges[e][3]
        return None

    def gap(g, x):
        """(far end, sign) of a gap that starts at x, or None."""
        if g is None:
            return x, 1
        if g in earlier and g[0] == x:
            return g[1], g[2]
        return None

    def spans(t, parent):
        """Whether the derivation spells a trivial path with t's ends and sign."""
        q, p, sigma = t
        kind, parts = parent[0], parent[1:]
        if kind == "eps" and len(parts) == 1:
            return edge(parts[0], None) == (q, p, sigma)
        if kind == "ss" and len(parts) == 3:
            first, second = edge(parts[0], "s"), edge(parts[2], "s")
            if first is None or second is None or first[0] != q or second[1] != p:
                return False
            g = gap(parts[1], first[1])
            return g is not None and g[0] == second[0] and \
                -g[1] * first[2] * second[2] == sigma
        if kind == "rrr" and len(parts) == 5:
            first, mid, last = (edge(parts[0], "r"), edge(parts[2], "r"),
                                edge(parts[4], "r"))
            if None in (first, mid, last) or first[0] != q or last[1] != p:
                return False
            g1, g2 = gap(parts[1], first[1]), gap(parts[3], mid[1])
            return g1 is not None and g2 is not None and g1[0] == mid[0] and \
                g2[0] == last[0] and -g1[1] * g2[1] * first[2] * mid[2] * last[2] == sigma
        if kind == "compose" and len(parts) == 2:
            t1, t2 = parts
            return t1 in earlier and t2 in earlier and t1[0] == q and \
                t1[1] == t2[0] and t2[1] == p and t1[2] * t2[2] == sigma
        return False

    for t, parent in sat.parents.items():
        if not spans(t, parent) and len(faults) < limit:
            faults.append(f"{t} <- {parent} is not grounded")
        earlier.add(t)
    return faults


def certify(auto, sat) -> list:
    """Every fault of a relation meant to be the complete saturation."""
    faults = [] if sat.complete else ["the relation is not complete"]
    return faults + closure_faults(auto, sat) + grounding_faults(auto, sat)
