"""Brute-force enumerations shared by the test modules as ground truth."""

from sl2z_semigroups.algebra import reduce


def all_reduced_words(max_len):
    """Every reduced word over {s,r} up to max_len, by direct extension."""
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for ch in "sr":
                cand = w + ch
                if "ss" not in cand[-2:] and "rrr" not in cand[-3:]:
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def brute_trivial_relation(auto, max_edges):
    """All (q, p, sigma) with a trivial path of <= max_edges edges.

    Breadth-first over (state, reduced word, sign) with dedup per step; a
    reduced word longer than the remaining budget can never cancel in time.
    """
    found = set()
    out_edges = {}
    for src, dst, label, weight in auto.edges:
        out_edges.setdefault(src, []).append((dst, label, weight))
    for start in range(auto.n_states):
        frontier = {(start, "", 1)}
        for step in range(max_edges):
            nxt = set()
            for (q, word, sign) in frontier:
                for (dst, label, weight) in out_edges.get(q, ()):
                    red = reduce(word + (label or ""), sign * weight)
                    if red.word == "":
                        found.add((start, dst, red.sign))
                    if len(red.word) <= max_edges - step - 1:
                        nxt.add((dst, red.word, red.sign))
            frontier = nxt
    return found
