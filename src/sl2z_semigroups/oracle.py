"""Brute-force ground truth: exhaustive products, collisions, pumping triples.

Everything here is deliberately naive (no pruning beyond a sequence budget)
so results stay trivially auditable.  Matrices are handled as raw 4-tuples
internally to keep the enumeration loop cheap; the decision procedures are
validated against this module, never the other way around.
"""

from .algebra import GeneratorSet, Mat2


class OracleBudgetError(RuntimeError):
    """Enumeration would exceed the configured sequence budget."""


DEFAULT_BUDGET = 2_000_000

_ID = (1, 0, 0, 1)


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _tuples(gens: GeneratorSet):
    return [g.matrix.entries() for g in gens]


def _check_budget(n_gens: int, depth: int, budget: int) -> int:
    total = 0
    level = 1
    for _ in range(depth):
        level *= n_gens
        total += level
        if total > budget:
            raise OracleBudgetError(
                f"{total}+ sequences at depth {depth} exceeds budget {budget}"
            )
    return total


class ProductTable:
    """Map from product matrix to every index sequence of length <= depth.

    Sequence lists are in (length, lexicographic) order because the
    enumeration itself runs breadth-first over 1-based indices.
    """

    def __init__(self, gens: GeneratorSet, depth: int, entries: dict):
        self.generators = gens
        self.depth = depth
        self._entries = entries  # tuple-of-4 -> list of index tuples

    def sequences(self, m: Mat2) -> list:
        return list(self._entries.get(m.entries(), ()))

    def count(self, m: Mat2) -> int:
        return len(self._entries.get(m.entries(), ()))

    def matrices(self) -> list:
        """Distinct products in order of first appearance."""
        return [Mat2(*t) for t in self._entries]

    def first_sequence(self, m: Mat2):
        seqs = self._entries.get(m.entries())
        return list(seqs[0]) if seqs else None

    def __contains__(self, m: Mat2) -> bool:
        return m.entries() in self._entries

    def total_sequences(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def collision(self):
        """(first, second) sequences of the first repeat of the enumeration,
        or None: the product whose second sequence is least in (length,
        lexicographic) order.  Equals `find_collision` at the same depth.
        """
        pairs = [seqs[:2] for seqs in self._entries.values() if len(seqs) > 1]
        if not pairs:
            return None
        first, second = min(pairs, key=lambda pair: (len(pair[1]), pair[1]))
        return list(first), list(second)

    def pumping(self, target: Mat2 = None):
        """Search for (alpha, sigma, gamma) with
        prod(alpha) * prod(sigma) * prod(gamma) == prod(sigma).

        Such a triple certifies that prod(sigma) has infinitely many
        factorizations: alpha^n sigma gamma^n all multiply to it.  alpha or
        gamma (not both) may be empty.  With `target` set, only sigma with
        prod(sigma) == target are considered.

        All candidates come from the table; for fixed alpha-value A and
        sigma-value P the unique gamma-value is P^-1 A^-1 P, which is simply
        looked up.
        """
        id_mat = Mat2(1, 0, 0, 1)
        mats = self.matrices()
        if target is None and id_mat in self:
            # identity in the semigroup pumps anything; keep gamma empty
            return self.first_sequence(id_mat), self.first_sequence(mats[0]), []
        for p in [target] if target is not None else mats:
            if p not in self:
                continue
            p_inv = p.inverse()
            for a in mats:
                c = p_inv * a.inverse() * p
                if c.is_identity():
                    # forces a == identity; alpha pumps on its own
                    if a.is_identity():
                        return (self.first_sequence(a), self.first_sequence(p), [])
                    continue
                if c in self:
                    return (self.first_sequence(a), self.first_sequence(p),
                            self.first_sequence(c))
        return None


def enumerate_products(gens: GeneratorSet, depth: int,
                       budget: int = DEFAULT_BUDGET) -> ProductTable:
    """All products of 1..depth generators, grouped by value."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mats = _tuples(gens)
    _check_budget(len(mats), depth, budget)
    table = {}
    frontier = [((), _ID)]
    for _ in range(depth):
        nxt = []
        for seq, prod in frontier:
            for i, g in enumerate(mats, start=1):
                p = _mul(prod, g)
                s = seq + (i,)
                table.setdefault(p, []).append(s)
                nxt.append((s, p))
        frontier = nxt
    return ProductTable(gens, depth, table)


def oracle_count(gens: GeneratorSet, m: Mat2, depth: int,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Number of index sequences of length <= depth whose product is m."""
    return enumerate_products(gens, depth, budget).count(m)


def find_collision(gens: GeneratorSet, depth: int, budget: int = DEFAULT_BUDGET):
    """First matrix (in enumeration order) reached by two sequences.

    Returns the two smallest sequences for it, or None.  Streaming variant of
    enumerate_products: stops at the first repeat.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mats = _tuples(gens)
    _check_budget(len(mats), depth, budget)
    seen = {}
    frontier = [((), _ID)]
    for _ in range(depth):
        nxt = []
        for seq, prod in frontier:
            for i, g in enumerate(mats, start=1):
                p = _mul(prod, g)
                s = seq + (i,)
                if p in seen:
                    return (list(seen[p]), list(s))
                seen[p] = s
                nxt.append((s, p))
        frontier = nxt
    return None


def find_pumping(gens: GeneratorSet, depth: int, budget: int = DEFAULT_BUDGET,
                 target: Mat2 = None):
    """`ProductTable.pumping` on the depth-bounded product table."""
    return enumerate_products(gens, depth, budget).pumping(target)


def max_exhaustive_depth(n_gens: int, budget: int = DEFAULT_BUDGET) -> int:
    """Largest depth whose full enumeration fits in the budget."""
    total = 0
    level = 1
    depth = 0
    while True:
        level *= n_gens
        if total + level > budget:
            return depth
        total += level
        depth += 1
