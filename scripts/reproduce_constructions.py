#!/usr/bin/env python3
"""Run the headline constructions end to end and check their verdicts.

Covers: torsion generators, a free pair, the recurrent-without-identity
set, subset-sum instances (solvable and not), equal-subset-sum instances
(free and not), and a DFA-intersection encoding.  Each verdict is compared
with the fixture's `expected` ground truth (recomputed by brute force when
the fixture is built), with DFA acceptance, or with the known answer for
the torsion generator S and the free pair.  The recurrence witness of the
recurrent set is re-multiplied: its three pumped factorizations must be
distinct and multiply to the target.  Exits 1 if any check fails, 0
otherwise.
"""

import sys
import time

from sl2z_semigroups.algebra import GeneratorSet, IDENTITY, S, SignedWord, evaluate
from sl2z_semigroups.decisions import (
    NO, UNKNOWN, YES, Count, count_factorizations, finite_freeness,
    identity_in_semigroup, is_free, is_recurrent, membership,
)
from sl2z_semigroups.encodings import (
    DfaSpec, encode_dfa_intersection, encode_equal_subset_sum,
    encode_subset_sum, marked_query_word, recurrent_without_identity_fixture,
)

F_A = evaluate(SignedWord(1, "srsr"))
F_B = evaluate(SignedWord(1, "srrsrr"))

INFINITE = Count("infinite")


def answer(flag: bool) -> str:
    return YES if flag else NO


class Checker:
    def __init__(self):
        self.mismatches = 0

    def show(self, label, verdict, expected: str, count: Count = None):
        """Print one verdict; flag it when its answer or count disagrees."""
        extra = ""
        if verdict.count is not None:
            extra += f"  count={verdict.count}"
        if verdict.witness and verdict.witness.get("sequences"):
            extra += f"  witness={verdict.witness['sequences']}"
        if verdict.depth_bound is not None:
            extra += f"  depth={verdict.depth_bound}"
        if verdict.answer != expected or (count is not None and verdict.count != count):
            self.mismatches += 1
            want = expected if count is None else f"{expected} count={count}"
            extra += f"  MISMATCH: expected {want}"
        print(f"  {label:<34} {verdict.answer}{extra}")


def main() -> int:
    t0 = time.monotonic()
    check = Checker()

    print("torsion generator {S}")
    g = GeneratorSet.from_matrices([S])
    check.show("identity", identity_in_semigroup(g), YES)
    check.show("free", is_free(g), NO)
    check.show("count of -I", count_factorizations(g, -IDENTITY, cap=4), YES, INFINITE)
    check.show("finitely free (depth 1)", finite_freeness(g, 1), NO)

    print("free pair {f(a), f(b)}")
    g = GeneratorSet.from_matrices([F_A, F_B])
    check.show("identity", identity_in_semigroup(g), NO)
    check.show("free", is_free(g), YES)
    check.show("finitely free (depth 4)", finite_freeness(g, 4), UNKNOWN)

    print("recurrent matrix without identity")
    fx = recurrent_without_identity_fixture()
    gens, expected = fx.generators, fx.expected
    target = expected["recurrent_target"]
    alpha, sigma, gamma = expected["pumping"]
    # alpha^n sigma gamma^n all multiply to the target, a product of two
    # generators, so the target is recurrent and depth 2 reaches it
    if not (gens.product(sigma) == target == gens.product(alpha + sigma + gamma)
            and len(sigma) <= 2):
        check.mismatches += 1
        print("  MISMATCH: the fixture's pumping triple does not certify its target")
    check.show("identity", identity_in_semigroup(gens), answer(expected["identity"]))
    recurrent = is_recurrent(gens, target)
    check.show("recurrent target", recurrent, YES)
    # the witness pumps three distinct factorizations out of one cycle
    pumped = (recurrent.witness or {}).get("sequences") or []
    if (len(pumped) != 3 or len({tuple(seq) for seq in pumped}) != 3
            or any(gens.product(seq) != target for seq in pumped)):
        check.mismatches += 1
        print(f"  MISMATCH: recurrence witness {pumped} is not three distinct "
              "factorizations of the target")
    check.show("finitely free (depth 2)", finite_freeness(gens, 2), NO)

    for values, x in (([1, 2], 3), ([1, 2], 4)):
        print(f"subset sum U={values}, x={x}")
        fx = encode_subset_sum(values, x)
        gens, expected = fx.generators, fx.expected
        check.show("identity", identity_in_semigroup(gens), answer(expected["identity"]))
        # I in the semigroup pumps every factorization
        count = Count("exact", 1) if expected["count_target_unique"] else INFINITE
        check.show("count of the 0.e.1' target",
                   count_factorizations(gens, expected["count_target"], cap=4),
                   YES, count)

    for values in ([1, 2, 3], [1, 2, 4]):
        print(f"equal subset sum U={values}")
        fx = encode_equal_subset_sum(values)
        check.show("free", is_free(fx.generators), answer(fx.expected["free"]))

    print("DFA intersection encoding (a*b accepted by the first DFA)")
    dfa = DfaSpec(2, ("a", "b"), ((0, "a", 0), (0, "b", 1)), frozenset({1}))
    fx = encode_dfa_intersection([dfa])
    for w in (("a", "b"), ("b",), ("a", "a")):
        m = marked_query_word(fx, w)
        accepted = any(d.accepts(w) for d in fx.expected["dfas"])
        check.show(f"membership of #{''.join(w)}#", membership(fx.generators, m),
                   answer(accepted))

    print(f"total {time.monotonic() - t0:.1f}s, {check.mismatches} mismatches")
    return 1 if check.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
