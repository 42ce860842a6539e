#!/usr/bin/env python3
"""Stress the decision procedures against brute force on random inputs.

Draws random generator sets (reduced words up to --max-len, up to --gens
generators), runs freeness / membership / counting, and compares with the
exhaustive product table wherever the table is conclusive.  Finite freeness
at depth 3 is checked against its candidate loop run on every set: a free
set must answer UNKNOWN_UP_TO, and every NO witness is re-multiplied.
"""

import argparse
import random
import time

from sl2z_semigroups.algebra import GeneratorSet, SignedWord
from sl2z_semigroups import oracle
from sl2z_semigroups.decisions import (
    NO, UNKNOWN, YES, Verdict, count_factorizations, finite_freeness,
    identity_in_semigroup, is_free, membership, recurrent_product_sweep,
)

FINITE_FREENESS_DEPTH = 3


def random_generator_set(rng, max_gens, max_len):
    words = []
    for _ in range(rng.randint(1, max_gens)):
        length = rng.randint(0, max_len)
        w = ""
        while len(w) < length:
            ch = rng.choice("sr")
            if (w + ch).endswith("ss") or (w + ch).endswith("rrr"):
                continue
            w += ch
        words.append(SignedWord(rng.choice((1, -1)), w))
    return GeneratorSet.from_words(words)


def candidate_loop(gens, depth):
    """`finite_freeness` without its free-set shortcut: the identity
    branch, then every product of <= depth generators as a candidate."""
    ident = identity_in_semigroup(gens)
    if ident.answer == YES:
        return Verdict("finite_freeness", NO, ident.witness)
    return recurrent_product_sweep(gens, depth)


def check_finite_freeness_no(gens, witness):
    """Re-multiply every sequence of a finite-freeness NO witness."""
    if witness["kind"] == "sequences":
        return all(gens.product(seq).is_identity() for seq in witness["sequences"])
    m = gens.product(witness["sequence"])
    if [[str(m.a), str(m.b)], [str(m.c), str(m.d)]] != witness["matrix"]:
        return False
    pumping = witness["pumping"]
    pumped = [pumping["alpha"] * n + pumping["sigma"] + pumping["gamma"] * n
              for n in (1, 2, 3)]
    return all(gens.product(seq) == m for seq in witness["sequences"] + pumped)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--gens", type=int, default=3)
    ap.add_argument("--max-len", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    stats = {"free": 0, "not_free": 0, "checked_counts": 0, "finite_free_no": 0}
    for trial in range(args.trials):
        gens = random_generator_set(rng, args.gens, args.max_len)
        if oracle.max_exhaustive_depth(len(gens)) < args.depth:
            continue
        table = oracle.enumerate_products(gens, args.depth)
        collision = oracle.find_collision(gens, args.depth)
        verdict = is_free(gens)
        stats["free" if verdict.answer == YES else "not_free"] += 1
        if collision is not None and verdict.answer != NO:
            raise SystemExit(f"trial {trial}: oracle found {collision} but "
                             f"freeness said {verdict.answer}")
        if verdict.answer == YES and collision is not None:
            raise SystemExit(f"trial {trial}: free verdict contradicted")
        finite = finite_freeness(gens, FINITE_FREENESS_DEPTH)
        if verdict.answer == YES and finite.answer != UNKNOWN:
            raise SystemExit(f"trial {trial}: free set but finite freeness said {finite.answer}")
        if finite.answer == NO:
            stats["finite_free_no"] += 1
            if not check_finite_freeness_no(gens, finite.witness):
                raise SystemExit(f"trial {trial}: finite-freeness witness "
                                 f"{finite.witness} does not multiply out")
        if finite != candidate_loop(gens, FINITE_FREENESS_DEPTH):
            raise SystemExit(f"trial {trial}: finite freeness {finite} disagrees "
                             "with its candidate loop")
        mats = table.matrices()
        for m in mats[:3]:
            if membership(gens, m).answer != YES:
                raise SystemExit(f"trial {trial}: member of table rejected")
        m = mats[0]
        counted = count_factorizations(gens, m, cap=5)
        if counted.count.kind == "exact":
            stats["checked_counts"] += 1
            if table.count(m) > counted.count.value:
                raise SystemExit(f"trial {trial}: count too small for {m}")
    print(f"{args.trials} trials in {time.monotonic() - t0:.1f}s: {stats}")


if __name__ == "__main__":
    main()
