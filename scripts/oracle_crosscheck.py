#!/usr/bin/env python3
"""Stress the decision procedures against brute force on random inputs.

Draws random generator sets (reduced words up to --max-len, up to --gens
generators) on even trials and conjugate sets over the free pair on odd
ones, runs freeness / membership / counting, and compares with the
exhaustive product table wherever the table is conclusive.  Every
`check-free` NO witness is re-multiplied, and no collision in the table
strips to a pair of first generators below the witness's.  Every identity
and membership YES witness is re-multiplied and must be the least
factorization in (length, lexicographic) order, the table's
`first_sequence`, wherever the table holds one; a set whose table holds I
must answer YES to identity.  Finite freeness
at depth 3 is checked against a referee that asks `is_recurrent` of every
product of at most 3 generators: a set with a recurrent product must
answer NO, a free set must answer UNKNOWN_UP_TO, and every NO witness is
re-multiplied, its pumped sequences distinct and its pumping triple not
degenerate.  Random sets seldom reach that cycle witness without an
identity; the conjugate sets {X A X^-1, X A^-1 Y^-1, Y A^-1 Y^-1} always
hold the recurrent X Y^-1, and often no identity.  Cycle NOs are counted
apart from identity NOs, and a run of at least 50 trials that checks no
cycle witness fails.
"""

import argparse
import random
import time
from itertools import combinations

from sl2z_semigroups.algebra import IDENTITY, GeneratorSet, Mat2, SignedWord
from sl2z_semigroups import oracle
from sl2z_semigroups.encodings import encode_equal_subset_sum
from sl2z_semigroups.decisions import (
    NO, UNKNOWN, YES, count_factorizations, finite_freeness, identity_in_semigroup,
    is_free, is_recurrent, membership,
)

FINITE_FREENESS_DEPTH = 3
# the paper's equal-subset-sum family: these collide in a pair of
# generators, which random sets seldom reach without an identity
ESSP_COLLIDING = ([1, 2, 3], [3, 5, 8, 13], [1, 2, 4, 7], [2, 3, 5, 9], [1, 1, 4, 4])
ESSP_DEPTH = 4
# a run this long must check at least one cycle witness
MIN_TRIALS_FOR_CYCLES = 50
FREE_PAIR = (Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1))


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


def conjugate_set(rng):
    """{X A X^-1, X A^-1 Y^-1, Y A^-1 Y^-1} for products X, Y, A of one or
    two matrices of the free pair: w1^n w2 w3^(n-1) = X Y^-1 for every
    n >= 1, so X Y^-1 is recurrent."""
    def free_pair_product():
        m = IDENTITY
        for _ in range(rng.randint(1, 2)):
            m = m * rng.choice(FREE_PAIR)
        return m
    x, y, a = free_pair_product(), free_pair_product(), free_pair_product()
    return GeneratorSet.from_matrices([x * a * x.inverse(), x * a.inverse() * y.inverse(),
                                       y * a.inverse() * y.inverse()])


def candidate_loop(gens, depth):
    """Whether some product of <= depth generators is recurrent: the
    product table, and `is_recurrent` on each of its matrices."""
    table = oracle.enumerate_products(gens, depth)
    return any(is_recurrent(gens, m).answer == YES for m in table.matrices())


def check_freeness_no(gens, table, witness):
    """Why a `check-free` NO witness fails, or None when it holds.

    Its two sequences must differ and multiply alike.  Unless alpha is a
    prefix of beta (the identity branch), it names the least colliding pair
    (alpha[0], beta[0]): no two sequences of one product in the table may
    differ, after their common prefix, in a pair of generators below it,
    and none may strip to a product equal to I.
    """
    alpha, beta = witness["sequences"]
    if alpha == beta or gens.product(alpha) != gens.product(beta):
        return f"{alpha} and {beta} are not two factorizations of one product"
    if beta[:len(alpha)] == alpha:
        return None
    least = (alpha[0], beta[0])
    for m in table.matrices():
        for x, y in combinations(table.sequences(m), 2):
            n = next((n for n, (a, b) in enumerate(zip(x, y)) if a != b), None)
            if n is None:
                return f"{x} and {y} give I, but the witness is not the identity's"
            if (min(x[n], y[n]), max(x[n], y[n])) < least:
                return f"{x} and {y} collide below the pair {least}"
    return None


def check_finite_freeness_no(gens, witness):
    """Re-multiply every sequence of a finite-freeness NO witness; the
    pumped sequences must be distinct and the pumping triple not
    degenerate."""
    if witness["kind"] == "sequences":
        return all(gens.product(seq).is_identity() for seq in witness["sequences"])
    m = gens.product(witness["sequence"])
    if [[str(m.a), str(m.b)], [str(m.c), str(m.d)]] != witness["matrix"]:
        return False
    pumping = witness["pumping"]
    if not pumping["sigma"] or not (pumping["alpha"] or pumping["gamma"]):
        return False
    pumped = [pumping["alpha"] * n + pumping["sigma"] + pumping["gamma"] * n
              for n in (1, 2, 3)]
    return (len({tuple(seq) for seq in pumped}) == 3
            and all(gens.product(seq) == m for seq in witness["sequences"] + pumped))


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
    stats = {"free": 0, "not_free": 0, "pair_witnesses": 0, "checked_counts": 0,
             "finite_free_identity_no": 0, "finite_free_cycle_no": 0, "identity": 0,
             "least_identity": 0, "member_witnesses": 0}
    for trial in range(args.trials):
        if trial % 2:
            gens = conjugate_set(rng)
        else:
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
        if verdict.answer == NO:
            fault = check_freeness_no(gens, table, verdict.witness)
            if fault is not None:
                raise SystemExit(f"trial {trial}: freeness witness: {fault}")
            alpha, beta = verdict.witness["sequences"]
            stats["pair_witnesses"] += beta[:len(alpha)] != alpha
        ident = identity_in_semigroup(gens)
        if ident.answer == YES:
            stats["identity"] += 1
            seq = ident.witness["sequences"][0]
            if gens.product(seq) != IDENTITY:
                raise SystemExit(f"trial {trial}: identity witness {seq} does not multiply to I")
            least = table.first_sequence(IDENTITY)
            if least is not None and seq != least:
                raise SystemExit(f"trial {trial}: identity witness {seq} is not the least "
                                 f"factorization {least}")
            if least is None and len(seq) <= args.depth:
                raise SystemExit(f"trial {trial}: identity witness {seq} is missing from the table")
            stats["least_identity"] += least is not None
        elif IDENTITY in table:
            raise SystemExit(f"trial {trial}: the table holds I but identity said {ident.answer}")
        finite = finite_freeness(gens, FINITE_FREENESS_DEPTH)
        if verdict.answer == YES and finite.answer != UNKNOWN:
            raise SystemExit(f"trial {trial}: free set but finite freeness said {finite.answer}")
        if finite.answer == NO:
            kind = finite.witness["kind"]
            stats["finite_free_cycle_no" if kind == "recurrent_matrix"
                  else "finite_free_identity_no"] += 1
            if not check_finite_freeness_no(gens, finite.witness):
                raise SystemExit(f"trial {trial}: finite-freeness witness "
                                 f"{finite.witness} does not multiply out")
        if finite.answer != NO and candidate_loop(gens, FINITE_FREENESS_DEPTH):
            raise SystemExit(f"trial {trial}: a product of <= {FINITE_FREENESS_DEPTH} "
                             f"generators is recurrent, but finite freeness said {finite}")
        mats = table.matrices()
        for m in mats[:3]:
            member = membership(gens, m)
            if member.answer != YES:
                raise SystemExit(f"trial {trial}: member of table rejected")
            seq = member.witness["sequences"][0]
            if gens.product(seq) != m:
                raise SystemExit(f"trial {trial}: membership witness {seq} does not "
                                 f"multiply to {m}")
            if seq != table.first_sequence(m):
                raise SystemExit(f"trial {trial}: membership witness {seq} is not the least "
                                 f"factorization {table.first_sequence(m)}")
            stats["member_witnesses"] += 1
        m = mats[0]
        counted = count_factorizations(gens, m, cap=5)
        if counted.count.kind == "exact":
            stats["checked_counts"] += 1
            if table.count(m) > counted.count.value:
                raise SystemExit(f"trial {trial}: count too small for {m}")
    for values in ESSP_COLLIDING:
        gens = encode_equal_subset_sum(values).generators
        verdict = is_free(gens)
        table = oracle.enumerate_products(gens, ESSP_DEPTH)
        fault = ("answered YES" if verdict.answer != NO else
                 check_freeness_no(gens, table, verdict.witness))
        if fault is not None:
            raise SystemExit(f"essp {values}: freeness witness: {fault}")
        stats["pair_witnesses"] += 1
    print(f"{args.trials} trials in {time.monotonic() - t0:.1f}s: {stats}")
    if args.trials >= MIN_TRIALS_FOR_CYCLES and not stats["finite_free_cycle_no"]:
        raise SystemExit(f"{args.trials} trials checked no finite-freeness cycle witness")


if __name__ == "__main__":
    main()
