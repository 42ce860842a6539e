"""Brute-force oracle sanity: derived expectations computed by hand here."""

import random

import pytest

from sl2z_semigroups.algebra import (
    IDENTITY, S, GeneratorSet, SignedWord, evaluate, reduce,
)
from sl2z_semigroups.oracle import (
    OracleBudgetError, enumerate_products, find_collision, find_pumping,
    max_exhaustive_depth, oracle_count,
)

F_A = evaluate(SignedWord(1, "srsr"))      # [[1,2],[0,1]]
F_B = evaluate(SignedWord(1, "srrsrr"))    # [[1,0],[2,1]]


class TestEnumerate:
    def test_powers_of_s(self):
        g = GeneratorSet.from_matrices([S])
        table = enumerate_products(g, 4)
        expected = {
            S: [(1,)],
            -IDENTITY: [(1, 1)],
            -S: [(1, 1, 1)],
            IDENTITY: [(1, 1, 1, 1)],
        }
        assert {m.entries() for m in table.matrices()} == {
            m.entries() for m in expected}
        for m, seqs in expected.items():
            assert table.sequences(m) == seqs

    def test_free_single_generator(self):
        g = GeneratorSet.from_matrices([F_A])
        table = enumerate_products(g, 3)
        assert len(table.matrices()) == 3
        for m in table.matrices():
            assert len(table.sequences(m)) == 1

    def test_completeness_count(self):
        g = GeneratorSet.from_matrices([F_A, F_B])
        table = enumerate_products(g, 5)
        assert table.total_sequences() == sum(2 ** k for k in range(1, 6))

    def test_budget(self):
        g = GeneratorSet.from_matrices([S, -S])
        with pytest.raises(OracleBudgetError):
            enumerate_products(g, 30, budget=1000)

    def test_max_exhaustive_depth(self):
        assert max_exhaustive_depth(2, budget=6) == 2       # 2 + 4
        assert max_exhaustive_depth(10, budget=1_000_000) == 5


class TestCount:
    def test_neg_identity_lengths_2_and_6(self):
        g = GeneratorSet.from_matrices([S])
        assert oracle_count(g, -IDENTITY, 7) == 2

    def test_free_pair_product(self):
        g = GeneratorSet.from_matrices([F_A, F_B])
        assert oracle_count(g, F_A * F_B, 6) == 1

    def test_absent_matrix(self):
        g = GeneratorSet.from_matrices([F_A])
        assert oracle_count(g, S, 5) == 0


class TestCollision:
    def test_s_torsion(self):
        g = GeneratorSet.from_matrices([S])
        assert find_collision(g, 6) == ([1], [1, 1, 1, 1, 1])

    def test_free_pair_none(self):
        g = GeneratorSet.from_matrices([F_A, F_B])
        assert find_collision(g, 8) is None

    def test_collision_products_agree(self):
        g = GeneratorSet.from_matrices([S, -S])
        a, b = find_collision(g, 4)
        assert a != b
        assert g.product(a) == g.product(b)

    def test_table_collision_matches_streaming_search(self):
        rng = random.Random(8080)
        found = 0
        for _ in range(300):
            g = GeneratorSet.from_matrices([
                evaluate(reduce("".join(rng.choice("sr") for _ in range(rng.randint(0, 5))),
                                rng.choice((1, -1))))
                for _ in range(rng.randint(1, 3))])
            depth = rng.randint(1, 6 if len(g) < 3 else 5)
            collision = find_collision(g, depth)
            assert enumerate_products(g, depth).collision() == collision
            found += collision is not None
        assert 50 <= found <= 250


class TestPumping:
    def test_identity_in_semigroup_pumps(self):
        g = GeneratorSet.from_matrices([S])
        assert find_pumping(g, 5) == ([1, 1, 1, 1], [1], [])

    def test_free_pair_has_none(self):
        g = GeneratorSet.from_matrices([F_A, F_B])
        assert find_pumping(g, 6) is None

    def test_table_pumping_matches_find_pumping(self):
        rng = random.Random(99)
        for _ in range(60):
            g = GeneratorSet.from_matrices([
                evaluate(reduce("".join(rng.choice("sr") for _ in range(rng.randint(1, 5))),
                                rng.choice((1, -1))))
                for _ in range(rng.randint(1, 3))])
            table = enumerate_products(g, 3)
            assert table.pumping() == find_pumping(g, 3)
            for m in table.matrices()[:4]:
                assert table.pumping(m) == find_pumping(g, 3, target=m)

    def test_triple_re_multiplies(self):
        g = GeneratorSet.from_matrices([S])
        alpha, sigma, gamma = find_pumping(g, 5)
        left = alpha + sigma + gamma
        assert g.product(left) == g.product(sigma)
