"""Seeded random graph models: determinism and model constraints."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from toughspec.graphs import Graph, SidePartition, bipartition_of
from toughspec.randoms import (
    balanced_bipartite_gnp,
    connected_gnp,
    gnp,
    random_regular,
    sample_seed,
)

from helpers_naive import naive_balanced_bipartite_edges, naive_gnp_edges


class TestDeterminism:
    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**9))
    def test_same_seed_same_graph(self, seed):
        assert gnp(12, 0.4, seed) == gnp(12, 0.4, seed)
        assert random_regular(10, 3, seed) == random_regular(10, 3, seed)
        assert (balanced_bipartite_gnp(10, 0.5, seed)
                == balanced_bipartite_gnp(10, 0.5, seed))

    def test_different_seeds_usually_differ(self):
        distinct = {gnp(12, 0.5, s) for s in range(10)}
        assert len(distinct) > 1

    def test_sample_seed_split_is_injective_per_master(self):
        seeds = [sample_seed(42, k) for k in range(1000)]
        assert len(set(seeds)) == 1000
        assert sample_seed(42, 0) != sample_seed(43, 0)

    def test_accepts_random_instance(self):
        rng = random.Random(7)
        g1 = gnp(8, 0.5, rng)
        g2 = gnp(8, 0.5, rng)  # continues the same stream
        assert g1 == gnp(8, 0.5, random.Random(7))
        assert g1 != g2 or g1.m == g2.m  # streams moved on


class TestEdgeListConstruction:
    """The mask-native models draw exactly as the edge-list construction did:
    same graph, and the generator left at the same point of its stream."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_gnp(self, p):
        for n in range(1, 25):
            rng, ref = random.Random(n), random.Random(n)
            assert gnp(n, p, rng) == Graph(n, naive_gnp_edges(n, p, ref))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_balanced_bipartite_gnp(self, p):
        for n in range(2, 25, 2):
            rng, ref = random.Random(n), random.Random(n)
            g = balanced_bipartite_gnp(n, p, rng)
            assert g == Graph(n, naive_balanced_bipartite_edges(n, p, ref))
            assert rng.random() == ref.random()


class TestGnp:
    def test_extreme_probabilities(self):
        assert gnp(6, 0.0, 1).m == 0
        assert gnp(6, 1.0, 1).is_complete()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gnp(0, 0.5, 1)
        with pytest.raises(ValueError):
            gnp(5, 1.5, 1)

    def test_connected_variant_is_connected(self):
        for seed in range(5):
            assert connected_gnp(12, 0.3, seed).is_connected()

    def test_connected_variant_gives_up(self):
        with pytest.raises(RuntimeError):
            connected_gnp(8, 0.0, 0)


class TestBalancedBipartite:
    def test_sides_are_the_halves(self):
        g = balanced_bipartite_gnp(10, 0.6, 3)
        assert g.m and all(u < 5 <= v for u, v in g.edges())  # every edge crosses
        halves = SidePartition(frozenset(range(5)), frozenset(range(5, 10)))
        assert halves.is_balanced()
        assert g.is_connected() and bipartition_of(g) == halves

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            balanced_bipartite_gnp(7, 0.5, 0)


class TestRandomRegular:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 14))
    def test_degrees_are_exact(self, seed, n):
        d = 3 if n % 2 == 0 else 4
        g = random_regular(n, d, seed)
        assert g.degrees() == (d,) * n

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)  # n*d odd
        with pytest.raises(ValueError):
            random_regular(4, 4, 0)  # d >= n

    def test_zero_regular(self):
        assert random_regular(5, 0, 0).m == 0

    @pytest.mark.parametrize("n, d, seed", [(14, 6, 2)] + [(20, 8, s) for s in range(5)])
    def test_moderate_degree(self, n, d, seed):
        # only about 1.6e-4 of all 6-regular pairings on 14 vertices are
        # simple, so rejecting whole pairings gives up here
        g = random_regular(n, d, seed)
        assert g.degrees() == (d,) * n
        assert g.m == n * d // 2
