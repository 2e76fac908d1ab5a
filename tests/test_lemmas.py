"""Spectral comparison experiments and the Perron-weighted edge rotation."""

import math
from fractions import Fraction

import pytest

from toughspec.families import split_join
from toughspec.graphs import complete, cycle, disjoint_union, empty, join, path
from toughspec.lemmas import (
    Lemma,
    check_lemma_comparison,
    rotation_experiment,
)
from toughspec.spectra import char_poly, spectral_radius

GOLDEN = (1 + math.sqrt(5)) / 2


def _split_quartic(p, q, a, b):
    """Exact quotient characteristic polynomial of K_{p,q} split-joined to O_{a,b}."""
    rows = [[0, q, 0, b], [p, 0, a, 0], [0, q, 0, 0], [p, 0, 0, 0]]
    return char_poly([[Fraction(c) for c in row] for row in rows]).coeffs


class TestCliqueConcentration:
    def test_reference_comparison(self):
        rep = check_lemma_comparison(
            Lemma.CLIQUE_CONCENTRATION, s=2, p=1, parts=(4, 3, 3))
        assert rep.holds
        assert rep.rho_left < rep.rho_right
        assert rep.params == {"s": 2, "p": 1, "parts": [4, 3, 3], "n": 12}
        # hub joined to K_4 u K_3 u K_3 on the left, K_8 u K_1 u K_1 on the right
        assert rep.left.m == 33
        assert rep.right.m == 49
        assert rep.left.n == rep.right.n == 12

    def test_equal_parts_still_concentrate(self):
        rep = check_lemma_comparison(
            Lemma.CLIQUE_CONCENTRATION, s=1, p=2, parts=(3, 3))
        assert rep.holds

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(s=0, p=1, parts=(3, 2)), "s >= 1"),
        (dict(s=1, p=0, parts=(3, 2)), "p >= 1"),
        (dict(s=1, p=1, parts=(4,)), "two clique parts"),
        (dict(s=1, p=1, parts=(2, 3)), "nonincreasing"),
        (dict(s=1, p=2, parts=(3, 1)), "every part"),
        (dict(s=1, p=1, parts=(5, 1)), "largest part"),
    ])
    def test_hypotheses_enforced(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            check_lemma_comparison(Lemma.CLIQUE_CONCENTRATION, **kwargs)

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="needs s, p and parts"):
            check_lemma_comparison(Lemma.CLIQUE_CONCENTRATION, s=2)


class TestBipartiteDivisible:
    def test_reference_comparison(self):
        rep = check_lemma_comparison(Lemma.BIPARTITE_DIVISIBLE, k=2, n=20)
        assert rep.holds
        assert rep.rho_left > rep.rho_right
        assert rep.left.n == rep.right.n == 20

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(k=1, n=20), "k >= 2"),
        (dict(k=2, n=21), "even n"),
        (dict(k=2, n=16), "2k"),
        (dict(k=2, n=22), "2k"),
        (dict(k=3, n=38), "2k"),
    ])
    def test_hypotheses_enforced(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            check_lemma_comparison(Lemma.BIPARTITE_DIVISIBLE, **kwargs)

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="needs k and n"):
            check_lemma_comparison(Lemma.BIPARTITE_DIVISIBLE, k=2)


class TestBipartiteMonotone:
    def test_reference_comparison(self):
        rep = check_lemma_comparison(Lemma.BIPARTITE_MONOTONE, n=12, s=1)
        assert rep.holds
        assert rep.rho_left > rep.rho_right

    def test_whole_admissible_range(self):
        n = 20
        radii = []
        for s in range(1, (n - 6) // 4 + 1):
            rep = check_lemma_comparison(Lemma.BIPARTITE_MONOTONE, n=n, s=s)
            assert rep.holds
            radii.append((rep.rho_left, rep.rho_right))
        # consecutive comparisons chain: left of step s+1 equals right of step s
        for (_, right), (left, _) in zip(radii, radii[1:]):
            assert left == pytest.approx(right, abs=1e-9)

    def test_boundary_pair_is_degenerate(self):
        """Why n = 4s + 4 is excluded: the two graphs coincide there.

        Swapping the two sides of the bipartition maps one graph onto the
        other, so their quotient polynomials agree exactly and the strict
        comparison has no content.
        """
        for s in (1, 2, 4):
            n = 4 * s + 4
            half = n // 2
            left = split_join(s, half - s - 1, half - s, s + 1)
            right = split_join(s + 1, half - s - 2, half - s - 1, s + 2)
            assert _split_quartic(s, half - s - 1, half - s, s + 1) \
                == _split_quartic(s + 1, half - s - 2, half - s - 1, s + 2)
            rl = spectral_radius(left).radius
            rr = spectral_radius(right).radius
            assert rl == pytest.approx(rr, abs=1e-9)
            with pytest.raises(ValueError, match="4s"):
                check_lemma_comparison(Lemma.BIPARTITE_MONOTONE, n=n, s=s)

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(n=13, s=1), "even n"),
        (dict(n=12, s=0), "1 <= s"),
        (dict(n=12, s=2), "4s"),
        (dict(n=12, s=3), "4s"),
    ])
    def test_hypotheses_enforced(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            check_lemma_comparison(Lemma.BIPARTITE_MONOTONE, **kwargs)

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="needs n and s"):
            check_lemma_comparison(Lemma.BIPARTITE_MONOTONE, n=12)


def test_lemma_accepts_string_name():
    rep = check_lemma_comparison("bipartite-monotone", n=12, s=1)
    assert rep.lemma is Lemma.BIPARTITE_MONOTONE
    with pytest.raises(ValueError):
        check_lemma_comparison("unknown-lemma", n=12, s=1)


class TestRotation:
    def test_path_rotation_reaches_the_star(self):
        rep = rotation_experiment(path(4), s1=[2], s2=[1], t=[0])
        assert rep.rho_before == pytest.approx(GOLDEN, abs=1e-9)
        assert rep.rho_after == pytest.approx(math.sqrt(3), abs=1e-9)
        # inner Perron entries of the path tie, so the increase is guaranteed
        assert rep.perron_sum_s1 == pytest.approx(rep.perron_sum_s2, abs=1e-9)
        assert rep.rho_after > rep.rho_before

    def test_cycle_rotation(self):
        rep = rotation_experiment(cycle(4), s1=[2], s2=[1], t=[0])
        assert rep.rho_before == pytest.approx(2.0, abs=1e-9)
        assert rep.rho_after > 2.0 + 1e-6

    def test_rotation_against_the_weight_can_decrease(self):
        # moving the leaf edge off the star center loses spectral radius,
        # which is fine: the center outweighs the leaf
        g = join(complete(1), empty(3))
        rep = rotation_experiment(g, s1=[2], s2=[0], t=[1])
        assert rep.perron_sum_s1 < rep.perron_sum_s2
        assert rep.rho_after < rep.rho_before

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(s1=[], s2=[1], t=[0]), "nonempty"),
        (dict(s1=[2], s2=[9], t=[0]), "out of range"),
        (dict(s1=[1], s2=[1], t=[0]), "disjoint"),
        (dict(s1=[1], s2=[3], t=[0]), "no edges into s1"),
        (dict(s1=[3], s2=[2], t=[0]), "completely joined"),
    ])
    def test_preconditions(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            rotation_experiment(path(4), **kwargs)

    def test_requires_connected(self):
        g = disjoint_union([path(3), complete(2)])
        with pytest.raises(ValueError, match="connected"):
            rotation_experiment(g, s1=[2], s2=[1], t=[0])
