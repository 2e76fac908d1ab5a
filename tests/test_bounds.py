"""Spectral upper bounds with structural equality classes, and the regular-graph
toughness margin."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toughspec import bounds
from toughspec.bounds import (
    Bound,
    _nosal_equality,
    brouwer_margin,
    check_all_bounds,
    check_bound,
)
from toughspec.graphs import (
    bipartition_of,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    join,
    path,
    petersen,
)
from toughspec.randoms import balanced_bipartite_gnp, connected_gnp

from helpers_naive import naive_nosal_equality


def star(leaves):
    return join(complete(1), empty(leaves))


class TestEdgeCountBound:
    def test_equality_on_complete_graphs(self):
        rep = check_bound(complete(5), Bound.HONG)
        assert rep.rhs == pytest.approx(math.sqrt(2 * 10 - 5 + 1))
        assert abs(rep.slack) < 1e-8
        assert rep.equality_case

    def test_equality_on_stars(self):
        rep = check_bound(star(5), Bound.HONG)
        assert rep.lhs == pytest.approx(math.sqrt(5), abs=1e-9)
        assert abs(rep.slack) < 1e-8
        assert rep.equality_case

    def test_single_vertex(self):
        rep = check_bound(complete(1), Bound.HONG)
        assert rep.rhs == 0.0 and rep.equality_case

    def test_strict_on_paths(self):
        rep = check_bound(path(5), Bound.HONG)
        assert rep.slack > 0.1
        assert not rep.equality_case

    def test_tight_but_outside_equality_class(self):
        # P_3 + K_2 attains the bound numerically yet is neither star nor
        # complete; the equality flag is structural and stays off
        g = disjoint_union([path(3), complete(2)])
        rep = check_bound(g, Bound.HONG)
        assert abs(rep.slack) < 1e-9
        assert not rep.equality_case

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            check_bound(disjoint_union([complete(3), empty(1)]), Bound.HONG)


class TestMinDegreeBound:
    def test_equality_on_regular_graphs(self):
        for g in (cycle(6), complete(4), petersen()):
            rep = check_bound(g, Bound.DEGREE)
            assert abs(rep.slack) < 1e-8
            assert rep.equality_case

    def test_equality_on_hub_plus_satellites(self):
        # degrees take exactly the two values {min degree, n - 1}
        g = join(complete(2), empty(3))
        rep = check_bound(g, Bound.DEGREE)
        assert rep.lhs == pytest.approx(3.0, abs=1e-9)
        assert rep.rhs == pytest.approx(3.0, abs=1e-12)
        assert rep.equality_case

    def test_tight_but_outside_equality_class(self):
        g = disjoint_union([path(3), complete(2)])
        rep = check_bound(g, Bound.DEGREE)
        assert abs(rep.slack) < 1e-9
        assert not rep.equality_case

    def test_strict_on_paths(self):
        rep = check_bound(path(5), Bound.DEGREE)
        assert rep.slack > 0.01
        assert not rep.equality_case

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            check_bound(empty(3), Bound.DEGREE)


class TestBipartiteEdgeBound:
    def test_equality_on_complete_bipartite(self):
        rep = check_bound(complete_bipartite(2, 3), Bound.NOSAL)
        assert rep.rhs == pytest.approx(math.sqrt(6))
        assert abs(rep.slack) < 1e-8
        assert rep.equality_case

    def test_equality_survives_isolated_vertices(self):
        g = disjoint_union([complete_bipartite(2, 3), empty(2)])
        rep = check_bound(g, Bound.NOSAL)
        assert abs(rep.slack) < 1e-8
        assert rep.equality_case

    def test_edgeless_graph_is_degenerate_equality(self):
        rep = check_bound(empty(4), Bound.NOSAL)
        assert rep.lhs == rep.rhs == 0.0
        assert rep.equality_case

    def test_two_complete_bipartite_components_are_not_equality(self):
        g = disjoint_union([complete_bipartite(2, 2),
                            complete_bipartite(3, 3)])
        rep = check_bound(g, Bound.NOSAL)
        assert rep.slack == pytest.approx(math.sqrt(13) - 3, abs=1e-8)
        assert not rep.equality_case

    def test_strict_on_paths(self):
        rep = check_bound(path(4), Bound.NOSAL)
        assert rep.slack == pytest.approx(math.sqrt(3) - (1 + math.sqrt(5)) / 2,
                                          abs=1e-8)
        assert not rep.equality_case

    def test_rejects_odd_cycles(self):
        with pytest.raises(ValueError, match="bipartite"):
            check_bound(cycle(5), Bound.NOSAL)

    def test_equality_class_matches_structural_definition(self):
        two_k2 = disjoint_union([path(2), path(2)])
        assert not _nosal_equality(two_k2, bipartition_of(two_k2))
        assert not naive_nosal_equality(two_k2.n, two_k2.edges())
        graphs = [two_k2, empty(1), complete_bipartite(1, 1)]
        for seed in range(120):
            # sparse draws leave isolated vertices and several components
            p = (0.1, 0.25, 0.5, 1.0)[seed % 4]
            parts = [balanced_bipartite_gnp(2 * (1 + seed % 4), p, seed),
                     complete_bipartite(1 + seed % 3, 2), empty(1 + seed % 2)]
            graphs += [parts[0], disjoint_union(parts[: 1 + seed % 3])]
        verdicts = set()
        for g in graphs:
            expected = naive_nosal_equality(g.n, g.edges())
            assert _nosal_equality(g, bipartition_of(g)) == expected, g.edges()
            assert check_bound(g, Bound.NOSAL).equality_case == expected, g.edges()
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestBoundsNeverViolated:
    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 16))
    def test_on_connected_samples(self, seed, n):
        g = connected_gnp(n, 0.5, seed)
        for bound in (Bound.HONG, Bound.DEGREE):
            assert check_bound(g, bound).slack >= -1e-8

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), half=st.integers(2, 8))
    def test_on_bipartite_samples(self, seed, half):
        g = balanced_bipartite_gnp(2 * half, 0.5, seed)
        assert check_bound(g, Bound.NOSAL).slack >= -1e-8

    def test_bound_accepts_string_names(self):
        assert check_bound(complete(4), "hong").bound is Bound.HONG
        with pytest.raises(ValueError):
            check_bound(complete(4), "unknown")


class TestAllBounds:
    @pytest.mark.parametrize("g, applicable", [
        (path(4), [Bound.HONG, Bound.DEGREE, Bound.NOSAL]),
        (petersen(), [Bound.HONG, Bound.DEGREE]),
        (disjoint_union([complete_bipartite(2, 3), empty(1)]), [Bound.NOSAL]),
    ], ids=["path4", "petersen", "k23-plus-isolated"])
    def test_reports_every_applicable_bound_from_one_radius(self, g, applicable, monkeypatch):
        solve = bounds.spectral_radius
        calls = []
        monkeypatch.setattr(bounds, "spectral_radius", lambda h: calls.append(h) or solve(h))
        reports = check_all_bounds(g)
        assert calls == [g]
        assert [rep.bound for rep in reports] == applicable
        monkeypatch.undo()
        assert reports == [check_bound(g, bound) for bound in applicable]

    def test_no_applicable_bound_names_every_reason(self):
        with pytest.raises(ValueError) as info:
            check_all_bounds(disjoint_union([complete(3), empty(1)]))
        message = str(info.value)
        assert message.startswith("no bound applies")
        assert all(f"{bound.value}: " in message for bound in Bound)


class TestRegularToughnessMargin:
    def test_petersen(self):
        rep = brouwer_margin(petersen())
        assert rep.t == Fraction(4, 3)
        assert rep.d == 3
        assert rep.lam == pytest.approx(2.0, abs=1e-9)
        assert rep.margin == pytest.approx(5 / 6, abs=1e-9)

    def test_even_cycle(self):
        rep = brouwer_margin(cycle(6))
        assert rep.t == Fraction(1)
        assert rep.margin == pytest.approx(1.0, abs=1e-9)

    def test_complete_bipartite(self):
        rep = brouwer_margin(complete_bipartite(3, 3))
        assert rep.t == Fraction(1)
        assert rep.lam == pytest.approx(3.0, abs=1e-9)
        assert rep.margin == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("g,reason", [
        (star(3), "regular"),
        (complete(4), "complete"),
        (disjoint_union([complete(3), complete(3)]), "connected"),
    ])
    def test_hypotheses_enforced(self, g, reason):
        with pytest.raises(ValueError, match=reason):
            brouwer_margin(g)
