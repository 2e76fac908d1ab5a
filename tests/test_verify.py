"""Tests for theorem thresholds, graph classification, and the seeded search."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from toughspec.families import FamilySpec, family_graph, matches_family, split_join
from toughspec.graphs import (
    bipartition_of,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
)
from toughspec.spectra import DENSE_CAP, adjacency_matrix, spectral_radius
from toughspec.toughness import CutWitness
from toughspec import verify
from toughspec.verify import (
    CounterexampleRecord,
    SearchReport,
    Theorem,
    TheoremId,
    Verdict,
    VerdictStatus,
    candidate_comparison,
    check_graph_against_theorem,
    search_counterexamples,
    threshold,
    witness_json,
)

from helpers_naive import naive_component_count


def split_quartic_root(p: int, q: int, a: int, b: int) -> float:
    """Largest root of x^4 - (pq+aq+bp)x^2 + abpq, by the quadratic formula.

    This is the characteristic polynomial of the 4x4 block quotient of the
    graph that joins K_{p,q} to an empty (a, b) bipartite part across sides,
    so it gives the spectral radius without touching the package's solvers.
    """
    c2 = p * q + a * q + b * p
    c0 = a * b * p * q
    return math.sqrt((c2 + math.sqrt(c2 * c2 - 4 * c0)) / 2)


class TestTheoremId:
    def test_single_family_theorems(self):
        t = TheoremId(Theorem.TOUGH_INT, 14, tau=2)
        assert t.family_specs() == (FamilySpec.tough_int(14, 2),)
        t = TheoremId(Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=1, delta=2)
        assert t.family_specs() == (FamilySpec.tough_frac_delta(16, 1, 2),)
        t = TheoremId(Theorem.BIP_FRAC, 16, r_inv=2)
        assert t.family_specs() == (FamilySpec.bip_frac(16, 2),)

    def test_divisible_case_has_one_candidate(self):
        t = TheoremId(Theorem.BIP_INT, 20, r=2)
        assert t.family_specs() == (FamilySpec.bip_int_div(20, 2),)

    def test_indivisible_case_has_two_candidates(self):
        t = TheoremId(Theorem.BIP_INT, 22, r=2)
        assert t.family_specs() == (
            FamilySpec.bip_int_nondiv_a(22, 2),
            FamilySpec.bip_int_nondiv_b(22, 2),
        )

    @pytest.mark.parametrize(
        ("theorem", "kwargs", "missing"),
        [
            (Theorem.TOUGH_INT, {}, "tau"),
            (Theorem.TOUGH_FRAC_MINDEG, {"tau_inv": 1}, "delta"),
            (Theorem.TOUGH_FRAC_MINDEG, {"delta": 2}, "tau_inv"),
            (Theorem.BIP_INT, {}, "r"),
            (Theorem.BIP_FRAC, {}, "r_inv"),
        ],
    )
    def test_missing_parameters(self, theorem, kwargs, missing):
        with pytest.raises(ValueError, match=missing):
            TheoremId(theorem, 20, **kwargs).family_specs()

    def test_validate_propagates_family_constraints(self):
        # r = 2 needs order at least 2*2^2 + 6*2 = 20
        with pytest.raises(ValueError, match="n >= 2\\*r\\^2"):
            TheoremId(Theorem.BIP_INT, 16, r=2).validate()

    def test_required_toughness(self):
        assert TheoremId(Theorem.TOUGH_INT, 14, tau=2).required_toughness() == 2
        assert TheoremId(
            Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=3, delta=2
        ).required_toughness() == Fraction(1, 3)
        assert TheoremId(Theorem.BIP_INT, 20, r=2).required_toughness() == 2
        assert TheoremId(Theorem.BIP_FRAC, 16, r_inv=2).required_toughness() == Fraction(1, 2)

    def test_params_dict_keeps_only_set_fields(self):
        t = TheoremId(Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=1, delta=2)
        assert t.params_dict() == {"n": 16, "tau_inv": 1, "delta": 2}
        assert TheoremId(Theorem.BIP_INT, 20, r=2).params_dict() == {"n": 20, "r": 2}


class TestThreshold:
    def test_clique_family_threshold_value(self):
        thr, extremal = threshold(TheoremId(Theorem.TOUGH_INT, 14, tau=2))
        assert thr == pytest.approx(12.006444911678292, abs=1e-9)
        # independent dense check on the returned graph itself
        eigs = np.linalg.eigvalsh(adjacency_matrix(extremal))
        assert thr == pytest.approx(float(eigs[-1]), abs=1e-8)
        assert matches_family(extremal, FamilySpec.tough_int(14, 2))

    def test_bipartite_threshold_returns_sided_graph(self):
        thr, extremal = threshold(TheoremId(Theorem.BIP_INT, 20, r=2))
        # blocks (9, 5, 1, 5) for the divisible construction at n = 20
        assert bipartition_of(extremal).x == frozenset(range(9)) | {14}
        assert thr == pytest.approx(split_quartic_root(9, 5, 1, 5), abs=1e-8)

    def test_indivisible_threshold_takes_the_larger_candidate(self):
        thr, extremal = threshold(TheoremId(Theorem.BIP_INT, 22, r=2))
        rho_a = split_quartic_root(9, 6, 2, 5)  # floor-based candidate at n=22
        rho_b = split_quartic_root(1, 10, 10, 1)  # single-column candidate
        assert rho_b > rho_a
        assert thr == pytest.approx(rho_b, abs=1e-8)
        assert matches_family(extremal, FamilySpec.bip_int_nondiv_b(22, 2))

    def test_threshold_is_stable_across_calls(self):
        t = TheoremId(Theorem.BIP_FRAC, 16, r_inv=2)
        assert threshold(t)[0] == threshold(t)[0]


def revalidate_witness(graph, witness: CutWitness, required: Fraction, sides=None):
    """Check a non-toughness witness from first principles."""
    comp = naive_component_count(graph.n, graph.edges(), removed=witness.cut)
    assert comp == witness.components
    assert witness.components >= 2
    assert witness.ratio == Fraction(len(witness.cut), witness.components - 1)
    assert witness.ratio < required
    if witness.side is not None:
        assert sides is not None
        expected = sides.x if witness.side == "X" else sides.y
        assert witness.cut < expected  # proper subset of one side


class TestVerdicts:
    def test_low_radius_graph_is_below(self):
        verdict = check_graph_against_theorem(
            cycle(14), TheoremId(Theorem.TOUGH_INT, 14, tau=2)
        )
        assert verdict.status is VerdictStatus.BELOW
        assert verdict.rho == pytest.approx(2.0, abs=1e-9)
        assert verdict.threshold == pytest.approx(12.006444911678292, abs=1e-9)
        assert verdict.witness is None

    def test_complete_graph_is_tough(self):
        verdict = check_graph_against_theorem(
            complete(14), TheoremId(Theorem.TOUGH_INT, 14, tau=2)
        )
        assert verdict.status is VerdictStatus.TOUGH
        assert verdict.rho == pytest.approx(13.0, abs=1e-8)
        assert verdict.witness is None

    def test_complete_bipartite_is_tough(self):
        verdict = check_graph_against_theorem(
            complete_bipartite(10, 10), TheoremId(Theorem.BIP_INT, 20, r=2)
        )
        assert verdict.status is VerdictStatus.TOUGH
        assert verdict.rho == pytest.approx(10.0, abs=1e-8)

    @pytest.mark.parametrize(
        ("tid", "spec", "ratio"),
        [
            (
                TheoremId(Theorem.TOUGH_INT, 14, tau=2),
                FamilySpec.tough_int(14, 2),
                Fraction(1),
            ),
            (
                TheoremId(Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=1, delta=2),
                FamilySpec.tough_frac_delta(16, 1, 2),
                Fraction(2, 3),
            ),
            (
                TheoremId(Theorem.BIP_INT, 20, r=2),
                FamilySpec.bip_int_div(20, 2),
                Fraction(9, 5),
            ),
            (
                TheoremId(Theorem.BIP_FRAC, 16, r_inv=2),
                FamilySpec.bip_frac(16, 2),
                Fraction(1, 3),
            ),
        ],
    )
    def test_each_family_is_extremal_under_its_theorem(self, tid, spec, ratio):
        graph = family_graph(spec)
        bipartite = tid.theorem in (Theorem.BIP_INT, Theorem.BIP_FRAC)
        sides = bipartition_of(graph) if bipartite else None
        verdict = check_graph_against_theorem(graph, tid)
        assert verdict.status is VerdictStatus.EXTREMAL
        assert verdict.rho == pytest.approx(verdict.threshold, abs=1e-8)
        assert verdict.witness is not None
        assert verdict.witness.ratio == ratio
        revalidate_witness(graph, verdict.witness, tid.required_toughness(), sides)

    def test_losing_indivisible_candidate_is_below(self):
        # at n = 22, r = 2 the single-column candidate wins, so the
        # floor-based candidate sits strictly under the threshold
        t = TheoremId(Theorem.BIP_INT, 22, r=2)
        verdict = check_graph_against_theorem(
            family_graph(FamilySpec.bip_int_nondiv_a(22, 2)), t
        )
        assert verdict.status is VerdictStatus.BELOW
        winner = check_graph_against_theorem(
            family_graph(FamilySpec.bip_int_nondiv_b(22, 2)), t
        )
        assert winner.status is VerdictStatus.EXTREMAL

    def test_candidate_b_plus_a_cross_edge_is_a_bip_int_counterexample(self):
        # bip-int (22, 2): the winning candidate B, split_join(1, 10, 10, 1), with
        # the X2-Y2 edge (11, 21) added has rho above the threshold, yet deleting
        # Y1 = {1, ..., 10} leaves 10 components: one-sided variation 10/9 < 2
        g = split_join(1, 10, 10, 1).with_edges([(11, 21)])
        verdict = check_graph_against_theorem(g, TheoremId(Theorem.BIP_INT, 22, r=2))
        assert verdict.status is VerdictStatus.COUNTEREXAMPLE
        assert f"{verdict.rho:.9f} {verdict.threshold:.9f}" == "10.505670320 10.492457578"
        assert verdict.witness == CutWitness(frozenset(range(1, 11)), 10, Fraction(10, 9), "Y")
        revalidate_witness(g, verdict.witness, 2, bipartition_of(g))

    def test_counterexample_branch(self, monkeypatch):
        # force the family matcher to miss so the last branch is reachable:
        # an at-threshold non-tough graph must then be flagged
        monkeypatch.setattr("toughspec.verify.matches_family", lambda g, s: False)
        verdict = check_graph_against_theorem(
            family_graph(FamilySpec.tough_int(14, 2)),
            TheoremId(Theorem.TOUGH_INT, 14, tau=2),
        )
        assert verdict.status is VerdictStatus.COUNTEREXAMPLE
        assert verdict.witness is not None

    def test_over_cap_input_refused_before_the_family_is_built(self, monkeypatch):
        # the theorem order comes from the input, so an over-cap input must be
        # refused on its own radius, not on the same-order family's
        def no_family(spec):
            raise AssertionError("family built for an over-cap input")

        verify._threshold_detail.cache_clear()
        monkeypatch.setattr(verify, "family_graph", no_family)
        n = DENSE_CAP + 1
        with pytest.raises(ValueError, match=f"components of <= {DENSE_CAP} vertices, got {n}"):
            check_graph_against_theorem(path(n), TheoremId(Theorem.TOUGH_INT, n, tau=2))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            check_graph_against_theorem(
                complete(10), TheoremId(Theorem.TOUGH_INT, 14, tau=2)
            )

    def test_disconnected_rejected(self):
        g = disjoint_union([complete(7), complete(7)])
        with pytest.raises(ValueError, match="connected"):
            check_graph_against_theorem(g, TheoremId(Theorem.TOUGH_INT, 14, tau=2))

    def test_min_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="minimum degree"):
            check_graph_against_theorem(
                complete(16), TheoremId(Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=1, delta=2)
            )

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            check_graph_against_theorem(
                complete(20), TheoremId(Theorem.BIP_INT, 20, r=2)
            )

    def test_unbalanced_bipartite_rejected(self):
        with pytest.raises(ValueError, match="balanced"):
            check_graph_against_theorem(
                complete_bipartite(1, 19), TheoremId(Theorem.BIP_INT, 20, r=2)
            )


class TestCandidateTable:
    def test_published_rows(self):
        rows = candidate_comparison()
        assert [(row.r, row.n) for row in rows] == [(3, 38), (10, 270), (10, 402)]
        published = [
            (18.472, 18.499, "B"),
            (134.46, 134.50, "B"),
            (200.81, 200.50, "A"),
        ]
        for row, (rho_a, rho_b, winner) in zip(rows, published):
            assert row.rho_a == pytest.approx(rho_a, abs=0.005)
            assert row.rho_b == pytest.approx(rho_b, abs=0.005)
            assert row.winner == winner

    def test_rows_match_quartic_closed_form(self):
        # block sizes computed by hand from the two constructions:
        # A: (r*f - 1, n/2 - f, n/2 - r*f + 1, f) with f = floor(n / 2r)
        # B: (r - 1, n/2 - 1, n/2 - r + 1, 1)
        for row in candidate_comparison():
            half = row.n // 2
            f = half // row.r
            blocks_a = (row.r * f - 1, half - f, half - row.r * f + 1, f)
            blocks_b = (row.r - 1, half - 1, half - row.r + 1, 1)
            assert row.rho_a == pytest.approx(split_quartic_root(*blocks_a), abs=1e-8)
            assert row.rho_b == pytest.approx(split_quartic_root(*blocks_b), abs=1e-8)

    def test_winner_flips_within_the_table(self):
        winners = {row.winner for row in candidate_comparison()}
        assert winners == {"A", "B"}


class TestWitnessJson:
    def test_none_passes_through(self):
        assert witness_json(None) is None

    def test_plain_cut(self):
        w = CutWitness(frozenset({3, 1}), 4, Fraction(2, 3))
        assert witness_json(w) == {"cut": [1, 3], "components": 4, "ratio": "2/3"}

    def test_sided_cut(self):
        w = CutWitness(frozenset({0}), 4, Fraction(1, 3), side="X")
        assert witness_json(w) == {
            "cut": [0],
            "components": 4,
            "ratio": "1/3",
            "side": "X",
        }


class TestSearch:
    def test_histogram_accounts_for_every_sample(self):
        report = search_counterexamples(TheoremId(Theorem.TOUGH_INT, 14, tau=2), 25, 7)
        assert report.checked == 25
        total = report.below + report.tough + report.extremal + len(report.counterexamples)
        assert total == 25
        assert report.counterexamples == []

    def test_bipartite_theorem_search(self):
        report = search_counterexamples(TheoremId(Theorem.BIP_FRAC, 16, r_inv=2), 10, 3)
        assert report.checked == 10
        assert report.counterexamples == []

    def test_min_degree_theorem_search(self):
        report = search_counterexamples(
            TheoremId(Theorem.TOUGH_FRAC_MINDEG, 14, tau_inv=1, delta=2), 10, 3
        )
        assert report.checked == 10
        assert report.counterexamples == []

    def test_identical_seeds_give_identical_reports(self):
        t = TheoremId(Theorem.TOUGH_INT, 14, tau=2)
        first = json.dumps(search_counterexamples(t, 8, 99).to_json_dict(), sort_keys=True)
        second = json.dumps(search_counterexamples(t, 8, 99).to_json_dict(), sort_keys=True)
        assert first == second

    def test_different_seeds_sample_different_graphs(self):
        import random

        from toughspec.randoms import sample_seed
        from toughspec.verify import _sample_matching_graph

        t = TheoremId(Theorem.TOUGH_INT, 14, tau=2)
        a = _sample_matching_graph(t, random.Random(sample_seed(1, 0)))
        b = _sample_matching_graph(t, random.Random(sample_seed(2, 0)))
        assert a != b

    def test_zero_samples(self):
        report = search_counterexamples(TheoremId(Theorem.TOUGH_INT, 14, tau=2), 0, 5)
        assert report.checked == 0
        assert (report.below, report.tough, report.extremal) == (0, 0, 0)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            search_counterexamples(TheoremId(Theorem.TOUGH_INT, 14, tau=2), -1, 5)

    def test_json_schema(self):
        t = TheoremId(Theorem.TOUGH_FRAC_MINDEG, 14, tau_inv=1, delta=2)
        payload = search_counterexamples(t, 5, 11).to_json_dict()
        assert set(payload) == {
            "theorem", "params", "seed", "checked", "histogram", "counterexamples",
        }
        assert payload["theorem"] == "tough-frac"
        assert payload["params"] == {"n": 14, "tau_inv": 1, "delta": 2}
        assert payload["seed"] == 11
        assert payload["checked"] == 5
        assert set(payload["histogram"]) == {"below", "tough", "extremal", "counterexample"}
        assert sum(payload["histogram"].values()) == 5
        assert payload["counterexamples"] == []
        json.dumps(payload)  # must be serializable as-is

    def test_counterexample_serialization(self):
        # schema check on a hand-built record; the searcher itself never
        # produces one on these theorems
        g = cycle(6)
        verdict = Verdict(
            VerdictStatus.COUNTEREXAMPLE,
            rho=2.0,
            threshold=1.5,
            witness=CutWitness(frozenset({0, 2}), 3, Fraction(1), side="X"),
        )
        report = SearchReport(
            theorem=TheoremId(Theorem.TOUGH_INT, 14, tau=2),
            seed=0,
            checked=1,
            counterexamples=[CounterexampleRecord(g, verdict)],
        )
        payload = report.to_json_dict()
        assert payload["histogram"]["counterexample"] == 1
        (entry,) = payload["counterexamples"]
        assert entry["rho"] == 2.0
        assert entry["threshold"] == 1.5
        assert entry["witness"]["cut"] == [0, 2]
        assert entry["witness"]["side"] == "X"
        assert entry["graph"].startswith("6 6\n")
