"""Extremal family construction, parameter validation, and recognition."""

import random

import pytest

from toughspec.families import (
    Family,
    FamilySpec,
    bip_block_sizes,
    build_family,
    clique_with_satellites,
    family_graph,
    matches_family,
    quotient_partition,
    split_join,
    tough_block_sizes,
)
from toughspec.graphs import Graph, bipartition_of, complete

from helpers_naive import naive_matches_family, relabeled


class TestBlockSizes:
    def test_tough_int(self):
        spec = FamilySpec.tough_int(14, 2)
        assert tough_block_sizes(spec) == (1, 12, 1)
        g = family_graph(spec)
        assert g.n == 14 and g.m == 79
        # hub sees everything; satellites see only the hub
        assert g.degree(0) == 13
        assert min(g.degrees()) == 1

    def test_tough_frac_delta(self):
        spec = FamilySpec.tough_frac_delta(16, 1, 2)
        assert tough_block_sizes(spec) == (2, 11, 3)
        g = family_graph(spec)
        assert g.n == 16
        assert g.min_degree() == 2  # satellites have degree delta

    def test_tough_frac_min_degree_equals_delta(self):
        spec = FamilySpec.tough_frac_delta(20, 2, 2)
        assert tough_block_sizes(spec) == (2, 13, 5)
        assert family_graph(spec).min_degree() == 2

    def test_bip_int_div(self):
        spec = FamilySpec.bip_int_div(20, 2)
        assert bip_block_sizes(spec) == (9, 5, 1, 5)

    def test_bip_int_nondiv(self):
        assert bip_block_sizes(FamilySpec.bip_int_nondiv_a(38, 3)) == (17, 13, 2, 6)
        assert bip_block_sizes(FamilySpec.bip_int_nondiv_b(38, 3)) == (2, 18, 17, 1)

    def test_bip_frac(self):
        assert bip_block_sizes(FamilySpec.bip_frac(16, 2)) == (1, 5, 7, 3)

    @pytest.mark.parametrize("spec", [
        FamilySpec.bip_int_div(24, 2),
        FamilySpec.bip_int_nondiv_a(38, 3),
        FamilySpec.bip_int_nondiv_b(38, 3),
        FamilySpec.bip_frac(20, 3),
    ])
    def test_bipartite_blocks_balance(self, spec):
        p, q, a, b = bip_block_sizes(spec)
        assert p + a == spec.n // 2
        assert q + b == spec.n // 2
        assert min(p, q, a, b) >= 1


class TestValidation:
    @pytest.mark.parametrize("spec,fragment", [
        (FamilySpec.tough_int(14, 1), "tau >= 2"),
        (FamilySpec.tough_int(20, 3), "n >="),
        (FamilySpec(Family.TOUGH_INT, 14), "missing family parameter tau"),
        (FamilySpec.tough_frac_delta(16, 0, 2), "tau_inv >= 1"),
        (FamilySpec.tough_frac_delta(16, 1, 0), "delta >= 1"),
        (FamilySpec.tough_frac_delta(12, 1, 2), "n >="),
        (FamilySpec.tough_frac_delta(9, 7, 1), "clique part would be empty"),
        (FamilySpec.bip_int_div(20, 1), "r >= 2"),
        (FamilySpec.bip_int_div(21, 2), "even n"),
        (FamilySpec.bip_int_div(16, 2), "n >="),
        (FamilySpec.bip_int_div(22, 2), "2r | n"),
        (FamilySpec.bip_int_nondiv_a(24, 2), "not dividing"),
        (FamilySpec.bip_int_nondiv_b(24, 2), "not dividing"),
        (FamilySpec.bip_frac(15, 2), "even n"),
        (FamilySpec.bip_frac(12, 2), "n >="),
        (FamilySpec.bip_frac(16, 0), "r_inv >= 1"),
    ])
    def test_each_hypothesis_rejected_with_reason(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment.replace("|", r"\|")):
            spec.validate()

    @pytest.mark.parametrize("spec", [
        FamilySpec.tough_int(14, 2),
        FamilySpec.tough_int(45, 3),
        FamilySpec.tough_frac_delta(16, 1, 2),
        FamilySpec.bip_int_div(20, 2),
        FamilySpec.bip_int_nondiv_a(22, 2),
        FamilySpec.bip_int_nondiv_b(22, 2),
        FamilySpec.bip_frac(16, 2),
    ])
    def test_valid_specs_pass(self, spec):
        spec.validate()


class TestConstruction:
    def test_bipartite_families_carry_sides(self):
        g = build_family(FamilySpec.bip_frac(16, 2))
        sides = bipartition_of(g)
        assert sides.y == frozenset(range(g.n)) - sides.x
        assert all((u in sides.x) != (v in sides.x) for u, v in g.edges())
        assert sides.is_balanced()

    def test_clique_families_are_plain_graphs(self):
        built = build_family(FamilySpec.tough_int(14, 2))
        assert isinstance(built, Graph)

    def test_split_join_blocks_in_order(self):
        g = split_join(1, 5, 7, 3)
        # X1 = {0} sees all of Y; X2 sees only Y1; Y2 sees only X1
        assert g.masks[0] == sum(1 << w for w in [*range(1, 6), *range(13, 16)])
        assert g.degree(13) == 1

    def test_clique_with_satellites_blocks_in_order(self):
        g = clique_with_satellites(2, 3, 2)
        assert g.n == 7
        assert g.degrees() == (6, 6, 4, 4, 4, 2, 2)

    def test_quotient_partition_covers_vertices_once(self):
        for spec in (FamilySpec.tough_int(14, 2),
                     FamilySpec.tough_frac_delta(16, 1, 2),
                     FamilySpec.bip_int_div(20, 2),
                     FamilySpec.bip_frac(16, 2)):
            cells = quotient_partition(spec)
            flat = [v for cell in cells for v in cell]
            assert sorted(flat) == list(range(spec.n))
            assert all(cell for cell in cells)

    def test_quotient_partition_shapes(self):
        assert quotient_partition(FamilySpec.tough_int(14, 2)) == (
            (0,), (13,), tuple(range(1, 13)))
        cells = quotient_partition(FamilySpec.bip_frac(16, 2))
        assert tuple(len(c) for c in cells) == (1, 5, 7, 3)


ALL_SPEC_EXAMPLES = [
    FamilySpec.tough_int(14, 2),
    FamilySpec.tough_int(27, 3),
    FamilySpec.tough_frac_delta(16, 1, 2),
    FamilySpec.tough_frac_delta(20, 2, 2),
    FamilySpec.bip_int_div(20, 2),
    FamilySpec.bip_int_nondiv_a(22, 2),
    FamilySpec.bip_int_nondiv_b(22, 2),
    FamilySpec.bip_frac(16, 2),
]


class TestMatching:
    @pytest.mark.parametrize("spec", ALL_SPEC_EXAMPLES)
    def test_family_matches_itself(self, spec):
        assert matches_family(family_graph(spec), spec)

    @pytest.mark.parametrize("spec", ALL_SPEC_EXAMPLES)
    def test_matching_survives_relabeling(self, spec):
        g = family_graph(spec)
        rng = random.Random(4)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert matches_family(relabeled(Graph, g, perm), spec)

    def test_wrong_order_rejected(self):
        g = family_graph(FamilySpec.tough_int(14, 2))
        assert not matches_family(g, FamilySpec.tough_int(16, 2))

    def test_complete_graph_is_not_a_family_member(self):
        assert not matches_family(complete(14), FamilySpec.tough_int(14, 2))

    def test_single_edge_change_rejected(self):
        spec = FamilySpec.tough_int(14, 2)
        g = family_graph(spec)
        assert not matches_family(g.without_edges([(1, 2)]), spec)
        # connecting the satellite to the clique changes the degree pattern
        assert not matches_family(g.with_edges([(12, 13)]), spec)

    def test_bipartite_families_distinguished(self):
        div = family_graph(FamilySpec.bip_int_div(24, 2))
        assert not matches_family(div, FamilySpec.bip_frac(24, 2))
        a = family_graph(FamilySpec.bip_int_nondiv_a(22, 2))
        b = family_graph(FamilySpec.bip_int_nondiv_b(22, 2))
        assert not matches_family(a, FamilySpec.bip_int_nondiv_b(22, 2))
        assert not matches_family(b, FamilySpec.bip_int_nondiv_a(22, 2))

    def test_side_swap_still_matches(self):
        spec = FamilySpec.bip_frac(16, 2)
        g = family_graph(spec)
        # move side Y in front of side X
        perm = [0] * g.n
        p, q, a, b = bip_block_sizes(spec)
        x_vertices = list(range(p)) + list(range(p + q, p + q + a))
        y_vertices = list(range(p, p + q)) + list(range(p + q + a, g.n))
        for i, v in enumerate(y_vertices + x_vertices):
            perm[v] = i
        assert matches_family(relabeled(Graph, g, perm), spec)

    def test_invalid_spec_raises_rather_than_false(self):
        with pytest.raises(ValueError):
            matches_family(complete(5), FamilySpec.tough_int(5, 2))


REFERENCE_SPECS = [
    FamilySpec.tough_int(14, 2),
    FamilySpec.tough_int(27, 3),
    FamilySpec.tough_frac_delta(16, 1, 2),
    FamilySpec.tough_frac_delta(20, 2, 2),
    FamilySpec.bip_int_div(20, 2),
    FamilySpec.bip_int_div(24, 2),
    FamilySpec.bip_int_nondiv_a(22, 2),
    FamilySpec.bip_int_nondiv_a(38, 3),
    FamilySpec.bip_int_nondiv_b(22, 2),
    FamilySpec.bip_int_nondiv_b(38, 3),
    FamilySpec.bip_frac(16, 2),
    FamilySpec.bip_frac(20, 1),
]
BIPARTITE_SPECS = [s for s in REFERENCE_SPECS
                   if s.family not in (Family.TOUGH_INT, Family.TOUGH_FRAC_DELTA)]


def _two_switches(g, rng, count):
    """Up to ``count`` degree-preserving 2-switches ab, cd -> ac, bd of g."""
    edges = g.edges()
    out = []
    for _ in range(50 * count):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            out.append(g.without_edges([(a, b), (c, d)]).with_edges([(a, c), (b, d)]))
            if len(out) == count:
                break
    return out


def _reference_cases():
    """(graph, spec) pairs: relabelled family graphs, 2-switches, single-edge
    flips and family graphs of the same order checked against another spec."""
    rng = random.Random(8)
    for spec in REFERENCE_SPECS:
        g = family_graph(spec)
        variants = [g] * 20 + _two_switches(g, rng, 60)
        variants += [
            g.without_edges([(u, v)]) if g.has_edge(u, v) else g.with_edges([(u, v)])
            for u in range(g.n) for v in range(u + 1, g.n)
        ]
        variants += [family_graph(other) for other in REFERENCE_SPECS
                     if other.n == spec.n and other != spec]
        for h in variants:
            perm = list(range(h.n))
            rng.shuffle(perm)
            yield relabeled(Graph, h, perm), spec


class TestMatchingAgainstReference:
    def test_agrees_with_structural_matcher(self):
        counts = {}
        for g, spec in _reference_cases():
            blocks = (tough_block_sizes(spec) if spec.family in (Family.TOUGH_INT, Family.TOUGH_FRAC_DELTA)
                      else bip_block_sizes(spec))
            expected = naive_matches_family(g.n, g.edges(), blocks)
            assert matches_family(g, spec) == expected, (spec, g.edges())
            key = (spec.family, expected)
            counts[key] = counts.get(key, 0) + 1
        assert sum(counts.values()) >= 3000
        assert {family for family, _ in counts} == set(Family)
        assert all(counts.get((family, True), 0) >= 20 for family in Family)

    @pytest.mark.parametrize("spec", BIPARTITE_SPECS)
    def test_bipartition_is_the_construction_sides(self, spec):
        # the family graph is connected, so bipartition_of puts vertex 0,
        # in X1, on side X, and X is X1 u X2 in construction order
        x1, y1, x2, y2 = quotient_partition(spec)
        sides = bipartition_of(family_graph(spec))
        assert sides.x == frozenset(x1 + x2)
        assert sides.y == frozenset(y1 + y2)

    @pytest.mark.parametrize("spec", BIPARTITE_SPECS)
    def test_switch_into_odd_cycle_keeps_degrees_but_not_the_family(self, spec):
        # a 2-switch that joins two vertices of one side keeps every degree
        # and the side degree lists, so only the bipartiteness test rejects it
        g = family_graph(spec)
        x = bipartition_of(g).x
        switches = [h for h in _two_switches(g, random.Random(3), 40)
                    if any(h.has_edge(u, v) for u in x for v in x if u < v)]
        assert switches
        for h in switches:
            assert sorted(h.degrees()) == sorted(g.degrees())
            assert not matches_family(h, spec)
