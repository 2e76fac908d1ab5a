"""Exact toughness, variation toughness, and one-sided bipartite versions."""

import importlib
import math
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toughspec import graphs
from toughspec.families import FamilySpec, family_graph
from toughspec.graphs import (
    Graph,
    bipartition_of,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    join,
    path,
    petersen,
    twin_classes,
)
from toughspec.randoms import balanced_bipartite_gnp, connected_gnp, gnp
from toughspec.toughness import (
    INFINITE,
    CutWitness,
    ToughnessKind,
    _union_tables,
    bipartite_toughness,
    is_tau_tough,
    toughness,
    variation_toughness,
)

from helpers_naive import (
    naive_component_count,
    naive_first_violation,
    naive_min_cut_ratio,
    naive_toughness,
    naive_variation,
    naive_vertex_connectivity,
    relabeled,
)


# the package namespace re-exports the function toughness, so fetch the module
TOUGHNESS_MODULE = importlib.import_module("toughspec.toughness")


def star(leaves):
    return join(complete(1), empty(leaves))


class TestComponentsAfterDeletion:
    def test_basic(self):
        # the component kernel counts G - cut from the mask of what remains
        def count(g, cut):
            remaining = (1 << g.n) - 1 & ~graphs.vertex_mask(cut)
            return len(graphs.component_masks(g.masks, remaining))

        assert count(path(5), [2]) == 2
        assert count(path(5), []) == 1
        assert count(star(3), [0]) == 3


class TestToughness:
    def test_star_third(self):
        value, witness = toughness(star(3))
        assert value == Fraction(1, 3)
        assert witness == CutWitness(frozenset({0}), 3, Fraction(1, 3))

    def test_four_cycle(self):
        value, witness = toughness(cycle(4))
        assert value == Fraction(1)
        # {0, 2} precedes the tied minimizer {1, 3} in enumeration order
        assert witness.cut == frozenset({0, 2})
        assert witness.components == 2

    def test_petersen(self):
        value, witness = toughness(petersen())
        assert value == Fraction(4, 3)
        assert len(witness.cut) == 4
        assert naive_component_count(10, petersen().edges(), witness.cut) == 3
        assert witness.ratio == Fraction(len(witness.cut), witness.components)

    def test_complete_graph_is_infinitely_tough(self):
        value, witness = toughness(complete(6))
        assert value is INFINITE
        assert witness is None

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            toughness(disjoint_union([complete(2), complete(2)]))

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="cap"):
            toughness(cycle(23))

    def test_cap_is_checked_before_the_connectivity_search(self, monkeypatch):
        ring = cycle(46)

        def refuse(*args):
            raise AssertionError("component search ran before the cap check")

        monkeypatch.setattr(graphs, "component_masks", refuse)
        scans = (toughness, variation_toughness, lambda g: is_tau_tough(g, 1),
                 bipartite_toughness)
        for scan in scans:
            with pytest.raises(ValueError, match="cap"):
                scan(ring)


class TestVariationToughness:
    def test_star(self):
        value, _ = variation_toughness(star(3))
        assert value == Fraction(1, 2)
        # K2 joined to four isolated vertices: the K2 cut leaves four components
        assert variation_toughness(join(complete(2), empty(4)))[0] == Fraction(2, 3)

    def test_cycles(self):
        assert variation_toughness(cycle(4))[0] == Fraction(2)
        # {0, 2, 4} gives three components, beating any two-vertex cut
        value, witness = variation_toughness(cycle(6))
        assert value == Fraction(3, 2)
        assert witness.cut == frozenset({0, 2, 4})

    def test_clique_families_fail_their_target(self):
        # deleting the hub block separates clique from satellites
        value, witness = variation_toughness(family_graph(FamilySpec.tough_int(14, 2)))
        assert value == Fraction(1)
        assert witness.cut == frozenset({0})
        value, _ = variation_toughness(family_graph(FamilySpec.tough_frac_delta(16, 1, 2)))
        assert value == Fraction(2, 3)

    def test_complete_graph(self):
        value, witness = variation_toughness(complete(4))
        assert value is INFINITE and witness is None


class TestIsTauTough:
    def test_exact_threshold_is_met(self):
        g = cycle(6)
        ok, witness = is_tau_tough(g, Fraction(3, 2))
        assert ok and witness is None

    def test_slightly_above_threshold_fails_with_witness(self):
        g = cycle(6)
        ok, witness = is_tau_tough(g, Fraction(3, 2) + Fraction(1, 10**6))
        assert not ok
        assert witness.ratio < Fraction(3, 2) + Fraction(1, 10**6)
        c = naive_component_count(g.n, g.edges(), witness.cut)
        assert c == witness.components
        assert witness.ratio == Fraction(len(witness.cut), c - 1)

    def test_complete_graph_meets_everything(self):
        ok, witness = is_tau_tough(complete(5), 10**6)
        assert ok and witness is None

    def test_integer_tau_accepted(self):
        assert is_tau_tough(cycle(4), 2)[0]
        assert not is_tau_tough(cycle(4), 3)[0]

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 9),
        p=st.floats(0.3, 0.9),
        tau=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
    )
    def test_witness_is_first_violation_in_enumeration_order(self, seed, n, p, tau):
        g = connected_gnp(n, p, seed)
        ok, witness = is_tau_tough(g, tau)
        first = naive_first_violation(g.n, g.edges(), tau)
        if first is None:
            assert ok and witness is None
        else:
            cut, c = first
            assert not ok
            assert witness == CutWitness(frozenset(cut), c, Fraction(len(cut), c - 1))


class TestBipartiteToughness:
    def test_even_cycle_one_sided_variation(self):
        value, witness = bipartite_toughness(cycle(6))
        # proper one-sided subsets cannot reach the three-way cut {0, 2, 4}
        assert value == Fraction(2)
        assert witness.cut == frozenset({0, 2})
        assert witness.side == "X"

    def test_complete_bipartite_is_one_sided_infinite(self):
        g = complete_bipartite(3, 3)
        value, witness = bipartite_toughness(g)
        assert value is INFINITE and witness is None

    def test_split_family_fails_its_target(self):
        g = family_graph(FamilySpec.bip_frac(16, 2))
        value, witness = bipartite_toughness(g)
        assert value == Fraction(1, 3)
        assert witness == CutWitness(frozenset({0}), 4, Fraction(1, 3), side="X")

    def test_toughness_kind_on_same_family(self):
        g = family_graph(FamilySpec.bip_frac(16, 2))
        value, witness = bipartite_toughness(g, kind=ToughnessKind.TOUGHNESS)
        assert value == Fraction(1, 4)
        assert witness.side == "X"

    def test_variation_requires_balanced_sides(self):
        g = complete_bipartite(2, 3)
        with pytest.raises(ValueError, match="balanced"):
            bipartite_toughness(g, kind=ToughnessKind.VARIATION)
        # the plain kind accepts unbalanced sides
        value, _ = bipartite_toughness(g, kind=ToughnessKind.TOUGHNESS)
        assert value is INFINITE

    @pytest.mark.parametrize("kind", list(ToughnessKind))
    def test_non_bipartite_graph_is_refused(self, kind):
        # the tough command's message; at 2 * 22 vertices the bipartition decides
        for g in (cycle(5), complete(44)):
            with pytest.raises(ValueError, match="^one-sided toughness needs a bipartite graph$"):
                bipartite_toughness(g, kind)

    def test_cap_applies_to_side_size(self):
        g = cycle(46)
        with pytest.raises(ValueError, match="cap"):
            bipartite_toughness(g)

    @pytest.mark.parametrize("kind", list(ToughnessKind))
    def test_refusals_come_in_order(self, kind):
        # over 44 vertices, then an odd cycle, then a side over 22, then a
        # disconnected graph, then (variation only) unbalanced sides
        over = "cut enumeration over a side of at least 23 vertices exceeds the cap of 22"
        side = "cut enumeration over 23 vertices exceeds the cap of 22"
        cases = [(disjoint_union([cycle(3), empty(42)]), over),
                 (disjoint_union([cycle(3), path(2)]), "needs a bipartite graph"),
                 (disjoint_union([star(23), empty(1)]), side),
                 (disjoint_union([path(2), empty(1)]), "connected graphs only")]
        for g, message in cases:
            with pytest.raises(ValueError, match=message):
                bipartite_toughness(g, kind)
        if kind is ToughnessKind.VARIATION:
            with pytest.raises(ValueError, match="balanced"):
                bipartite_toughness(star(2), kind)


class TestAgainstNaiveEnumeration:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 10))
    def test_toughness_and_variation(self, seed, n):
        g = connected_gnp(n, 0.45, seed)
        value, witness = toughness(g)
        naive_value, naive_cut = naive_toughness(g)
        if g.is_complete():
            assert value is INFINITE
        else:
            assert value == naive_value
            assert witness.cut == frozenset(naive_cut)
        v_value, _ = variation_toughness(g)
        nv_value, _ = naive_variation(g)
        assert v_value == nv_value

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), half=st.integers(2, 5))
    def test_one_sided_variation(self, seed, half):
        g = balanced_bipartite_gnp(2 * half, 0.6, seed)
        if not g.is_connected():
            return
        sides = bipartition_of(g)
        assert sides.x == frozenset(range(half))  # the model's halves
        value, witness = bipartite_toughness(g)
        naive_x, _ = naive_min_cut_ratio(
            g.n, g.edges(), shift=1,
            universe=sorted(sides.x), proper=True)
        naive_y, _ = naive_min_cut_ratio(
            g.n, g.edges(), shift=1,
            universe=sorted(sides.y), proper=True)
        assert value == min(naive_x, naive_y)
        if witness is not None:
            side = sides.x if witness.side == "X" else sides.y
            assert witness.cut < side  # proper subset of one side
            assert naive_component_count(g.n, g.edges(), witness.cut) == witness.components

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 10))
    def test_variation_dominates_toughness(self, seed, n):
        g = connected_gnp(n, 0.45, seed)
        t, _ = toughness(g)
        v, _ = variation_toughness(g)
        assert v >= t

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 10))
    def test_threshold_test_agrees_with_exact_value(self, seed, n):
        g = connected_gnp(n, 0.45, seed)
        v, _ = variation_toughness(g)
        if v is INFINITE:
            assert is_tau_tough(g, 10**9)[0]
        else:
            assert is_tau_tough(g, v)[0]
            ok, witness = is_tau_tough(g, v + Fraction(1, 10**9))
            assert not ok and witness.ratio == v

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), half=st.integers(2, 5))
    def test_balanced_bipartite_toughness_at_most_one(self, seed, half):
        g = balanced_bipartite_gnp(2 * half, 0.7, seed)
        if not g.is_connected() or g.m == half * half:
            return
        value, _ = toughness(g)
        assert value <= 1


def naive_witness(g, cut, shift, side=None):
    """The CutWitness the scan should report for a naive minimizer, or None."""
    if cut is None:
        return None
    c = naive_component_count(g.n, g.edges(), cut)
    return CutWitness(frozenset(cut), c, Fraction(len(cut), c - shift), side)


def naive_first_witness(g, tau):
    first = naive_first_violation(g.n, g.edges(), tau)
    return None if first is None else naive_witness(g, first[0], 1)


def naive_one_sided_result(g, shift):
    """What bipartite_toughness should return: side X first, Y on a strict win."""
    sides = bipartition_of(g)
    best, witness = INFINITE, None
    for label, side in (("X", sides.x), ("Y", sides.y)):
        value, cut = naive_min_cut_ratio(g.n, g.edges(), shift, universe=side, proper=True)
        if value < best:
            best, witness = value, naive_witness(g, cut, shift, label)
    return best, witness


class TestTableDrivenScan:
    """The cut scan's lookup tables, and its results against helpers_naive where
    the two table halves differ in size (odd n), on one-sided universes that
    straddle the halves, and at n = 22, where each table has 2^11 entries."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), n=st.integers(1, 22))
    def test_union_tables_give_the_neighbourhood_of_any_subset(self, data, n):
        vertex_sets = st.integers(0, (1 << n) - 1)
        masks = data.draw(st.lists(vertex_sets, min_size=n, max_size=n))
        half, lo, hi = _union_tables(tuple(masks))
        assert (len(lo), len(hi)) == (1 << half, 1 << n - half)
        assert max(len(lo), len(hi)) <= 1 << (n + 1) // 2
        low = (1 << half) - 1
        for s in data.draw(st.lists(vertex_sets, min_size=1, max_size=20)):
            union = 0
            for v in range(n):
                if s >> v & 1:
                    union |= masks[v]
            assert lo[s & low] | hi[s >> half] == union

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from([5, 7, 9, 11]),
        p=st.floats(0.2, 0.8),
        tau=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)]),
    )
    def test_whole_graph_quantities_at_odd_order(self, seed, n, p, tau):
        g = connected_gnp(n, p, seed)
        for scan, shift in ((toughness, 0), (variation_toughness, 1)):
            value, cut = naive_min_cut_ratio(g.n, g.edges(), shift)
            assert scan(g) == (value, naive_witness(g, cut, shift))
        witness = naive_first_witness(g, tau)
        assert is_tau_tough(g, tau) == (witness is None, witness)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 11), p=st.floats(0.3, 0.9))
    def test_one_sided_quantities_on_interleaved_sides(self, seed, n, p):
        # odd n: unbalanced sides, plain kind only; even n: balanced, both kinds
        rng = random.Random(seed)
        x = frozenset(rng.sample(range(n), rng.randint(1, n - 1) if n % 2 else n // 2))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u in x) != (v in x) and rng.random() < p]
        g = Graph(n, edges)
        if not g.is_connected():
            return
        assert bipartition_of(g).x in (x, frozenset(range(n)) - x)
        for kind, shift in ((ToughnessKind.TOUGHNESS, 0), (ToughnessKind.VARIATION, 1)):
            if not (shift and n % 2):
                assert bipartite_toughness(g, kind) == naive_one_sided_result(g, shift)

    def test_order_22_star_and_path(self):
        hub_last = join(empty(21), complete(1))  # K1,21, its hub in the high table
        assert toughness(hub_last) == (
            Fraction(1, 21), CutWitness(frozenset({21}), 21, Fraction(1, 21)))
        assert variation_toughness(hub_last) == (
            Fraction(1, 20), CutWitness(frozenset({21}), 21, Fraction(1, 20)))
        line = path(22)
        assert toughness(line) == (Fraction(1, 2), CutWitness(frozenset({1}), 2, Fraction(1, 2)))
        for g in (hub_last, line):
            for tau in (Fraction(3, 2), 2):  # both graphs violate these at size 1
                witness = naive_first_witness(g, tau)
                assert witness is not None
                assert is_tau_tough(g, tau) == (False, witness)
        # sides are the evens and the odds, spread over both tables
        for kind, shift in ((ToughnessKind.TOUGHNESS, 0), (ToughnessKind.VARIATION, 1)):
            assert bipartite_toughness(line, kind) == naive_one_sided_result(line, shift)


def common_neighbour_floor(g):
    """mu(G): the fewest common neighbours of a non-adjacent pair, from edge sets."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return min((len(adj[u] & adj[v]) for u in range(g.n) for v in range(u)
                if v not in adj[u]), default=None)


def octahedron():
    return join(join(empty(2), empty(2)), empty(2))  # K2,2,2: parts {0,1}, {2,3}, {4,5}


ONE_SIDED_KINDS = ((ToughnessKind.TOUGHNESS, 0), (ToughnessKind.VARIATION, 1))


def one_sided_kinds(g):
    """The one-sided kinds g takes: variation only with balanced sides."""
    return [(kind, shift) for kind, shift in ONE_SIDED_KINDS
            if not shift or bipartition_of(g).is_balanced()]


def assert_one_sided_matches_naive(g):
    for kind, shift in one_sided_kinds(g):
        assert bipartite_toughness(g, kind) == naive_one_sided_result(g, shift)


class TestSizeWindow:
    """The cut scan starts at mu(G), below which no cut disconnects, and a
    one-sided scan stops once the other side has fewer vertices than the
    components its bound needs; both only skip cuts that leave one component."""

    TAUS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2))

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10), p=st.floats(0.6, 0.95))
    def test_dense_graphs_match_naive(self, seed, n, p):
        g = connected_gnp(n, p, seed)
        kappa = naive_vertex_connectivity(g.n, g.edges())
        if kappa is None:
            assert g.is_complete()
        else:
            assert common_neighbour_floor(g) <= kappa
        for scan, shift in ((toughness, 0), (variation_toughness, 1)):
            value, cut = naive_min_cut_ratio(g.n, g.edges(), shift)
            assert scan(g) == (value, naive_witness(g, cut, shift))
        for tau in self.TAUS:
            witness = naive_first_witness(g, tau)
            assert is_tau_tough(g, tau) == (witness is None, witness)

    def test_octahedron_cuts_start_at_mu(self):
        # mu = kappa = 4 and every minimizer has size 4: a scan that started
        # one size above mu would report INFINITE here
        g = octahedron()
        assert common_neighbour_floor(g) == naive_vertex_connectivity(g.n, g.edges()) == 4
        cut = frozenset({0, 1, 2, 3})
        assert toughness(g) == (Fraction(2), CutWitness(cut, 2, Fraction(2)))
        assert variation_toughness(g) == (Fraction(4), CutWitness(cut, 2, Fraction(4)))
        assert naive_toughness(g) == (Fraction(2), (0, 1, 2, 3))
        assert naive_variation(g) == (Fraction(4), (0, 1, 2, 3))
        assert is_tau_tough(g, 4) == (True, None)
        assert is_tau_tough(g, Fraction(9, 2)) == (False, CutWitness(cut, 2, Fraction(4)))

    @pytest.mark.parametrize("hubs", [1, 2])
    @pytest.mark.parametrize("leaves", [1, 2, 3, 7])
    @pytest.mark.parametrize("hubs_first", [True, False])
    def test_stars_and_two_hub_bicliques(self, hubs, leaves, hubs_first):
        g = join(empty(hubs), empty(leaves)) if hubs_first else join(empty(leaves), empty(hubs))
        assert_one_sided_matches_naive(g)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6), nx=st.integers(1, 9), ny=st.integers(1, 2),
           p=st.floats(0.4, 1.0))
    def test_random_bipartite_with_a_side_of_at_most_two(self, seed, nx, ny, p):
        rng = random.Random(seed)
        n = nx + ny
        y = frozenset(rng.sample(range(n), ny))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u in y) != (v in y) and rng.random() < p]
        g = Graph(n, edges)
        if not g.is_connected():
            return
        # a copy with vertex 0 swapped onto the other side turns sides X and Y round
        first = y if 0 in y else frozenset(range(n)) - y
        other = min(frozenset(range(n)) - first)
        swap = list(range(n))
        swap[0], swap[other] = other, 0
        for h, x in ((g, first), (relabeled(Graph, g, swap), frozenset(range(n)) - first)):
            assert len(bipartition_of(h).x) == len(x)
            assert_one_sided_matches_naive(h)

    def test_star_leaf_side_is_never_enumerated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the one-sided scan enumerated cuts")

        # the 21-leaf side is one twin class; refuse enumerating with it as a
        # class and, under plain_scan, as 21 twin-free vertices
        monkeypatch.setattr(TOUGHNESS_MODULE, "combinations", refuse)
        for g in (star(21), join(empty(21), complete(1))):
            assert bipartite_toughness(g, ToughnessKind.TOUGHNESS) == (INFINITE, None)
            with plain_scan():
                assert bipartite_toughness(g, ToughnessKind.TOUGHNESS) == (INFINITE, None)


def twin_substituted(seed, n_max, bipartite=False, base_min=2, base_max=5):
    """A twin-rich connected graph on at most ``n_max`` vertices, bipartite
    when ``bipartite``.

    Each vertex of a small random connected base graph becomes a set of 1-4
    vertices, joined completely to the sets of its base neighbours: an
    independent set (false twins) or a clique (true twins; never when
    ``bipartite``, whose base is bipartite).  The vertices are then
    relabelled at random, so that classes interleave.
    """
    rng = random.Random(seed)
    k = rng.randint(base_min, base_max)
    sizes = [rng.randint(1, 4) for _ in range(k)]
    while sum(sizes) > n_max:
        sizes[rng.randrange(k)] = 1
    colour = [0] * k
    base = set()
    for i in range(1, k):  # a random spanning tree, then more edges
        parent = rng.randrange(i)
        colour[i] = 1 - colour[parent]
        base.add((i, parent))
    base |= {(i, j) for i in range(k) for j in range(i)
             if (not bipartite or colour[i] != colour[j]) and rng.random() < 0.4}
    n = sum(sizes)
    perm = rng.sample(range(n), n)
    blocks, start = [], 0
    for size in sizes:
        blocks.append([perm[v] for v in range(start, start + size)])
        start += size
    edges = [(u, v) for i, j in base for u in blocks[i] for v in blocks[j]]
    for block in blocks:
        if not bipartite and len(block) > 1 and rng.random() < 0.5:
            edges += [(u, v) for u in block for v in block if u < v]
    return Graph(n, edges)


def plain_scan():
    """Force the combinations loop: every vertex its own twin class."""
    return mock.patch.object(TOUGHNESS_MODULE, "twin_classes",
                             lambda g: tuple((v,) for v in range(g.n)))


def all_results(g, one_sided=False):
    """Every quantity the cut scan serves, with its witness."""
    results = [toughness(g), variation_toughness(g)]
    results += [is_tau_tough(g, tau) for tau in TestSizeWindow.TAUS + (Fraction(7, 3),)]
    if one_sided:
        results += [bipartite_toughness(g, kind) for kind, _ in one_sided_kinds(g)]
    return results


class TestOrbitScan:
    """The scan visits one cut per orbit of the twin swaps, class-prefix heads
    times combinations of the twin-free vertices; values, witnesses and
    component counts stay those of the full enumeration."""

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6))
    def test_twin_rich_graphs_match_naive(self, seed):
        g = twin_substituted(seed, 12)
        for scan, shift in ((toughness, 0), (variation_toughness, 1)):
            value, cut = naive_min_cut_ratio(g.n, g.edges(), shift)
            assert scan(g) == (value, naive_witness(g, cut, shift))
        for tau in TestSizeWindow.TAUS + (Fraction(7, 3),):
            witness = naive_first_witness(g, tau)
            assert is_tau_tough(g, tau) == (witness is None, witness)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6))
    def test_twin_rich_one_sided_match_naive(self, seed):
        assert_one_sided_matches_naive(twin_substituted(seed, 12, bipartite=True))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), bipartite=st.booleans())
    def test_twin_rich_graphs_match_the_plain_scan(self, seed, bipartite):
        g = twin_substituted(seed, 16, bipartite, base_max=7)
        got = all_results(g, bipartite)
        with plain_scan():
            assert got == all_results(g, bipartite)

    def test_one_sided_labels_above_24_match_the_plain_scan(self):
        # 26-30 vertices, sides up to 15, each with twins and so heads: masks pass bit 24
        checked = 0
        for seed in range(1000):
            g = twin_substituted(seed, 30, bipartite=True, base_min=8, base_max=12)
            sides = bipartition_of(g)
            if g.n < 26 or max(len(sides.x), len(sides.y)) > 15:
                continue
            if not all(any(len(side.intersection(cls)) > 1 for cls in twin_classes(g))
                       for side in (sides.x, sides.y)):
                continue
            got = [bipartite_toughness(g, kind) for kind, _ in one_sided_kinds(g)]
            with plain_scan():
                assert got == [bipartite_toughness(g, kind) for kind, _ in one_sided_kinds(g)]
            checked += 1
            if checked == 8:
                break
        assert checked == 8

    def test_one_sided_labels_above_24_match_naive(self):
        # X = {0, 2, ..., 24} false twins joined to all of Y; Y = 13 vertices up to 25,
        # split into a class of 12 and one vertex also joined to 26 (a pendant in X)
        x = list(range(0, 26, 2)) + [26]
        y = list(range(1, 26, 2))
        edges = [(u, v) for u in x[:-1] for v in y] + [(25, 26)]
        g = Graph(27, edges)
        sides = bipartition_of(g)
        assert sides.x == frozenset(x)
        assert all(any(len(side.intersection(cls)) > 1 for cls in twin_classes(g))
                   for side in (sides.x, sides.y))
        assert_one_sided_matches_naive(g)

    def test_scan_visits_the_class_prefix_cuts_of_each_size(self, monkeypatch):
        # combinations is asked only for twin-free vertices, and a full scan visits
        # every class-prefix cut of each size it reaches, once; the twin-free
        # Petersen graph has no class, so there it visits every C(10, k)
        real_cuts, real_combinations = TOUGHNESS_MODULE._cuts, combinations
        for g in (complete_bipartite(3, 3), complete_bipartite(1, 5),
                  family_graph(FamilySpec.tough_int(14, 2)), petersen()):
            classes = twin_classes(g)
            free = {1 << cls[0] for cls in classes if len(cls) == 1}
            visited = {}

            def only_free(bits, r):
                assert set(bits) <= free
                return real_combinations(bits, r)

            def recorded(prefixes, bits, size, built):
                cuts = visited[size] = [cut for batch in real_cuts(prefixes, bits, size, built)
                                        for cut in batch]
                return [cuts]

            monkeypatch.setattr(TOUGHNESS_MODULE, "combinations", only_free)
            monkeypatch.setattr(TOUGHNESS_MODULE, "_cuts", recorded)
            toughness(g)
            monkeypatch.undo()
            assert visited
            for size, cuts in visited.items():
                prefix_cuts = [graphs.vertex_mask(cut) for cut in combinations(range(g.n), size)
                               if all(sorted(taken := [v in cut for v in cls], reverse=True) == taken
                                      for cls in classes)]
                assert sorted(cuts) == sorted(prefix_cuts)
                if g.n == 10:
                    assert len(cuts) == math.comb(10, size)

    def test_eleven_part_cocktail_party_builds_heads_at_mu_only(self, monkeypatch):
        # K2,...,2 with 11 parts: mu = 20, and every vertex has a twin; the scan
        # must not build the 3^11 heads, only those of the one size that can
        # disconnect (size 21 leaves one vertex, so the scan breaks there)
        g = empty(2)
        for _ in range(10):
            g = join(g, empty(2))
        assert common_neighbour_floor(g) == 20
        asked = []
        real_heads = TOUGHNESS_MODULE._heads

        def recorded(prefixes, k, room):
            asked.append(k)
            return real_heads(prefixes, k, room)

        monkeypatch.setattr(TOUGHNESS_MODULE, "_heads", recorded)
        cut = frozenset(range(20))
        assert toughness(g) == (Fraction(10), CutWitness(cut, 2, Fraction(10)))
        assert variation_toughness(g) == (Fraction(20), CutWitness(cut, 2, Fraction(20)))
        assert set(asked) <= {20, 21} and 20 in asked


def test_results_are_reproducible():
    g = gnp(9, 0.5, 123)
    assert toughness(g) == toughness(g)
    assert variation_toughness(g) == variation_toughness(g)
