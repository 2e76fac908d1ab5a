"""Graph container, constructors, and bipartition detection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from toughspec.graphs import (
    Graph,
    SidePartition,
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
from toughspec.families import clique_with_satellites, family_graph, quotient_partition, split_join
from toughspec.randoms import balanced_bipartite_gnp, gnp

from helpers_naive import _naive_two_colouring, naive_component_count, relabeled
from test_acceptance import criterion_3_specs


class TestGraphBasics:
    def test_edges_are_sorted(self):
        g = Graph(4, [(2, 1), (0, 3)])
        assert g.edges() == [(0, 3), (1, 2)]
        assert g.m == 2

    def test_adjacency_lists_sorted(self):
        g = Graph(4, [(3, 0), (1, 0), (2, 0)])
        assert g.masks[0] == 0b1110
        assert g.degree(0) == 3
        assert g.degrees() == (3, 1, 1, 1)
        assert g.min_degree() == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_has_edge_symmetry(self):
        g = path(4)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)

    def test_equality_and_hash(self):
        assert path(3) == Graph(3, [(1, 2), (0, 1)])
        assert hash(path(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert path(3) != cycle(3)

    def test_components_ordered_by_smallest_member(self):
        g = disjoint_union([complete(2), complete(3), complete(1)])
        comps = g.components()
        assert comps == [(0, 1), (2, 3, 4), (5,)]
        assert not g.is_connected()
        assert cycle(5).is_connected()

    def test_is_complete(self):
        assert complete(4).is_complete()
        assert complete(1).is_complete()
        assert not cycle(4).is_complete()

    def test_induced_relabels_ascending(self):
        g = cycle(5)
        h = g.induced([4, 0, 1])
        # keeps vertices {0, 1, 4} and renames them 0, 1, 2 in sorted order
        assert h.n == 3
        assert h.edges() == [(0, 1), (0, 2)]

    def test_with_and_without_edges(self):
        g = path(3)
        assert g.with_edges([(0, 2)]) == cycle(3)
        assert cycle(3).without_edges([(0, 2)]) == path(3)
        with pytest.raises(ValueError):
            g.with_edges([(0, 1)])  # already present
        with pytest.raises(ValueError):
            g.without_edges([(0, 2)])  # absent
        for bad in ([(1, 1)], [(0, 3)], [(-1, 2)]):  # self-loop, out of range
            with pytest.raises(ValueError):
                g.with_edges(bad)
            with pytest.raises(ValueError):
                g.without_edges(bad)
        with pytest.raises(ValueError):
            g.with_edges([(0, 2), (2, 0)])  # the same new edge twice

    @settings(deadline=None, max_examples=50)
    @given(st.integers(2, 12), st.randoms(use_true_random=False))
    def test_edits_match_edge_list_rebuild(self, n, rng):
        g = gnp(n, 0.5, rng.randrange(10**6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        present = set(g.edges())
        add = [(v, u) for u, v in pairs[:3] if (u, v) not in present]
        drop = [e for e in pairs[3:6] if e in present]
        assert g.with_edges(add) == Graph(n, sorted(present | {(u, v) for v, u in add}))
        assert g.without_edges(drop) == Graph(n, sorted(present - set(drop)))
        assert g.with_edges(add).m == g.m + len(add)
        assert g.without_edges(drop).m == g.m - len(drop)


class TestConstructors:
    def test_complete_and_empty(self):
        assert complete(5).m == 10
        assert empty(5).m == 0
        assert complete(1).m == 0

    def test_complete_bipartite_layout(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6
        # side X is 0..p-1, side Y is p..p+q-1
        assert bipartition_of(g).x == frozenset({0, 1})
        assert g.masks[0] == 0b11100
        assert g.masks[4] == 0b00011

    def test_path_and_cycle(self):
        assert path(1).m == 0
        assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
        assert cycle(3) == complete(3)
        assert cycle(6).degrees() == (2,) * 6

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_disjoint_union_offsets(self):
        g = disjoint_union([complete(2), path(3)])
        assert g.n == 5
        assert g.edges() == [(0, 1), (2, 3), (3, 4)]

    def test_join_edge_count(self):
        g = join(complete(3), empty(4))
        assert g.n == 7
        assert g.m == 3 + 0 + 3 * 4

    def test_join_structure(self):
        # join of K_1 with 3K_1 is the star K_{1,3}
        g = join(complete(1), empty(3))
        assert g.degrees() == (3, 1, 1, 1)

    def test_petersen_shape(self):
        g = petersen()
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        pentagram = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        assert g == Graph(10, outer + spokes + pentagram)
        assert g.n == 10 and g.m == 15
        assert g.degrees() == (3,) * 10
        assert g.is_connected()
        # strongly regular signature: adjacent pairs share 0 neighbors,
        # nonadjacent pairs share exactly 1
        for u in range(10):
            for v in range(u + 1, 10):
                common = g.masks[u] & g.masks[v]
                assert common.bit_count() == (0 if g.has_edge(u, v) else 1)


class TestBipartite:
    def test_split_join_allows_one_empty_side(self):
        # O_{0,2}: both extra vertices land on side Y, next to X1
        g = split_join(1, 1, 0, 2)
        assert bipartition_of(g) == SidePartition(frozenset({0}), frozenset({1, 2, 3}))
        with pytest.raises(ValueError):
            split_join(1, 1, 0, 0)

    def test_split_join_of_edge_and_empty_pair(self):
        # K_{1,1} joined with two isolated vertices (one per side) is a path
        g = split_join(1, 1, 1, 1)
        assert g.m == 3
        assert sorted(g.degrees()) == [1, 1, 2, 2]
        assert g.is_connected()

    def test_side_partition_balance(self):
        s = SidePartition(frozenset({0, 1}), frozenset({2, 3}))
        assert s.is_balanced()
        assert not SidePartition(frozenset({0}), frozenset({1, 2})).is_balanced()

    def test_bipartition_of_even_cycle(self):
        sides = bipartition_of(cycle(6))
        assert sides is not None
        assert sides.x == frozenset({0, 2, 4})
        assert sides.y == frozenset({1, 3, 5})

    def test_bipartition_of_odd_cycle_is_none(self):
        assert bipartition_of(cycle(5)) is None
        assert bipartition_of(complete(3)) is None

    def test_bipartition_of_disconnected_roots_go_left(self):
        g = disjoint_union([path(2), path(2)])
        sides = bipartition_of(g)
        assert sides.x == frozenset({0, 2})

    @pytest.mark.parametrize("seed", range(40))
    def test_bipartition_of_matches_naive_two_colouring(self, seed):
        rng = random.Random(seed)
        parts = [empty(rng.randint(1, 3)),
                 balanced_bipartite_gnp(2 * rng.randint(1, 6), rng.random(), seed),
                 gnp(rng.randint(1, 10), rng.random() / 2, seed),
                 cycle(rng.randint(3, 8)), path(rng.randint(1, 5))]
        rng.shuffle(parts)
        g = disjoint_union(parts[: rng.randint(1, 5)])
        g = relabeled(Graph, g, rng.sample(range(g.n), g.n))
        colouring = _naive_two_colouring(
            {v: {w for w in range(g.n) if mask >> w & 1} for v, mask in enumerate(g.masks)})
        sides = bipartition_of(g)
        if colouring is None:
            assert sides is None, g.edges()
        else:
            assert sides.x == frozenset(v for v in range(g.n) if colouring[v] == 0), g.edges()
            assert sides.y == frozenset(range(g.n)) - sides.x
            assert all((u in sides.x) != (v in sides.x) for u, v in g.edges())


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), n1=st.integers(1, 7), n2=st.integers(1, 7))
def test_join_counts_and_relabel_invariance(seed, n1, n2):
    g1 = gnp(n1, 0.5, seed)
    g2 = gnp(n2, 0.5, seed + 1)
    j = join(g1, g2)
    assert j.m == g1.m + g2.m + n1 * n2
    # reversing the vertex order produces the same graph up to relabeling
    perm = list(range(j.n))[::-1]
    h = relabeled(Graph, j, perm)
    assert sorted(h.degrees()) == sorted(j.degrees())


@st.composite
def edge_lists(draw, max_n=6):
    """An order n and a list of distinct edges on 0..n-1, in drawn order."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]


def clique_edges(lo, hi):
    return [(u, v) for u in range(lo, hi) for v in range(u + 1, hi)]


def cross_edges(xs, ys):
    return [(u, v) for u in xs for v in ys]


def assert_built_as(built, n, edges):
    """``built`` equals the validated Graph(n, edges), read every way."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert built == Graph(n, edges)
    assert built.n == n and built.m == len(edges)
    assert built.masks == tuple(sum(1 << w for w in s) for s in nbrs)
    assert built.edges() == sorted((min(e), max(e)) for e in edges)


@settings(deadline=None, max_examples=100)
@given(
    g1=edge_lists(),
    g2=edge_lists(),
    sizes=st.tuples(*[st.integers(1, 5)] * 3, *[st.integers(0, 5)] * 3),
)
def test_mask_builders_match_validated_edge_lists(g1, g2, sizes):
    (n1, e1), (n2, e2) = g1, g2
    p, q, s, a, b, t = sizes
    shifted = [(u + n1, v + n1) for u, v in e2]
    assert_built_as(complete(p), p, clique_edges(0, p))
    assert_built_as(path(p), p, [(i, i + 1) for i in range(p - 1)])
    assert_built_as(cycle(p + 2), p + 2, [(i, (i + 1) % (p + 2)) for i in range(p + 2)])
    assert_built_as(
        disjoint_union([Graph(n1, e1), Graph(n2, e2), complete(p)]),
        n1 + n2 + p,
        e1 + shifted + clique_edges(n1 + n2, n1 + n2 + p),
    )
    assert_built_as(
        join(Graph(n1, e1), Graph(n2, e2)),
        n1 + n2,
        e1 + shifted + cross_edges(range(n1), range(n1, n1 + n2)),
    )
    assert_built_as(complete_bipartite(p, q), p + q, cross_edges(range(p), range(p, p + q)))
    if a + b:
        x1, y1 = range(p), range(p, p + q)
        x2, y2 = range(p + q, p + q + a), range(p + q + a, p + q + a + b)
        split = split_join(p, q, a, b)
        assert_built_as(
            split,
            p + q + a + b,
            cross_edges(x1, y1) + cross_edges(x1, y2) + cross_edges(x2, y1),
        )
        assert bipartition_of(split) == SidePartition(frozenset(x1) | frozenset(x2),
                                                     frozenset(y1) | frozenset(y2))
    assert_built_as(
        clique_with_satellites(s, p, t),
        s + p + t,
        clique_edges(0, s + p) + cross_edges(range(s), range(s + p, s + p + t)),
    )


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 9))
def test_component_count_matches_naive(seed, n):
    g = gnp(n, 0.4, seed)
    assert len(g.components()) == naive_component_count(g.n, g.edges())


def naive_twin_partition(g):
    """Classes of the relation "equal open or equal closed neighbourhoods", from edge sets."""
    nbrs = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    classes = []
    for v in range(g.n):
        for cls in classes:
            u = cls[0]
            if nbrs[u] == nbrs[v] or nbrs[u] | {u} == nbrs[v] | {v}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(cls) for cls in classes)


class TestTwinClasses:
    def test_open_and_closed_twins(self):
        # path 0-1-2 plus 3 joined to 1: 0, 2 and 3 share the open neighbourhood {1}
        assert twin_classes(Graph(4, [(0, 1), (1, 2), (1, 3)])) == ((0, 2, 3), (1,))
        # a triangle 0-1-2 with a pendant 3 at 2: 0 and 1 share the closed {0, 1, 2}
        assert twin_classes(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])) == ((0, 1), (2,), (3,))

    def test_isolated_vertices_form_one_open_class(self):
        assert twin_classes(empty(5)) == ((0, 1, 2, 3, 4),)
        g = disjoint_union([path(2), empty(3)])  # 0-1 and isolated 2, 3, 4
        assert twin_classes(g) == ((0, 1), (2, 3, 4))
        assert twin_classes(empty(1)) == ((0,),)

    def test_complete_and_complete_bipartite(self):
        assert twin_classes(complete(6)) == (tuple(range(6)),)
        assert twin_classes(complete_bipartite(3, 4)) == ((0, 1, 2), (3, 4, 5, 6))
        assert twin_classes(complete_bipartite(1, 1)) == ((0, 1),)  # K_2 is closed twins

    def test_disconnected_graph(self):
        # two disjoint triangles: each is a closed class; the two stars' leaves are open classes
        g = disjoint_union([complete(3), complete(3), join(complete(1), empty(2)),
                            join(complete(1), empty(2))])
        assert twin_classes(g) == ((0, 1, 2), (3, 4, 5), (6,), (7, 8), (9,), (10, 11))

    def test_twin_free_graphs_have_singleton_classes(self):
        for g in (petersen(), path(5), cycle(7)):
            assert twin_classes(g) == tuple((v,) for v in range(g.n))

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 10), p=st.floats(0.0, 1.0))
    def test_matches_naive_partition(self, seed, n, p):
        g = gnp(n, p, seed)
        assert twin_classes(g) == naive_twin_partition(g)

    def test_equals_the_quotient_partition_on_the_criterion_3_grid(self):
        specs = list(criterion_3_specs())
        assert len(specs) == 664
        for spec in specs:
            got = {frozenset(cls) for cls in twin_classes(family_graph(spec))}
            assert got == {frozenset(cls) for cls in quotient_partition(spec)}, spec
