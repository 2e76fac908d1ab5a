"""Spectral radius, dense spectra, quotient matrices, and root isolation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toughspec.families import FamilySpec, family_graph, quotient_partition
from toughspec.graphs import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    join,
    path,
    petersen,
)
from toughspec.randoms import balanced_bipartite_gnp, connected_gnp, gnp
from toughspec.spectra import (
    DENSE_CAP,
    RADIUS_TOL,
    CharPoly,
    RootIsolationError,
    adjacency_matrix,
    char_poly,
    full_spectrum,
    largest_real_root,
    perron_vector,
    quotient_matrix,
    second_largest_absolute_eigenvalue,
    spectral_radius,
)

from helpers_naive import sympy_char_poly_coeffs, sympy_root_bracket


def _product(roots):
    """Coefficients of prod (x - r), leading first."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    return tuple(coeffs)


GOLDEN = (1 + math.sqrt(5)) / 2


class TestSpectralRadius:
    def test_complete_graph(self):
        res = spectral_radius(complete(5))
        assert res.radius == pytest.approx(4.0, abs=1e-9)
        # Perron vector of K_n is uniform
        assert np.allclose(perron_vector(complete(5)), 1 / math.sqrt(5), atol=1e-6)

    def test_complete_bipartite(self):
        res = spectral_radius(complete_bipartite(2, 3))
        assert res.radius == pytest.approx(math.sqrt(6), abs=1e-9)

    def test_path_p4_is_golden_ratio(self):
        assert spectral_radius(path(4)).radius == pytest.approx(GOLDEN, abs=1e-9)

    def test_cycle_and_star(self):
        assert spectral_radius(cycle(6)).radius == pytest.approx(2.0, abs=1e-9)
        star = join(complete(1), empty(4))
        assert spectral_radius(star).radius == pytest.approx(2.0, abs=1e-9)

    def test_petersen(self):
        assert spectral_radius(petersen()).radius == pytest.approx(3.0, abs=1e-9)

    def test_single_vertex(self):
        res = spectral_radius(complete(1))
        assert res.radius == 0.0
        assert perron_vector(complete(1)).tolist() == [1.0]

    def test_disconnected_takes_max_and_drops_perron(self):
        g = disjoint_union([complete(3), complete(2)])
        res = spectral_radius(g)
        assert res.radius == pytest.approx(2.0, abs=1e-9)
        with pytest.raises(ValueError, match="connected graph"):
            perron_vector(g)

    def test_edgeless(self):
        assert spectral_radius(empty(4)).radius == 0.0

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 30))
    def test_edge_addition_strictly_increases_radius(self, seed, n):
        g = connected_gnp(n, 0.3, seed)
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if not g.has_edge(u, v)]
        if not missing:
            return
        before = spectral_radius(g).radius
        after = spectral_radius(g.with_edges([missing[0]])).radius
        assert after > before + 1e-9

    @pytest.mark.parametrize("n,seed", [(5, 0), (12, 1), (30, 2), (80, 3), (200, 4)])
    def test_agrees_with_dense_solver(self, n, seed):
        g = gnp(n, 0.3, seed)
        dense = max(full_spectrum(g))
        assert spectral_radius(g).radius == pytest.approx(dense, abs=1e-8)

    def test_oversized_component_is_refused(self):
        with pytest.raises(ValueError, match=f"components of <= {DENSE_CAP} vertices"):
            spectral_radius(path(DENSE_CAP + 1))

    def test_cap_applies_per_component(self):
        assert spectral_radius(empty(5000)).radius == 0.0
        g = disjoint_union([path(600), path(600)])
        assert spectral_radius(g).radius == pytest.approx(2 * math.cos(math.pi / 601), abs=1e-9)
        with pytest.raises(ValueError, match="connected graph"):
            perron_vector(g)


def _sample_graphs():
    yield from (family_graph(spec) for spec in (
        FamilySpec.tough_int(14, 2),
        FamilySpec.tough_frac_delta(16, 1, 2),
        FamilySpec.bip_int_div(24, 2),
        FamilySpec.bip_int_nondiv_a(270, 10),
        FamilySpec.bip_int_nondiv_b(22, 2),
        FamilySpec.bip_frac(16, 2),
    ))
    yield from (path(60), cycle(9), join(complete(1), empty(21)), petersen(),
                complete_bipartite(13, 40))
    for seed in range(50):
        yield gnp(4 + seed % 37, 0.1 + seed % 9 / 10, seed)
        yield balanced_bipartite_gnp(4 + 2 * (seed % 19), 0.1 + seed % 9 / 10, seed)


def test_small_components_take_the_dense_solver():
    """Every component's radius agrees with the full spectrum, and its Perron
    vector is a positive unit vector."""
    for g in _sample_graphs():
        for comp in g.components():
            h = g.induced(comp)
            res = spectral_radius(h)
            assert abs(res.radius - max(full_spectrum(h))) <= 1e-12 * max(1.0, res.radius)
            x = perron_vector(h)
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12 and (x > 0).all()


def test_small_components_take_the_eigenvalue_alone():
    """Every component's radius is eigvalsh's top eigenvalue: within
    1e-12 max(1, radius) of eigh's top eigenvalue and of the full spectrum's
    maximum, with the same 9-decimal text."""
    graphs = [g.induced(comp) for g in _sample_graphs() for comp in g.components()]
    graphs += [connected_gnp(3 + seed % 22, 0.3 + seed % 7 / 10, seed) for seed in range(1100)]
    for h in graphs:
        res = spectral_radius(h)
        top = float(np.linalg.eigh(adjacency_matrix(h))[0][-1])
        for want in (top, max(full_spectrum(h))):
            assert abs(res.radius - want) <= 1e-12 * max(1.0, res.radius), h
            assert f"{res.radius:.9f}" == f"{want:.9f}", h


@pytest.mark.parametrize("n", [300, DENSE_CAP])
def test_path_radius_is_the_closed_form(n):
    assert abs(spectral_radius(path(n)).radius - 2 * math.cos(math.pi / (n + 1))) <= 1e-12


def test_perron_vector_of_a_path_is_the_closed_form():
    k = np.arange(1, 61)
    want = math.sqrt(2 / 61) * np.sin(k * math.pi / 61)
    assert np.abs(perron_vector(path(60)) - want).max() <= 1e-12


def test_perron_vector_is_refused_over_the_cap():
    with pytest.raises(ValueError, match=f"n <= {DENSE_CAP}"):
        perron_vector(path(DENSE_CAP + 1))


class TestFullSpectrum:
    def test_petersen_spectrum(self):
        spec = full_spectrum(petersen())
        expected = [3.0] + [1.0] * 5 + [-2.0] * 4
        assert spec == pytest.approx(expected, abs=1e-9)

    def test_four_cycle(self):
        assert full_spectrum(cycle(4)) == pytest.approx([2, 0, 0, -2], abs=1e-9)

    def test_sorted_nonincreasing(self):
        spec = full_spectrum(gnp(15, 0.5, 9))
        assert all(a >= b for a, b in zip(spec, spec[1:]))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 20))
    def test_trace_identities(self, seed, n):
        g = gnp(n, 0.4, seed)
        spec = full_spectrum(g)
        assert sum(spec) == pytest.approx(0.0, abs=1e-8)
        assert sum(v * v for v in spec) == pytest.approx(2 * g.m, abs=1e-7)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            full_spectrum(empty(DENSE_CAP + 1))


class TestSecondLargestAbsolute:
    def test_values(self):
        assert second_largest_absolute_eigenvalue(cycle(6)) == pytest.approx(2.0, abs=1e-9)
        assert second_largest_absolute_eigenvalue(petersen()) == pytest.approx(2.0, abs=1e-9)
        assert second_largest_absolute_eigenvalue(complete_bipartite(3, 3)) \
            == pytest.approx(3.0, abs=1e-9)
        assert second_largest_absolute_eigenvalue(complete(4)) == pytest.approx(1.0, abs=1e-9)

    def test_requires_connected_graph_on_two_vertices(self):
        with pytest.raises(ValueError):
            second_largest_absolute_eigenvalue(empty(3))
        with pytest.raises(ValueError):
            second_largest_absolute_eigenvalue(complete(1))


class TestQuotientMatrix:
    def test_clique_family_quotient_is_equitable(self):
        spec = FamilySpec.tough_int(14, 2)
        q = quotient_matrix(family_graph(spec), quotient_partition(spec))
        assert q.equitable
        assert q.cells == (
            (Fraction(0), Fraction(1), Fraction(12)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(11)),
        )

    def test_bipartite_family_quotient_is_equitable(self):
        spec = FamilySpec.bip_frac(16, 2)
        q = quotient_matrix(family_graph(spec), quotient_partition(spec))
        assert q.equitable
        # X1 row: q neighbors in Y1, b+1 in Y2
        assert q.cells[0] == (Fraction(0), Fraction(5), Fraction(0), Fraction(3))

    def test_inequitable_partition_flagged_with_averages(self):
        q = quotient_matrix(path(4), [(0, 1), (2, 3)])
        assert not q.equitable
        assert q.cells[0] == (Fraction(1), Fraction(1, 2))

    def test_rejects_bad_partitions(self):
        g = path(4)
        with pytest.raises(ValueError):
            quotient_matrix(g, [(0, 1), ()])
        with pytest.raises(ValueError):
            quotient_matrix(g, [(0, 1), (1, 2, 3)])
        with pytest.raises(ValueError):
            quotient_matrix(g, [(0, 1), (2,)])


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly([[5]]).coeffs == (Fraction(1), Fraction(-5))

    def test_identity(self):
        p = char_poly([[1, 0], [0, 1]])
        assert p.coeffs == (Fraction(1), Fraction(-2), Fraction(1))

    def test_clique_family_cubic(self):
        spec = FamilySpec.tough_int(14, 2)
        q = quotient_matrix(family_graph(spec), quotient_partition(spec))
        assert char_poly(q).coeffs == (
            Fraction(1), Fraction(-11), Fraction(-13), Fraction(11))

    def test_exact_evaluation(self):
        p = CharPoly((Fraction(1), Fraction(-11), Fraction(-13), Fraction(11)))
        assert p(Fraction(1)) == Fraction(-12)
        assert p(0) == 11
        assert isinstance(p(2.0), float)

    def test_monic_required(self):
        with pytest.raises(ValueError):
            CharPoly((Fraction(2), Fraction(1)))
        with pytest.raises(ValueError):
            CharPoly(())

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-4, 9), min_size=k, max_size=k),
            min_size=k, max_size=k)))
    def test_matches_sympy_on_integer_matrices(self, rows):
        assert char_poly(rows).coeffs == sympy_char_poly_coeffs(
            [[Fraction(c) for c in row] for row in rows])

    def test_matches_sympy_on_rational_matrix(self):
        rows = [[Fraction(1, 2), Fraction(3)], [Fraction(-2, 5), Fraction(7, 3)]]
        assert char_poly(rows).coeffs == sympy_char_poly_coeffs(rows)


class TestLargestRealRoot:
    def test_square_root_of_two(self):
        p = CharPoly((Fraction(1), Fraction(0), Fraction(-2)))
        assert largest_real_root(p) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_picks_largest_of_several(self):
        # x^3 - x has roots -1, 0, 1
        p = CharPoly((Fraction(1), Fraction(0), Fraction(-1), Fraction(0)))
        assert largest_real_root(p) == pytest.approx(1.0, abs=1e-12)

    def test_biquadratic_closed_form(self):
        p = CharPoly((Fraction(1), Fraction(0), Fraction(-344), Fraction(0),
                      Fraction(612)))
        expected = math.sqrt((344 + math.sqrt(344**2 - 4 * 612)) / 2)
        assert largest_real_root(p) == pytest.approx(expected, abs=1e-10)

    def test_agrees_with_companion_matrix_roots(self):
        p = CharPoly((Fraction(1), Fraction(-11), Fraction(-13), Fraction(11)))
        numeric = max(r.real for r in np.roots([float(c) for c in p.coeffs])
                      if abs(r.imag) < 1e-9)
        assert largest_real_root(p) == pytest.approx(numeric, abs=1e-9)

    def test_double_root_is_rejected(self):
        # (x - 2)^2 never changes sign
        p = CharPoly((Fraction(1), Fraction(-4), Fraction(4)))
        with pytest.raises(RootIsolationError):
            largest_real_root(p)

    def test_zero_double_root_is_rejected(self):
        with pytest.raises(RootIsolationError):
            largest_real_root(CharPoly((Fraction(1), Fraction(0), Fraction(0))))

    def test_close_pair_of_largest_roots(self):
        # x(x - 3)(x - 3.001): a grid cell can hold both large roots
        p = CharPoly(_product([Fraction(0), Fraction(3), Fraction(3001, 1000)]))
        assert largest_real_root(p) == pytest.approx(3.001, abs=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=60),
                    min_size=1, max_size=6))
    # float Newton stalls 5e-6 above 1345/56, and one exact step is not enough
    @example([Fraction(24)] * 3 + [Fraction(1345, 56)])
    # float Newton ends below 40, where the first exact step rises
    @example([Fraction(-2), Fraction(40)] + [Fraction(999, 25)] * 3)
    # float Newton jumps below 361/12 onto the quadruple root 30 just under it
    @example([Fraction(59, 2)] + [Fraction(30)] * 4 + [Fraction(361, 12)])
    def test_product_of_linear_factors(self, roots):
        top = max(roots)
        p = CharPoly(_product(roots))
        try:
            x = largest_real_root(p)
        except RootIsolationError:
            assert roots.count(top) > 1
            return
        assert abs(x - top) <= RADIUS_TOL * max(1.0, abs(x))

    def test_refuses_a_root_that_is_not_the_largest(self):
        # (x + 2)(x + 7)(x + 12)((x - 14)^2 + 30): with complex roots Newton
        # can land on -12, where p(t - 12 - h) still has an odd sign count
        p = _product([Fraction(-2), Fraction(-7), Fraction(-12)])
        quad = (Fraction(1), Fraction(-28), Fraction(226))
        coeffs = [sum(p[i] * quad[k - i] for i in range(len(p)) if 0 <= k - i < 3)
                  for k in range(len(p) + 2)]
        with pytest.raises(RootIsolationError):
            largest_real_root(CharPoly(tuple(coeffs)))

    def test_certificate_holds_on_family_quotients(self):
        """Every family root lies within RADIUS_TOL of the true largest root."""
        from test_acceptance import criterion_3_specs

        for spec in criterion_3_specs():
            p = char_poly(quotient_matrix(family_graph(spec), quotient_partition(spec)))
            x = largest_real_root(p)
            assert sympy_root_bracket(p.coeffs, x, RADIUS_TOL * max(1.0, abs(x))), spec

    @pytest.mark.parametrize("spec", [
        FamilySpec.tough_int(14, 2),
        FamilySpec.tough_frac_delta(16, 1, 2),
        FamilySpec.bip_int_div(20, 2),
        FamilySpec.bip_frac(16, 2),
    ])
    def test_quotient_root_certifies_the_radius(self, spec):
        """Exact-polynomial route and eigensolver route agree on the families."""
        g = family_graph(spec)
        q = quotient_matrix(g, quotient_partition(spec))
        assert q.equitable
        root = largest_real_root(char_poly(q))
        assert spectral_radius(g).radius == pytest.approx(root, abs=1e-8)


def test_adjacency_matrix_symmetry():
    a = adjacency_matrix(path(3))
    assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 30, 101])
def test_adjacency_matrix_rows_start_on_cache_lines(n):
    # The rows are no longer padded to 64 bytes: eigvalsh works on its own
    # copy, so the padding bought nothing.  Row i now starts right after row
    # i - 1, in one C-contiguous float64 block.
    g = gnp(n, 0.5, seed=n)
    a = adjacency_matrix(g)
    assert a.dtype == np.float64 and a.shape == (n, n)
    assert a.flags.c_contiguous and a.strides == (8 * n, 8)
    want = np.zeros((n, n))
    for u, v in g.edges():
        want[u, v] = want[v, u] = 1.0
    assert np.array_equal(a, want)
