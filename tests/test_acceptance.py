"""Acceptance suite: one test per shipping criterion, with pinned tolerances.

Each test prints a single ``[acceptance] criterion N`` line on success and
enforces its own wall-clock budget, so a plain ``pytest -v`` run yields one
pass/fail line per criterion.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import pytest

from toughspec.bounds import Bound, brouwer_margin, check_bound
from toughspec.families import (
    FamilySpec,
    clique_with_satellites,
    family_graph,
    quotient_partition,
    split_join,
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
from toughspec.lemmas import Lemma, check_lemma_comparison, rotation_experiment
from toughspec.randoms import (
    balanced_bipartite_gnp,
    connected_gnp,
    random_regular,
    sample_seed,
)
from toughspec.spectra import (
    char_poly,
    largest_real_root,
    quotient_matrix,
    spectral_radius,
)
from toughspec.toughness import ToughnessKind, bipartite_toughness, variation_toughness
from toughspec.verify import (
    Theorem,
    TheoremId,
    VerdictStatus,
    candidate_comparison,
    check_graph_against_theorem,
    search_counterexamples,
    threshold,
)

from helpers_naive import naive_component_count

MASTER_SEED = 20260823


def finish(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.1f}s")


def clique_cells(s: int, c: int, t: int) -> tuple[tuple[int, ...], ...]:
    return (tuple(range(s)), tuple(range(s, s + c)), tuple(range(s + c, s + c + t)))


def split_cells(p: int, q: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    bounds = (0, p, p + q, p + q + a, p + q + a + b)
    return tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))


def test_criterion_1_candidate_table():
    started = time.perf_counter()
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
    finish(1, "candidate comparison table", started, 10.0)


def test_criterion_2_char_poly_identities():
    started = time.perf_counter()
    checked = 0

    # cubic quotient of the clique family K_s joined to (K_c + t singles),
    # with c = n-(b+1)s-1 and t = bs+1
    for n in range(14, 41):
        for s in range(1, 6):
            for b in range(1, 4):
                c, t = n - (b + 1) * s - 1, b * s + 1
                if c < 1:
                    continue
                got = char_poly(
                    quotient_matrix(clique_with_satellites(s, c, t), clique_cells(s, c, t))
                )
                want = (
                    Fraction(1),
                    Fraction(-(n - b * s - 3)),
                    Fraction(-(n + s + b * s * s - b * s - 2)),
                    Fraction(-s * (b * s + 1) * (b * s - n + s + 2)),
                )
                assert got.coeffs == want, (n, s, b)
                checked += 1

    # quartic of the single-column bipartite candidate, blocks
    # (k-1, n/2-1, n/2-k+1, 1)
    for k in range(2, 7):
        for n in range(14, 41, 2):
            blocks = (k - 1, n // 2 - 1, n // 2 - k + 1, 1)
            got = char_poly(
                quotient_matrix(split_join(*blocks), split_cells(*blocks))
            )
            want = (
                Fraction(1),
                Fraction(0),
                -(Fraction(k - 1) + Fraction(n * n, 4) - Fraction(n, 2)),
                Fraction(0),
                -Fraction((n - 2) * (k - 1) * (2 * k - n - 2), 4),
            )
            assert got.coeffs == want, (k, n)
            checked += 1

    # quartic of the divisible bipartite candidate, blocks
    # (n/2-1, n/2-n/2k, 1, n/2k), defined when 2k | n
    for k in range(2, 7):
        for n in range(14, 41, 2):
            if n % (2 * k):
                continue
            chunk = n // (2 * k)
            blocks = (n // 2 - 1, n // 2 - chunk, 1, chunk)
            got = char_poly(
                quotient_matrix(split_join(*blocks), split_cells(*blocks))
            )
            want = (
                Fraction(1),
                Fraction(0),
                -Fraction(n * (k * n - 2), 4 * k),
                Fraction(0),
                Fraction(n * n * (k - 1) * (n - 2), 8 * k * k),
            )
            assert got.coeffs == want, (k, n)
            checked += 1

    # quartic of the monotone-comparison graph, blocks
    # (s, n/2-s-1, n/2-s, s+1)
    for s in range(1, 6):
        for n in range(14, 41, 2):
            blocks = (s, n // 2 - s - 1, n // 2 - s, s + 1)
            got = char_poly(
                quotient_matrix(split_join(*blocks), split_cells(*blocks))
            )
            want = (
                Fraction(1),
                Fraction(0),
                -(
                    Fraction(s * s + s)
                    + Fraction(n * n, 4)
                    - Fraction(n * s, 2)
                    - Fraction(n, 2)
                ),
                Fraction(0),
                Fraction(s * (s + 1) * (n - 2 * s) * (n - 2 * s - 2), 4),
            )
            assert got.coeffs == want, (s, n)
            checked += 1

    assert checked > 500
    finish(2, f"char-poly identities on {checked} tuples", started, 5.0)


def criterion_3_specs():
    """Representative valid parameters for every family, order up to 400."""
    for tau in range(2, 7):
        for n in range(2 * tau * tau + 3 * tau, 401, 13):
            yield FamilySpec.tough_int(n, tau)
    for b, d in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 4)):
        floor = max(5 * d + 4, b * d**3 + d, (b + 1) * d + 2)
        for n in range(floor, 401, 19):
            yield FamilySpec.tough_frac_delta(n, b, d)
    for r in range(2, 7):
        floor = 2 * r * r + 6 * r
        for n in range(floor, 401, 4 * r):
            yield FamilySpec.bip_int_div(n, r)
        for n in range(floor, 401, 14):
            if n % (2 * r):
                yield FamilySpec.bip_int_nondiv_a(n, r)
                yield FamilySpec.bip_int_nondiv_b(n, r)
    for b in range(1, 5):
        for n in range(4 * b + 6, 401, 14):
            yield FamilySpec.bip_frac(n, b)


def test_criterion_3_quotient_consistency():
    started = time.perf_counter()
    checked = 0
    for spec in criterion_3_specs():
        g = family_graph(spec)
        rho = spectral_radius(g).radius
        root = largest_real_root(char_poly(quotient_matrix(g, quotient_partition(spec))))
        assert abs(rho - root) < 1e-8, (spec, rho, root)
        checked += 1
    assert checked > 400
    finish(3, f"quotient consistency on {checked} families", started, 60.0)


def test_criterion_4_extremal_non_toughness():
    started = time.perf_counter()

    def check_stage(value, witness, graph, expected, budget_start):
        assert value == expected
        comp = naive_component_count(graph.n, graph.edges(), removed=witness.cut)
        assert comp == witness.components
        assert Fraction(len(witness.cut), comp - 1) == expected
        assert time.perf_counter() - budget_start < 30.0

    stage = time.perf_counter()
    g = family_graph(FamilySpec.tough_int(14, 2))  # one hub, K_12, one satellite
    value, witness = variation_toughness(g)
    check_stage(value, witness, g, Fraction(1), stage)

    stage = time.perf_counter()
    g = family_graph(FamilySpec.tough_frac_delta(16, 1, 2))  # two hubs, K_11, 3 singles
    value, witness = variation_toughness(g)
    check_stage(value, witness, g, Fraction(2, 3), stage)

    stage = time.perf_counter()
    g = family_graph(FamilySpec.bip_frac(16, 2))  # blocks (1, 5, 7, 3)
    sides = bipartition_of(g)
    value, witness = bipartite_toughness(g, ToughnessKind.VARIATION)
    check_stage(value, witness, g, Fraction(1, 3), stage)
    assert witness.side == "X"
    assert witness.cut < sides.x

    finish(4, "extremal graphs fail their toughness targets", started, 90.0)


CRITERION_5_THEOREMS = (
    TheoremId(Theorem.TOUGH_INT, 14, tau=2),
    TheoremId(Theorem.TOUGH_INT, 16, tau=2),
    TheoremId(Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=1, delta=2),
    TheoremId(Theorem.BIP_FRAC, 16, r_inv=2),
)


def test_criterion_5_counterexample_search():
    started = time.perf_counter()
    for tid in CRITERION_5_THEOREMS:
        report = search_counterexamples(tid, 500, MASTER_SEED)
        assert report.checked == 500
        assert report.counterexamples == [], tid
        total = report.below + report.tough + report.extremal
        assert total == 500

    # the constructed extremal graph of every family classifies as extremal
    # under its own theorem; for the indivisible bipartite case the theorem's
    # graph is the larger-radius candidate returned by threshold()
    own_theorem_cases = [
        (TheoremId(Theorem.TOUGH_INT, 14, tau=2), FamilySpec.tough_int(14, 2)),
        (TheoremId(Theorem.TOUGH_INT, 16, tau=2), FamilySpec.tough_int(16, 2)),
        (TheoremId(Theorem.TOUGH_INT, 20, tau=2), FamilySpec.tough_int(20, 2)),
        (
            TheoremId(Theorem.TOUGH_FRAC_MINDEG, 16, tau_inv=1, delta=2),
            FamilySpec.tough_frac_delta(16, 1, 2),
        ),
        (
            TheoremId(Theorem.TOUGH_FRAC_MINDEG, 20, tau_inv=2, delta=2),
            FamilySpec.tough_frac_delta(20, 2, 2),
        ),
        (TheoremId(Theorem.BIP_INT, 20, r=2), FamilySpec.bip_int_div(20, 2)),
        (TheoremId(Theorem.BIP_FRAC, 16, r_inv=2), FamilySpec.bip_frac(16, 2)),
        (TheoremId(Theorem.BIP_FRAC, 20, r_inv=1), FamilySpec.bip_frac(20, 1)),
    ]
    for tid, spec in own_theorem_cases:
        verdict = check_graph_against_theorem(family_graph(spec), tid)
        assert verdict.status is VerdictStatus.EXTREMAL, (tid, verdict.status)
    for n, r in ((22, 2), (38, 3)):
        tid = TheoremId(Theorem.BIP_INT, n, r=r)
        _, extremal = threshold(tid)
        verdict = check_graph_against_theorem(extremal, tid)
        assert verdict.status is VerdictStatus.EXTREMAL, (tid, verdict.status)

    finish(5, "seeded search finds no counterexamples", started, 600.0)


def test_criterion_6_bound_suite():
    started = time.perf_counter()
    rng = random.Random(MASTER_SEED)

    for _ in range(1000):
        g = connected_gnp(rng.randrange(5, 41), rng.uniform(0.15, 0.95), rng)
        for bound in (Bound.HONG, Bound.DEGREE):
            report = check_bound(g, bound)
            assert report.slack >= -1e-8, (bound, g.n, report.slack)
            if report.equality_case:
                assert report.slack <= 1e-7

    for _ in range(1000):
        n = 2 * rng.randrange(3, 21)
        g = balanced_bipartite_gnp(n, rng.uniform(0.1, 0.95), rng)
        report = check_bound(g, Bound.NOSAL)
        assert report.slack >= -1e-8, (g.n, report.slack)

    hong_equality = [complete(n) for n in range(3, 9)]
    hong_equality += [complete_bipartite(1, q) for q in range(2, 9)]
    for g in hong_equality:
        assert check_bound(g, Bound.HONG).equality_case, g.degrees()

    degree_equality = [cycle(n) for n in range(4, 10)]
    degree_equality += [petersen(), complete_bipartite(4, 4), complete(4)]
    degree_equality += [random_regular(12, 3, seed=5)]
    degree_equality += [join(complete(s), empty(t)) for s, t in ((2, 3), (3, 5), (4, 2))]
    for g in degree_equality:
        assert check_bound(g, Bound.DEGREE).equality_case, g.degrees()

    nosal_equality = [complete_bipartite(p, q) for p, q in ((2, 3), (4, 4), (1, 7))]
    nosal_equality += [
        disjoint_union([complete_bipartite(3, 2), empty(3)]),
    ]
    for g in nosal_equality:
        assert check_bound(g, Bound.NOSAL).equality_case, g.degrees()

    # tight-but-structurally-different graphs stay flagged off
    assert not check_bound(path(4), Bound.HONG).equality_case
    assert not check_bound(path(5), Bound.DEGREE).equality_case
    assert not check_bound(path(4), Bound.NOSAL).equality_case

    finish(6, "spectral bounds never violated", started, 60.0)


def test_criterion_7_lemma_sweeps():
    started = time.perf_counter()
    margin = 1e-10

    # clique concentration: parts (m, m, p, ..., p) keep the hypotheses
    # n1 < n - s - p(t-1) and parts nonincreasing while m sweeps upward
    checked = 0
    for s in range(2, 7):
        for p in (1, 2):
            for t in range(2, 7):
                for m in range(p + 1, p + 12):
                    parts = (m, m) + (p,) * (t - 2)
                    report = check_lemma_comparison(
                        Lemma.CLIQUE_CONCENTRATION, s=s, p=p, parts=parts
                    )
                    assert report.holds, (s, p, parts)
                    assert report.rho_right - report.rho_left > margin, (s, p, parts)
                    checked += 1
    assert checked == 550

    # divisible bipartite comparison: n from the lower bound upward in
    # divisibility steps
    for k in range(2, 7):
        floor = 2 * k * k + 6 * k
        for n in range(floor, floor + 41, 2 * k):
            report = check_lemma_comparison(Lemma.BIPARTITE_DIVISIBLE, k=k, n=n)
            assert report.holds, (k, n)
            assert report.rho_left - report.rho_right > margin, (k, n)

    # monotone bipartite comparison: n from the lower bound upward in even steps
    for s in range(1, 7):
        for n in range(4 * s + 6, 4 * s + 47, 2):
            report = check_lemma_comparison(Lemma.BIPARTITE_MONOTONE, s=s, n=n)
            assert report.holds, (s, n)
            assert report.rho_left - report.rho_right > margin, (s, n)

    # rotation: random configurations with a single pivot vertex; whenever the
    # gaining side carries at least the Perron weight of the losing side, the
    # radius must strictly increase
    rng = random.Random(MASTER_SEED)
    qualified = 0
    attempts = 0
    while qualified < 200:
        attempts += 1
        assert attempts < 5000, "rotation sampler failed to qualify 200 configs"
        g = connected_gnp(rng.randrange(8, 17), rng.uniform(0.25, 0.55), rng)
        v = rng.randrange(g.n)
        neighbors = [w for w in range(g.n) if g.masks[v] >> w & 1]
        others = [w for w in range(g.n) if w != v and not g.masks[v] >> w & 1]
        if not neighbors or not others:
            continue
        s2 = rng.sample(neighbors, 1)
        s1 = rng.sample(others, min(len(others), rng.randrange(1, 4)))
        report = rotation_experiment(g, s1, s2, [v])
        if report.perron_sum_s1 >= report.perron_sum_s2:
            qualified += 1
            assert report.rho_after > report.rho_before + 1e-12, (g.edges(), s1, s2, v)

    finish(7, "comparison lemmas hold with margin", started, 120.0)


def test_criterion_8_brouwer_margin():
    started = time.perf_counter()

    report = brouwer_margin(petersen())
    assert report.t == Fraction(4, 3)
    assert report.d == 3
    assert report.lam == pytest.approx(2.0, abs=1e-8)
    assert report.margin == pytest.approx(5 / 6, abs=1e-8)

    for n in range(4, 15):
        assert brouwer_margin(cycle(n)).margin > 0, n

    rng = random.Random(MASTER_SEED)
    tested = 0
    while tested < 50:
        n = rng.randrange(5, 15)
        d = rng.randrange(2, min(6, n - 1))
        if (n * d) % 2:
            continue
        g = random_regular(n, d, rng)
        if not g.is_connected() or g.is_complete():
            continue
        assert brouwer_margin(g).margin > 0, (n, d, g.edges())
        tested += 1

    finish(8, "toughness margin stays positive on regular graphs", started, 300.0)


def run_seeded_artifacts() -> str:
    """One JSON document derived from every seeded computation path."""
    artifacts = {}
    artifacts["candidate_table"] = [
        {"r": row.r, "n": row.n, "rho_a": row.rho_a, "rho_b": row.rho_b,
         "winner": row.winner}
        for row in candidate_comparison()
    ]
    artifacts["searches"] = [
        search_counterexamples(tid, 60, MASTER_SEED).to_json_dict()
        for tid in CRITERION_5_THEOREMS
    ]
    rng = random.Random(MASTER_SEED)
    slacks = []
    for _ in range(120):
        g = connected_gnp(rng.randrange(5, 31), rng.uniform(0.2, 0.9), rng)
        slacks.append([check_bound(g, bound).slack for bound in (Bound.HONG, Bound.DEGREE)])
    artifacts["bound_slacks"] = slacks
    rng = random.Random(MASTER_SEED + 1)
    rotations = []
    while len(rotations) < 25:
        g = connected_gnp(rng.randrange(8, 15), rng.uniform(0.3, 0.5), rng)
        v = rng.randrange(g.n)
        others = [w for w in range(g.n) if w != v and not g.masks[v] >> w & 1]
        if not g.masks[v] or not others:
            continue
        lowest = (g.masks[v] & -g.masks[v]).bit_length() - 1
        report = rotation_experiment(g, [others[0]], [lowest], [v])
        rotations.append({"before": report.rho_before, "after": report.rho_after})
    artifacts["rotations"] = rotations
    rng = random.Random(MASTER_SEED + 2)
    margins = []
    while len(margins) < 10:
        n, d = rng.randrange(6, 13), 3
        if (n * d) % 2:
            continue
        g = random_regular(n, d, rng)
        if not g.is_connected() or g.is_complete():
            continue
        margins.append(brouwer_margin(g).margin)
    artifacts["brouwer_margins"] = margins
    artifacts["thresholds"] = [
        threshold(tid)[0] for tid in CRITERION_5_THEOREMS
    ]
    return json.dumps(artifacts, indent=2, sort_keys=True)


def test_criterion_9_determinism():
    started = time.perf_counter()
    first = run_seeded_artifacts()
    second = run_seeded_artifacts()
    assert first == second
    assert first.encode("ascii") == second.encode("ascii")
    # per-sample seed split makes sample i independent of the rest of the run
    assert sample_seed(MASTER_SEED, 3) == sample_seed(MASTER_SEED, 3)
    assert sample_seed(MASTER_SEED, 3) != sample_seed(MASTER_SEED, 4)
    finish(9, "seeded reports are byte-identical", started, 120.0)
