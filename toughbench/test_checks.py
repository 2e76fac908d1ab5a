"""Tests of the benchmark's own oracles, checks and tracer.

    python3 -m pytest -q toughbench

Each output check is shown to pass on the program's real output and to reject
a wrong value.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import run  # puts the program's src/ on the path
import classify
import exact_tough
import family_radius
import oracles
import tracing
from toughspec import graphs, spectra
from toughspec.toughness import variation_toughness

PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)] \
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_union_find_matches_networkx():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        removed = rng.sample(range(n), rng.randrange(0, n))
        want = oracles.nx_components_without(oracles.nx_graph(n, edges), removed)
        assert oracles.components_without(n, edges, removed) == want


def test_brute_force_known_values():
    assert oracles.brute_min_ratio(10, PETERSEN, 0)[0] == Fraction(4, 3)
    star = [(0, v) for v in range(1, 4)]
    assert oracles.brute_min_ratio(4, star, 0) == (Fraction(1, 3), (0,))
    assert oracles.brute_min_ratio(4, star, 1) == (Fraction(1, 2), (0,))
    assert oracles.first_tau_violation(4, star, Fraction(1)) == (0,)
    assert oracles.first_tau_violation(10, PETERSEN, Fraction(1)) is None


@pytest.mark.parametrize("family, n, params", [
    ("tough-int", 20, {"tau": 2}),
    ("tough-frac-delta", 20, {"tau_inv": 2, "delta": 2}),
    ("bip-int-div", 24, {"r": 2}),
    ("bip-int-nondiv-a", 38, {"r": 3}),
    ("bip-int-nondiv-b", 38, {"r": 3}),
    ("bip-frac", 16, {"r_inv": 2}),
])
def test_block_formulas_agree_with_adjacency(family, n, params):
    shape, blocks = oracles.family_blocks(family, n, **params)
    a = oracles.block_adjacency(shape, blocks)
    assert a.shape == (n, n)
    assert int(a.sum()) // 2 == oracles.block_edge_count(shape, blocks)
    degrees = {}
    for d in a.sum(axis=1).astype(int):
        degrees[d] = degrees.get(d, 0) + 1
    assert degrees == oracles.block_degrees(shape, blocks)


# ---------------------------------------------------------------------------
# family-radius
# ---------------------------------------------------------------------------


def _family_digest(spec):
    return family_radius._digest(family_radius._op(*spec))


def test_family_check_accepts_the_program():
    for spec in list(family_radius.grid())[::40]:
        assert family_radius.check_one(spec, _family_digest(spec)) == []


def test_family_check_rejects_wrong_values():
    spec = ("tough-int", 14, {"tau": 2})
    rho, root, n, m, degrees = _family_digest(spec)
    assert family_radius.check_one(spec, (rho + 1e-6, root + 1e-6, n, m, degrees))
    assert family_radius.check_one(spec, (rho, root + 1e-6, n, m, degrees))
    assert family_radius.check_one(spec, (rho, root, n, m + 1, degrees))
    moved = dict(degrees)
    top = max(moved)
    moved[top] -= 1
    moved[top - 1] = moved.get(top - 1, 0) + 1
    assert family_radius.check_one(spec, (rho, root, n, m, moved))


def test_table_check():
    radii = {}
    for r, n in family_radius.TABLE:
        for family in ("bip-int-nondiv-a", "bip-int-nondiv-b"):
            radii[(family, r, n)] = _family_digest((family, n, {"r": r}))[0]
    assert family_radius.check_table(radii) == []
    off = dict(radii)
    off[("bip-int-nondiv-a", 3, 38)] += 0.01
    assert family_radius.check_table(off)
    swapped = dict(radii)
    swapped[("bip-int-nondiv-a", 10, 402)] = 200.40  # B would win
    assert any("winner" in e for e in family_radius.check_table(swapped))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _item(theorem_index: int, side: str, edges):
    name, n, params, family, required, *_ = classify.THEOREMS[theorem_index]
    tid = classify.theorem_ids()[theorem_index]
    rho = oracles.radius(oracles.adjacency(n, edges))
    return classify.Item(tid, family, params, required, side, n, edges, rho,
                         graphs.Graph(n, edges))


def _verdict(item):
    return classify._digest(classify.verify.check_graph_against_theorem(item.graph, item.tid))


def test_classify_checks_accept_the_program():
    state = classify.program_setup()
    items = classify.make_inputs(5, state, None)
    digests = [_verdict(item) for item in items]
    assert classify.check(items, state, digests) == []
    # a classification that raised leaves the verdict counts one short
    errors = classify.check(items, state, [None] + digests[1:])
    assert any("does not sum" in e for e in errors)


def test_classify_rejects_wrong_verdicts():
    thr = classify.oracle_thresholds()
    tid = classify.theorem_ids()[0]
    rng = random.Random(1)
    extremal = _item(0, "extremal", oracles.relabelled_family_edges("tough-int", 14, {"tau": 2}, rng))
    status, rho, threshold, witness = _verdict(extremal)
    assert classify.check_verdict(extremal, (status, rho, threshold, witness), thr[tid], True) == []
    # a tough verdict on the extremal graph, which is not 2-tough
    item = extremal._replace(side="above")
    errors = classify.check_verdict(item, ("tough", rho, threshold, None), thr[tid], True)
    assert any("violates tau" in e for e in errors)
    # a counterexample, a threshold or radius off by 1e-6
    assert classify.check_verdict(item, ("counterexample", rho, threshold, witness), thr[tid], False)
    assert classify.check_verdict(extremal, (status, rho, threshold + 1e-6, witness), thr[tid], False)
    assert classify.check_verdict(extremal, (status, rho + 1e-6, threshold, witness), thr[tid], False)
    # an extremal verdict on a graph that is not the extremal graph
    other = [e for e in extremal.edges if 0 not in e] + [(0, v) for v in range(1, 14)]
    wrong = _item(0, "extremal", other)
    errors = classify.check_verdict(wrong, ("extremal", wrong.rho, threshold, witness), thr[tid], False)
    assert any("not isomorphic" in e for e in errors)
    # a below verdict on a graph above the threshold
    above = extremal._replace(side="below", rho=thr[tid] + 0.5)
    assert classify.check_verdict(above, ("below", above.rho, threshold, None), thr[tid], False)


# ---------------------------------------------------------------------------
# exact-tough
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_items(tmp_path_factory):
    return exact_tough.make_inputs(7, None, tmp_path_factory.mktemp("inputs"))


def _answers(items):
    return [exact_tough._call(exact_tough._argv(item, kind))
            for item, kind in exact_tough.queries(items)]


def test_exact_checks_accept_the_program(exact_items):
    small = [item for item in exact_items if item.n <= 14]
    assert exact_tough.check(small, None, _answers(small)) == []


def test_exact_rejects_wrong_witnesses(exact_items):
    item = next(i for i in exact_items if i.n == 12 and "variation" in i.kinds)
    ref = exact_tough.reference(item)
    value, cut = oracles.brute_min_ratio(item.n, item.edges, 1)
    c = oracles.components_without(item.n, item.edges, cut)
    good = {"value": str(value), "witness": {"cut": list(cut), "components": c,
                                             "ratio": str(value)}}
    assert exact_tough.check_tough(item, "variation", good, ref) == []
    wrong_count = {**good, "witness": {**good["witness"], "components": c + 1}}
    assert any("components" in e for e in exact_tough.check_tough(item, "variation", wrong_count, ref))
    wrong_value = {**good, "value": str(value + 1)}
    assert exact_tough.check_tough(item, "variation", wrong_value, ref)


def test_exact_rejects_a_later_minimizer():
    # on the path 0-1-2-3-4 the cuts {1}, {2} and {3} all give variation 1;
    # the first minimizer in (size, lexicographic) order is {1}
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    item = exact_tough.Item("path(5)", 5, edges, exact_tough.GENERAL, "", "edge-list", None)
    ref = exact_tough.reference(item)
    first = {"value": "1", "witness": {"cut": [1], "components": 2, "ratio": "1"}}
    assert exact_tough.check_tough(item, "variation", first, ref) == []
    later = {"value": "1", "witness": {"cut": [2], "components": 2, "ratio": "1"}}
    assert any("brute force" in e for e in exact_tough.check_tough(item, "variation", later, ref))


def test_exact_rejects_family_value_above_its_own_cut(exact_items):
    item = next(i for i in exact_items if i.family and i.family[0] == "clique" and i.n == 14)
    ref = exact_tough.reference(item)
    g = graphs.Graph(item.n, item.edges)
    value, w = variation_toughness(g)
    payload = {"value": str(value), "witness": {"cut": sorted(w.cut), "components": w.components,
                                                "ratio": str(w.ratio)}}
    assert exact_tough.check_tough(item, "variation", payload, ref) == []
    # tough-int(14, 2) has variation toughness 1; claiming 2 breaks both bounds
    inflated = {"value": "2", "witness": {**payload["witness"], "ratio": "2"}}
    errors = exact_tough.check_tough(item, "variation", inflated, ref)
    assert any("own cut" in e for e in errors)
    assert any("required" in e for e in errors)


def test_exact_rejects_bad_brouwer(exact_items):
    item = next(i for i in exact_items if "brouwer" in i.kinds and i.n == 12)
    payload = json.loads(exact_tough._call(exact_tough._argv(item, "brouwer"))[1])
    assert exact_tough.check_brouwer(item, payload) == []
    assert exact_tough.check_brouwer(item, {**payload, "margin": -0.1})
    assert exact_tough.check_brouwer(item, {**payload, "lambda": payload["lambda"] + 1e-6})
    assert exact_tough.check_brouwer(item, {**payload, "t": "100"})


def test_exact_rejects_variation_below_toughness(exact_items):
    item = next(i for i in exact_items if i.n == 12 and i.kinds == exact_tough.GENERAL)
    answers = _answers([item])
    assert exact_tough.check([item], None, answers) == []
    code, text = answers[1]
    low = json.loads(text)
    low["value"] = "1/1000"
    errors = exact_tough.check([item], None, [answers[0], (code, json.dumps(low))])
    assert any("below toughness" in e for e in errors)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores():
    original = spectra.spectral_radius
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectra.spectral_radius is not original
        assert classify.verify.spectral_radius is not original  # the caller's own name
        family_radius._op("tough-int", 14, {"tau": 2})
    finally:
        tracer.uninstall()
    assert spectra.spectral_radius is original
    assert classify.verify.spectral_radius is original
    keys = [span[0] for span in tracer.spans]
    assert keys.count("spectra.radius") == 1
    inclusive, self_time, calls = tracer.layer_totals()
    assert calls["families.build"] == 1  # family_graph wraps build_family
    metrics = tracer.layer_metrics(1)
    assert metrics["spectra.radius_calls"] == 1
    assert metrics["spectra.power_iterations"] > 0
    assert metrics["graphs.graphs_built"] >= 1
    assert metrics["toughness.decide_s"] == 0.0


def test_tracer_skips_a_missing_function(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.layer", "toughspec.spectra", "no_such_function"),
        ("gone.module", "toughspec.no_such_module", "f"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert "gone.layer_s" not in metrics and "gone.module_s" not in metrics
    assert "spectra.radius_s" in metrics
