"""End-to-end tests for the command line interface.

Commands run in-process through ``run(argv)`` so stdout and exit codes can be
checked exactly; one subprocess test covers the installed entry point.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from toughspec import cli
from toughspec.bounds import BrouwerReport
from toughspec.cli import COMMANDS, _num, build_parser, run
from toughspec.families import (
    FamilySpec, family_graph, matches_family, split_join,
)
from toughspec.graphio import GraphFormat, parse_graph, serialize_graph
from toughspec.graphs import (
    complete, complete_bipartite, cycle, disjoint_union, empty, join, path, petersen,
)
from toughspec.lemmas import ComparisonReport, Lemma, RotationReport
from toughspec.spectra import DENSE_CAP
from toughspec.toughness import CutWitness
from toughspec.verify import (
    CounterexampleRecord,
    SearchReport,
    Theorem,
    TheoremId,
    Verdict,
    VerdictStatus,
)

SUBCOMMANDS = (
    "rho", "spectrum", "tough", "construct", "bounds", "lemma",
    "rotate", "brouwer", "verify", "search", "remark",
)

NINE_DECIMALS = re.compile(r"-?\d+\.\d{9}$")

# the package namespace re-exports the function toughness, so fetch the module
TOUGHNESS_MODULE = importlib.import_module("toughspec.toughness")


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.txt", fmt=GraphFormat.EDGE_LIST):
        target = tmp_path / name
        target.write_text(serialize_graph(g, fmt), encoding="ascii")
        return str(target)

    return write


def canonical_json(captured: str):
    """Parse captured stdout and confirm it is sorted, indented json."""
    payload = json.loads(captured)
    assert captured == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return payload


class TestRho:
    def test_family_source(self, capsys):
        code = run(["rho", "--family", "tough-int", "--n", "14", "--tau", "2"])
        assert code == 0
        assert capsys.readouterr().out == "12.006444912\n"

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 3\n0 1\n0 2\n1 2"))
        assert run(["rho", "--in", "-"]) == 0
        assert capsys.readouterr().out == "2.000000000\n"

    def test_file_source(self, capsys, graph_file):
        assert run(["rho", "--in", graph_file(cycle(6))]) == 0
        assert capsys.readouterr().out == "2.000000000\n"

    def test_json_output(self, capsys):
        code = run(["rho", "--family", "bip-frac", "--n", "16", "--r-inv", "2",
                    "--json"])
        assert code == 0
        payload = canonical_json(capsys.readouterr().out)
        assert set(payload) == {"rho"}
        # blocks (1, 5, 7, 3): largest root of x^4 - 43x^2 + 105
        assert payload["rho"] == pytest.approx(
            math.sqrt((43 + math.sqrt(43 * 43 - 4 * 105)) / 2), abs=1e-8
        )

    def test_needs_some_source(self, capsys):
        assert run(["rho"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_oversized_component_is_refused(self, capsys, graph_file):
        assert run(["rho", "--in", graph_file(path(DENSE_CAP + 1))]) == 1
        assert capsys.readouterr().err == (
            f"error: spectral radius capped at components of <= {DENSE_CAP} "
            f"vertices, got {DENSE_CAP + 1}\n")


class TestSpectrum:
    def test_two_vertex_graph(self, capsys, graph_file):
        assert run(["spectrum", "--in", graph_file(complete(2))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(NINE_DECIMALS.fullmatch(line) for line in lines)
        assert [float(line) for line in lines] == pytest.approx([1.0, -1.0], abs=1e-9)

    def test_zero_eigenvalues_print_without_sign(self, capsys, graph_file):
        assert run(["spectrum", "--in", graph_file(complete_bipartite(3, 3))]) == 0
        assert capsys.readouterr().out.splitlines() == (
            ["3.000000000"] + ["0.000000000"] * 4 + ["-3.000000000"]
        )

    def test_json_is_descending_and_complete(self, capsys, graph_file):
        assert run(["spectrum", "--in", graph_file(petersen()), "--json"]) == 0
        payload = canonical_json(capsys.readouterr().out)
        values = payload["spectrum"]
        assert len(values) == 10
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(3.0, abs=1e-8)
        assert values[-1] == pytest.approx(-2.0, abs=1e-8)


class TestTough:
    def test_default_kind_is_variation(self, capsys, graph_file):
        target = graph_file(complete_bipartite(1, 3))
        assert run(["tough", "--in", target]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["variation = 1/2", "cut: 0", "components: 3"]

    def test_plain_toughness(self, capsys, graph_file):
        target = graph_file(complete_bipartite(1, 3))
        assert run(["tough", "--in", target, "--kind", "toughness"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["toughness = 1/3", "cut: 0", "components: 3"]

    def test_one_sided_variation(self, capsys, graph_file):
        assert run(["tough", "--in", graph_file(cycle(6)),
                    "--kind", "bipartite-variation"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "bipartite-variation = 2",
            "cut: 0 2",
            "components: 2 side=X",
        ]

    def test_no_divisible_only_flag(self, capsys, graph_file):
        # variation toughness has no divisibility-restricted mode
        target = graph_file(join(complete(2), empty(4)))
        assert run(["tough", "--in", target, "--divisible-only"]) == 1
        assert "--divisible-only" in capsys.readouterr().err

    def test_infinite_value(self, capsys, graph_file):
        assert run(["tough", "--in", graph_file(complete(5))]) == 0
        assert capsys.readouterr().out == "variation = inf\n"

    def test_json_witness(self, capsys, graph_file):
        assert run(["tough", "--in", graph_file(cycle(6)),
                    "--kind", "bipartite-variation", "--json"]) == 0
        payload = canonical_json(capsys.readouterr().out)
        assert payload == {
            "kind": "bipartite-variation",
            "value": "2",
            "witness": {"cut": [0, 2], "components": 2, "ratio": "2", "side": "X"},
        }

    def test_one_sided_kind_needs_bipartite_input(self, capsys, graph_file):
        code = run(["tough", "--in", graph_file(complete(5)),
                    "--kind", "bipartite-variation"])
        assert code == 1
        assert "bipartite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["bipartite-toughness", "bipartite-variation"])
    def test_side_cap_is_checked_before_the_bipartition(self, capsys, monkeypatch,
                                                        tmp_path, graph_file, kind):
        # over 2 * 22 vertices some side exceeds the cap, whatever the sides are
        huge = tmp_path / "huge.txt"
        huge.write_text("200000 0\n", encoding="ascii")

        def refuse(g):
            raise AssertionError("bipartition searched before the side cap check")

        monkeypatch.setattr(TOUGHNESS_MODULE, "bipartition_of", refuse)
        for target, side in ((str(huge), 100000), (graph_file(cycle(45)), 23)):
            assert run(["tough", "--in", target, "--kind", kind]) == 1
            assert capsys.readouterr().err == (
                f"error: cut enumeration over a side of at least {side} vertices "
                "exceeds the cap of 22 (2^n subsets)\n")
        monkeypatch.undo()
        # at 2 * 22 vertices the bipartition still decides
        assert run(["tough", "--in", graph_file(complete(44)), "--kind", kind]) == 1
        assert "bipartite" in capsys.readouterr().err


class TestConstruct:
    def test_edge_list_output(self, capsys):
        code = run(["construct", "--family", "tough-int", "--n", "14", "--tau", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("14 79\n")
        spec = FamilySpec.tough_int(14, 2)
        assert out == serialize_graph(family_graph(spec)) + "\n"
        assert matches_family(parse_graph(out), spec)

    def test_graph6_round_trip(self, capsys):
        code = run(["construct", "--family", "bip-frac", "--n", "16",
                    "--r-inv", "2", "--format", "graph6"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        parsed = parse_graph(out, GraphFormat.GRAPH6)
        assert matches_family(parsed, FamilySpec.bip_frac(16, 2))

    def test_invalid_parameters_exit_one(self, capsys):
        assert run(["construct", "--family", "tough-int", "--n", "14"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBounds:
    def test_all_bounds_on_bipartite_graph(self, capsys, graph_file):
        assert run(["bounds", "--in", graph_file(path(4))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert {line.split(":")[0] for line in lines} == {"hong", "degree", "nosal"}
        assert all("slack=" in line and "equality=" in line for line in lines)

    @pytest.mark.parametrize("g, expected", [
        (path(4), [
            "hong: rho=1.618033989 bound=1.732050808 slack=1.140e-01 equality=false",
            "degree: rho=1.618033989 bound=1.732050808 slack=1.140e-01 equality=false",
            "nosal: rho=1.618033989 bound=1.732050808 slack=1.140e-01 equality=false",
        ]),
        # the degree bound is attained: its rounding-noise slack prints as zero
        (cycle(6), [
            "hong: rho=2.000000000 bound=2.645751311 slack=6.458e-01 equality=false",
            "degree: rho=2.000000000 bound=2.000000000 slack=0.000e+00 equality=true",
            "nosal: rho=2.000000000 bound=2.449489743 slack=4.495e-01 equality=false",
        ]),
    ], ids=["path4", "cycle6"])
    def test_exact_lines(self, g, expected, capsys, graph_file):
        assert run(["bounds", "--in", graph_file(g)]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_single_bound_json(self, capsys, graph_file):
        assert run(["bounds", "--in", graph_file(complete(5)),
                    "--bound", "hong", "--json"]) == 0
        (entry,) = canonical_json(capsys.readouterr().out)
        assert entry["bound"] == "hong"
        assert entry["equality_case"] is True
        assert entry["rho"] == pytest.approx(4.0, abs=1e-8)
        assert entry["slack"] == pytest.approx(0.0, abs=1e-8)

    def test_inapplicable_bound_exits_one(self, capsys, graph_file):
        code = run(["bounds", "--in", graph_file(cycle(5)), "--bound", "nosal"])
        assert code == 1
        assert "bipartite" in capsys.readouterr().err

    def test_all_skips_bounds_whose_hypotheses_fail(self, capsys, graph_file):
        # Petersen is not bipartite, so nosal is left out rather than fatal
        assert run(["bounds", "--in", graph_file(petersen())]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "hong: rho=3.000000000 bound=4.582575695 slack=1.583e+00 equality=false",
            "degree: rho=3.000000000 bound=3.000000000 slack=0.000e+00 equality=true",
        ]

    def test_all_exits_one_when_no_bound_applies(self, capsys, graph_file):
        g = disjoint_union([complete(3), empty(1)])  # an isolated vertex and a triangle
        assert run(["bounds", "--in", graph_file(g)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no bound applies (hong: ")


class TestLemma:
    def test_clique_concentration_holds(self, capsys):
        code = run(["lemma", "--lemma", "clique-concentration",
                    "--s", "2", "--p", "1", "--parts", "4,3,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("clique-concentration: rho_left=")
        assert out.rstrip().endswith("holds=true")

    def test_clique_concentration_exact_line(self, capsys):
        code = run(["lemma", "--lemma", "clique-concentration",
                    "--s", "2", "--p", "1", "--parts", "4,4,2"])
        assert code == 0
        assert capsys.readouterr().out == (
            "clique-concentration: rho_left=6.418550719 rho_right=9.091177764 "
            "holds=true\n"
        )

    def test_bipartite_monotone_json(self, capsys):
        code = run(["lemma", "--lemma", "bipartite-monotone",
                    "--s", "1", "--n", "12", "--json"])
        assert code == 0
        payload = canonical_json(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["params"] == {"s": 1, "n": 12}
        assert payload["rho_left"] > payload["rho_right"]

    def test_hypothesis_violation_exits_one(self, capsys):
        code = run(["lemma", "--lemma", "bipartite-monotone", "--s", "2", "--n", "12"])
        assert code == 1
        assert "4s" in capsys.readouterr().err

    def test_bad_parts_exits_one(self, capsys):
        code = run(["lemma", "--lemma", "clique-concentration",
                    "--s", "2", "--p", "1", "--parts", "4,x,3"])
        assert code == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_failed_comparison_exits_two(self, capsys, monkeypatch):
        report = ComparisonReport(
            Lemma.CLIQUE_CONCENTRATION, {"s": 2}, 3.0, 2.0, False, None, None
        )
        monkeypatch.setattr(
            "toughspec.cli.check_lemma_comparison", lambda *a, **k: report
        )
        code = run(["lemma", "--lemma", "clique-concentration",
                    "--s", "2", "--p", "1", "--parts", "4,3,3"])
        assert code == 2
        assert "holds=false" in capsys.readouterr().out


class TestRotate:
    def test_path_rotation_raises_radius(self, capsys, graph_file):
        code = run(["rotate", "--in", graph_file(path(4)),
                    "--s1", "2", "--s2", "1", "--t", "0"])
        assert code == 0
        out = capsys.readouterr().out
        match = re.fullmatch(
            r"rho_before=(\S+) rho_after=(\S+) sum_s1=(\S+) sum_s2=(\S+)\n", out
        )
        assert match is not None
        before, after = float(match.group(1)), float(match.group(2))
        assert before == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-8)
        assert after == pytest.approx(math.sqrt(3), abs=1e-8)

    def test_path_rotation_exact_line(self, capsys, graph_file):
        code = run(["rotate", "--in", graph_file(path(4)),
                    "--s1", "2", "--s2", "1", "--t", "0"])
        assert code == 0
        assert capsys.readouterr().out == (
            "rho_before=1.618033989 rho_after=1.732050808 "
            "sum_s1=0.601500955 sum_s2=0.601500955\n"
        )

    @pytest.mark.parametrize("s1,s2,t", [("2,3", "1", "0"), ("56,57", "58", "59"), ("2", "1", "0")])
    def test_long_path_sums_are_the_closed_form(self, capsys, graph_file, s1, s2, t):
        """The Perron vector of path(60) is sqrt(2/61) sin(k pi / 61), k = 1..60."""
        x = [math.sqrt(2 / 61) * math.sin(k * math.pi / 61) for k in range(1, 61)]
        sums = [sum(x[int(v)] for v in block.split(",")) for block in (s1, s2)]
        code = run(["rotate", "--in", graph_file(path(60)), "--s1", s1, "--s2", s2, "--t", t])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith(f" sum_s1={sums[0]:.9f} sum_s2={sums[1]:.9f}\n"), out
        if (s1, s2) == ("2,3", "1"):
            assert "sum_s1=0.064903744 sum_s2=0.018617951" in out

    def test_json_fields(self, capsys, graph_file):
        code = run(["rotate", "--in", graph_file(path(4)),
                    "--s1", "2", "--s2", "1", "--t", "0", "--json"])
        assert code == 0
        payload = canonical_json(capsys.readouterr().out)
        assert set(payload) == {
            "rho_before", "rho_after", "perron_sum_s1", "perron_sum_s2",
        }

    def test_bad_vertex_list_exits_one(self, capsys, graph_file):
        code = run(["rotate", "--in", graph_file(path(4)),
                    "--s1", "2;3", "--s2", "1", "--t", "0"])
        assert code == 1
        assert "--s1" in capsys.readouterr().err

    def test_gained_without_increase_exits_two(self, capsys, monkeypatch, graph_file):
        report = RotationReport(2.0, 2.0, 1.5, 0.5)
        monkeypatch.setattr("toughspec.cli.rotation_experiment", lambda *a, **k: report)
        code = run(["rotate", "--in", graph_file(path(4)),
                    "--s1", "2", "--s2", "1", "--t", "0"])
        assert code == 2


class TestBrouwer:
    def test_petersen_margin(self, capsys, graph_file):
        assert run(["brouwer", "--in", graph_file(petersen())]) == 0
        out = capsys.readouterr().out
        match = re.fullmatch(r"t=(\S+) d=(\d+) lambda=(\S+) margin=(\S+)\n", out)
        assert match is not None
        assert match.group(1) == "4/3"
        assert match.group(2) == "3"
        assert float(match.group(3)) == pytest.approx(2.0, abs=1e-8)
        assert float(match.group(4)) == pytest.approx(5 / 6, abs=1e-8)

    def test_petersen_exact_line(self, capsys, graph_file):
        assert run(["brouwer", "--in", graph_file(petersen())]) == 0
        assert capsys.readouterr().out == "t=4/3 d=3 lambda=2.000000000 margin=0.833333333\n"

    def test_json_fields(self, capsys, graph_file):
        assert run(["brouwer", "--in", graph_file(cycle(6)), "--json"]) == 0
        payload = canonical_json(capsys.readouterr().out)
        assert payload["t"] == "1"
        assert payload["d"] == 2
        assert payload["margin"] == pytest.approx(1.0, abs=1e-8)

    def test_irregular_graph_exits_one(self, capsys, graph_file):
        assert run(["brouwer", "--in", graph_file(path(4))]) == 1
        assert "regular" in capsys.readouterr().err

    def test_nonpositive_margin_exits_two(self, capsys, monkeypatch, graph_file):
        report = BrouwerReport(Fraction(1), 3, 3.0, 0.0)
        monkeypatch.setattr("toughspec.cli.brouwer_margin", lambda *a, **k: report)
        assert run(["brouwer", "--in", graph_file(petersen())]) == 2


class TestVerify:
    def test_extremal_family(self, capsys, graph_file):
        target = graph_file(family_graph(FamilySpec.tough_int(14, 2)))
        code = run(["verify", "--in", target, "--theorem", "tough-int",
                    "--n", "14", "--tau", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "status=extremal rho=12.006444912 threshold=12.006444912"
        )
        assert lines[1] == "witness cut: 0 (components=2)"

    def test_below_json(self, capsys, graph_file):
        code = run(["verify", "--in", graph_file(cycle(14)), "--theorem",
                    "tough-int", "--n", "14", "--tau", "2", "--json"])
        assert code == 0
        payload = canonical_json(capsys.readouterr().out)
        assert payload["status"] == "below"
        assert payload["witness"] is None
        assert payload["rho"] == pytest.approx(2.0, abs=1e-8)

    def test_order_mismatch_exits_one(self, capsys, graph_file):
        code = run(["verify", "--in", graph_file(cycle(10)), "--theorem",
                    "tough-int", "--n", "14", "--tau", "2"])
        assert code == 1
        assert "order" in capsys.readouterr().err

    def test_order_defaults_to_graph(self, capsys, graph_file):
        target = graph_file(family_graph(FamilySpec.tough_int(14, 2)))
        code = run(["verify", "--in", target, "--theorem", "tough-int",
                    "--tau", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("status=extremal ")

    def test_one_sided_refusal_is_the_tough_commands(self, capsys, graph_file):
        # the extremal bip-frac graph on 46 vertices reaches the one-sided
        # scan, whose sides of 23 are over the cap
        target = graph_file(family_graph(FamilySpec.bip_frac(46, 2)))
        refusals = []
        for argv in (["verify", "--in", target, "--theorem", "bip-frac", "--r-inv", "2"],
                     ["tough", "--in", target, "--kind", "bipartite-variation"]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            refusals.append(captured.err)
        assert refusals == [
            "error: cut enumeration over a side of at least 23 vertices exceeds "
            "the cap of 22 (2^n subsets)\n"] * 2

    def test_bip_int_counterexample_exits_two(self, capsys, graph_file):
        # candidate B of bip-int (22, 2) plus the cross edge (11, 21); see
        # test_verify's test_candidate_b_plus_a_cross_edge_is_a_bip_int_counterexample
        target = graph_file(split_join(1, 10, 10, 1).with_edges([(11, 21)]))
        code = run(["verify", "--in", target, "--theorem", "bip-int", "--n", "22", "--r", "2"])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "status=counterexample rho=10.505670320 threshold=10.492457578",
            "witness cut: 1 2 3 4 5 6 7 8 9 10 (components=10)",
        ]

    def test_counterexample_exits_two(self, capsys, monkeypatch, graph_file):
        verdict = Verdict(VerdictStatus.COUNTEREXAMPLE, 3.0, 2.5,
                          CutWitness(frozenset({1}), 3, Fraction(1, 2)))
        monkeypatch.setattr(
            "toughspec.cli.check_graph_against_theorem", lambda *a, **k: verdict
        )
        code = run(["verify", "--in", graph_file(cycle(14)), "--theorem",
                    "tough-int", "--n", "14", "--tau", "2"])
        assert code == 2
        assert "status=counterexample" in capsys.readouterr().out


class TestSearch:
    def test_summary_line(self, capsys):
        code = run(["search", "--theorem", "tough-int", "--n", "14", "--tau", "2",
                    "--samples", "8", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        match = re.fullmatch(
            r"checked=8 below=(\d+) tough=(\d+) extremal=(\d+) counterexamples=0\n",
            out,
        )
        assert match is not None
        assert sum(int(match.group(i)) for i in (1, 2, 3)) == 8

    def test_json_repeats_byte_identical(self, capsys):
        argv = ["search", "--theorem", "bip-frac", "--n", "16", "--r-inv", "2",
                "--samples", "6", "--seed", "11", "--json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = canonical_json(first)
        assert payload["seed"] == 11
        assert payload["checked"] == 6

    def test_counterexamples_exit_two(self, capsys, monkeypatch):
        g = cycle(6)
        verdict = Verdict(VerdictStatus.COUNTEREXAMPLE, 2.0, 1.0, None)
        report = SearchReport(
            theorem=TheoremId(Theorem.TOUGH_INT, 14, tau=2),
            seed=0,
            checked=1,
            counterexamples=[CounterexampleRecord(g, verdict)],
        )
        monkeypatch.setattr(
            "toughspec.cli.search_counterexamples", lambda *a, **k: report
        )
        code = run(["search", "--theorem", "tough-int", "--n", "14", "--tau", "2"])
        assert code == 2
        assert "counterexamples=1" in capsys.readouterr().out


class TestRemark:
    EXPECTED_ROWS = [
        ["3", "38", "18.472360", "18.498963", "B"],
        ["10", "270", "134.458545", "134.501302", "B"],
        ["10", "402", "200.811532", "200.500382", "A"],
    ]

    def test_table(self, capsys):
        assert run(["remark"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["r", "n", "rho_a", "rho_b", "winner"]
        assert [line.split() for line in lines[1:]] == self.EXPECTED_ROWS

    def test_json(self, capsys):
        assert run(["remark", "--json"]) == 0
        payload = canonical_json(capsys.readouterr().out)
        assert [row["winner"] for row in payload["rows"]] == ["B", "B", "A"]
        assert payload["rows"][0]["rho_b"] == pytest.approx(18.499, abs=0.005)

    def test_repeat_is_byte_identical(self, capsys):
        assert run(["remark"]) == 0
        first = capsys.readouterr().out
        assert run(["remark"]) == 0
        assert first == capsys.readouterr().out


def json_float_texts(captured: str) -> list[str]:
    """Every float in captured json, exactly as printed."""
    texts = []
    json.loads(captured, parse_float=lambda text: texts.append(text) or float(text))
    return texts


class TestNumberFormat:
    """One number formatter: 9 decimals, no negative zero, text and json agree."""

    @staticmethod
    def argv(command, graph_file):
        if command == "rho":
            return ["rho", "--family", "bip-frac", "--n", "16", "--r-inv", "2"]
        if command == "spectrum":
            return ["spectrum", "--in", graph_file(complete_bipartite(3, 3))]
        if command == "bounds":
            return ["bounds", "--in", graph_file(cycle(6))]
        if command == "brouwer":
            return ["brouwer", "--in", graph_file(petersen())]
        if command == "verify":
            target = graph_file(family_graph(FamilySpec.tough_int(14, 2)))
            return ["verify", "--in", target, "--theorem", "tough-int", "--tau", "2"]
        if command == "search":
            return ["search", "--theorem", "tough-int", "--n", "14", "--tau", "2"]
        return [command]

    def test_negative_zero_renders_as_zero(self):
        assert f"{_num(-5e-16):.9f}" == "0.000000000"
        assert math.copysign(1.0, _num(-5e-16)) == 1.0
        assert _num(12.006444911678292) == 12.006444912

    @pytest.mark.parametrize("command", [
        "rho", "spectrum", "bounds", "brouwer", "verify", "search", "remark",
    ])
    def test_json_floats_have_at_most_nine_decimals(
        self, command, capsys, graph_file, monkeypatch
    ):
        if command == "search":  # a real search finds no counterexample to print
            verdict = Verdict(VerdictStatus.COUNTEREXAMPLE, 3.0000000000000004,
                              2.4999999999990000, None)
            report = SearchReport(
                theorem=TheoremId(Theorem.TOUGH_INT, 14, tau=2), seed=0, checked=1,
                counterexamples=[CounterexampleRecord(cycle(6), verdict)],
            )
            monkeypatch.setattr(
                "toughspec.cli.search_counterexamples", lambda *a, **k: report
            )
        assert run(self.argv(command, graph_file) + ["--json"]) in (0, 2)
        texts = json_float_texts(capsys.readouterr().out)
        assert texts
        for text in texts:
            assert text != "-0.0"
            assert Decimal(text).as_tuple().exponent >= -9, text

    # text field -> (json field, text format), per line and json entry
    FIELDS = {
        "bounds": {"rho": ("rho", ".9f"), "bound": ("value", ".9f"),
                   "slack": ("slack", ".3e")},
        "brouwer": {"lambda": ("lambda", ".9f"), "margin": ("margin", ".9f")},
        "verify": {"rho": ("rho", ".9f"), "threshold": ("threshold", ".9f")},
    }

    @pytest.mark.parametrize("command", ["rho", "bounds", "brouwer", "verify", "remark"])
    def test_text_numbers_are_json_numbers_at_text_precision(
        self, command, capsys, graph_file
    ):
        argv = self.argv(command, graph_file)
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert run(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        if command == "rho":
            pairs = [(text.strip(), payload["rho"], ".9f")]
        elif command == "remark":
            rows = [line.split() for line in text.splitlines()[1:]]
            pairs = [(row[column], entry[key], ".6f")
                     for row, entry in zip(rows, payload["rows"])
                     for column, key in ((2, "rho_a"), (3, "rho_b"))]
        else:
            entries = payload if isinstance(payload, list) else [payload]
            pairs = []
            for line, entry in zip(text.splitlines(), entries):
                fields = dict(re.findall(r"(\w+)=(\S+)", line))
                pairs += [(fields[name], entry[key], spec)
                          for name, (key, spec) in self.FIELDS[command].items()]
        assert len(pairs) >= 2 or command == "rho"
        for printed, value, spec in pairs:
            assert printed == format(value, spec)


class TestUsageAndErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_integer_flag(self, capsys):
        assert run(["rho", "--family", "tough-int", "--n", "forty", "--tau", "2"]) == 1

    def test_family_without_n_exits_one(self, capsys):
        assert run(["rho", "--family", "tough-int", "--tau", "2"]) == 1
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-10", "abc"])
    @pytest.mark.parametrize("command", ["rho", "remark"])
    def test_tolerance_must_be_positive_and_finite(self, command, tol, capsys):
        # no --tol value is accepted: the tolerance is the fixed spectra.RADIUS_TOL
        family = ["--family", "tough-int", "--n", "14", "--tau", "2"]
        args = [command] + (family if command == "rho" else []) + ["--tol", tol]
        assert run(args) == 1
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [command.name for command in COMMANDS])
    def test_no_tolerance_or_cap_flag(self, command, capsys):
        # the radius tolerance and the cut cap are fixed limits, not options
        family = ["--family", "tough-int", "--n", "14", "--tau", "2"]
        required = {
            "rho": family,
            "spectrum": family,
            "construct": family,
            "lemma": ["--lemma", "bipartite-monotone", "--n", "12", "--s", "1"],
            "rotate": ["--in", "g.txt", "--s1", "0", "--s2", "1", "--t", "2"],
            "verify": ["--in", "g.txt", "--theorem", "tough-int", "--tau", "2"],
            "search": ["--theorem", "tough-int", "--n", "8", "--tau", "2"],
            "remark": [],
        }.get(command, ["--in", "g.txt"])
        for flag in ("--tol", "--cap"):
            assert run([command, *required, flag, "1"]) == 1
            assert flag in capsys.readouterr().err

    def test_search_without_n_exits_one(self, capsys):
        assert run(["search", "--theorem", "tough-int", "--tau", "2",
                    "--samples", "2"]) == 1
        assert "--n" in capsys.readouterr().err

    def test_missing_input_file(self, capsys, tmp_path):
        assert run(["rho", "--in", str(tmp_path / "absent.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_text(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 5", encoding="ascii")
        assert run(["rho", "--in", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:")
        assert command in out

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in SUBCOMMANDS:
            assert command in text


class TestParserReuse:
    """``build_parser`` is cached, so one parser serves every ``run`` call in a
    process; parsing must leave nothing behind that a later call could see."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_repeated_runs_match_a_fresh_parser(self, capsys, graph_file, monkeypatch):
        g = graph_file(petersen())
        calls = (
            ["tough", "--in", g, "--kind", "toughness", "--json"],
            ["tough", "--in", g],  # --kind and --json back at their defaults
            ["search", "--theorem", "tough-int", "--n", "14", "--tau", "2", "--samples", "5"],
            ["bogus"], ["tough", "--in", g, "--kind", "bogus"], ["rho", "--n", "x"],
            ["--help"], ["tough", "--help"],
        )

        def outputs(order):
            seen = {}
            for argv in order:
                try:
                    code = run(argv)
                except SystemExit as exc:  # --help
                    code = ("exit", exc.code)
                seen[tuple(argv)] = (code, *capsys.readouterr())
            return seen

        cached = outputs(calls)
        assert [cached[tuple(argv)][0] for argv in calls] == [0, 0, 0, 1, 1, 1,
                                                               ("exit", 0), ("exit", 0)]
        assert outputs(calls[::-1]) == cached
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert outputs(calls) == cached


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "toughspec.cli",
             "rho", "--family", "tough-int", "--n", "14", "--tau", "2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == "12.006444912\n"


class TestByteRecordDiff:
    def test_lists_each_invocation_that_differs(self, tmp_path, capsys):
        import cli_bytes

        old = {"rho --in a.txt": [0, "2.0\n", ""], "rho --in a.txt --json": [0, "{}\n", ""],
               "tough --in a.txt": [1, "", "error: x\n"], "gone": [0, "", ""]}
        new = {"rho --in a.txt": [0, "2.0\n", ""], "rho --in a.txt --json": [0, "{ }\n", ""],
               "tough --in a.txt": [0, "", "error: x\n"], "added": [0, "", ""]}
        paths = []
        for name, record in (("old.json", old), ("new.json", new)):
            paths.append(str(tmp_path / name))
            (tmp_path / name).write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            cli_bytes.main(["cli_bytes.py", "--diff", *paths])
        assert exit_.value.code == 1
        assert capsys.readouterr().out.splitlines() == [
            "rho --in a.txt --json", "tough --in a.txt", "gone", "added"]
        with pytest.raises(SystemExit) as exit_:
            cli_bytes.main(["cli_bytes.py", "--diff", paths[0], paths[0]])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == ""
