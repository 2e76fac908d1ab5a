"""Command line interface.

Exit codes: 0 success, 1 usage or input error, 2 mathematical finding (a
failed inequality, nonpositive margin, or counterexample).  All output is
deterministic: identical invocations, including --seed, print identical bytes.

Every subcommand is one row of ``COMMANDS`` and returns ``(exit code, JSON
payload, text lines)``; ``run`` is the only function that prints.  An input the
library refuses raises ValueError where it is computed, so every subcommand
that reaches the same function prints the same ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Callable, NamedTuple

from .bounds import Bound, brouwer_margin, check_all_bounds, check_bound
from .families import Family, FamilySpec, family_graph
from .graphio import GraphFormat, parse_graph, serialize_graph
from .graphs import Graph
from .lemmas import Lemma, check_lemma_comparison, rotation_experiment
from .spectra import full_spectrum, spectral_radius
from .toughness import (
    INFINITE,
    ToughnessKind,
    bipartite_toughness,
    toughness,
    variation_toughness,
)
from .verify import (
    Theorem,
    TheoremId,
    VerdictStatus,
    candidate_comparison,
    check_graph_against_theorem,
    search_counterexamples,
    witness_json,
)

SLACK_FLOOR = -1e-8

# the level parameters shared by FamilySpec and TheoremId, with their flag help
LEVEL_PARAMS = (
    ("tau", "integer toughness level"),
    ("tau_inv", "b for toughness level 1/b"),
    ("delta", "required minimum degree"),
    ("r", "integer one-sided toughness level"),
    ("r_inv", "b for one-sided toughness level 1/b"),
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _num(x: float) -> float:
    """The one float formatter: 9 decimals, and no negative zero."""
    return round(float(x), 9) + 0.0


def _rounded(payload):
    if isinstance(payload, float):
        return _num(payload)
    if isinstance(payload, dict):
        return {key: _rounded(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_rounded(value) for value in payload]
    return payload


def _ratio_str(value) -> str:
    return "inf" if value == INFINITE else str(Fraction(value))


def _cut_str(witness) -> str:
    return " ".join(str(v) for v in sorted(witness.cut))


def _levels(ns) -> dict:
    return {name: getattr(ns, name) for name, _ in LEVEL_PARAMS}


def _graph(ns) -> Graph:
    if getattr(ns, "family", None) is not None:
        return family_graph(_family_spec(ns))
    if ns.infile is None:
        raise UsageError("provide --in FILE or a --family construction")
    if ns.infile == "-":
        text = sys.stdin.read()
    else:
        with open(ns.infile, "r", encoding="ascii") as handle:
            text = handle.read()
    return parse_graph(text, GraphFormat(ns.format))


def _family_spec(ns) -> FamilySpec:
    if ns.n is None:
        raise UsageError("--n is required with --family")
    return FamilySpec(Family(ns.family), ns.n, **_levels(ns))


def _theorem_id(ns, default_n: int | None = None) -> TheoremId:
    n = ns.n if ns.n is not None else default_n
    if n is None:
        raise UsageError("--n is required with --theorem")
    return TheoremId(Theorem(ns.theorem), n, **_levels(ns))


def _int_list(text: str, flag: str, items: str = "vertices") -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated {items}, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, JSON payload, text lines)
# ---------------------------------------------------------------------------


def cmd_rho(ns):
    radius = spectral_radius(_graph(ns)).radius
    return 0, {"rho": radius}, [f"{_num(radius):.9f}"]


def cmd_spectrum(ns):
    spectrum = full_spectrum(_graph(ns))
    return 0, {"spectrum": spectrum}, [f"{_num(value):.9f}" for value in spectrum]


def cmd_tough(ns):
    g = _graph(ns)
    if ns.kind == "toughness":
        value, witness = toughness(g)
    elif ns.kind == "variation":
        value, witness = variation_toughness(g)
    else:
        value, witness = bipartite_toughness(g, ToughnessKind(ns.kind.removeprefix("bipartite-")))
    lines = [f"{ns.kind} = {_ratio_str(value)}"]
    if witness is not None:
        side = f" side={witness.side}" if witness.side else ""
        lines += [f"cut: {_cut_str(witness)}", f"components: {witness.components}{side}"]
    return 0, {"kind": ns.kind, "value": _ratio_str(value),
               "witness": witness_json(witness)}, lines


def cmd_construct(ns):
    return 0, None, [serialize_graph(family_graph(_family_spec(ns)), GraphFormat(ns.format))]


def cmd_bounds(ns):
    g = _graph(ns)
    reports = check_all_bounds(g) if ns.bound == "all" else [check_bound(g, ns.bound)]
    payload = [
        {
            "bound": rep.bound.value,
            "rho": rep.lhs,
            "value": rep.rhs,
            "slack": rep.slack,
            "equality_case": rep.equality_case,
        }
        for rep in reports
    ]
    lines = [
        f"{rep.bound.value}: rho={_num(rep.lhs):.9f} bound={_num(rep.rhs):.9f} "
        f"slack={_num(rep.slack):.3e} equality={str(rep.equality_case).lower()}"
        for rep in reports
    ]
    return (2 if any(rep.slack < SLACK_FLOOR for rep in reports) else 0), payload, lines


def cmd_lemma(ns):
    parts = None if ns.parts is None else tuple(_int_list(ns.parts, "--parts", "integers"))
    report = check_lemma_comparison(
        Lemma(ns.lemma), s=ns.s, p=ns.p, parts=parts, k=ns.k, n=ns.n
    )
    payload = {
        "lemma": report.lemma.value,
        "params": report.params,
        "rho_left": report.rho_left,
        "rho_right": report.rho_right,
        "holds": report.holds,
    }
    line = (
        f"{report.lemma.value}: rho_left={_num(report.rho_left):.9f} "
        f"rho_right={_num(report.rho_right):.9f} holds={str(report.holds).lower()}"
    )
    return (0 if report.holds else 2), payload, [line]


def cmd_rotate(ns):
    report = rotation_experiment(
        _graph(ns),
        _int_list(ns.s1, "--s1"),
        _int_list(ns.s2, "--s2"),
        _int_list(ns.t, "--t"),
    )
    line = (
        f"rho_before={_num(report.rho_before):.9f} rho_after={_num(report.rho_after):.9f} "
        f"sum_s1={_num(report.perron_sum_s1):.9f} sum_s2={_num(report.perron_sum_s2):.9f}"
    )
    gained = report.perron_sum_s1 >= report.perron_sum_s2
    return (2 if gained and report.rho_after <= report.rho_before else 0), asdict(report), [line]


def cmd_brouwer(ns):
    report = brouwer_margin(_graph(ns))
    t = _ratio_str(report.t)
    payload = {"t": t, "d": report.d, "lambda": report.lam, "margin": report.margin}
    line = f"t={t} d={report.d} lambda={_num(report.lam):.9f} margin={_num(report.margin):.9f}"
    return (0 if report.margin > 0 else 2), payload, [line]


def cmd_verify(ns):
    g = _graph(ns)
    verdict = check_graph_against_theorem(g, _theorem_id(ns, default_n=g.n))
    payload = {
        "status": verdict.status.value,
        "rho": verdict.rho,
        "threshold": verdict.threshold,
        "witness": witness_json(verdict.witness),
    }
    lines = [
        f"status={verdict.status.value} rho={_num(verdict.rho):.9f} "
        f"threshold={_num(verdict.threshold):.9f}"
    ]
    if verdict.witness is not None:
        lines.append(
            f"witness cut: {_cut_str(verdict.witness)} "
            f"(components={verdict.witness.components})"
        )
    return (2 if verdict.status is VerdictStatus.COUNTEREXAMPLE else 0), payload, lines


def cmd_search(ns):
    report = search_counterexamples(_theorem_id(ns), ns.samples, ns.seed)
    line = (
        f"checked={report.checked} below={report.below} tough={report.tough} "
        f"extremal={report.extremal} counterexamples={len(report.counterexamples)}"
    )
    return (2 if report.counterexamples else 0), report.to_json_dict(), [line]


def cmd_remark(ns):
    rows = candidate_comparison()
    lines = ["r    n    rho_a        rho_b        winner"] + [
        f"{row.r:<4d} {row.n:<4d} {_num(row.rho_a):<12.6f} "
        f"{_num(row.rho_b):<12.6f} {row.winner}"
        for row in rows
    ]
    return 0, {"rows": [asdict(row) for row in rows]}, lines


# ---------------------------------------------------------------------------
# parser table
# ---------------------------------------------------------------------------


def _arg(*names, **options):
    return names, options


_FAMILIES = [f.value for f in Family]
_THEOREM = _arg("--theorem", required=True, choices=[t.value for t in Theorem])
_IN_HELP = "input graph file, or - for stdin"
_FORMAT_ARGS = dict(default="edge-list", choices=[f.value for f in GraphFormat])
_FORMAT = _arg("--format", **_FORMAT_ARGS, help="graph text format (default edge-list)")

# graph input: --in required, --in or --family, or none
SOURCES = {
    "in": (_arg("--in", dest="infile", required=True, metavar="FILE", help=_IN_HELP),
           _FORMAT),
    "in-or-family": (_arg("--in", dest="infile", metavar="FILE", help=_IN_HELP),
                     _FORMAT, _arg("--family", choices=_FAMILIES)),
    None: (),
}

# shared flag groups, added after a command's own flags in this order
GROUPS = {
    "params": (_arg("--n", type=int, help="graph order"),)
    + tuple(_arg("--" + name.replace("_", "-"), type=int, help=text)
            for name, text in LEVEL_PARAMS),
    "format": (_arg("--format", **_FORMAT_ARGS),),  # construct's, without help text
    "samples": (_arg("--samples", type=int, default=100), _arg("--seed", type=int, default=0)),
    "json": (_arg("--json", action="store_true", help="machine-readable output"),),
}


class Command(NamedTuple):
    name: str
    handler: Callable
    help: str
    source: str | None = None
    flags: tuple = ()  # the subcommand's own flags, added after its graph input
    groups: tuple[str, ...] = ()


COMMANDS = (
    Command("rho", cmd_rho, "spectral radius of a graph or family",
            "in-or-family", groups=("params", "json")),
    Command("spectrum", cmd_spectrum, "all adjacency eigenvalues, descending",
            "in-or-family", groups=("params", "json")),
    Command("tough", cmd_tough, "exact toughness with a witness cut", "in", (
        _arg("--kind", default="variation", choices=[
            "toughness", "variation", "bipartite-toughness", "bipartite-variation"]),
    ), ("json",)),
    Command("construct", cmd_construct, "build an extremal family graph", None,
            (_arg("--family", required=True, choices=_FAMILIES),), ("params", "format")),
    Command("bounds", cmd_bounds, "spectral upper bounds and slack", "in",
            (_arg("--bound", default="all", choices=[b.value for b in Bound] + ["all"]),),
            ("json",)),
    Command("lemma", cmd_lemma, "strict spectral comparison between families", None, (
        _arg("--lemma", required=True, choices=[lemma.value for lemma in Lemma]),
        _arg("--s", type=int),
        _arg("--p", type=int),
        _arg("--parts", help="comma-separated clique sizes"),
        _arg("--k", type=int),
        _arg("--n", type=int),
    ), ("json",)),
    Command("rotate", cmd_rotate, "Perron-weighted edge rotation experiment", "in", (
        _arg("--s1", required=True, help="gaining vertex set, comma-separated"),
        _arg("--s2", required=True, help="losing vertex set, comma-separated"),
        _arg("--t", required=True, help="pivot vertex set, comma-separated"),
    ), ("json",)),
    Command("brouwer", cmd_brouwer, "regular-graph toughness margin t - (d/lambda - 1)",
            "in", groups=("json",)),
    Command("verify", cmd_verify, "classify a graph under a theorem", "in",
            (_THEOREM,), ("params", "json")),
    Command("search", cmd_search, "randomized counterexample search", None,
            (_THEOREM,), ("params", "samples", "json")),
    Command("remark", cmd_remark,
            "radii of both indivisible-case candidates at the published sizes",
            groups=("json",)),
)


@functools.cache  # built once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toughspec",
        description="Graph toughness and spectral-radius toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command.name, help=command.help)
        shared = tuple(arg for group, args in GROUPS.items() if group in command.groups
                       for arg in args)
        for names, options in SOURCES[command.source] + command.flags + shared:
            sp.add_argument(*names, **options)
        sp.set_defaults(func=command.handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        code, payload, lines = ns.func(ns)
        if getattr(ns, "json", False):
            print(json.dumps(_rounded(payload), indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        return code
    except (UsageError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
