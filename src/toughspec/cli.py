"""Command line interface.

Exit codes: 0 success, 1 usage or input error, 2 mathematical finding (a
failed inequality, nonpositive margin, or counterexample).  All output is
deterministic: identical invocations, including --seed, print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .bounds import Bound, brouwer_margin, check_bound
from .families import Family, FamilySpec, build_family
from .graphio import GraphFormat, parse_graph, serialize_graph
from .graphs import Bipartite, Graph, bipartition_of
from .lemmas import Lemma, check_lemma_comparison, rotation_experiment
from .spectra import full_spectrum, spectral_radius
from .toughness import (
    ENUMERATION_CAP,
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
    threshold,
    witness_json,
)

SLACK_FLOOR = -1e-8


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _ratio_str(value) -> str:
    return "inf" if value == INFINITE else str(Fraction(value))


def _read_graph(ns) -> Graph:
    if ns.infile == "-":
        text = sys.stdin.read()
    else:
        with open(ns.infile, "r", encoding="ascii") as handle:
            text = handle.read()
    return parse_graph(text, GraphFormat(ns.format))


def _graph_source(ns) -> Graph:
    if getattr(ns, "family", None) is not None:
        built = build_family(_family_spec(ns))
        return built.graph if isinstance(built, Bipartite) else built
    if getattr(ns, "infile", None) is None:
        raise UsageError("provide --in FILE or a --family construction")
    return _read_graph(ns)


def _family_spec(ns) -> FamilySpec:
    if ns.n is None:
        raise UsageError("--n is required with --family")
    return FamilySpec(
        Family(ns.family),
        ns.n,
        tau=ns.tau,
        tau_inv=ns.tau_inv,
        delta=ns.delta,
        r=ns.r,
        r_inv=ns.r_inv,
    )


def _theorem_id(ns, default_n: int | None = None) -> TheoremId:
    n = ns.n if ns.n is not None else default_n
    if n is None:
        raise UsageError("--n is required with --theorem")
    return TheoremId(
        Theorem(ns.theorem),
        n,
        tau=ns.tau,
        tau_inv=ns.tau_inv,
        delta=ns.delta,
        r=ns.r,
        r_inv=ns.r_inv,
    )


def _add_io_flags(sp, required=True):
    sp.add_argument("--in", dest="infile", required=required, metavar="FILE",
                    help="input graph file, or - for stdin")
    sp.add_argument("--format", default="edge-list",
                    choices=[f.value for f in GraphFormat],
                    help="graph text format (default edge-list)")


def _add_param_flags(sp):
    sp.add_argument("--n", type=int, help="graph order")
    sp.add_argument("--tau", type=int, help="integer toughness level")
    sp.add_argument("--tau-inv", type=int, dest="tau_inv",
                    help="b for toughness level 1/b")
    sp.add_argument("--delta", type=int, help="required minimum degree")
    sp.add_argument("--r", type=int, help="integer one-sided toughness level")
    sp.add_argument("--r-inv", type=int, dest="r_inv",
                    help="b for one-sided toughness level 1/b")


def _add_json_flag(sp):
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _add_tol_flag(sp):
    sp.add_argument("--tol", type=_tolerance, default=1e-10,
                    help="power iteration residual tolerance")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rho(ns) -> int:
    g = _graph_source(ns)
    result = spectral_radius(g, tol=ns.tol)
    if ns.json:
        _emit_json({
            "rho": result.radius,
            "iterations": result.iterations,
            "residual": result.residual,
        })
    else:
        print(f"{result.radius:.9f}")
    return 0


def cmd_spectrum(ns) -> int:
    g = _graph_source(ns)
    spectrum = full_spectrum(g)
    if ns.json:
        _emit_json({"spectrum": spectrum})
    else:
        for value in spectrum:
            print(f"{value:.9f}")
    return 0


def cmd_tough(ns) -> int:
    g = _read_graph(ns)
    kind = ns.kind
    if kind == "toughness":
        value, witness = toughness(g, cap=ns.cap)
    elif kind == "variation":
        value, witness = variation_toughness(
            g, cap=ns.cap, divisible_only=ns.divisible_only
        )
    else:
        sides = bipartition_of(g)
        if sides is None:
            raise UsageError("one-sided toughness needs a bipartite graph")
        tk = (ToughnessKind.TOUGHNESS if kind == "bipartite-toughness"
              else ToughnessKind.VARIATION)
        value, witness = bipartite_toughness(g, sides, tk, cap=ns.cap)
    if ns.json:
        _emit_json({"kind": kind, "value": _ratio_str(value),
                    "witness": witness_json(witness)})
    else:
        print(f"{kind} = {_ratio_str(value)}")
        if witness is not None:
            cut = " ".join(str(v) for v in sorted(witness.cut))
            side = f" side={witness.side}" if witness.side else ""
            print(f"cut: {cut}")
            print(f"components: {witness.components}{side}")
    return 0


def cmd_construct(ns) -> int:
    built = build_family(_family_spec(ns))
    g = built.graph if isinstance(built, Bipartite) else built
    print(serialize_graph(g, GraphFormat(ns.format)))
    return 0


def cmd_bounds(ns) -> int:
    g = _read_graph(ns)
    names = [Bound(ns.bound)] if ns.bound != "all" else list(Bound)
    reports = [check_bound(g, bound, tol=ns.tol) for bound in names]
    if ns.json:
        _emit_json([
            {
                "bound": rep.bound.value,
                "rho": rep.lhs,
                "value": rep.rhs,
                "slack": rep.slack,
                "equality_case": rep.equality_case,
            }
            for rep in reports
        ])
    else:
        for rep in reports:
            print(
                f"{rep.bound.value}: rho={rep.lhs:.9f} bound={rep.rhs:.9f} "
                f"slack={rep.slack:.3e} equality={str(rep.equality_case).lower()}"
            )
    return 2 if any(rep.slack < SLACK_FLOOR for rep in reports) else 0


def cmd_lemma(ns) -> int:
    parts = None
    if ns.parts is not None:
        try:
            parts = tuple(int(x) for x in ns.parts.split(",") if x)
        except ValueError:
            raise UsageError(f"--parts must be comma-separated integers, got {ns.parts!r}")
    report = check_lemma_comparison(
        Lemma(ns.lemma), s=ns.s, p=ns.p, parts=parts, k=ns.k, n=ns.n
    )
    if ns.json:
        _emit_json({
            "lemma": report.lemma.value,
            "params": report.params,
            "rho_left": report.rho_left,
            "rho_right": report.rho_right,
            "holds": report.holds,
        })
    else:
        print(
            f"{report.lemma.value}: rho_left={report.rho_left:.9f} "
            f"rho_right={report.rho_right:.9f} holds={str(report.holds).lower()}"
        )
    return 0 if report.holds else 2


def _vertex_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated vertices, got {text!r}")


def cmd_rotate(ns) -> int:
    g = _read_graph(ns)
    report = rotation_experiment(
        g,
        _vertex_list(ns.s1, "--s1"),
        _vertex_list(ns.s2, "--s2"),
        _vertex_list(ns.t, "--t"),
        tol=ns.tol,
    )
    if ns.json:
        _emit_json({
            "rho_before": report.rho_before,
            "rho_after": report.rho_after,
            "perron_sum_s1": report.perron_sum_s1,
            "perron_sum_s2": report.perron_sum_s2,
        })
    else:
        print(
            f"rho_before={report.rho_before:.9f} rho_after={report.rho_after:.9f} "
            f"sum_s1={report.perron_sum_s1:.9f} sum_s2={report.perron_sum_s2:.9f}"
        )
    gained = report.perron_sum_s1 >= report.perron_sum_s2
    return 2 if gained and report.rho_after <= report.rho_before else 0


def cmd_brouwer(ns) -> int:
    g = _read_graph(ns)
    report = brouwer_margin(g, cap=ns.cap, tol=ns.tol)
    if ns.json:
        _emit_json({
            "t": _ratio_str(report.t),
            "d": report.d,
            "lambda": report.lam,
            "margin": report.margin,
        })
    else:
        print(
            f"t={_ratio_str(report.t)} d={report.d} "
            f"lambda={report.lam:.9f} margin={report.margin:.9f}"
        )
    return 0 if report.margin > 0 else 2


def cmd_verify(ns) -> int:
    g = _read_graph(ns)
    verdict = check_graph_against_theorem(
        g, _theorem_id(ns, default_n=g.n), cap=ns.cap, tol=ns.tol
    )
    if ns.json:
        _emit_json({
            "status": verdict.status.value,
            "rho": verdict.rho,
            "threshold": verdict.threshold,
            "witness": witness_json(verdict.witness),
        })
    else:
        print(
            f"status={verdict.status.value} rho={verdict.rho:.9f} "
            f"threshold={verdict.threshold:.9f}"
        )
        if verdict.witness is not None:
            cut = " ".join(str(v) for v in sorted(verdict.witness.cut))
            print(f"witness cut: {cut} (components={verdict.witness.components})")
    return 2 if verdict.status is VerdictStatus.COUNTEREXAMPLE else 0


def cmd_search(ns) -> int:
    report = search_counterexamples(
        _theorem_id(ns), ns.samples, ns.seed, cap=ns.cap, tol=ns.tol
    )
    if ns.json:
        _emit_json(report.to_json_dict())
    else:
        print(
            f"checked={report.checked} below={report.below} tough={report.tough} "
            f"extremal={report.extremal} counterexamples={len(report.counterexamples)}"
        )
    return 2 if report.counterexamples else 0


def cmd_remark(ns) -> int:
    rows = candidate_comparison(tol=ns.tol)
    if ns.json:
        _emit_json({
            "rows": [
                {"r": row.r, "n": row.n, "rho_a": row.rho_a,
                 "rho_b": row.rho_b, "winner": row.winner}
                for row in rows
            ]
        })
    else:
        print("r    n    rho_a        rho_b        winner")
        for row in rows:
            print(
                f"{row.r:<4d} {row.n:<4d} {row.rho_a:<12.6f} "
                f"{row.rho_b:<12.6f} {row.winner}"
            )
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toughspec",
        description="Graph toughness and spectral-radius toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rho", help="spectral radius of a graph or family")
    _add_io_flags(sp, required=False)
    sp.add_argument("--family", choices=[f.value for f in Family])
    _add_param_flags(sp)
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_rho)

    sp = sub.add_parser("spectrum", help="all adjacency eigenvalues, descending")
    _add_io_flags(sp, required=False)
    sp.add_argument("--family", choices=[f.value for f in Family])
    _add_param_flags(sp)
    _add_json_flag(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("tough", help="exact toughness with a witness cut")
    _add_io_flags(sp)
    sp.add_argument("--kind", default="variation",
                    choices=["toughness", "variation",
                             "bipartite-toughness", "bipartite-variation"])
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP, help="enumeration size cap")
    sp.add_argument("--divisible-only", action="store_true", dest="divisible_only",
                    help="restrict variation cuts to divisibility-compatible ones")
    _add_json_flag(sp)
    sp.set_defaults(func=cmd_tough)

    sp = sub.add_parser("construct", help="build an extremal family graph")
    sp.add_argument("--family", required=True, choices=[f.value for f in Family])
    _add_param_flags(sp)
    sp.add_argument("--format", default="edge-list",
                    choices=[f.value for f in GraphFormat])
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("bounds", help="spectral upper bounds and slack")
    _add_io_flags(sp)
    sp.add_argument("--bound", default="all",
                    choices=[b.value for b in Bound] + ["all"])
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("lemma", help="strict spectral comparison between families")
    sp.add_argument("--lemma", required=True, choices=[l.value for l in Lemma])
    sp.add_argument("--s", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--parts", help="comma-separated clique sizes")
    sp.add_argument("--k", type=int)
    sp.add_argument("--n", type=int)
    _add_json_flag(sp)
    sp.set_defaults(func=cmd_lemma)

    sp = sub.add_parser("rotate", help="Perron-weighted edge rotation experiment")
    _add_io_flags(sp)
    sp.add_argument("--s1", required=True, help="gaining vertex set, comma-separated")
    sp.add_argument("--s2", required=True, help="losing vertex set, comma-separated")
    sp.add_argument("--t", required=True, help="pivot vertex set, comma-separated")
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_rotate)

    sp = sub.add_parser("brouwer", help="regular-graph toughness margin t - (d/lambda - 1)")
    _add_io_flags(sp)
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_brouwer)

    sp = sub.add_parser("verify", help="classify a graph under a theorem")
    _add_io_flags(sp)
    sp.add_argument("--theorem", required=True, choices=[t.value for t in Theorem])
    _add_param_flags(sp)
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("search", help="randomized counterexample search")
    sp.add_argument("--theorem", required=True, choices=[t.value for t in Theorem])
    _add_param_flags(sp)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser(
        "remark",
        help="radii of both indivisible-case candidates at the published sizes",
    )
    _add_json_flag(sp)
    _add_tol_flag(sp)
    sp.set_defaults(func=cmd_remark)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
