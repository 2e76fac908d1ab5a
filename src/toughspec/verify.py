"""Executable verification of the spectral toughness theorems.

Each theorem says: among connected graphs meeting its side conditions, any
graph whose spectral radius reaches the radius of the extremal family is
either suitably tough or is the extremal family graph itself.  The checker
classifies an input graph into exactly one of four verdicts, and the searcher
runs it over seeded random graph streams, reporting a histogram and any
counterexamples (a counterexample would disprove the theorem).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .families import FamilySpec, family_graph, matches_family
from .graphio import serialize_graph
from .graphs import Graph, _members, bipartition_of
from .randoms import gnp, balanced_bipartite_gnp, sample_seed
from .spectra import spectral_radius
from .toughness import (
    CutWitness,
    ToughnessKind,
    bipartite_toughness,
    is_tau_tough,
)

RHO_THRESHOLD_TOL = 1e-8  # |rho - threshold| below this counts as at-threshold


class Theorem(str, Enum):
    TOUGH_INT = "tough-int"  # integer tau >= 2, variation toughness
    TOUGH_FRAC_MINDEG = "tough-frac"  # tau = 1/b with minimum-degree side condition
    BIP_INT = "bip-int"  # integer r >= 2, one-sided variation toughness
    BIP_FRAC = "bip-frac"  # r = 1/b, one-sided variation toughness


@dataclass(frozen=True)
class TheoremId:
    """A theorem name with its parameters; hashable so thresholds can cache."""

    theorem: Theorem
    n: int
    tau: int | None = None
    tau_inv: int | None = None
    delta: int | None = None
    r: int | None = None
    r_inv: int | None = None

    def validate(self) -> None:
        for spec in self.family_specs():
            spec.validate()

    def family_specs(self) -> tuple[FamilySpec, ...]:
        """Candidate extremal families (two only for the indivisible case)."""
        t, n = self.theorem, self.n
        if t is Theorem.TOUGH_INT:
            if self.tau is None:
                raise ValueError("tough-int needs tau")
            return (FamilySpec.tough_int(n, self.tau),)
        if t is Theorem.TOUGH_FRAC_MINDEG:
            if self.tau_inv is None or self.delta is None:
                raise ValueError("tough-frac needs tau_inv and delta")
            return (FamilySpec.tough_frac_delta(n, self.tau_inv, self.delta),)
        if t is Theorem.BIP_INT:
            if self.r is None:
                raise ValueError("bip-int needs r")
            if n % max(2 * self.r, 1) == 0:
                return (FamilySpec.bip_int_div(n, self.r),)
            return (
                FamilySpec.bip_int_nondiv_a(n, self.r),
                FamilySpec.bip_int_nondiv_b(n, self.r),
            )
        if self.r_inv is None:
            raise ValueError("bip-frac needs r_inv")
        return (FamilySpec.bip_frac(n, self.r_inv),)

    def required_toughness(self) -> Fraction:
        if self.theorem is Theorem.TOUGH_INT:
            return Fraction(self.tau)
        if self.theorem is Theorem.TOUGH_FRAC_MINDEG:
            return Fraction(1, self.tau_inv)
        if self.theorem is Theorem.BIP_INT:
            return Fraction(self.r)
        return Fraction(1, self.r_inv)

    def params_dict(self) -> dict[str, int]:
        out = {"n": self.n}
        for key in ("tau", "tau_inv", "delta", "r", "r_inv"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


class VerdictStatus(str, Enum):
    BELOW = "below"  # rho below threshold: theorem makes no claim
    TOUGH = "tough"  # rho at/above threshold and toughness conclusion holds
    EXTREMAL = "extremal"  # not tough but isomorphic to the extremal family
    COUNTEREXAMPLE = "counterexample"  # would falsify the theorem


@dataclass
class Verdict:
    status: VerdictStatus
    rho: float
    threshold: float
    witness: CutWitness | None = None


@lru_cache(maxsize=None)
def _threshold_detail(t: TheoremId) -> tuple[float, FamilySpec]:
    t.validate()
    best_rho, best_spec = None, None
    for spec in t.family_specs():
        rho = spectral_radius(family_graph(spec)).radius
        if best_rho is None or rho > best_rho:
            best_rho, best_spec = rho, spec
    return best_rho, best_spec


def threshold(t: TheoremId) -> tuple[float, Graph]:
    """Spectral threshold of a theorem and the extremal graph attaining it."""
    rho, spec = _threshold_detail(t)
    return rho, family_graph(spec)


def check_graph_against_theorem(g: Graph, t: TheoremId) -> Verdict:
    """Classify g under the theorem's trichotomy.

    Side conditions are read off the graph itself: order must match, the
    minimum degree must equal delta for the minimum-degree theorem, and the
    bipartite theorems need a connected balanced bipartite input.
    """
    t.validate()
    if g.n != t.n:
        raise ValueError(f"graph order {g.n} does not match theorem order {t.n}")
    if not g.is_connected():
        raise ValueError("theorem applies to connected graphs")
    if t.theorem is Theorem.TOUGH_FRAC_MINDEG and g.min_degree() != t.delta:
        raise ValueError(
            f"minimum degree {g.min_degree()} does not match delta={t.delta}"
        )
    bipartite = t.theorem in (Theorem.BIP_INT, Theorem.BIP_FRAC)
    if bipartite:
        sides = bipartition_of(g)
        if sides is None:
            raise ValueError("theorem applies to bipartite graphs")
        if not sides.is_balanced():
            raise ValueError("theorem applies to balanced bipartite graphs")
    # the input's radius first, so an over-cap input is refused before the
    # same-order family is built
    rho = spectral_radius(g).radius
    thr, winner_spec = _threshold_detail(t)
    if rho < thr - RHO_THRESHOLD_TOL:
        return Verdict(VerdictStatus.BELOW, rho, thr)
    tau = t.required_toughness()
    if bipartite:
        value, min_witness = bipartite_toughness(g, ToughnessKind.VARIATION)
        tough = value >= tau
        witness = None if tough else min_witness
    else:
        tough, witness = is_tau_tough(g, tau)
    if tough:
        return Verdict(VerdictStatus.TOUGH, rho, thr)
    if matches_family(g, winner_spec):
        return Verdict(VerdictStatus.EXTREMAL, rho, thr, witness)
    return Verdict(VerdictStatus.COUNTEREXAMPLE, rho, thr, witness)


# ---------------------------------------------------------------------------
# published comparison table for the indivisible bipartite case
# ---------------------------------------------------------------------------


@dataclass
class CandidateRow:
    r: int
    n: int
    rho_a: float  # floor-based candidate
    rho_b: float  # single-column candidate
    winner: str  # "A" or "B"


CANDIDATE_TABLE_CASES = ((3, 38), (10, 270), (10, 402))


def candidate_comparison() -> list[CandidateRow]:
    """Radii of both extremal candidates at the published sample sizes.

    Shows that neither candidate dominates: the winner flips as n grows for
    fixed r, which is why the indivisible threshold takes a maximum.
    """
    rows = []
    for r, n in CANDIDATE_TABLE_CASES:
        rho_a = spectral_radius(family_graph(FamilySpec.bip_int_nondiv_a(n, r))).radius
        rho_b = spectral_radius(family_graph(FamilySpec.bip_int_nondiv_b(n, r))).radius
        rows.append(CandidateRow(r, n, rho_a, rho_b, "A" if rho_a > rho_b else "B"))
    return rows


# ---------------------------------------------------------------------------
# randomized counterexample search
# ---------------------------------------------------------------------------


@dataclass
class CounterexampleRecord:
    graph: Graph
    verdict: Verdict


@dataclass
class SearchReport:
    theorem: TheoremId
    seed: int
    checked: int
    below: int = 0
    tough: int = 0
    extremal: int = 0
    counterexamples: list[CounterexampleRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem.theorem.value,
            "params": self.theorem.params_dict(),
            "seed": self.seed,
            "checked": self.checked,
            "histogram": {
                "below": self.below,
                "tough": self.tough,
                "extremal": self.extremal,
                "counterexample": len(self.counterexamples),
            },
            "counterexamples": [
                {
                    "graph": serialize_graph(record.graph),
                    "rho": record.verdict.rho,
                    "threshold": record.verdict.threshold,
                    "witness": witness_json(record.verdict.witness),
                }
                for record in self.counterexamples
            ],
        }


def witness_json(w: CutWitness | None) -> dict | None:
    if w is None:
        return None
    out = {
        "cut": sorted(w.cut),
        "components": w.components,
        "ratio": str(w.ratio),
    }
    if w.side is not None:
        out["side"] = w.side
    return out


_SAMPLER_TRIES = 10_000


def _sample_matching_graph(t: TheoremId, rng: random.Random) -> Graph:
    """One random connected graph satisfying the theorem's side conditions."""
    n = t.n
    bipartite = t.theorem in (Theorem.BIP_INT, Theorem.BIP_FRAC)
    delta = t.delta if t.theorem is Theorem.TOUGH_FRAC_MINDEG else None
    low, high = (0.3, 1.0) if delta is None else (0.35, 0.95)
    for _ in range(_SAMPLER_TRIES):
        p = rng.uniform(low, high)
        g = (balanced_bipartite_gnp if bipartite else gnp)(n, p, rng)
        if not g.is_connected():
            continue
        if delta is None:
            return g
        # condition on minimum degree exactly delta: prune one random vertex
        # of a dense sample down to delta neighbours, then reject failures
        v = rng.randrange(n)
        nbrs = _members(g.masks[v])
        if len(nbrs) < delta:
            continue
        keep = set(rng.sample(nbrs, delta))
        pruned = g.without_edges([(v, w) for w in nbrs if w not in keep])
        if pruned.is_connected() and pruned.min_degree() == delta:
            return pruned
    raise RuntimeError(f"could not sample a graph matching {t} side conditions")


def search_counterexamples(t: TheoremId, samples: int, seed: int) -> SearchReport:
    """Check ``samples`` random side-condition-matching graphs against t.

    Per-sample seeds are split from the master seed by a counter, so reports
    are reproducible and insensitive to sampler retry counts elsewhere.
    """
    t.validate()
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    report = SearchReport(theorem=t, seed=seed, checked=samples)
    for index in range(samples):
        rng = random.Random(sample_seed(seed, index))
        g = _sample_matching_graph(t, rng)
        verdict = check_graph_against_theorem(g, t)
        if verdict.status is VerdictStatus.BELOW:
            report.below += 1
        elif verdict.status is VerdictStatus.TOUGH:
            report.tough += 1
        elif verdict.status is VerdictStatus.EXTREMAL:
            report.extremal += 1
        else:
            report.counterexamples.append(CounterexampleRecord(g, verdict))
    return report
