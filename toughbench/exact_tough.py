"""exact-tough: exact toughness through the CLI, in process.

One operation is one ``toughspec.cli.run([...])`` call with stdout captured:
``tough --json`` of one kind on one graph file, or ``brouwer --json``.  The
files are written before timing, half as edge lists and half as graph6 from
networkx's writer (run in a child process, so that networkx stays out of this
process's peak memory).  The random graphs are drawn once from a fixed pool,
the same in every run; the seed relabels the family graphs and shuffles the
order of the graphs.  A median over graphs drawn anew for each seed, or even
relabelled, moved with the seed by about a tenth: op_p50_ms falls among the
n = 14 G(n, p) queries, whose costs run from about 8 to 60 ms, and a cut
scan counts components from the lowest remaining label, so its cost moves
with the labels.  Every order stays at n <= 20 and no single query takes
more than about a quarter of a second, because one multi-second query would
hold a large share of a round and make op_p90_ms jump with it.  The mix is
set so that each percentile falls inside one group of similar queries: the
n = 16 G(n, p) queries, about a fifth of the operations, set op_p90_ms, and
the n = 14 queries, two fifths, set op_p50_ms.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from toughspec import cli

import oracles

BENCH = Path(__file__).resolve().parent
GENERAL = ("toughness", "variation")
ONE_SIDED = ("bipartite-toughness", "bipartite-variation")
SHIFT = {"toughness": 0, "variation": 1, "bipartite-toughness": 0, "bipartite-variation": 1}
BRUTE_FORCE_MAX_N = 12
AGREE_TOL = 1e-8

# (model, n, parameter, kinds).  The parameter is p for "gnp" and
# "bipartite", d for "regular"; kind "brouwer" is the brouwer subcommand.
RANDOM_GRAPHS = (
    ("gnp", 12, 0.4, GENERAL),
    ("gnp", 12, 0.7, GENERAL),
    *(("gnp", 14, p / 20, GENERAL) for p in range(6, 19)),
    *(("gnp", 16, p / 10, GENERAL) for p in range(3, 10)),
    ("bipartite", 12, 0.5, GENERAL + ONE_SIDED),
    ("bipartite", 14, 0.6, GENERAL + ONE_SIDED),
    ("bipartite", 18, 0.5, ONE_SIDED),
    ("bipartite", 20, 0.4, ONE_SIDED),
    ("regular", 12, 3, ("brouwer",)),
    ("regular", 14, 4, ("brouwer",)),
)
# (family, n, params, kinds, the toughness the family's theorem requires)
FAMILIES = (
    ("tough-int", 14, {"tau": 2}, GENERAL, Fraction(2)),
    ("tough-frac-delta", 16, {"tau_inv": 1, "delta": 2}, GENERAL, Fraction(1)),
    ("tough-frac-delta", 20, {"tau_inv": 2, "delta": 2}, ("variation",), Fraction(1, 2)),
    ("bip-frac", 16, {"r_inv": 2}, ONE_SIDED, Fraction(1, 2)),
    ("bip-frac", 20, {"r_inv": 1}, ("bipartite-variation",), Fraction(1)),
)


class Item(NamedTuple):
    name: str
    n: int
    edges: list
    kinds: tuple
    path: str
    fmt: str
    family: tuple | None  # (shape, blocks, required toughness) for family graphs


def _random_edges(model: str, n: int, param, rng: random.Random):
    """A connected, non-complete graph from the model."""
    while True:
        if model == "gnp":
            edges = oracles.gnp_edges(n, param, rng)
        elif model == "bipartite":
            edges = oracles.bipartite_edges(n, param, rng)
        else:
            edges = _pairing(n, param, rng)
            if edges is None:
                continue
        if oracles.is_connected(n, edges) and len(edges) < n * (n - 1) // 2:
            return edges


def _pairing(n: int, d: int, rng: random.Random):
    """A d-regular simple graph by the pairing model, or None on a clash."""
    points = [v for v in range(n) for _ in range(d)]
    rng.shuffle(points)
    edges = set()
    for k in range(0, len(points), 2):
        u, v = sorted(points[k : k + 2])
        if u == v or (u, v) in edges:
            return None
        edges.add((u, v))
    return sorted(edges)


def _write_edge_list(path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    path.write_text("\n".join(lines) + "\n")


def _write_graph6(jobs) -> None:
    """Write each (path, n, edges) with networkx's graph6 writer in a child
    process, so that networkx is never loaded in the process whose peak
    memory is reported."""
    subprocess.run([sys.executable, "-c", "import sys, oracles; oracles.write_graph6(sys.stdin)"],
                   cwd=BENCH, input=json.dumps(jobs), text=True, check=True, timeout=120)


def program_setup():
    return None


def make_inputs(seed: int, state, workdir):
    """The random graphs come from the fixed pool; the seed relabels the
    family graphs and shuffles the order of the graphs."""
    pool = random.Random(oracles.POOL_SEED)
    rng = random.Random(seed)
    graphs = []
    for model, n, param, kinds in RANDOM_GRAPHS:
        graphs.append((f"{model}(n={n}, {param})", n, _random_edges(model, n, param, pool),
                       kinds, None))
    for family, n, params, kinds, required in FAMILIES:
        shape, blocks = oracles.family_blocks(family, n, **params)
        edges = oracles.relabelled_family_edges(family, n, params, rng)
        graphs.append((f"{family}(n={n}, {params})", n, edges, kinds, (shape, blocks, required)))
    items = []
    graph6_jobs = []
    for index, (name, n, edges, kinds, family) in enumerate(graphs):
        if index % 2:
            fmt, path = "graph6", workdir / f"g{index}.g6"
            graph6_jobs.append((str(path), n, edges))
        else:
            fmt, path = "edge-list", workdir / f"g{index}.txt"
            _write_edge_list(path, n, edges)
        items.append(Item(name, n, edges, kinds, str(path), fmt, family))
    _write_graph6(graph6_jobs)
    rng.shuffle(items)
    return items


def _argv(item: Item, kind: str) -> list[str]:
    if kind == "brouwer":
        return ["brouwer", "--in", item.path, "--format", item.fmt, "--json"]
    return ["tough", "--in", item.path, "--format", item.fmt, "--kind", kind, "--json"]


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def queries(items):
    """(item, kind) in operation order; the same order every round."""
    return [(item, kind) for item in items for kind in item.kinds]


def operations(items, state):
    return [(lambda argv=_argv(item, kind): _call(argv), _digest)
            for item, kind in queries(items)]


def _digest(raw):
    return raw


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def reference(item: Item) -> dict:
    """Per-graph references: networkx graph, connectivity and sides."""
    g = oracles.nx_graph(item.n, item.edges)
    return {"nx": g, "kappa": oracles.nx_connectivity(g),
            "sides": oracles.two_coloring(item.n, item.edges)}


def check_tough(item: Item, kind: str, payload: dict, oracle: dict) -> list[str]:
    """One ``tough --json`` answer against the graph's ``reference``."""
    label = f"{item.name} {kind}"
    errors = []
    value = payload["value"]
    witness = payload["witness"]
    if value == "inf" or witness is None:
        return [f"{label}: no disconnecting cut reported on a non-complete graph"]
    value = Fraction(value)
    cut = witness["cut"]
    c = oracles.nx_components_without(oracle["nx"], cut)
    if c != witness["components"]:
        errors.append(f"{label}: witness {cut} leaves {c} components, "
                      f"reported {witness['components']}")
    if c - SHIFT[kind] < 1 or Fraction(len(cut), c - SHIFT[kind]) != value \
            or Fraction(witness["ratio"]) != value:
        errors.append(f"{label}: witness ratio {len(cut)}/({c} - {SHIFT[kind]}) "
                      f"and {witness['ratio']} vs value {value}")
    if kind in ONE_SIDED:
        sides = dict(zip("XY", oracle["sides"]))
        side = witness.get("side")
        if side not in sides or not set(cut) < sides[side]:
            errors.append(f"{label}: cut {cut} is not a proper subset of side {side}")
    else:
        kappa = oracle["kappa"]
        limit = Fraction(kappa, 2) if kind == "toughness" else Fraction(kappa)
        if value > limit:
            errors.append(f"{label}: value {value} above the connectivity limit {limit}")
    if item.family is not None:
        shape, blocks, required = item.family
        own = oracles.own_cut_ratio(shape, blocks, SHIFT[kind])
        if value > own:
            errors.append(f"{label}: value {value} above the construction's own cut {own}")
        if SHIFT[kind] and not value < required:
            errors.append(f"{label}: value {value} not below the required {required}")
    if item.n <= BRUTE_FORCE_MAX_N:
        if kind in ONE_SIDED:
            want, want_cut, want_side = oracles.brute_one_sided(
                item.n, item.edges, *oracle["sides"], SHIFT[kind])
        else:
            want, want_cut = oracles.brute_min_ratio(item.n, item.edges, SHIFT[kind])
            want_side = None
        if (value, tuple(cut), witness.get("side")) != (want, want_cut, want_side):
            errors.append(f"{label}: {value} with cut {cut} vs brute force {want} "
                          f"with cut {want_cut}")
    return errors


def check_brouwer(item: Item, payload: dict) -> list[str]:
    label = f"{item.name} brouwer"
    errors = []
    if not payload["margin"] > 0:
        errors.append(f"{label}: margin {payload['margin']} is not positive")
    degrees = Counter(v for e in item.edges for v in e)
    d = degrees[0]
    if payload["d"] != d or set(degrees.values()) != {d} or len(degrees) != item.n:
        errors.append(f"{label}: degree {payload['d']}, expected the regular degree {d}")
    lam = oracles.second_abs_eigenvalue(oracles.adjacency(item.n, item.edges))
    if abs(payload["lambda"] - lam) >= AGREE_TOL:
        errors.append(f"{label}: lambda {payload['lambda']!r} vs eigvalsh {lam!r}")
    t = Fraction(payload["t"])
    if abs(payload["margin"] - (float(t) - (d / lam - 1.0))) >= AGREE_TOL:
        errors.append(f"{label}: margin {payload['margin']!r} does not match t, d, lambda")
    if item.n <= BRUTE_FORCE_MAX_N:
        want, _ = oracles.brute_min_ratio(item.n, item.edges, 0)
        if t != want:
            errors.append(f"{label}: t = {t}, brute force {want}")
    return errors


def check(items, state, digests) -> list[str]:
    errors = []
    values: dict[tuple[str, str], Fraction] = {}
    references = {}
    for (item, kind), digest in zip(queries(items), digests):
        if digest is None:
            continue
        code, text = digest
        if code != 0:
            errors.append(f"{item.name} {kind}: exit code {code}")
            continue
        payload = json.loads(text)
        if kind == "brouwer":
            errors += check_brouwer(item, payload)
            continue
        if item.name not in references:
            references[item.name] = reference(item)
        errors += check_tough(item, kind, payload, references[item.name])
        if payload["value"] != "inf":
            values[(item.name, kind)] = Fraction(payload["value"])
    for (name, kind), value in values.items():
        plain = kind.replace("variation", "toughness")
        if plain != kind and (name, plain) in values and value < values[(name, plain)]:
            errors.append(f"{name}: {kind} {value} below {plain} {values[(name, plain)]}")
    return errors
