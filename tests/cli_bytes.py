"""CLI byte record: a fixed, seeded set of in-process ``toughspec.cli.run``
invocations, each with its exit code, stdout and stderr.

    PYTHONPATH=src python tests/cli_bytes.py OUT.json

writes ``{argv: [exit, stdout, stderr]}``, argv joined by spaces, in a fixed
order.  Two checkouts print the same bytes on every invocation exactly when
their two files are equal, so comparing a change with its parent is one
``cmp``.  To see which invocations differ,

    PYTHONPATH=src python tests/cli_bytes.py --diff OLD.json NEW.json

prints the argv of each one whose [exit, stdout, stderr] is not the same in
both files (or that only one file lists), and exits 1 if any differ.  The set covers every subcommand in text and with ``--json``: all four
``tough`` kinds, ``verify`` under five theorem settings, ``search --json`` at
seeds 0-3, and the refusal inputs (a 45-cycle, K44, a ``200000 0`` header and
the 46-vertex bip-frac graph).

Input graphs come from ``random.Random`` seeds and hand-written edge lists, not
from the package, apart from the family graphs, which are the recorded output
of ``construct``.  They are written under fixed names into one temporary
directory, the working directory of every run, so no path differs between
runs.  The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import combinations

from toughspec import cli

# (theorem flags, family construct flags of its extremal graphs)
SETTINGS = (
    (["--theorem", "tough-int", "--n", "14", "--tau", "2"],
     [["--family", "tough-int", "--n", "14", "--tau", "2"]]),
    (["--theorem", "tough-frac", "--n", "16", "--tau-inv", "1", "--delta", "2"],
     [["--family", "tough-frac-delta", "--n", "16", "--tau-inv", "1", "--delta", "2"]]),
    (["--theorem", "bip-int", "--n", "20", "--r", "2"],
     [["--family", "bip-int-div", "--n", "20", "--r", "2"]]),
    (["--theorem", "bip-int", "--n", "22", "--r", "2"],
     [["--family", "bip-int-nondiv-a", "--n", "22", "--r", "2"],
      ["--family", "bip-int-nondiv-b", "--n", "22", "--r", "2"]]),
    (["--theorem", "bip-frac", "--n", "16", "--r-inv", "2"],
     [["--family", "bip-frac", "--n", "16", "--r-inv", "2"]]),
)
KINDS = ("toughness", "variation", "bipartite-toughness", "bipartite-variation")


def edge_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def relabelled(n, edges, rng):
    perm = rng.sample(range(n), n)
    return [(perm[u], perm[v]) for u, v in edges]


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete(n):
    return list(combinations(range(n), 2))


def multipartite(parts):
    start, blocks = 0, []
    for size in parts:
        blocks.append(range(start, start + size))
        start += size
    return [(u, v) for a, b in combinations(blocks, 2) for u in a for v in b]


def petersen():
    return ([(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def two_colouring(n, edges):
    """Side 0 or 1 per vertex of a connected bipartite graph, by breadth-first search."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour, queue = {0: 0}, [0]
    for u in queue:
        for v in nbrs[u]:
            if v not in colour:
                colour[v] = 1 - colour[u]
                queue.append(v)
    return colour


def one_edge_neighbours(n, edges, bipartite, rng):
    """Copies of a graph with one random edge added (across the sides when
    ``bipartite``) and with one random edge removed: four and two."""
    present = {frozenset(e) for e in edges}
    colour = two_colouring(n, edges) if bipartite else None
    absent = [e for e in combinations(range(n), 2) if frozenset(e) not in present
              and (colour is None or colour[e[0]] != colour[e[1]])]
    out = [edges + [e] for e in rng.sample(absent, min(4, len(absent)))]
    for e in rng.sample(edges, 2):
        out.append([f for f in edges if f != e])
    return out


def write(name, text):
    with open(name, "w", encoding="ascii") as handle:
        handle.write(text)


def fixed_inputs():
    """(name, text) for the hand-written graphs and the refusal inputs."""
    return [
        ("path6.txt", edge_text(6, [(i, i + 1) for i in range(5)])),
        ("cycle6.txt", edge_text(6, cycle(6))),
        ("cycle7.txt", edge_text(7, cycle(7))),
        ("k5.txt", edge_text(5, complete(5))),
        ("k33.txt", edge_text(6, multipartite([3, 3]))),
        ("k23.txt", edge_text(5, multipartite([2, 3]))),
        ("star5.txt", edge_text(6, multipartite([1, 5]))),
        ("octahedron.txt", edge_text(6, multipartite([2, 2, 2]))),
        ("petersen.txt", edge_text(10, petersen())),
        ("two_edges.txt", edge_text(4, [(0, 1), (2, 3)])),
        ("single.txt", edge_text(1, [])),
        ("bad_header.txt", "3\n0 1\n"),
        ("bad_edge.txt", "3 1\n0 0\n"),
        ("cycle45.txt", edge_text(45, cycle(45))),
        ("k44.txt", edge_text(44, complete(44))),
        ("huge.txt", "200000 0\n"),
    ]


def random_inputs():
    """(name, text) for seeded G(n, p), balanced bipartite and multipartite
    graphs, and for K_n and K_{n/2,n/2} less a few edges at the theorem orders."""
    out = []
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        p = rng.uniform(0.3, 0.8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        out.append((f"gnp{seed}.txt", edge_text(n, edges)))
    for seed in range(16):
        rng = random.Random(1000 + seed)
        half = rng.randint(2, 8)
        p = rng.uniform(0.4, 0.9)
        edges = [(u, v) for u in range(half) for v in range(half, 2 * half)
                 if rng.random() < p]
        out.append((f"bip{seed}.txt", edge_text(2 * half, relabelled(2 * half, edges, rng))))
    for seed in range(8):
        rng = random.Random(2000 + seed)
        parts = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        n = sum(parts)
        out.append((f"multi{seed}.txt", edge_text(n, relabelled(n, multipartite(parts), rng))))
    for seed, n in enumerate((14, 16, 20, 22) * 2):  # the theorem orders, dense
        rng = random.Random(3000 + seed)
        for name, edges in (("dense", complete(n)), ("densebip", multipartite([n // 2] * 2))):
            gone = set(rng.sample(range(len(edges)), rng.randint(1, n)))
            kept = [e for i, e in enumerate(edges) if i not in gone]
            out.append((f"{name}{seed}.txt", edge_text(n, relabelled(n, kept, rng))))
    return out


class Recorder:
    def __init__(self):
        self.results = {}

    def run(self, argv, stdin=""):
        """Record one invocation; return its stdout."""
        key = " ".join(argv)
        if key in self.results:
            raise SystemExit(f"error: invocation listed twice: {key}")
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
        finally:
            sys.stdin = saved
        self.results[key] = [code, out.getvalue(), err.getvalue()]
        return out.getvalue()

    def both(self, argv):
        """Text, then --json."""
        self.run(argv)
        self.run(argv + ["--json"])


def record(rec):
    inputs = fixed_inputs() + random_inputs()
    for name, text in inputs:
        write(name, text)
    write("petersen.g6", "IheA@GUAo\n")

    # construct: every family, both formats, and refused parameters; the edge
    # lists become the family inputs below, with a relabelled copy and copies
    # one edge away, which reach the toughness scan under verify
    families = []
    for _, specs in SETTINGS:
        for flags in specs:
            out = rec.run(["construct"] + flags)
            rec.run(["construct"] + flags + ["--format", "graph6"])
            stem = "family_" + "_".join(flags[1::2])
            write(stem + ".txt", out)
            rng = random.Random(stem)
            header, *lines = out.split("\n")
            n = int(header.split()[0])
            edges = [tuple(map(int, line.split())) for line in lines if line]
            write(stem + "_relabelled.txt", edge_text(n, relabelled(n, edges, rng)))
            families += [stem + ".txt", stem + "_relabelled.txt"]
            bipartite = flags[1].startswith("bip")
            for i, near in enumerate(one_edge_neighbours(n, edges, bipartite, rng)):
                write(f"{stem}_near{i}.txt", edge_text(n, relabelled(n, near, rng)))
                families.append(f"{stem}_near{i}.txt")
    out = rec.run(["construct", "--family", "bip-frac", "--n", "46", "--r-inv", "2"])
    write("bipfrac46.txt", out)
    rec.run(["construct", "--family", "tough-int", "--n", "5", "--tau", "2"])
    rec.run(["construct", "--family", "bip-frac", "--n", "15", "--r-inv", "2"])
    rec.run(["construct", "--family", "tough-int", "--tau", "2"])

    refusals = ["cycle45.txt", "k44.txt", "huge.txt", "bipfrac46.txt"]
    ordinary = [name for name, _ in inputs if name not in refusals] + families

    # the graph commands on every input but the 200000-vertex one, whose
    # radius would take seconds and gigabytes
    for name in ordinary + ["cycle45.txt", "k44.txt", "bipfrac46.txt"]:
        for command in ("rho", "spectrum", "bounds", "brouwer"):
            rec.both([command, "--in", name])
    for name in ordinary:
        for kind in KINDS:
            rec.both(["tough", "--in", name, "--kind", kind])
    for name in refusals:
        for kind in KINDS:
            rec.both(["tough", "--in", name, "--kind", kind])
    rec.run(["tough", "--in", "k33.txt"])
    rec.run(["rho", "--in", "-"], stdin=edge_text(3, [(0, 1), (1, 2)]))
    rec.run(["rho", "--in", "petersen.g6", "--format", "graph6"])
    rec.run(["rho", "--in", "-", "--format", "graph6"], stdin="IheA@GUAo\n")
    rec.both(["rho", "--family", "bip-frac", "--n", "16", "--r-inv", "2"])
    rec.both(["spectrum", "--family", "tough-int", "--n", "14", "--tau", "2"])
    for bound in ("hong", "degree", "nosal"):
        for name in ("k33.txt", "cycle7.txt", "petersen.txt", "gnp3.txt", "bip2.txt"):
            rec.both(["bounds", "--in", name, "--bound", bound])

    # verify: each setting on every input, then the refusal inputs under three
    # settings that take the order from the input
    for theorem, _ in SETTINGS:
        for name in ordinary:
            rec.both(["verify", "--in", name] + theorem)
    for theorem, _ in SETTINGS[:3] + SETTINGS[4:]:  # the order taken from the input
        rec.both(["verify", "--in", "k33.txt"] + theorem[:2] + theorem[4:])
    for name in ("cycle45.txt", "k44.txt", "bipfrac46.txt"):
        for theorem in (["--theorem", "bip-frac", "--r-inv", "2"],
                        ["--theorem", "bip-int", "--r", "2"],
                        ["--theorem", "tough-int", "--tau", "2"]):
            rec.both(["verify", "--in", name] + theorem)

    # search: every setting at seeds 0-3, and the bip-frac setting at n = 46
    for theorem, _ in SETTINGS:
        for seed in range(4):
            rec.run(["search"] + theorem + ["--samples", "12", "--seed", str(seed), "--json"])
        rec.run(["search"] + theorem + ["--samples", "6", "--seed", "9"])
    for seed in range(4):
        rec.run(["search", "--theorem", "bip-frac", "--n", "46", "--r-inv", "2",
                 "--samples", "20", "--seed", str(seed), "--json"])

    # lemma, rotate, remark
    for flags in (["--lemma", "clique-concentration", "--s", "2", "--p", "1", "--parts", "4,4,2"],
                  ["--lemma", "clique-concentration", "--s", "2", "--p", "1", "--parts", "4,3,3"],
                  ["--lemma", "clique-concentration", "--s", "1", "--p", "2", "--parts", "5,2"],
                  ["--lemma", "clique-concentration", "--s", "2", "--p", "1", "--parts", "4,x"],
                  ["--lemma", "bipartite-divisible", "--k", "2", "--n", "20"],
                  ["--lemma", "bipartite-divisible", "--k", "3", "--n", "24"],
                  ["--lemma", "bipartite-divisible", "--k", "3", "--n", "20"],
                  ["--lemma", "bipartite-monotone", "--s", "1", "--n", "12"],
                  ["--lemma", "bipartite-monotone", "--s", "2", "--n", "12"],
                  ["--lemma", "bipartite-monotone", "--n", "12"]):
        rec.both(["lemma"] + flags)
    for name, s1, s2, t in (("path6.txt", "2", "1", "0"), ("path6.txt", "2,3", "1", "0"),
                            ("cycle7.txt", "3", "1", "2"), ("petersen.txt", "2", "1", "0"),
                            ("gnp0.txt", "1", "2", "0"), ("path6.txt", "9", "1", "0"),
                            ("path6.txt", "a", "1", "0")):
        rec.both(["rotate", "--in", name, "--s1", s1, "--s2", s2, "--t", t])
    rec.both(["remark"])

    # usage and input errors
    for argv in ([], ["nope"], ["rho"], ["rho", "--in", "missing.txt"],
                 ["rho", "--family", "bip-frac"], ["rho", "--n", "x"],
                 ["tough", "--in", "k5.txt", "--kind", "other"],
                 ["verify", "--in", "k5.txt"], ["search", "--theorem", "tough-int"],
                 ["search", "--theorem", "tough-int", "--n", "14"],
                 ["search", "--theorem", "tough-int", "--n", "14", "--tau", "2",
                  "--samples", "-1"]):
        rec.run(argv)


def differing(old, new):
    """Argv keys, in record order, whose [exit, stdout, stderr] differ or that
    only one of the two records lists."""
    return [key for key in {**old, **new} if old.get(key) != new.get(key)]


def main(argv):
    if len(argv) == 4 and argv[1] == "--diff":
        records = []
        for path in argv[2:]:
            with open(path, encoding="utf-8") as handle:
                records.append(json.load(handle))
        keys = differing(*records)
        for key in keys:
            print(key)
        raise SystemExit(1 if keys else 0)
    if len(argv) != 2:
        raise SystemExit("usage: PYTHONPATH=src python tests/cli_bytes.py OUT.json\n"
                         "       PYTHONPATH=src python tests/cli_bytes.py --diff OLD.json NEW.json")
    target = os.path.abspath(argv[1])
    rec = Recorder()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            record(rec)
        finally:
            os.chdir(here)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(rec.results, handle, indent=1)
        handle.write("\n")
    failed = sum(code != 0 for code, _, _ in rec.results.values())
    print(f"{len(rec.results)} invocations, {failed} with a nonzero exit, written to {argv[1]}")


if __name__ == "__main__":
    main(sys.argv)
