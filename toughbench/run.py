"""toughspec benchmark: one closed-loop workload per process.

    python3 toughbench/run.py --workload family-radius --seed 1 --seconds 35 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory; without it the run exits 1 and prints no result.  A single
caller sends each operation only after the previous one returned.  The timed
phase repeats whole rounds of the workload's operations until ``--seconds``
have passed (and at least MIN_OPS operations ran), then every output of the
first round is checked against references computed apart from the program,
and every later round must repeat the first exactly.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a run
whose first half is untraced and second half traced (see tracing.py), and the
spans are written to ``toughbench/out/``.
"""

import time

STARTED = time.perf_counter()  # setup_s counts from here

import os
import sys


def import_program() -> float:
    """Import toughspec from this checkout's src/, refusing any other copy.

    Runs before the benchmark imports anything of its own (os and sys are
    loaded by the interpreter itself), so that every module toughspec needs
    is loaded inside the timed import.  Returns the seconds since STARTED.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
    if not os.path.isfile(os.path.join(src, "toughspec", "__init__.py")):
        raise SystemExit(f"error: no toughspec sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import toughspec

    if os.path.dirname(os.path.realpath(toughspec.__file__)) != os.path.join(src, "toughspec"):
        raise SystemExit(f"error: imported toughspec from {toughspec.__file__}, not {src}")
    return time.perf_counter() - STARTED


IMPORTED_S = import_program()

import argparse
import importlib
import json
import resource
import statistics
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = {
    "family-radius": "family_radius",
    "classify": "classify",
    "exact-tough": "exact_tough",
}
MIN_OPS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """Outcome of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.rounds: list[list] = []  # digests, None for a failed operation
        self.failed = 0
        self.first_failure = ""
        self.seconds = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.seconds


def timed_phase(ops, seconds: float, tracer=None) -> Phase:
    """Run whole rounds of ``ops`` for at least ``seconds`` and MIN_OPS calls."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        digests = []
        for index, (call, digest) in enumerate(ops):
            if tracer is not None:
                tracer.op = phase.attempted + index
            began = clock()
            try:
                raw = call()
            except Exception:
                phase.failed += 1
                phase.first_failure = phase.first_failure or traceback.format_exc()
                digests.append(None)
                continue
            phase.latencies.append(clock() - began)
            digests.append(digest(raw))
        phase.rounds.append(digests)
        if clock() - start >= seconds and phase.attempted >= MIN_OPS:
            break
    phase.seconds = clock() - start
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    lat = phase.latencies
    return {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def consistency_errors(phase: Phase) -> list[str]:
    """Later rounds whose outputs differ from the first round's."""
    return [
        f"round {r} operation {i}: output differs from round 0"
        for r, digests in enumerate(phase.rounds[1:], start=1)
        for i, d in enumerate(digests)
        if d != phase.rounds[0][i]
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    began = time.perf_counter()
    state = wl.program_setup()
    setup_s = IMPORTED_S + time.perf_counter() - began
    setup_layer = {}
    if tracer is not None:
        tracer.uninstall()
        if "verify.threshold" in tracer.found:
            setup_layer["verify.threshold_s"] = tracer.layer_totals()[0]["verify.threshold"]
        tracer.reset()

    work = BENCH / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        inputs = wl.make_inputs(args.seed, state, Path(workdir))
        ops = wl.operations(inputs, state)
        if tracer is None:
            phase = timed_phase(ops, args.seconds)
        else:
            untraced = timed_phase(ops, args.seconds / 2)
            tracer.install()
            try:
                phase = timed_phase(ops, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        metrics = end_to_end(phase, setup_s)

    if phase.failed:
        # counted in `failed`; `correct` speaks of the operations that did not fail
        print(f"{phase.failed} operations failed; the first:\n{phase.first_failure}",
              file=sys.stderr)
    errors = consistency_errors(phase) + wl.check(inputs, state, phase.rounds[0])

    if tracer is not None:
        layer = tracer.layer_metrics(phase.attempted)
        layer.update(setup_layer)
        reach = getattr(wl, "reach", lambda digests: (0.0, 0))
        ratio, base = reach([d for r in phase.rounds for d in r])
        layer["verify.reach_ratio"], layer["verify.reach_base"] = ratio, base
        layer["trace.traced_ops_per_s"] = phase.ops_per_s
        layer["trace.untraced_ops_per_s"] = untraced.ops_per_s
        metrics = layer
        tracer.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed, metrics=layer)

    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    # names and units come from BENCHMARK.json; a layer whose function is
    # gone has no value and is left out
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = config["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not errors,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
