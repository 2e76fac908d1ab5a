"""Run-to-run spread of the benchmark, one fresh process per run.

    python3 toughbench/steady.py --seeds 1-10
    python3 toughbench/steady.py --seeds 11-20 --against toughbench/out/steady-1-10.json

Runs every workload of BENCHMARK.json once per seed, for its run_seconds, one
process after another, and prints per end-to-end metric the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--against`` it also prints how far each median moved from an earlier set,
as a share of that set's median, worse direction positive.  With ``--trace``
it makes one traced run per workload instead and prints each layer's share
of the traced time.  Results are saved under ``toughbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 300


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def report_spread(config: dict, runs: dict, against: dict | None) -> None:
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed share(s) {sorted(shares)}")
        if len(results) < 2:
            continue  # quartiles need two runs or more
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'moved':>7}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            moved = ""
            if against is not None:
                before = summarize([r["metrics"][name]["value"] for r in against[workload]])
                sign = 1 if metric["better"] == "lower" else -1
                moved = f"{sign * (stats['median'] / before['median'] - 1):+.3f}"
            flag = "" if name == "setup_s" or stats["spread"] < metric["bound"] / 3 else "  <-- wide"
            print(f"  {name:<12} {stats['median']:>10.4f} {stats['q1']:>10.4f} "
                  f"{stats['q3']:>10.4f} {stats['spread']:>7.3f} {metric['bound']:>6} "
                  f"{moved:>7}{flag}")


def report_layers(runs: dict) -> None:
    for workload, (result,) in runs.items():
        m = result["metrics"]
        traced = m["trace.traced_ops_per_s"]["value"]
        untraced = m["trace.untraced_ops_per_s"]["value"]
        per_op = 1.0 / traced
        print(f"\n{workload}: {per_op * 1e3:.2f} ms/op traced; untraced/traced ops/s "
              f"{untraced:.4g}/{traced:.4g} = {untraced / traced:.3f}")
        for name, metric in m.items():
            value, unit = metric["value"], metric["unit"]
            if unit == "s/op":
                if value:
                    print(f"  {name:<28} {value * 1e3:10.4f} ms/op  {value / per_op:6.1%}")
            elif not name.startswith("trace."):
                print(f"  {name:<28} {value:10.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    seeds = args.seeds[:1] if args.trace else args.seeds
    runs = {}
    seconds = config["run_seconds"]
    for workload in (w["name"] for w in config["workloads"]):
        runs[workload] = []
        for seed in seeds:
            began = time.perf_counter()
            result = run_once(workload, seed, seconds, int(args.trace))
            wall = time.perf_counter() - began
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            runs[workload].append(result)
            print(f"{workload} seed {seed}: wall={wall:.1f}s " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
    kind = "trace" if args.trace else "steady"
    out = BENCH / "out" / f"{kind}-{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1))
    if args.trace:
        report_layers(runs)
    else:
        against = json.loads(args.against.read_text())["runs"] if args.against else None
        report_spread(config, runs, against)
    print(f"\nsaved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
