#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out summary.json]
                                [--against earlier_summary.json] [--traced]

For every workload and end-to-end metric in BENCHMARK.json this prints the
median of the per-run values over the seeds, their quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound.
With ``--against`` it also prints how far each median moved from an
earlier summary, in the metric's worse direction, as a share of the
earlier median.  With ``--traced`` one traced run per workload (first
seed) adds the per-layer metrics to the summary.  Runs are made one at a
time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import environment

    summary = {"environment": environment(), "seconds": args.seconds, "seeds": args.seeds,
               "workloads": {}}
    failures = 0
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds)
            failures += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"{workload}: {len(parse_seeds(args.seeds))} runs of {args.seconds} s")
        for m in spec["end_to_end"]:
            row = summarize(per_metric[m["name"]])
            rows[m["name"]] = row
            line = (f"  {m['name']:18s} {m['unit']:6s} median {row['median']:10.4f} "
                    f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} spread {row['spread']:7.4f} "
                    f"bound {m['bound']:.2f}")
            if earlier:
                before = earlier["workloads"][workload][m["name"]]["median"]
                worse = (row["median"] - before) if m["better"] == "lower" else (before - row["median"])
                line += f" worse-by {worse / before:+.4f}"
            print(line)
        summary["workloads"][workload] = rows
        if args.traced:
            traced = run_once(workload, parse_seeds(args.seeds)[0], args.seconds, trace=1)
            failures += traced["failed"] + (0 if traced["correct"] else 1)
            summary.setdefault("traced", {})[workload] = {
                name: metric["value"] for name, metric in traced["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"failed or incorrect runs: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
