"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads train_light,infer_selective --seeds 101-110

Runs the benchmark once per (workload, seed), one run at a time, and
prints for each end-to-end metric its median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to a third of the metric's bound. A run that
fails or reports ``correct: false`` stops the script with an error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import stats


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in run.SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=run.SPEC["run_seconds"])
    args = parser.parse_args()

    script = Path(__file__).resolve().parent / "run.py"
    seeds = parse_seeds(args.seeds)
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=run.REPO, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            results.setdefault(workload, []).append(result)
            values = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)

    print(f"{'workload':16} {'metric':16} {'median':>10} {'spread':>8} {'bound/3':>8}")
    for workload, runs in results.items():
        for metric in run.SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.quartile_spread(values) if len(values) > 1 else float("nan")
            flag = "" if spread < bound / 3 else "  WIDE"
            print(f"{workload:16} {name:16} {stats.median(values):10.4g} {spread:8.4f} {bound / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
