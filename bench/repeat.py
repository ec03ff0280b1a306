#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 bench/repeat.py --seeds 1-10 --seconds 20 [--workloads brackets,cli] [--out FILE]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median, the
figure the benchmark's bounds are compared with. Runs go one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("brackets", "cone-census", "canonical-hilbert", "cli")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=BENCH_DIR.parent, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in runs],
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs])
                        for name in runs[0]["metrics"]},
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:18s} {name:12s} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
