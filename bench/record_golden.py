#!/usr/bin/env python3
"""Record the expected outputs of the mixed-staircase jobs.

Mixed staircases have no closed-form oracle, so the canonical-hilbert
workload checks them against outputs recorded once from a trusted
commit. Rerun only to extend the catalogue, never to absorb a changed
answer:

    PYTHONPATH=src python3 bench/record_golden.py
"""

import json
import subprocess

import workloads
from fusscat.polyomino import format_stair_spec


def main():
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=workloads.BENCH_DIR).stdout.strip()
    specs = {format_stair_spec(s): workloads.mixed_expectation(s)
             for s in workloads.mixed_specs()}
    doc = {"recorded_at": sha, "specs": specs}
    workloads.GOLDEN_MIXED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(specs)} mixed specs at {sha}")


if __name__ == "__main__":
    main()
