"""Steadiness self-check: computed counts must repeat across runs of one seed.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload discover --seed 1

Runs the traced benchmark twice with the same seed and compares
every metric whose unit is a count or bytes (deflation rows, discovery
iterations, closure elements, GEVP dimension sum, call counts, ...) and
the failed fraction.  Prints each one that differs and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 2


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("discover", "synthesize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    runs = [traced_run(args.workload, args.seed) for _ in range(RUNS)]
    rows = {"failed_frac": [r["failed"] / r["attempted"] for r in runs]}
    for name, metric in runs[0]["metrics"].items():
        if metric["unit"] in ("count", "B") or name == "discovery.accept_ratio":
            rows[name] = [r["metrics"][name]["value"] for r in runs]
    differing = [name for name, values in rows.items() if len(set(values)) > 1]
    for name, values in rows.items():
        mark = "DIFFERS" if name in differing else "repeats"
        print(f"{name:40s} {mark:8s} {values}")
    print(f"{len(rows) - len(differing)} of {len(rows)} counts repeat exactly "
          f"over {RUNS} runs of {args.workload} seed {args.seed}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
