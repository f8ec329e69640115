"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 [--workloads paths,...]

Runs ``run.py`` once per seed and workload, alternating workloads between
runs so that slow drift of the machine spreads over all of them, and prints,
per workload and metric, the median and the distance between the first and
third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    for seed in args.seeds:
        for workload in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} ops failed",
                      file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  flush=True)
    for workload in names:
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:10s} {name:12s} median {med:10.4f}  "
                  f"IQR/median {(q3 - q1) / med:6.3f}  (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
