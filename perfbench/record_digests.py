"""Record the SHA-256 of every default-seed op's stdout into digests.json.

    python3 perfbench/record_digests.py

Run this only at a commit whose output is the reference: the benchmark then
fails any later op whose stdout differs from it byte for byte.  Ops that
fail their own checks are not recorded.
"""

import json
import os
import sys

from run import HERE, spawn
from workloads import DEFAULT_SEED, WORKLOADS, ops_for


def main() -> int:
    digests = {}
    for workload in sorted(WORKLOADS):
        rep = spawn(ops_for(workload, DEFAULT_SEED), {}, False)
        for op in rep["ops"]:
            if op["failure"]:
                print(f"not recorded: {' '.join(op['argv'])}: {op['failure']}",
                      file=sys.stderr)
                return 1
            digests[" ".join(op["argv"])] = op["sha256"]
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
