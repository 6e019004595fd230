"""Record the output hashes that fixed operations are checked against.

    python3 perfbench/record_expected.py

Runs one pass of every workload and writes expected.json.  Run it only on the
commit whose outputs are the reference; later changes must reproduce them
byte for byte.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import run
import workloads


def main() -> int:
    hashes = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.operations(workload, 0)
        report = run.run_pass(ops, False, time.monotonic() + 600)
        for op, result in zip(ops, report["ops"]):
            if "sha256" not in op["check"]:
                continue
            if result["code"] != 0:
                print(f"{op['id']} failed: {result['error']}", file=sys.stderr)
                return 1
            hashes[op["check"]["sha256"]] = checks.sha256(result["output"])
    with open(checks.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
