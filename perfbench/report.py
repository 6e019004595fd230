"""Every workload in one command: end-to-end metrics, then per-layer tables.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this makes one untraced run and one traced run (run.py),
prints one row of end-to-end metrics with fail_frac, and then one table of
every per-layer metric, including the tracing overhead, with a column per
workload.  Full results and span files are written to perfbench/out/.  Takes
three to four minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

import run
import workloads

E2E = tuple(run.END_TO_END_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    untraced, traced = {}, {}
    try:
        for workload in workloads.WORKLOADS:
            untraced[workload] = run.run(workload, args.seed, args.seconds, trace=False)
            traced[workload] = run.run(workload, args.seed, args.seconds, trace=True)
    except (run.BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(run.machine_line(untraced[workloads.WORKLOADS[0]]))
    print(f"seed={args.seed} seconds={args.seconds}")
    header = ["workload"] + [f"{m} [{run.unit(m)}]" for m in E2E] + ["fail_frac", "tail pct (n)"]
    print(" | ".join(header))
    for workload, result in untraced.items():
        m = result["metrics"]
        cells = [workload] + [f"{m[name]:.6g}" for name in E2E]
        cells.append(f"{result['fail_frac']:.3g} ({result['failed']}/{result['attempted']})")
        pct = result["op_s_tail_percentile"]
        cells.append(f"{f'p{pct:.2f}' if pct else 'slowest op'} ({result['op_samples']})")
        print(" | ".join(cells))
    print()
    print(f"{'per-layer, traced pass':<52} " + " ".join(f"{w:>12}" for w in traced) + "  unit")
    for name in traced[workloads.WORKLOADS[0]]["metrics"]:
        values = " ".join(f"{r['metrics'][name]:>12.6g}" for r in traced.values())
        print(f"{name:<52} {values}  {run.unit(name)}")
    failed = sum(r["failed"] for r in (*untraced.values(), *traced.values()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
