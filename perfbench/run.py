"""graphtrop benchmark: time to a verified verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the graphtrop sources in src/ of the checkout that holds this
directory, and fails without printing a result when there are none.  Closed
loop with one client: a pass runs the workload's operations one after another in
a fresh interpreter (workloads.py), and a run makes a fixed number of passes
set by --seconds.  Every output is checked (checks.py) outside the timed
region.  With --trace 0 the end-to-end metrics are printed; with --trace 1
one untraced and one traced pass give the per-layer metrics (tracing.py) and
the tracing overhead, and their outputs must be byte-identical.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Each run also
writes its full result, with the machine facts and the seed, to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError(f"run exceeded {RUN_DEADLINE_S} s")
    return left


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Seconds to start a fresh interpreter and import graphtrop's CLI (and numpy)."""
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import graphtrop.cli"],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining(deadline),
        )
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing graphtrop failed:\n{proc.stderr}")
    return out


def run_pass(ops: list[dict], trace: bool, deadline: float, spans: Path | None = None) -> dict:
    """One pass in a fresh interpreter; returns the worker's report."""
    spec = {"ops": ops, "trace": trace, "spans": str(spans) if spans else None}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def tail(latencies: list[list[float]]) -> tuple[float, float | None, int]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile, samples).

    latencies[p][i] is operation i's latency in pass p.  With too few samples
    for any such percentile, the tail is the slowest operation's median
    latency over the passes, and the percentile is None.
    """
    xs = sorted(x for per_pass in latencies for x in per_pass)
    n = len(xs)
    if n > TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return max(statistics.median(op) for op in zip(*latencies)), None, n


def machine_facts(numpy_version: str) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            facts["cpu"] = models[0]
    except OSError:
        pass
    return facts


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns the full result, including the printed metrics."""
    if not (SRC / "graphtrop" / "__init__.py").is_file():
        raise BenchmarkError(f"no graphtrop sources at {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    ops = workloads.operations(workload, seed)
    OUT.mkdir(exist_ok=True)
    checker = checks.Checker(SRC)

    setup: list[float] = []
    if trace:
        spans = OUT / f"spans-{workload}.tsv.gz"
        reports = [run_pass(ops, False, deadline), run_pass(ops, True, deadline, spans)]
    else:
        # The cold imports are spread before, between and after the passes, so
        # that their median does not rest on one moment of the machine's load.
        n = workloads.passes(workload, seconds)
        share = [SETUP_SAMPLES // (n + 1) + (i < SETUP_SAMPLES % (n + 1)) for i in range(n + 1)]
        reports = []
        for i in range(n):
            setup += measure_setup(share[i], deadline)
            reports.append(run_pass(ops, False, deadline))
        setup += measure_setup(share[n], deadline)

    failures = []
    for p, report in enumerate(reports):
        for i, (op, result) in enumerate(zip(ops, report["ops"])):
            reason = checker.check(op, result)
            if reason is None and result["output"] != reports[0]["ops"][i]["output"]:
                reason = "output differs from the first pass's output"
            if reason is not None:
                failures.append({"pass": p, "op": op["id"], "reason": reason})
    attempted = sum(len(r["ops"]) for r in reports)

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(reports),
        "machine": machine_facts(reports[0]["numpy"]),
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "setup_samples_s": setup,
        "pass_wall_s": [r["wall_s"] for r in reports],
    }
    if trace:
        untraced, traced = reports
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        result["span_file"] = str(spans.relative_to(ROOT))
        result["span_count"] = traced["span_count"]
        result["metrics"] = layers
    else:
        per_pass = [[op["latency_s"] for op in r["ops"]] for r in reports]
        latencies = [x for xs in per_pass for x in xs]
        tail_value, tail_pct, n = tail(per_pass)
        result["op_s_tail_percentile"] = tail_pct
        result["op_samples"] = n
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in reports),
            "op_s_p50": statistics.median(latencies),
            "op_s_tail": tail_value,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=2)
    return result


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine_line(result: dict) -> str:
    m = result["machine"]
    return (
        f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"cpu={m.get('cpu', 'unknown')}"
    )


def describe(result: dict) -> list[str]:
    """Human-readable lines: run, machine, each metric with its unit, failures."""
    lines = [
        f"workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} passes={result['passes']}",
        machine_line(result),
    ]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<52} {value:>14.6g} {unit(name)}")
    if result["trace"]:
        lines.append(f"  {result['span_count']} spans written to {result['span_file']}")
    elif result["op_s_tail_percentile"] is None:
        lines.append(
            f"  op_s_tail is the slowest operation's median over the passes "
            f"({result['op_samples']} operation latencies, too few for a percentile with "
            f"{TAIL_BEYOND} beyond it)"
        )
    else:
        lines.append(
            f"  op_s_tail is p{result['op_s_tail_percentile']:.2f} of {result['op_samples']} "
            f"operation latencies ({TAIL_BEYOND} beyond it)"
        )
    lines.append(f"  fail_frac {result['failed']}/{result['attempted']} = {result['fail_frac']:.6g}")
    for f in result["failures"]:
        lines.append(f"  FAILED pass {f['pass']} {f['op']}: {f['reason']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(result)))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
