"""Record alternating parent/change benchmark pairs as BENCH_<pr>.json.

    python3 bench/record.py --parent REV --change REV --pr N [--seed 1]

Each revision is exported with `git archive` into its own temporary
directory, and each copy runs its own perfbench/run.py --workload W --seed N
--seconds S --trace 0, for every workload in BENCHMARK.json and with its
run_seconds as S.  Ten pairs per workload: pair k runs both sides with
seed + k, and the side that runs first alternates from pair to pair.  The
last line of each run's standard output is its JSON result.

For every end-to-end metric that BENCHMARK.json names, the record holds both
medians, the parent's quartiles and IQR / median, how many pairs the change
won (ties count for neither), whether the change's median stays within the
metric's bound, whether the change shows a gain: at least nine tenths of
the pairs won and a median difference larger than the parent's IQR, and
whether the metric is unresolved: the parent's IQR / median exceeds the bound
and not every change run beats every parent run, so a regression up to the
bound could not be told from the parent's own spread.  Each
run's correct, attempted, failed and end-to-end values are kept, and so is
src_lines: for each side, the `wc -l` total of src/graphtrop/*.py in its
exported tree.  The top-level flags list, as workload/metric names, every
metric that is unresolved, not within its bound, or shows a gain; the same
lists go to standard error.  The file is written to the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (the statistics module's default method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Medians, parent spread, wins and verdicts for one workload.

    pairs holds one dict per pair with the seed, the side that ran first and
    the parsed result line of each side; end_to_end is BENCHMARK.json's list
    of metrics, each with its name, unit, direction and bound.
    """
    names = [spec["name"] for spec in end_to_end]
    runs = []
    for p in pairs:
        run = {"seed": p["seed"], "first": p["first"]}
        for side in SIDES:
            line = p[side]
            run[side] = {k: line[k] for k in ("correct", "attempted", "failed")}
            run[side]["metrics"] = {name: line["metrics"][name]["value"] for name in names}
        runs.append(run)
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        spread = (q3 - q1) / p_med if p_med else None
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": p_med,
            "change_median": c_med,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_iqr_over_median": spread,
            "change_wins": wins,
            "within_bound": sign * (c_med - p_med) <= spec["bound"] * abs(p_med),
            "gain_shown": wins >= math.ceil(0.9 * len(pairs))
            and sign * (p_med - c_med) > q3 - q1,
            "unresolved": spread is not None
            and spread > spec["bound"]
            and not all(sign * (c - p) < 0 for p in parent for c in change),
        }
    correct = all(r[side]["correct"] and r[side]["failed"] == 0 for r in runs for side in SIDES)
    return {"pairs": len(pairs), "all_correct": correct, "metrics": metrics, "runs": runs}


def flags(workloads: dict) -> dict[str, list[str]]:
    """The workload/metric names of the summaries that are unresolved, out of bound or a gain."""
    out: dict[str, list[str]] = {"unresolved": [], "not_within_bound": [], "gain_shown": []}
    for workload, summary in workloads.items():
        for name, metric in summary["metrics"].items():
            for flag, raised in (
                ("unresolved", metric["unresolved"]),
                ("not_within_bound", not metric["within_bound"]),
                ("gain_shown", metric["gain_shown"]),
            ):
                if raised:
                    out[flag].append(f"{workload}/{name}")
    return out


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed tree of rev into dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")


def src_lines(tree: Path) -> int:
    """Newlines in the tree's src/graphtrop/*.py, the total that `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "graphtrop").glob("*.py"))


def run_once(copy: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in a checkout; its last JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {copy} failed: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    revs = {
        side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    record = {
        "parent": revs["parent"],
        "change": revs["change"],
        "pairs": PAIRS,
        "seed": args.seed,
        "seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for side, rev in revs.items():
            copies[side] = Path(tmp) / side
            copies[side].mkdir()
            export(rev, copies[side])
        record["src_lines"] = {side: src_lines(copy) for side, copy in copies.items()}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for k in range(PAIRS):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(copies[side], workload, seed, seconds)
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {k} {side}: wall_s {wall:.3f}", file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = summarise(pairs, bench["end_to_end"])
    record["flags"] = flags(record["workloads"])
    for flag, names in record["flags"].items():
        print(f"{flag}: {', '.join(names) or '-'}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
