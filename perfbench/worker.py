"""One pass: run a workload's operations in this fresh interpreter.

Reads {"ops": [...], "trace": bool, "spans": path or null} as JSON on stdin and
prints one JSON object with the pass's wall time, each operation's latency,
exit code and output, and peak resident memory.  Started by run.py with the
checkout's src/ first on PYTHONPATH, so caches start cold as they do for a
command-line user, while the operations of one pass share the process as in a
batch script.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def run_op(op: dict, cli, obstructions, Hypergraph) -> tuple[str, str, int]:
    """Execute one operation; returns its standard output, standard error and exit code."""
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return out.getvalue(), err.getvalue(), code
    args = op["args"]
    fixed = {Hypergraph.from_json(g): Fraction(v) for g, v in args["fixed"]}
    free = Hypergraph.from_json(args["free"])
    cert = obstructions.minor_certificate(fixed, free, args["degree"])
    return cert.to_json() + "\n", "", 0


def main() -> int:
    import graphtrop.cli as cli
    import graphtrop.obstructions as obstructions
    import numpy
    from graphtrop.hypergraphs import Hypergraph

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"graphtrop was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    start = time.perf_counter()
    for i, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            output, error, code = run_op(op, cli, obstructions, Hypergraph)
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error, code = "", f"{type(exc).__name__}: {exc}", None
        latency = time.perf_counter() - t0
        results.append({"latency_s": latency, "code": code, "error": error, "output": output})
    wall = time.perf_counter() - start

    report = {
        "wall_s": wall,
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["cli.output_bytes"] = sum(
            len(r["output"].encode()) for op, r in zip(spec["ops"], results) if op["kind"] == "cli"
        )
        report["layers"] = layers
        if spec.get("spans"):
            report["span_count"] = tracer.write_spans(spec["spans"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
