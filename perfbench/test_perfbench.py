"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.operations(workload, 7) == workloads.operations(workload, 7)
    assert json.dumps(workloads.operations(workload, 7)) == json.dumps(
        workloads.operations(workload, 7)
    )


def test_seed_changes_seeded_inputs():
    assert workloads.operations("density", 1) != workloads.operations("density", 2)
    assert workloads.operations("minor-cert", 1) != workloads.operations("minor-cert", 2)


def test_relabelled_inputs_stay_valid_graphs():
    for op in workloads.operations("density", 3):
        graph = json.loads(op["argv"][2])
        assert graph["n"] <= workloads.MAX_RANDOM_VERTICES
        assert all(0 <= u < v < graph["n"] for u, v in graph["edges"])


def test_metric_names_are_well_formed_and_declared():
    bench = benchmark_json()
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    produced = tracing.metric_names() + ["cli.output_bytes", "trace.overhead_s"]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(produced)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit(m["name"]), m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_has_a_prediction():
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    predicted = [name for p in predictions for name in p["layer_metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in benchmark_json()["per_layer"])
    e2e = set(run.END_TO_END_UNITS)
    for p in predictions:
        for metric, workload in p["moves"] + p["unchanged"]:
            assert metric in e2e and workload in workloads.WORKLOADS


def graphtrop_bindings() -> dict:
    """Every module attribute of graphtrop, plus the patched class attributes."""
    from graphtrop.gluing import MomentMatrix

    out = {}
    for module in tracing.graphtrop_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    out[("MomentMatrix", "alpha_entry")] = MomentMatrix.__dict__["alpha_entry"]
    return out


def test_install_and_uninstall_restore_every_binding():
    import graphtrop.cli as cli
    import graphtrop.cones as cones
    import graphtrop.gluing as gluing

    before = graphtrop_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.minor_cone is not before[("graphtrop.cli", "minor_cone")]
        assert cli.dot is not before[("graphtrop.cli", "dot")]
        assert cones.graph_key is not before[("graphtrop.cones", "graph_key")]
        assert cli.graph_key is gluing.graph_key is cones.graph_key
        assert gluing.MomentMatrix.alpha_entry is not before[("MomentMatrix", "alpha_entry")]
    finally:
        tracer.uninstall()
    after = graphtrop_bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def run_cli(argv) -> str:
    import graphtrop.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_traced_output_matches_and_spans_nest(tmp_path):
    argv = ["density", "K3", '{"r":2,"n":5,"edges":[[0,1],[1,2],[0,2],[2,3],[3,4]]}']
    plain = run_cli(argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        traced = run_cli(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["cli.main.calls"] == 1
    assert metrics["hypergraphs.hom_count.calls"] == 1
    assert metrics["gluing.graph_key.calls"] == 2
    root = tracer.names.index("cli.main")
    assert tracer.span_name[0] == root and tracer.span_parent[0] == -1
    for sid in range(1, len(tracer.span_start)):
        parent = tracer.span_parent[sid]
        assert 0 <= parent < sid
        assert tracer.span_start[parent] <= tracer.span_start[sid] <= tracer.span_end[sid]
        assert tracer.span_end[sid] <= tracer.span_end[parent]
        assert tracer.span_op[sid] == 0
    total = tracer.span_end[0] - tracer.span_start[0]
    assert 0 < sum(metrics[f"{m}.self_s"] for m in tracing.MODULES) <= total + 1e-9
    assert tracer.write_spans(str(tmp_path / "spans.tsv.gz")) == len(tracer.span_start)


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(100)]
    value, pct, n = run.tail([xs[:50], xs[50:]])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(x > value for x in xs) == 10


def test_tail_of_few_samples_is_slowest_operation_median():
    assert run.tail([[1.0, 3.0], [2.0, 5.0], [1.5, 4.0]]) == (4.0, None, 6)


def test_independent_hom_counts():
    k4 = workloads.clique(4)
    assert checks.hom_count("edge", *k4) == 12
    assert checks.hom_count("K3", *k4) == 24
    assert checks.hom_count("K4", *k4) == 24
    assert checks.hom_count("P3", *workloads.cycle(5)) == 5 * 2**3
