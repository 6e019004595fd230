"""Tests for the command-line interface: outputs, formats, and exit codes."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path
from random import Random

import pytest

from graphtrop.cli import format_12g, load_graph, main
from graphtrop.hypergraphs import (
    complete_bipartite,
    complete_graph,
    density,
    disjoint_union,
    empty_graph,
    graph_key,
    path_graph,
    single_edge,
    star_hypergraph,
)
from graphtrop.obstructions import minor_certificate
from oracles import random_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_density_named_graphs(capsys):
    """Density of the two-edge path in a single edge is 1/4."""
    code, obj = run_json(capsys, "density", "path2", "edge")
    assert code == 0
    assert obj["density"] == "1/4"


def test_density_inline_json(capsys):
    """Inline JSON graphs are accepted directly."""
    text = '{"r":2,"n":3,"edges":[[0,1],[1,2]]}'
    code, obj = run_json(capsys, "density", text, "edge")
    assert code == 0
    assert obj["density"] == "1/4"


def test_density_stdin(capsys, monkeypatch):
    """A dash reads the graph JSON from standard input."""
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"r":2,"n":2,"edges":[[0,1]]}'))
    code, obj = run_json(capsys, "density", "-", "edge")
    assert code == 0
    assert obj["density"] == "1/2"


def test_density_at_file(capsys, tmp_path):
    """An @path argument reads the graph JSON from a file."""
    path = tmp_path / "g.json"
    path.write_text('{"r":2,"n":3,"edges":[[0,1],[0,2],[1,2]]}')
    code, obj = run_json(capsys, "density", f"@{path}", "K3")
    assert code == 0
    assert obj["density"] == "2/9"


def test_input_errors_exit_4(capsys, tmp_path):
    """Unknown names, malformed JSON, missing files and files that are not UTF-8 exit with
    code 4."""
    assert run_cli(capsys, "density", "nosuch", "edge")[0] == 4
    assert run_cli(capsys, "density", '{"bad": 1}', "edge")[0] == 4
    assert run_cli(capsys, "density", "@/no/such/file", "edge")[0] == 4
    path = tmp_path / "g.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["density", f"@{path}", "edge"]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "can't decode" in err


def test_input_error_messages_are_precise(capsys):
    """A non-integer or missing power, or a non-integer vertex, names the input, not Python."""
    for name in ("edge^x", "edge^"):
        assert main(["density", name, "K3"]) == 4
        assert f"power must be a positive integer in {name!r}" in capsys.readouterr().err
    assert main(["density", '{"r":2,"n":2,"edges":[[0,"a"]]}', "K3"]) == 4
    err = capsys.readouterr().err
    assert "edge entries must be integers" in err and "not supported" not in err
    assert main(["density", "edge", '{"r":2,"n":2,"edges":[[0,true]]}']) == 4
    assert "edge entries must be integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "graph", ['{"r":2,"n":true,"edges":[]}', '{"r":true,"n":2,"edges":[[0,1]]}']
)
def test_boolean_sizes_are_refused(capsys, graph):
    """true is not the size 1: r and n must be JSON integers, as edge entries are."""
    assert main(["density", "edge", graph]) == 4
    assert "hypergraph JSON has wrongly typed fields" in capsys.readouterr().err


def test_unknown_graph_keys_are_refused(capsys):
    """Graph JSON holds r, n and edges only; any other key is named and exits 4."""
    assert main(["density", '{"r":2,"n":2,"edges":[[0,1]],"x":1,"labels":{}}', "K3"]) == 4
    assert "hypergraph JSON has unknown keys ['labels', 'x']" in capsys.readouterr().err


def test_double_description_names_needed_dimension(capsys):
    """trop-sos beyond the double-description limit says which dimension it needed."""
    assert main(["trop-sos", "--d", "3", "--labels", "2"]) == 2
    err = capsys.readouterr().err
    assert "double description limited to dimension 12, got 50" in err


def test_binomial_on_trop_sos_reads_no_rays(capsys, monkeypatch):
    """test-binomial reads only the cone's basis and facets, so it answers on a trop-sos
    cone beyond the double-description limit without computing a ray."""
    import graphtrop.cones

    def no_rays(*args):
        raise AssertionError("test-binomial computed rays")

    monkeypatch.setattr(graphtrop.cones, "dd_rays", no_rays)
    argv = ["test-binomial", "trop-sos", "P3", "edge^3", "--d", "3", "--labels", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "not valid" and len(obj["basis"]) == 50
    assert _sha256(out) == "66b2d89ab54b04beda56ff45d333898ac3dcb97b44f065fecb6a551c6068fb98"


def test_density_in_large_complete_bipartite_graphs(capsys):
    """K_{6,6} and K_{7,7} are keyed, whatever their labelling; t(P3; K_{a,a}) = 1/8."""
    rng = Random(66)
    for a in (6, 7):
        keys = set()
        for _ in range(2):
            perm = list(range(2 * a))
            rng.shuffle(perm)
            edges = [sorted((perm[i], perm[a + j])) for i in range(a) for j in range(a)]
            G = json.dumps({"r": 2, "n": 2 * a, "edges": edges})
            code, obj = run_json(capsys, "density", "P3", G)
            assert code == 0
            assert obj["density"] == "1/8"
            keys.add(obj["G"])
        assert keys == {graph_key(complete_bipartite(a, a))}


def test_graph_key_limit_is_per_component(capsys):
    """Each connected component of a printed graph may have at most 20 vertices."""
    path = json.dumps({"r": 2, "n": 26, "edges": [[i, i + 1] for i in range(25)]})
    assert main(["density", "edge", path]) == 2
    assert "canonical form limited to 20 vertices, got 26" in capsys.readouterr().err
    code, obj = run_json(capsys, "density", "edge", "edge^15")
    assert code == 0
    assert obj["density"] == "1/30"


def test_trop_sos_small_cone(capsys):
    """The degree-1 budget-2 cone has the two known rays and three facets."""
    code, obj = run_json(capsys, "trop-sos", "--d", "1", "--labels", "2")
    assert code == 0
    assert obj["rays"] == [[-1, -2], [-1, -1]]
    assert [-2, 1] in obj["facets"]
    assert obj["moment_basis_size"] == 4
    assert obj["degenerate"] is False


def test_trop_sos_default_budget(capsys):
    """Omitting the label budget defaults to twice the degree."""
    code, obj = run_json(capsys, "trop-sos", "--d", "1")
    assert code == 0
    assert obj["rays"] == [[-1, -2], [-1, -1]]


def test_trop_sos_degenerate(capsys):
    """Label budget zero leaves only the empty cone, flagged as degenerate."""
    code, obj = run_json(capsys, "trop-sos", "--d", "1", "--labels", "0")
    assert code == 0
    assert obj["degenerate"] is True
    assert obj["basis"] == [] and obj["rays"] == []


def test_clique_cone_command(capsys):
    """The (2,3) clique cone emits the two known extreme rays."""
    code, obj = run_json(capsys, "clique-cone", "--r", "2", "--l", "3")
    assert code == 0
    assert obj["rays"] == [[-2, -3], [0, -1]]
    assert len(obj["basis"]) == 2


def test_star_cone_command(capsys):
    """The two-branch star cone matches the degree-1 moment cone rays."""
    code, obj = run_json(capsys, "star-cone", "--r", "2", "--c", "1", "--l", "2")
    assert code == 0
    assert obj["rays"] == [[-1, -2], [-1, -1]]


def test_cone_commands_write_lineality_only_when_nonempty(capsys):
    """Cone outputs hold basis, facets and rays, plus lineality when the cone has any."""
    code, out = run_cli(capsys, "trop-sos", "--d", "1", "--labels", "1")
    assert code == 0 and '"lineality"' in out
    assert json.loads(out)["lineality"] == [[1, 2]]
    code, out = run_cli(capsys, "clique-cone", "--l", "4")
    assert code == 0 and '"lineality"' not in out
    assert sorted(json.loads(out)) == ["basis", "facets", "rays"]


def test_cone_parameter_failure_exit_2(capsys):
    """Inconsistent cone parameters exit with code 2."""
    assert run_cli(capsys, "clique-cone", "--r", "3", "--l", "2")[0] == 2
    assert run_cli(capsys, "star-cone", "--r", "2", "--c", "2", "--l", "3")[0] == 2


def test_binomial_valid_on_star_cone(capsys):
    """path2 >= e^2 holds on the two-branch star cone via a facet."""
    code, obj = run_json(
        capsys, "test-binomial", "star", "path2", "edge^2", "--r", "2", "--c", "1", "--l", "2"
    )
    assert code == 0
    assert obj["difference"] == [-2, 1]
    assert obj["verdict"] == "valid on trop"
    assert obj["coefficients"] == ["1/1", "0/1"]


def test_binomial_valid_on_clique_cone(capsys):
    """e^3 >= K3^2 holds on the (2,3) clique cone."""
    code, obj = run_json(
        capsys, "test-binomial", "clique", "edge^3", "K3^2", "--r", "2", "--l", "3"
    )
    assert code == 0
    assert obj["difference"] == [3, -2]
    assert obj["verdict"] == "valid on trop"


def test_binomial_equal_graphs_trivially_valid(capsys):
    """Equal sides give the zero vector, valid with zero coefficients."""
    code, obj = run_json(capsys, "test-binomial", "clique", "K3", "K3", "--l", "3")
    assert code == 0
    assert obj["difference"] == [0, 0]
    assert obj["verdict"] == "valid on trop"
    assert all(c == "0/1" for c in obj["coefficients"])


def test_binomial_invalid_with_separator(capsys):
    """The reversed clique inequality is refuted by a cone point."""
    code, obj = run_json(
        capsys, "test-binomial", "clique", "K3^2", "edge^3", "--r", "2", "--l", "3"
    )
    assert code == 0
    assert obj["verdict"] == "not valid"
    sep = obj["separator"]
    assert sum(s * d for s, d in zip(sep, obj["difference"])) < 0


def test_binomial_on_trop_sos_cone(capsys):
    """The moment-cone source accepts the degree and budget flags."""
    code, obj = run_json(
        capsys, "test-binomial", "trop-sos", "path2", "edge^2", "--d", "1", "--labels", "2"
    )
    assert code == 0
    assert obj["verdict"] == "valid on trop"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["clique", "edge", "K3", "--l", "3", "--r", "3"], "3 vs 2"),
        (["star", '{"r":3,"n":3,"edges":[[0,1,2]]}', "edge", "--l", "2", "--r", "3"], "3 vs 2"),
        (["trop-sos", '{"r":3,"n":3,"edges":[[0,1,2]]}', "edge", "--d", "1", "--labels", "2"],
         "2 vs 3"),
    ],
    ids=["clique", "star", "trop-sos"],
)
def test_binomial_refuses_a_graph_of_another_uniformity(capsys, argv, want):
    """A graph whose uniformity is not the cone's is refused, H1 then H2, with both named."""
    assert main(["test-binomial", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graphtrop: precondition failure: uniformity mismatch: {want}\n"


def test_binomial_missing_parameters_exit_2(capsys):
    """Each cone source insists on its size parameter: a usage error, exit 2."""
    for cone, flag in (("clique", "--l"), ("trop-sos", "--d")):
        with pytest.raises(SystemExit) as exc:
            main(["test-binomial", cone, "edge", "edge"])
        assert exc.value.code == 2
        assert f"the following arguments are required: {flag}" in capsys.readouterr().err


def test_trop_sos_cone_refuses_nonpositive_degree(capsys):
    """trop-sos and test-binomial trop-sos refuse d < 1 with one message."""
    binomial = ["test-binomial", "trop-sos", "edge", "path2", "--d", "0"]
    for argv in (["trop-sos", "--d", "0"], binomial):
        assert main(argv) == 2
        assert "precondition failure: degree must be positive" in capsys.readouterr().err


def test_minor_cert_refuses_nonpositive_degree(capsys):
    """minor-cert refuses d < 1 with the message of obstruction."""
    minor_cert = ["minor-cert", "path2", "--fixed", "edge", "1/2"]
    for argv in (minor_cert, ["obstruction", "P3", "edge^3", "--k", "1"]):
        assert main([*argv, "--d", "0"]) == 2
        assert "degree must be at least 1, got 0" in capsys.readouterr().err


def test_binomial_graph_outside_basis_exit_2(capsys):
    """Graphs with components outside the cone basis are a precondition failure."""
    assert run_cli(capsys, "test-binomial", "clique", "P3", "edge^3", "--l", "3")[0] == 2


def _monomial(graphs, exponents):
    """The disjoint union of exponents[j] copies of graphs[j]: its density is the monomial."""
    out = empty_graph(0)
    for g, a in zip(graphs, exponents):
        for _ in range(a):
            out = disjoint_union(out, g)
    return out


@pytest.mark.parametrize(
    "family, graphs, box",
    [
        ("clique", [complete_graph(2), complete_graph(3)], range(-3, 4)),
        ("star", [star_hypergraph(b, 1, 2) for b in (1, 2, 3)], range(-2, 3)),
    ],
    ids=["clique", "star"],
)
def test_binomial_never_valid_when_a_sampled_graph_violates_it(capsys, family, graphs, box):
    """test-binomial never calls t(H1) >= t(H2) valid on trop if a sampled graph violates it.

    A pure binomial inequality is valid on the profile exactly when its linear
    form is valid on the tropicalization, so a graph violating it refutes a
    "valid on trop" verdict.  H1 and H2 range over the monomials in the K2, K3
    (or 1- to 3-branch star) densities whose exponent difference lies in the
    box; the densities come from seeded random graphs on 3 to 8 vertices.
    """
    rng = Random(20261018)
    samples = []
    for _ in range(12):
        G = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5, 0.7]))
        samples.append([density(g, G) for g in graphs])
    violated = 0
    for diff in product(box, repeat=len(graphs)):
        up = [max(a, 0) for a in diff]
        down = [max(-a, 0) for a in diff]
        if not any(
            prod(t**a for t, a in zip(ts, up)) < prod(t**a for t, a in zip(ts, down))
            for ts in samples
        ):
            continue
        H1, H2 = _monomial(graphs, up).to_json(), _monomial(graphs, down).to_json()
        code, obj = run_json(capsys, "test-binomial", family, H1, H2, "--l", "3")
        assert code == 0
        assert obj["verdict"] == "not valid", diff
        violated += 1
    assert violated > 0
def test_obstruction_command(capsys):
    """The degree-1 obstruction run reports a validated obstruction."""
    code, obj = run_json(capsys, "obstruction", "P3", "edge^3", "--k", "1", "--d", "1")
    assert code == 0
    assert obj["status"] == "validated-obstruction"
    assert obj["chain_bound"] == "12/1"
    assert obj["lp_separator"] == [0, 0, -1]


def test_obstruction_precondition_exit_2(capsys):
    """A precondition failure is reported in full and exits with code 2."""
    code, obj = run_json(capsys, "obstruction", "edge", "edge", "--k", "2", "--d", "1")
    assert code == 2
    assert obj["status"] == "precondition-failure"


def test_obstruction_refuses_mixed_uniformities(capsys):
    """Upper and lower graphs of different uniformity exit 2 with the message alone.

    A 3-uniform path against edge^3 printed a validated obstruction, its basis
    extended by the 2-uniform edge; an upper graph that failed a precondition
    printed a precondition report.
    """
    path = '{"r":3,"n":7,"edges":[[0,1,2],[2,3,4],[4,5,6]]}'
    for upper, lower, message in ((path, "edge^3", "3 vs 2"), ("edge^3", path, "2 vs 3"),
                                  ("edge", '{"r":3,"n":3,"edges":[[0,1,2]]}', "2 vs 3")):
        code = main(["obstruction", upper, lower, "--k", "7", "--d", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"graphtrop: precondition failure: uniformity mismatch: {message}\n"


def test_obstruction_on_twelve_edge_upper_graph_reports_precondition(capsys):
    """A 12-edge upper graph that is no trivial square gets its report, not a refusal."""
    upper = ('{"r":2,"n":8,"edges":[[0,2],[0,4],[0,7],[1,2],[1,5],[2,3],[2,5],[2,6],'
             '[3,4],[3,7],[4,6],[5,6]]}')
    start = time.monotonic()
    code = main(["obstruction", upper, "P4", "--k", "1", "--d", "1", "--labels", "2"])
    captured = capsys.readouterr()
    assert time.monotonic() - start < 10.0
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "precondition-failure"
    assert ["upper graph is a trivial square", False] in report["preconditions"]


def test_obstruction_on_twelve_edge_4_graph_reports_trivial_square_fast(capsys):
    """A connected 12-edge 4-graph on 15 vertices is a trivial square, found in well under 1 s.

    The subgraph search took about 10 s on it, with no early stop.
    """
    edges = [[0, 1, 6, 7], [0, 5, 12, 14], [0, 6, 8, 11], [0, 6, 9, 12], [0, 8, 10, 14],
             [1, 2, 9, 12], [1, 3, 9, 12], [1, 4, 7, 12], [3, 6, 7, 10], [3, 6, 10, 14],
             [3, 7, 12, 13], [4, 7, 11, 14]]
    upper = json.dumps({"r": 4, "n": 15, "edges": edges})
    lower = json.dumps({"r": 4, "n": 48, "edges": [list(range(4 * i, 4 * i + 4)) for i in range(12)]})
    start = time.monotonic()
    code = main(["obstruction", upper, lower, "--k", "1", "--d", "1", "--labels", "2"])
    captured = capsys.readouterr()
    assert time.monotonic() - start < 1.0
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "precondition-failure"
    assert ["upper graph is a trivial square", True] in report["preconditions"]


def test_obstruction_bad_flags_exit_2(capsys):
    """A nonpositive exponent is rejected before any computation."""
    assert run_cli(capsys, "obstruction", "P3", "edge^3", "--k", "0", "--d", "1")[0] == 2


@pytest.mark.parametrize("p", ["0", "-1"])
def test_obstruction_refuses_threshold_below_one(capsys, p):
    """A threshold p below 1 is refused up front, with no report on stdout."""
    code = main(["obstruction", "P3", "edge^3", "--k", "7", "--d", "2", "--labels", "4", "--p", p])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"threshold p must be at least 1, got {p}" in captured.err


def test_trajectory_clique_converges(capsys):
    """The second clique ray trajectory lands within 0.05 of (0, -1)."""
    code, out = run_cli(
        capsys, "family-trajectory", "clique", "--r", "2", "--l", "3", "--k", "2",
        "--schedule", "1e-1,1e-2,1e-3,1e-4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,K2,K3,distance"
    assert len(lines) == 5
    assert float(lines[-1].split(",")[-1]) < 0.05


def test_trajectory_star_converges(capsys):
    """The exponent-2 star trajectory lands within 0.05 of (-1,-2,-2)/norm."""
    code, out = run_cli(
        capsys, "family-trajectory", "star", "--r", "2", "--c", "1", "--l", "3",
        "--k", "2", "--schedule", "1e-1,1e-2,1e-3,1e-4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,S1,S2,S3,distance"
    distances = [float(line.split(",")[-1]) for line in lines[1:]]
    assert distances[-1] < 0.05
    assert distances == sorted(distances, reverse=True)


def test_trajectory_parameter_keeps_its_digits_below_float_range(capsys):
    """A parameter below float range prints from its exact value, not as 0.

    At 1e-400 float(param) is 0.0; the coordinates were already right, since
    they go through log_fraction.  In float range the column equals
    "%.12g" % float(param), ties at the twelfth digit aside.
    """
    code, out = run_cli(
        capsys, "family-trajectory", "clique", "--l", "3", "--k", "2", "--schedule", "1e-400"
    )
    assert code == 0
    assert out == "parameter,K2,K3,distance\n1e-400,-0.00075257498916,-3,0.0002508583238\n"
    assert format_12g(Fraction(123456789012345, 10**420)) == "1.23456789012e-406"
    rng = Random(1918)
    values = [Fraction(1, 10**k) for k in range(1, 12)] + [Fraction(2) ** -18, Fraction(1, 3)]
    values += [Fraction(rng.randint(1, 2**53), 2 ** rng.randint(1, 200)) for _ in range(300)]
    for x in values:
        assert format_12g(x) == "%.12g" % float(x), x


def test_trajectory_single_point(capsys):
    """A single parameter value yields one row without a schedule."""
    code, out = run_cli(
        capsys, "family-trajectory", "clique", "--l", "3", "--k", "1", "--schedule", "1e-2"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_trajectory_json_format(capsys):
    """The JSON format wraps the same rows with a column manifest."""
    code, obj = run_json(
        capsys, "--format", "json", "family-trajectory", "star", "--l", "2",
        "--k", "1", "--schedule", "1e-3",
    )
    assert code == 0
    assert obj["columns"] == ["parameter", "S1", "S2", "distance"]
    assert len(obj["rows"]) == 1


def test_trajectory_single_value_flag_is_refused(capsys):
    """A single value is a one-value --schedule: --alpha is a usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["family-trajectory", "clique", "--l", "3", "--k", "2", "--alpha", "1e-2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha 1e-2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "test-binomial clique edge K3 --l 3 --d 5 --labels 9 --c 4",
    "test-binomial trop-sos path2 edge^2 --d 1 --labels 2 --r 7 --l 1 --c 3",
    "family-trajectory clique --l 3 --k 2 --c 9 --schedule 1e-1",
    "test-binomial star path2 edge^2 --l 2 --labels 4",
    "density P3 K4 --out OUT",
])
def test_options_of_another_kind_are_refused(capsys, tmp_path, argv):
    """An option that the command, cone kind or family does not read is a usage error, exit 2;
    --out and --format are read only before the subcommand."""
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if tok == "OUT" else tok for tok in argv.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ("trop-sos --d 1 --lab 2", "unrecognized arguments: --lab 2"),
    ("test-binomial trop-sos path2 edge^2 --d 1 --labels 2 --l 1", "unrecognized arguments: --l 1"),
    ("family-trajectory clique --l 3 --k 2 --sched 1e-1", "unrecognized arguments: --sched 1e-1"),
    ("obstruction P3 edge^3 --k 1 --d 1 --lab 2", "unrecognized arguments: --lab 2"),
    ("minor-cert path2 --fix edge 1/2 --d 1", "the following arguments are required: --fixed"),
    ("--ou OUT density K3 K4", "invalid choice: "),
    ("--fo json density K3 K4", "invalid choice: 'json'"),
])
def test_options_are_read_only_by_their_full_names(capsys, tmp_path, argv, message):
    """A prefix of an option, such as --l for --labels, is a usage error, exit 2; before the
    subcommand its value is then read as the command."""
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if tok == "OUT" else tok for tok in argv.split()])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# Every parser by its path of subcommands, with the options it declares besides -h.
PARSER_OPTIONS = {
    (): {"--out", "--format"},
    ("density",): set(),
    ("trop-sos",): {"--d", "--labels"},
    ("clique-cone",): {"--r", "--l"},
    ("star-cone",): {"--r", "--c", "--l"},
    ("test-binomial",): set(),
    ("test-binomial", "clique"): {"--r", "--l"},
    ("test-binomial", "star"): {"--r", "--c", "--l"},
    ("test-binomial", "trop-sos"): {"--d", "--labels"},
    ("obstruction",): {"--k", "--d", "--labels", "--p"},
    ("minor-cert",): {"--fixed", "--d", "--labels"},
    ("family-trajectory",): set(),
    ("family-trajectory", "clique"): {"--r", "--l", "--k", "--schedule"},
    ("family-trajectory", "star"): {"--r", "--c", "--l", "--k", "--schedule"},
}


def test_each_parser_declares_exactly_its_options(capsys):
    """The option contract as a table: every parser, leaf or not, declares exactly the
    options above and reads none by a prefix, and -h on every leaf prints its help and
    exits 0."""
    from graphtrop.cli import build_parser

    found, leaves, abbreviating = {}, [], []
    stack = [((), build_parser())]
    while stack:
        path, parser = stack.pop()
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        found[path] = options
        if parser.allow_abbrev:
            abbreviating.append(path)
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in subs:
            stack.extend((path + (name,), child) for name, child in action.choices.items())
        if not subs:
            leaves.append(path)
    assert found == PARSER_OPTIONS
    assert abbreviating == []
    for path in leaves:
        with pytest.raises(SystemExit) as exc:
            main([*path, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: graphtrop {' '.join(path)} [-h]")


def test_trajectory_bad_parameters(capsys):
    """Out-of-range values exit 2 and unparsable tokens exit 4."""
    base = ["family-trajectory", "clique", "--l", "3", "--k", "2", "--schedule"]
    assert run_cli(capsys, *base, "2")[0] == 2
    assert run_cli(capsys, *base, "abc")[0] == 4
    assert run_cli(capsys, "family-trajectory", "clique", "--l", "3", "--k", "5",
                   "--schedule", "1e-2")[0] == 2
    assert run_cli(capsys, "family-trajectory", "clique", "--l", "3", "--k", "1")[0] == 2


def test_trajectory_clique_uniformity_below_two_exit_2(capsys):
    """A clique family of uniformity 1 is a precondition failure, not a trajectory."""
    code, out = run_cli(
        capsys, "family-trajectory", "clique", "--r", "1", "--l", "3", "--k", "1",
        "--schedule", "1e-1",
    )
    assert code == 2
    assert out == ""


def test_out_file_matches_stdout(capsys, tmp_path):
    """Writing to a file produces the same bytes as stdout."""
    _, stdout_text = run_cli(capsys, "clique-cone", "--l", "4")
    path = tmp_path / "cone.json"
    code = main(["--out", str(path), "clique-cone", "--l", "4"])
    capsys.readouterr()
    assert code == 0
    assert path.read_text() == stdout_text


def test_unwritable_out_exit_4(capsys):
    """An unwritable output path exits with code 4."""
    assert main(["--out", "/no/such/dir/x.json", "clique-cone", "--l", "3"]) == 4
    capsys.readouterr()


def test_byte_identical_reruns(capsys):
    """Identical invocations produce byte-identical output."""
    argv = ["obstruction", "P3", "edge^3", "--k", "1", "--d", "1"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_csv_rejected_for_json_commands(capsys):
    """Requesting CSV from a JSON-only command is a precondition failure."""
    assert run_cli(capsys, "--format", "csv", "trop-sos", "--d", "1")[0] == 2


def _checkout_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point():
    """The package runs as python -m graphtrop, from an uninstalled checkout too."""
    proc = subprocess.run(
        [sys.executable, "-m", "graphtrop", "density", "K3", "K4"],
        capture_output=True, text=True, env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["density"] == "3/8"


def test_runtime_imports_no_test_only_library():
    """The CLI, a density and a minor certificate run without numpy or a test-only library,
    without dataclasses or inspect (the core types are named tuples), without logging
    or traceback (the package writes no log records), and without csv (the trajectory
    CSV is a plain join)."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import graphtrop.cli\n"
        "from graphtrop.hypergraphs import complete_graph, density, path_graph, single_edge\n"
        "from graphtrop.obstructions import minor_certificate\n"
        "t = density(complete_graph(3), complete_graph(4))\n"
        "cert = minor_certificate({single_edge(): Fraction(1, 2)}, path_graph(2), 1)\n"
        "test_only = ('numpy', 'sympy', 'networkx', 'hypothesis', 'scipy')\n"
        "print(t, cert.status, [m for m in test_only if m in sys.modules])\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        "print([m for m in ('logging', 'traceback') if m in sys.modules])\n"
        "print('csv' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3/8 inconclusive []\n[]\n[]\nFalse\n"


# sha256 of the stdout of fast runs.  Refactors of keys, products and cone
# arithmetic must leave these bytes alone: any change to a key, an ordering or
# a certificate changes them.
OUTPUT_SHA256 = {
    "trop-sos --d 1 --labels 2":
        "8cc6f7fb748e0c91d7457a85759e0930037c3df85bc9e3cbc92bc3944a974833",
    "trop-sos --d 2 --labels 2":
        "93f64678573ca4da672b54b95d06a7b5b826c689583cfec96b3b64aae1604e12",
    "trop-sos --d 2 --labels 4":
        "4ae29f5a5255da563b866865c9b9016ac92cc19177358e86ddc72b404fd85121",
    "obstruction P3 edge^3 --k 7 --d 2 --labels 4":
        "31798689815242873bedd2ce83ab667e82cd3bee41404c59bb16a012e9d5fd6c",
    'obstruction {"r":2,"n":6,"edges":[[0,1],[2,3],[3,4],[4,5]]} P4 --k 3 --d 2 --labels 3':
        "11aa72b272943365752b0d5cf55995db060ec9a79e55100fe449fcc847102912",
    "obstruction P3 edge^3 --k 7 --d 3 --labels 3":
        "00299bc85b607248f63bf987f52265a157e8085384dd3d33426787173d4738e8",
    'obstruction {"r":2,"n":6,"edges":[[0,1],[2,3],[3,4],[4,5]]} P4 --k 3 --d 2 --labels 4':
        "0ec138f5a20a54e9dcb8ba5cb27ab561471e51e7bf709f0a717eef86a49573a5",
    "test-binomial star path2 edge^2 --r 2 --c 1 --l 2":
        "364eb4ba02d6c8f129f8ac2f6d3b7e8502de6c984063bbea2c40d1f90d0dfc5d",
    "test-binomial clique edge^3 K3^2 --r 2 --l 3":
        "773327aeed91a005e9bb1601aa06352162f7891c43e91b20477d42c461f07037",
    "test-binomial trop-sos path2 edge^2 --d 1 --labels 2":
        "1ab0318b251bb0f44cc428a4e468d676600e57528c630979c652efadb7abb290",
    "trop-sos --d 1 --labels 1":
        "a24a035570ccd87eae0eda6edbedf39d6517aa7f68a8ec3b484bbeca2dc463f0",
    "clique-cone --r 2 --l 4":
        "fb2167932daf2e14326b3f29783dcd90fa6823cd23eddea183fcc1eb863e198f",
    "clique-cone --l 4":
        "fb2167932daf2e14326b3f29783dcd90fa6823cd23eddea183fcc1eb863e198f",
    "star-cone --r 3 --c 2 --l 4":
        "31725d2c8d6b8db5322edcd5fefa5a528fc2aade0a51f0367276699665f7b55b",
    "density path2 K4":
        "2af32118c1e46e435b56c99bce3a1319df69160e523599e2f67dfdbfb463df8e",
    "clique-cone --r 2 --l 3":
        "6359660c961a997fb67f26fd9d7546b98f9b9426e08b57df76fef5c3373c967f",
    "--format json family-trajectory clique --r 2 --l 3 --k 2 --schedule 1e-1,1e-2,1e-3,1e-4":
        "e366b3dcc3f2ebe7749f1ea57818dba78d2e4057a34b3ba7ee1a2e7941f05e0c",
    "family-trajectory clique --r 2 --l 3 --k 2 --schedule 1e-1,1e-2,1e-3,1e-4":
        "e79fae641370a828e08c125a48f6de857c0f609b1d166f73184c67c700682f70",
    "family-trajectory star --r 2 --c 1 --l 3 --k 2 --schedule 1e-1,1e-2,1e-3,1e-4":
        "62ce80fcc7972d1ee519881bd06b278d565c4b20a4a2aa4589ca1ef9200460e9",
    "family-trajectory clique --l 3 --k 2 --schedule 1e-400":
        "0742557f07e4de87c44b297ac7378dd28a3315a474e075a72651c9f06d90f34e",
    "test-binomial trop-sos P3 edge^3 --d 2 --labels 4":
        "c2b51f989804cafa2c7b6747abdc61be014ce0b22767e374f058b99006962a1c",
    "test-binomial trop-sos P3 edge^3 --d 3 --labels 4":
        "e3eec73f81b7fa8ea51fdc19196e6c60f0be5188a3c1bcd544e69d26f1a2d4b7",
}
# sha256 of a precondition-failure report, which exits 2.
PRECONDITION_REPORT_SHA256 = "f05b9b5f1998346c2225ef1fc67a3a1e6fa221f2225e8c16df7dd97f66862bff"
MINOR_CERTIFICATE_SHA256 = "6bbd213b620e8d647e46950f5015ab79ee6330ac43e481d533b226cb56931bf2"
# sha256 of minor_certificate(...).to_json() for edge = 7/10, free path2, d = 2,
# at the benchmark's two K3 densities: a refutation by a pair of minors, and
# the moment point of the constant graphon.
C06_CERTIFICATE_SHA256 = {
    "3/25": "5e131de1aa862f54f6252229f977e423e7508595c32b76f245e9c5fb6d298e05",
    "343/1000": "6ac2808f5ae4b4e69c96ac8663f626e9209a5346f91eb02039b7ab1cd0d8837f",
}
# sha256 of the minor-cert command's stdout at the same points, as the
# benchmark records them (perfbench/expected.json).
C06_CLI_SHA256 = {
    "3/25": "562f88895cfab81ab116565773c937f0f544629576fc6df51db5256aa32efcd0",
    "343/1000": "f3b4005c168dd904484edae672298ab3f3295d981a2b94d4df2a124c6fc0c2a6",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outputs_byte_identical_to_recorded_hashes(capsys):
    """Cone, obstruction, binomial and minor-certificate outputs keep their recorded bytes."""
    for argv, digest in OUTPUT_SHA256.items():
        code, out = run_cli(capsys, *argv.split())
        assert code == 0, argv
        assert _sha256(out) == digest, argv
    fixed = {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(1, 5)}
    cert = minor_certificate(fixed, path_graph(2), 2)
    assert _sha256(cert.to_json()) == MINOR_CERTIFICATE_SHA256


def test_precondition_report_byte_identical_to_recorded_hash(capsys):
    """A precondition-failure report keeps its recorded bytes and exits 2."""
    code, out = run_cli(capsys, "obstruction", "P3", "P4", "--k", "1", "--d", "1", "--labels", "2")
    assert code == 2 and len(out) == 983
    assert _sha256(out) == PRECONDITION_REPORT_SHA256


# README's density, test-binomial, obstruction and minor-cert examples, with the
# positions of their graph arguments
README_EXAMPLES = (
    (("density", "path2", "K4"), (1, 2)),
    (("test-binomial", "star", "path2", "edge^2", "--r", "2", "--c", "1", "--l", "2"), (2, 3)),
    (("test-binomial", "clique", "edge^3", "K3^2", "--r", "2", "--l", "3"), (2, 3)),
    (("obstruction", "P3", "edge^3", "--k", "7", "--d", "2", "--labels", "4"), (1, 2)),
    (("minor-cert", "path2", "--fixed", "edge", "7/10", "--fixed", "K3", "3/25", "--d", "2"),
     (1, 3, 6)),
)


def _numbered(spec, rng):
    """The graph spec names as explicit JSON: in its own numbering when rng is None, else
    under a random numbering, with its edges and the vertices in each edge shuffled."""
    G = load_graph(spec)
    edges = [list(e) for e in G.sorted_edges()]
    if rng is not None:
        perm = rng.sample(range(G.n), G.n)
        edges = [rng.sample([perm[v] for v in e], len(e)) for e in edges]
        rng.shuffle(edges)
    return json.dumps({"r": G.r, "n": G.n, "edges": edges})


def test_readme_examples_do_not_depend_on_the_vertex_numbering(capsys):
    """Each README example gives the same exit code, stdout and stderr with every graph
    argument as explicit JSON, in its own numbering and in two seeded random ones, with its
    --fixed flags in reverse order (minor-cert), and each of these with cold and warm caches."""
    from graphtrop import hypergraphs

    def run(argv, cold):
        if cold:
            for cached in (hypergraphs._canonical_connected, hypergraphs.component_key,
                           hypergraphs.key_graph):
                cached.cache_clear()
            hypergraphs._KEY_REPS.clear()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    rng = Random(20261020)
    for argv, at in README_EXAMPLES:
        want = run(argv, True)
        assert want[0] == 0 and want[2] == "", argv
        variants = [argv]
        for numbering in (None, rng, rng):
            variants.append(tuple(_numbered(a, numbering) if i in at else a
                                  for i, a in enumerate(argv)))
        if argv[0] == "minor-cert":
            variants += [(*v[:2], *v[5:8], *v[2:5], *v[8:]) for v in variants]
        for variant in variants:
            assert run(variant, True) == run(variant, False) == want, variant


def test_c06_certificates_byte_identical_to_recorded_hashes():
    """The refuted and the moment point of c06 keep their recorded certificate bytes."""
    for k3, digest in C06_CERTIFICATE_SHA256.items():
        fixed = {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(k3)}
        cert = minor_certificate(fixed, path_graph(2), 2)
        assert _sha256(cert.to_json()) == digest, k3


def test_minor_cert_command_prints_the_certificate(capsys):
    """minor-cert prints to_json() and a newline, and exits 0 whether refuted or not."""
    statuses = set()
    for k3, digest in C06_CLI_SHA256.items():
        argv = ["path2", "--fixed", "edge", "7/10", "--fixed", "K3", k3, "--d", "2"]
        code, out = run_cli(capsys, "minor-cert", *argv)
        assert code == 0 and _sha256(out) == digest, k3
        statuses.add(json.loads(out)["status"])
    assert statuses == {"refuted", "inconclusive"}
    code, out = run_cli(capsys, "minor-cert", "path2", "--fixed", "edge", "1/2", "--d", "1")
    cert = minor_certificate({single_edge(): Fraction(1, 2)}, path_graph(2), 1)
    assert code == 0 and out == cert.to_json() + "\n"


def test_minor_cert_command_exit_codes(capsys):
    """Bad graphs and rationals exit 4; coordinates the certificate refuses exit 2."""
    base = ["--d", "1"]
    assert main(["minor-cert", "nosuch", "--fixed", "edge", "1/2", *base]) == 4
    assert main(["minor-cert", "path2", "--fixed", "edge", "1/x", *base]) == 4
    assert main(["minor-cert", "path2", "--fixed", "edge", "1/0", *base]) == 4
    empty = '{"r":2,"n":1,"edges":[]}'
    assert main(["minor-cert", "path2", "--fixed", empty, "1/2", *base]) == 2
    assert main(["minor-cert", "edge^2", "--fixed", "edge", "1/2", *base]) == 2
    assert main(["minor-cert", "path2", "--fixed", "edge^2", "1/4", *base]) == 2
    assert main(["minor-cert", "path2", "--fixed", "path2", "1/4", *base]) == 2
    twice = ["--fixed", "edge", "1/2", "--fixed", "edge", "1/3"]
    assert main(["minor-cert", "path2", *twice, *base]) == 2
    err = capsys.readouterr().err
    assert f"duplicate fixed coordinate {graph_key(single_edge())}" in err
    assert "fixed coordinate must be a connected graph with at least one edge" in err
    assert "free coordinate must be a connected graph with at least one edge" in err


def test_minor_cert_refuses_mixed_uniformities(capsys):
    """A fixed graph whose uniformity differs from the free one's exits 2 with the message.

    Its density never entered a minor, so the point came back inconclusive.
    """
    triple = '{"r":3,"n":3,"edges":[[0,1,2]]}'
    for free, fixed, message in ((triple, "edge", "3 vs 2"), ("path2", triple, "2 vs 3")):
        code = main(["minor-cert", free, "--fixed", fixed, "1/2", "--d", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"graphtrop: precondition failure: uniformity mismatch: {message}\n"
    with pytest.raises(ValueError, match="uniformity mismatch: 2 vs 3"):
        minor_certificate(
            {single_edge(): Fraction(1, 2), single_edge(3): Fraction(1, 2)}, path_graph(2), 1
        )


def test_minor_cert_value_outside_unit_interval_exits_2(capsys):
    """A fixed density must lie in [0, 1]; the refusal names the graph and the value."""
    assert main(["minor-cert", "path2", "--fixed", "edge", "3/2", "--d", "1"]) == 2
    assert "density of edge must lie in [0, 1], got 3/2" in capsys.readouterr().err
    for value in ("0", "1"):
        assert main(["minor-cert", "path2", "--fixed", "edge", value, "--d", "1"]) == 0


def test_minor_cert_value_is_read_unsigned(capsys):
    """argparse reads a VALUE that starts with "-" as a flag: usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["minor-cert", "path2", "--fixed", "edge", "-1/2", "--d", "1"])
    assert exc.value.code == 2
    assert "expected 2 arguments" in capsys.readouterr().err


def test_parser_is_built_once_and_parses_share_no_state(capsys):
    """main reuses one parser: a longer --fixed list or an error exit leaves nothing behind."""
    from graphtrop.cli import build_parser

    assert build_parser() is build_parser()
    one = ["minor-cert", "path2", "--fixed", "edge", "1/2", "--d", "1"]
    want = minor_certificate({single_edge(): Fraction(1, 2)}, path_graph(2), 1).to_json() + "\n"
    for k3, digest in C06_CLI_SHA256.items():
        code, out = run_cli(capsys, "minor-cert", "path2", "--fixed", "edge", "7/10",
                            "--fixed", "K3", k3, "--d", "2")
        assert code == 0 and _sha256(out) == digest
        assert run_cli(capsys, *one) == (0, want)
    with pytest.raises(SystemExit) as exc:
        main(["minor-cert", "path2", "--fixed", "edge", "--d", "1"])
    assert exc.value.code == 2
    assert "expected 2 arguments" in capsys.readouterr().err
    assert run_cli(capsys, *one) == (0, want)


def test_clique_parameter_errors_name_r_and_l(capsys):
    """family-trajectory clique and clique-cone refuse r < 2 or l < r with the same message."""
    for r, l in (("4", "3"), ("1", "3")):
        for argv in (
            ["family-trajectory", "clique", "--r", r, "--l", l, "--k", "1", "--schedule", "1e-1"],
            ["clique-cone", "--r", r, "--l", l],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"need 2 <= r <= l, got r={r}, l={l}" in captured.err
