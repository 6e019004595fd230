"""The paper's claims about paths, checked through the command line.

Blakley–Roy says that the path with k edges has density at least edge^k.
Sums of squares cannot test it for odd k: at degree ceil(k/2), the least
that puts P_k among the tropicalized products, the binomial is not valid on
the tropicalized SOS cone for k = 3, 5 and 7, and valid for the even paths
and the single edge.  Below that degree P_k is not among them, and the test is
refused.  For P3 the degree-2 counting obstruction of k copies of P3 against
k + 1 copies of edge^3 is validated at every tested k.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

import pytest

from graphtrop.cli import main
from test_cli import OUTPUT_SHA256, _numbered


def path_json(k: int) -> str:
    """The path with k edges, given as explicit JSON."""
    return json.dumps({"r": 2, "n": k + 1, "edges": [[i, i + 1] for i in range(k)]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of the stdout at degree ceil(k/2) and label budget 2
PATH_SHA256 = {
    5: "160e57a1c22d8b9db6bf7cac8e6e5a9565dac2e556bc27344e4bc2f0baad8ad9",
    6: "9264d4cd471a3f3c43077c0fde268a698749fcc7214633fb468c078a61037b67",
    7: "5a216dea7ec0e1380f1375f12d1e57f8e7f7f965a6a236faab3d177ad5e111a0",
    8: "b15929b5934d370257558bbf3ad4ffaff85c686b54adc7e3698b1dd86a51e408",
}


@pytest.mark.parametrize("k", range(1, 9))
def test_blakley_roy_on_trop_sos_fails_exactly_for_odd_paths(capsys, k):
    """P_k >= edge^k at degree ceil(k/2): not valid for P3, P5 and P7, valid on trop otherwise.

    Label budget 2 for every k, and 2 * ceil(k/2) as well for k <= 4.
    """
    d = -(-k // 2)
    for labels in sorted({2, 2 * d} if k <= 4 else {2}):
        argv = ("test-binomial", "trop-sos", path_json(k), f"edge^{k}", "--d", str(d), "--labels", str(labels))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, labels
        assert json.loads(out)["verdict"] == ("not valid" if k in (3, 5, 7) else "valid on trop"), labels
        if k in PATH_SHA256:
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PATH_SHA256[k]


@pytest.mark.parametrize(
    "upper, k",
    [("P3", 3)] + [(path_json(k), k) for k in range(3, 7)],
    ids=["named-P3", "P3", "P4", "P5", "P6"],
)
def test_paths_need_degree_half_their_length(capsys, upper, k):
    """Below degree ceil(k/2) no product of two basis elements has k edges, so P_k is refused."""
    d = -(-k // 2) - 1
    code, out, err = run_cli(capsys, "test-binomial", "trop-sos", upper, f"edge^{k}", "--d", str(d))
    assert code == 2 and out == ""
    assert "components outside basis" in err


@pytest.mark.parametrize("k", (1, 2, 3, 5, 7, 10, 20))
def test_p3_obstruction_is_validated_at_every_k(capsys, k):
    """The degree-2 counting obstruction of k copies of P3 against k + 1 copies of edge^3."""
    argv = ("obstruction", "P3", "edge^3", "--k", str(k), "--d", "2", "--labels", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["status"] == "validated-obstruction"


def test_ledger_does_not_depend_on_the_vertex_numbering(capsys):
    """P5 and P6 at degree 3 and the k=7 obstruction for P3 keep their pinned bytes, exit 0
    and print nothing on stderr with every graph argument as explicit JSON under two seeded
    random numberings."""
    runs = [
        (("test-binomial", "trop-sos", path_json(k), f"edge^{k}", "--d", "3", "--labels", "2"),
         (2, 3), PATH_SHA256[k])
        for k in (5, 6)
    ]
    c08 = "obstruction P3 edge^3 --k 7 --d 2 --labels 4"
    runs.append((tuple(c08.split()), (1, 2), OUTPUT_SHA256[c08]))
    rng = Random(20261021)
    for argv, at, digest in runs:
        for _ in range(2):
            variant = tuple(_numbered(a, rng) if i in at else a for i, a in enumerate(argv))
            code, out, err = run_cli(capsys, *variant)
            assert (code, err) == (0, ""), variant
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, variant
