"""Correctness gate for each operation, run outside the timed region.

Fixed operations (the same up to the seed's relabelling, which canonical keys
hide) are checked against sha256 hashes of their output, recorded in
expected.json from the reference commit by record_expected.py.  Seeded
density operations are checked without
a stored answer: the density must equal an independent homomorphism count
(walk counts 1^T A^k 1 for paths, networkx triangle counts for K3, a direct
4-subset count for K4), the reported key must be isomorphic to the input
(networkx), and it must equal the key of the graph before relabelling.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"

PATTERN_VERTICES = {"edge": 2, "P3": 4, "K3": 3, "K4": 4}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict[str, str]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def hom_count(pattern: str, n: int, edges) -> int:
    """hom(pattern, G) computed without graphtrop."""
    import numpy as np

    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    ones = np.ones(n, dtype=np.int64)
    if pattern == "edge":
        return int(ones @ A @ ones)
    if pattern == "P3":
        return int(ones @ A @ A @ A @ ones)
    if pattern == "K3":
        import networkx as nx

        return 2 * sum(nx.triangles(_networkx_graph(n, edges)).values())
    if pattern == "K4":
        adj = {frozenset(e) for e in map(tuple, edges)}
        quads = sum(
            all(frozenset(p) in adj for p in combinations(q, 2))
            for q in combinations(range(n), 4)
        )
        return 24 * quads
    raise ValueError(f"no independent count for pattern {pattern!r}")


def _networkx_graph(n: int, edges):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(map(tuple, edges))
    return G


def nx_isomorphic(g1, g2) -> bool:
    import networkx as nx

    return nx.is_isomorphic(_networkx_graph(*g1), _networkx_graph(*g2))


class Checker:
    """Verifies operation outputs; reference keys come from graphtrop on unrelabelled graphs."""

    def __init__(self, src: Path) -> None:
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        from graphtrop.gluing import graph_key
        from graphtrop.hypergraphs import Hypergraph, named_graph

        self._key = graph_key
        self._graph = lambda n, edges: Hypergraph.make(2, n, edges)
        self._named = named_graph
        self._expected = load_expected()
        self._references: dict[str, tuple[str, str | None]] = {}

    def _density_reference(self, op: dict) -> tuple[str, str | None]:
        """The exact output a density operation must print, and any fault in the reference."""
        spec = op["check"]["density"]
        n, edges, pattern = spec["n"], spec["edges"], spec["pattern"]
        value = Fraction(hom_count(pattern, n, edges), n ** PATTERN_VERTICES[pattern])
        key = self._key(self._graph(n, edges))
        obj = {
            "H": self._key(self._named(pattern)),
            "G": key,
            "density": f"{value.numerator}/{value.denominator}",
        }
        problem = None
        key_obj = json.loads(key)
        if not nx_isomorphic((key_obj["n"], key_obj["edges"]), (n, edges)):
            problem = "canonical key is not isomorphic to the input graph"
        return json.dumps(obj, sort_keys=True, indent=2) + "\n", problem

    def check(self, op: dict, result: dict) -> str | None:
        """None when the operation succeeded with a correct output, else the reason."""
        if result["code"] != 0:
            return f"exit code {result['code']}: {result['error']}"
        output = result["output"]
        check = op["check"]
        if "sha256" in check:
            want = self._expected.get(check["sha256"])
            if want is None:
                return f"no recorded hash for {check['sha256']!r}"
            return None if sha256(output) == want else "output hash differs from the recorded one"
        if op["id"] not in self._references:
            self._references[op["id"]] = self._density_reference(op)
        expected, problem = self._references[op["id"]]
        if problem is not None:
            return problem
        if output != expected:
            return "density or key differs from the independent count or the unrelabelled key"
        return None
