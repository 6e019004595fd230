"""Workload definitions: the operations one pass runs, generated from a seed.

Every graph handed to the program as JSON is relabelled by a permutation drawn
from the seed.  graphtrop reports graphs by canonical key, so outputs must not
depend on the relabelling; that is what lets fixed operations be checked
against hashes recorded once (see expected.json).

This module does not import graphtrop: the inputs are built from plain edge
lists, independently of the code under test.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

# Roughly the seconds one pass of each workload takes with the seed code on a
# 2-core Intel Xeon VM (Python 3.11.7, numpy 2.4.6).  A run makes
# max(1, seconds // NOMINAL_PASS_S) passes, so the amount of work measured
# depends only on --seconds, never on how fast the code under test is.
NOMINAL_PASS_S = {
    "trop-sos": 17.0,
    "minor-cert": 8.5,
    "obstruction": 9.0,
    "density": 7.0,
}

WORKLOADS = tuple(NOMINAL_PASS_S)

DENSITY_PATTERNS = ("edge", "P3", "K3", "K4")
RANDOM_TARGETS = 100
MAX_RANDOM_VERTICES = 20


# ---------------------------------------------------------------------------
# Graphs as (n, edge list)
# ---------------------------------------------------------------------------


def path(k: int):
    """Path with k edges."""
    return k + 1, [(i, i + 1) for i in range(k)]


def clique(j: int):
    return j, list(combinations(range(j), 2))


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def bipartite(a: int, b: int):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def hypercube(d: int):
    n = 1 << d
    return n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def union(*graphs):
    n, edges = 0, []
    for m, es in graphs:
        edges += [(u + n, v + n) for u, v in es]
        n += m
    return n, edges


def relabel(graph, rng: random.Random) -> str:
    """Inline graphtrop JSON of the graph under a random vertex permutation."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    out = [sorted((perm[u], perm[v])) for u, v in edges]
    rng.shuffle(out)
    return json.dumps({"r": 2, "n": n, "edges": out}, separators=(",", ":"))


def random_graph(rng: random.Random):
    n = rng.randint(8, MAX_RANDOM_VERTICES)
    p = rng.uniform(0.15, 0.5)
    return n, [e for e in combinations(range(n), 2) if rng.random() < p]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------
# An operation is a dict: "id", "kind" ("cli" with "argv", or
# "minor_certificate" with "args"), and "check", which says how run.py
# verifies the output: {"sha256": name} for fixed operations, or
# {"density": ...} for seeded ones, checked against an independent count.

# (name, pattern, graph, relabellings per pass).  Canonical search on a
# vertex-transitive graph costs up to twice as much under one labelling as
# under another, and C20's latency sets op_s_tail; eight labellings keep that
# percentile from resting on a single draw of the seed.
SYMMETRIC_TARGETS = (
    ("Q4", "P3", hypercube(4), 1),
    ("K5,5", "K3", bipartite(5, 5), 1),
    ("C20", "edge", cycle(20), 8),
    ("Petersen", "P3", petersen(), 1),
)


def _trop_sos(rng):
    return [
        {
            "id": "trop-sos d2 l4",
            "kind": "cli",
            "argv": ["trop-sos", "--d", "2", "--labels", "4"],
            "check": {"sha256": "trop-sos d2 l4"},
        }
    ]


def _minor_cert(rng):
    ops = []
    for name, k3 in (("c06 refuted", "3/25"), ("c06 moment point", "343/1000")):
        args = {
            "fixed": [[relabel(path(1), rng), "7/10"], [relabel(clique(3), rng), k3]],
            "free": relabel(path(2), rng),
            "degree": 2,
        }
        ops.append(
            {"id": name, "kind": "minor_certificate", "args": args, "check": {"sha256": name}}
        )
    return ops


def _obstruction(rng):
    p3_vs_edges = (path(3), union(path(1), path(1), path(1)))
    cases = (
        ("c08 flagship d2 l4", p3_vs_edges, "7", "2", "4"),
        ("c08 pair d3 l3", p3_vs_edges, "7", "3", "3"),
        ("e+P3 vs P4 d2 l4", (union(path(1), path(3)), path(4)), "3", "2", "4"),
    )
    ops = []
    for name, (upper, lower), k, d, labels in cases:
        argv = ["obstruction", relabel(upper, rng), relabel(lower, rng)]
        argv += ["--k", k, "--d", d, "--labels", labels]
        ops.append({"id": name, "kind": "cli", "argv": argv, "check": {"sha256": name}})
    return ops


def _density(rng):
    ops = []
    for name, pattern, graph, copies in SYMMETRIC_TARGETS:
        for k in range(copies):
            ops.append(
                {
                    "id": f"density {pattern} {name} #{k}",
                    "kind": "cli",
                    "argv": ["density", pattern, relabel(graph, rng)],
                    "check": {"sha256": f"density {pattern} {name}"},
                }
            )
    for i in range(RANDOM_TARGETS):
        graph = random_graph(rng)
        pattern = rng.choice(DENSITY_PATTERNS)
        ops.append(
            {
                "id": f"density random {i}",
                "kind": "cli",
                "argv": ["density", pattern, relabel(graph, rng)],
                "check": {"density": {"pattern": pattern, "n": graph[0], "edges": graph[1]}},
            }
        )
    return ops


_OPERATIONS = {
    "trop-sos": _trop_sos,
    "minor-cert": _minor_cert,
    "obstruction": _obstruction,
    "density": _density,
}


def operations(workload: str, seed: int) -> list[dict]:
    """The operations of one pass; the same workload and seed give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _OPERATIONS[workload](rng)


def passes(workload: str, seconds: int) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))
