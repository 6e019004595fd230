"""Canonical search against brute force, under relabelling, on vertex-transitive graphs,
and against the search that rebuilds its bound for every candidate."""

import functools
import sys
from contextlib import contextmanager
from itertools import combinations
from random import Random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphtrop import hypergraphs
from graphtrop.gluing import LabeledGraph, labeled_canonical_form
from graphtrop.hypergraphs import (
    Hypergraph,
    _map_plan,
    _maps_onto,
    _min_relabeling,
    _refine_classes,
    canonical_form,
    complete_bipartite,
    connected_components,
    disjoint_union,
    graph_key,
)
from oracles import (
    brute_canonical,
    loose_hypergraph,
    random_permuted,
    reference_min_relabeling,
    reference_refine_classes,
)


@st.composite
def pinned_graphs(draw, max_n=7, uniformities=(2, 3)):
    """An r-graph (r in uniformities) without isolated vertices and 0-3 of its vertices in label order."""
    r = draw(st.sampled_from(uniformities))
    n = draw(st.integers(r, max_n))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(n), r))), min_size=1))
    used = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(used)}
    G = Hypergraph.make(r, len(used), [tuple(index[v] for v in e) for e in edges])
    pinned = draw(st.permutations(range(G.n)))[: draw(st.integers(0, min(3, G.n)))]
    return G, tuple(pinned)


def _pin(G, pinned, labels=(2, 3, 5)):
    """G with labels[i] on pinned[i]; labels ascend, so label order is pin order."""
    return LabeledGraph(G, tuple(zip(labels, pinned)))


def _relabel(G, perm):
    return Hypergraph.make(G.r, G.n, [tuple(perm[v] for v in e) for e in G.edges])


def _cayley(n, gens):
    """Circulant graph on Z_n with connection set ±gens."""
    return Hypergraph.make(2, n, [(v, (v + g) % n) for v in range(n) for g in gens])


@st.composite
def pinned_circulants(draw):
    """A circulant graph, or two disjoint copies of one, with 0-2 of its vertices in label order."""
    n = draw(st.integers(5, 9))
    gens = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
    G = _cayley(n, sorted(gens))
    if n <= 7 and draw(st.booleans()):
        G = disjoint_union(G, G)
    pinned = draw(st.permutations(range(G.n)))[: draw(st.integers(0, 2))]
    return G, tuple(pinned)


# Pinned vertex-transitive graphs, where most candidates are skipped as orbit-mates.
@example((_cayley(6, [1]), (0,)))
@example((_cayley(6, [1]), (0, 2)))
@example((complete_bipartite(3, 3), (0, 3)))
@settings(max_examples=400, deadline=None)
@given(pinned_graphs())
def test_search_matches_brute_force(case):
    """Both canonical forms equal the minimum over every class-respecting relabeling."""
    G, pinned = case
    for C in connected_components(G):
        assert canonical_form(C).sorted_edges() == list(brute_canonical(C))
    A = labeled_canonical_form(_pin(G, pinned))
    assert A.graph.sorted_edges() == list(brute_canonical(G, pinned))
    assert A.labels == tuple(zip((2, 3, 5), range(len(pinned))))


@settings(max_examples=200, deadline=None)
@given(pinned_graphs(max_n=9), st.randoms(use_true_random=False))
def test_canonical_forms_invariant_under_relabeling(case, rng):
    """Relabelling the vertices (and moving the pins with them) leaves both forms alone."""
    _assert_relabeling_invariant(*case, rng)


def _assert_relabeling_invariant(G, pinned, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    H = _relabel(G, perm)
    assert canonical_form(H) == canonical_form(G)
    assert labeled_canonical_form(_pin(H, [perm[v] for v in pinned])) == labeled_canonical_form(
        _pin(G, pinned)
    )


# Twice C7(1, 3) or C7(1, 2) with one pin: a search that pruned by every
# recorded automorphism, not only by those fixing the mapped vertices, keyed
# these differently under these relabellings.
@example((disjoint_union(_cayley(7, [1, 3]), _cayley(7, [1, 3])), (5,)), Random(0))
@example((disjoint_union(_cayley(7, [1, 2]), _cayley(7, [1, 2])), (0,)), Random(1))
@settings(max_examples=50, deadline=None)
@given(pinned_circulants(), st.randoms(use_true_random=False))
def test_symmetric_labeled_forms_invariant_under_relabeling(case, rng):
    """On circulant graphs, where most branches are symmetric, both forms survive relabelling."""
    _assert_relabeling_invariant(*case, rng)


def _torus(a, b, gens):
    """Cayley graph on Z_a x Z_b with connection set ±gens."""

    def vid(x, y):
        return (x % a) * b + (y % b)

    cells = [(x, y) for x in range(a) for y in range(b)]
    edges = [(vid(x, y), vid(x + dx, y + dy)) for x, y in cells for dx, dy in gens]
    return Hypergraph.make(2, a * b, edges)


def _cube(d):
    n = 1 << d
    return Hypergraph.make(2, n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d)])


PETERSEN = Hypergraph.make(
    2,
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)

# Vertex-transitive graphs, grouped so that equal vertex and edge counts meet:
# Q4 and the 4x4 torus are isomorphic; the rook's graph K4 x K4 and the
# Shrikhande graph are both strongly regular (16, 6, 2, 2) and are not.
VERTEX_TRANSITIVE = {
    "K2,2": complete_bipartite(2, 2),
    "C4": _cayley(4, [1]),
    "K3,3": complete_bipartite(3, 3),
    "prism3": _torus(3, 2, [(1, 0), (0, 1)]),
    "C6": _cayley(6, [1]),
    "2C3": disjoint_union(_cayley(3, [1]), _cayley(3, [1])),
    "K4,4": complete_bipartite(4, 4),
    "Q3": _cube(3),
    "C8": _cayley(8, [1]),
    "Mobius8": _cayley(8, [1, 4]),
    "C8(1,2)": _cayley(8, [1, 2]),
    "C8(1,3)": _cayley(8, [1, 3]),
    "K5,5": complete_bipartite(5, 5),
    "Petersen": PETERSEN,
    "prism5": _torus(5, 2, [(1, 0), (0, 1)]),
    "C10(1,3)": _cayley(10, [1, 3]),
    "C10": _cayley(10, [1]),
    "K6,6": complete_bipartite(6, 6),
    "C12": _cayley(12, [1]),
    "K7,7": complete_bipartite(7, 7),
    "Q4": _cube(4),
    "torus4x4": _torus(4, 4, [(1, 0), (0, 1)]),
    "C16(1,4)": _cayley(16, [1, 4]),
    "rook4x4": _torus(4, 4, [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]),
    "Shrikhande": _torus(4, 4, [(1, 0), (0, 1), (1, 1)]),
    "C16": _cayley(16, [1]),
    "C20": _cayley(20, [1]),
}


def _nx(G):
    out = nx.Graph()
    out.add_nodes_from(range(G.n))
    out.add_edges_from(G.edges)
    return out


def test_vertex_transitive_keys_match_networkx():
    """Keys survive relabelling, and two keys agree exactly when networkx finds an isomorphism."""
    rng = Random(6)
    keys = {}
    for name, G in VERTEX_TRANSITIVE.items():
        keys[name] = graph_key(G)
        assert graph_key(random_permuted(rng, G)) == keys[name], name
    for a, b in combinations(VERTEX_TRANSITIVE, 2):
        A, B = VERTEX_TRANSITIVE[a], VERTEX_TRANSITIVE[b]
        if (A.n, A.edge_count) == (B.n, B.edge_count):
            assert (keys[a] == keys[b]) == nx.is_isomorphic(_nx(A), _nx(B)), (a, b)
    assert keys["Q4"] == keys["torus4x4"]
    assert keys["rook4x4"] != keys["Shrikhande"]


def _seed(G, pinned):
    """The refinement's seed for G with pinned[i] labelled i + 1, as `labeled_canonical_form` builds it."""
    seed = {v: 0 for v in range(G.n)}
    for i, v in enumerate(pinned):
        seed[v] = i + 1
    return seed


@settings(max_examples=300, deadline=None)
@given(pinned_graphs(max_n=9, uniformities=(2, 3, 4)))
def test_refinement_matches_reference(case):
    """One signature per edge per round gives the reference's classes, in the reference's order."""
    G, pinned = case
    args = G.n, G.sorted_edges(), _seed(G, pinned)
    assert _refine_classes(*args) == reference_refine_classes(*args)


def _search_args(G, pinned=()):
    """What both canonical forms hand the search for G with pinned[i] at index i."""
    classes = [cl for cl in _refine_classes(G.n, G.sorted_edges(), _seed(G, pinned)) if cl[0] not in pinned]
    return G.n, G.sorted_edges(), classes, {v: i for i, v in enumerate(pinned)}


class _CountingCap(int):
    """A node cap that counts the comparisons made against it."""

    seen = 0

    def __lt__(self, nodes):
        self.seen += 1
        return int(self) < nodes


def _search_and_nodes(search, args):
    """The encoding search(*args) returns, or its refusal, and the nodes it visited.

    Every node of the search first compares its node count with the module's
    `_SEARCH_NODE_CAP` (`nodes > cap`, which Python hands to the subclass's
    reflected `__lt__`), so a counting cap of the same value counts the nodes.
    """
    module = sys.modules[search.__module__]
    saved = module._SEARCH_NODE_CAP
    module._SEARCH_NODE_CAP = cap = _CountingCap(saved)
    try:
        out = search(*args)
    except ValueError as exc:
        out = str(exc)
    finally:
        module._SEARCH_NODE_CAP = saved
    return out, cap.seen


def _assert_search_matches_reference(G, pinned=()):
    args = _search_args(G, pinned)
    if not args[2]:  # every vertex pinned: the labelled form needs no search
        return
    new, new_nodes = _search_and_nodes(_min_relabeling, args)
    old, old_nodes = _search_and_nodes(reference_min_relabeling, args)
    assert new == old
    assert new_nodes == old_nodes > 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(pinned_graphs(max_n=9), pinned_circulants()))
def test_carried_bound_search_matches_reference(case):
    """The carried bound gives the rebuilt bound's encoding and visits the same nodes."""
    G, pinned = case
    for C in connected_components(G):
        _assert_search_matches_reference(C)
    _assert_search_matches_reference(G, pinned)


@pytest.mark.parametrize("name", ["Q4", "Petersen", "K5,5", "C20"])
@pytest.mark.parametrize("pins", [0, 1, 2])
def test_carried_bound_search_matches_reference_on_symmetric_graphs(name, pins):
    """Equal encodings, or equal refusals at the node cap, with equal node counts."""
    G = VERTEX_TRANSITIVE[name]
    _assert_search_matches_reference(G, (0, 1)[:pins])


def test_carried_bound_search_matches_reference_on_rook_graph():
    _assert_search_matches_reference(VERTEX_TRANSITIVE["rook4x4"])


@pytest.mark.parametrize(
    "k, r, cycle", [(8, 3, True), (7, 3, False), (8, 3, False), (5, 4, True), (5, 4, False), (6, 4, False)]
)
def test_carried_bound_search_matches_reference_on_loose_hypergraphs(k, r, cycle):
    """Renumbered 3- and 4-uniform loose cycles and paths on 15-19 vertices, with 0-2 pins.

    A bound entry is at most n - 1 and takes n.bit_length() bits, 4 at n = 15
    and 5 from n = 16 on, so these cover both sides of that step.
    """
    G = random_permuted(Random(k * r + cycle), loose_hypergraph(k, r, cycle))
    assert 15 <= G.n <= 19
    for pins in (0, 1, 2):
        _assert_search_matches_reference(G, (0, 1)[:pins])


# ---------------------------------------------------------------------------
# The component key cache
# ---------------------------------------------------------------------------

# The five connected cubic graphs on 8 vertices: equal vertex, edge and degree
# counts, so they share one bucket of the key cache, and pairwise non-isomorphic.
CUBIC8 = [
    Hypergraph.make(2, 8, edges)
    for edges in (
        [(0, 1), (0, 6), (0, 7), (1, 3), (1, 7), (2, 4), (2, 5), (2, 7), (3, 4), (3, 6), (4, 5), (5, 6)],
        [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (1, 7), (2, 5), (2, 6), (3, 6), (4, 6), (4, 7), (5, 7)],
        [(0, 1), (0, 6), (0, 7), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6), (4, 5), (4, 7)],
        [(0, 3), (0, 4), (0, 7), (1, 2), (1, 6), (1, 7), (2, 3), (2, 4), (3, 6), (4, 5), (5, 6), (5, 7)],
        [(0, 1), (0, 4), (0, 6), (1, 3), (1, 5), (2, 3), (2, 5), (2, 7), (3, 4), (4, 7), (5, 6), (6, 7)],
    )
]


@contextmanager
def _cold_key_cache():
    """A component_key with an empty exact memo and no representatives; the module's are kept."""
    saved = hypergraphs._KEY_REPS
    hypergraphs._KEY_REPS = {}
    try:
        yield functools.lru_cache(maxsize=None)(hypergraphs.component_key.__wrapped__)
    finally:
        hypergraphs._KEY_REPS = saved


def _switched(G, rng):
    """G after one degree-preserving switch: u in e and v in f trade edges, when both are new."""
    edges = G.sorted_edges()
    for _ in range(10 if len(edges) > 1 else 0):
        e, f = rng.sample(edges, 2)
        u, v = rng.choice(e), rng.choice(f)
        e2 = tuple(sorted({*e} - {u} | {v}))
        f2 = tuple(sorted({*f} - {v} | {u}))
        if len(e2) == len(f2) == G.r and e2 != f2 and not {e2, f2} & set(edges):
            return Hypergraph(G.r, G.n, G.edges - {e, f} | {e2, f2})
    return G


@settings(max_examples=200, deadline=None)
@given(pinned_graphs(), st.randoms(use_true_random=False))
def test_key_cache_matches_brute_force(case, rng):
    """Through one cold cache, switched graphs (equal degrees) and relabellings get brute-force keys."""
    graphs = [case[0]]
    for _ in range(4):
        graphs.append(_switched(graphs[-1], rng))
    graphs += [random_permuted(rng, G) for G in graphs]
    with _cold_key_cache() as component_key:
        for G in graphs:
            for C in connected_components(G):
                brute = Hypergraph(C.r, C.n, frozenset(brute_canonical(C)))
                assert component_key(C) == brute.to_json()


def test_key_cache_separates_graphs_with_equal_invariants():
    """Cubic graphs on 8 vertices, and the rook's graph K4 x K4 against the Shrikhande graph.

    Each round keys a new relabelling of every graph through one cold cache:
    the first round maps onto none of the other graphs' representatives, and
    later rounds reuse their own graph's key, so each graph is searched once.
    """
    graphs = CUBIC8 + [VERTEX_TRANSITIVE["rook4x4"], VERTEX_TRANSITIVE["Shrikhande"]]
    for a, b in combinations(graphs, 2):
        assert not nx.is_isomorphic(_nx(a), _nx(b))
    keys = [graph_key(G) for G in graphs]
    rng = Random(11)
    with _cold_key_cache() as component_key:
        for _ in range(6):
            assert [component_key(random_permuted(rng, G)) for G in graphs] == keys
        assert sum(map(len, hypergraphs._KEY_REPS.values())) == len(graphs)
    assert len(set(keys)) == len(graphs)


def test_map_search_gives_up_at_the_node_cap(monkeypatch):
    """Past _SEARCH_NODE_CAP nodes the map search answers False and does not raise."""
    G = CUBIC8[0]
    H = random_permuted(Random(3), G)
    plan = _map_plan(G, G.degrees())
    assert _maps_onto(plan, H, {3: list(range(8))})
    monkeypatch.setattr(hypergraphs, "_SEARCH_NODE_CAP", 2)
    assert not _maps_onto(plan, H, {3: list(range(8))})
