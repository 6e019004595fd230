"""Partially labeled graphs, gluing products, and moment matrices of densities.

A labeled graph carries an injective partial map from positive integer labels
to vertices. Gluing identifies equally labeled vertices and merges duplicate
edges; forgetting labels turns products of labeled graphs into ordinary
(possibly disconnected) hypergraphs, read as monomials in the densities of
their connected components.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Mapping
from functools import cache
from itertools import combinations, permutations, product
from types import MappingProxyType
from typing import NamedTuple

from .hypergraphs import (
    Hypergraph,
    _find,
    _min_relabeling,
    _refine_classes,
    basis_sort_key,
    canonical_form,
    component_key,
    empty_graph,
    graph_key,
    key_graph,
    split_components,
)

_TRIVIAL_SQUARE_EDGE_LIMIT = 12


class LabeledGraph(namedtuple("LabeledGraph", "graph labels")):
    """Hypergraph plus an injective partial labeling, stored as (label, vertex) pairs."""

    __slots__ = ()

    def __new__(cls, graph: Hypergraph, labels: tuple[tuple[int, int], ...]) -> "LabeledGraph":
        labs = [l for l, _ in labels]
        verts = [v for _, v in labels]
        if sorted(labs) != sorted(set(labs)) or list(labels) != sorted(labels):
            raise ValueError("labels must be distinct and sorted")
        if len(set(verts)) != len(verts):
            raise ValueError("labeling must be injective on vertices")
        for l, v in labels:
            if l < 1:
                raise ValueError(f"label {l} must be a positive integer")
            if not 0 <= v < graph.n:
                raise ValueError(f"labeled vertex {v} out of range")
        if graph.n > 0:
            deg = graph.degrees()
            if min(deg) == 0:
                raise ValueError("isolated vertices are only allowed in the empty graph")
        return super().__new__(cls, graph, labels)

    @property
    def raw(self) -> tuple[int, int, frozenset[tuple[int, ...]], dict[int, int]]:
        """The raw form of every gluing and split: r, n, sorted edges, vertex -> label."""
        return self.graph.r, self.graph.n, self.graph.edges, {v: l for l, v in self.labels}

    def to_json(self) -> str:
        g = self.graph
        obj = {"r": g.r, "n": g.n, "edges": [list(e) for e in g.sorted_edges()]}
        obj["labels"] = {str(l): v for l, v in self.labels}
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def unit(r: int = 2) -> LabeledGraph:
    """The empty labeled graph, the multiplicative unit of gluing."""
    return LabeledGraph(empty_graph(0, r), ())


def labeled_graph(r: int, n: int, edges, labels: dict[int, int]) -> LabeledGraph:
    return labeled_canonical_form(
        LabeledGraph(Hypergraph.make(r, n, edges), tuple(sorted(labels.items())))
    )


def labeled_edge(*labels: int, r: int = 2) -> LabeledGraph:
    """A single edge with the given labels on its first vertices."""
    if len(labels) > r:
        raise ValueError("more labels than edge vertices")
    return labeled_graph(r, r, [tuple(range(r))], {l: i for i, l in enumerate(labels)})


def cherry(center: int, leaf1: int, leaf2: int) -> LabeledGraph:
    """Two-edge path fully labeled with the given center and leaf labels."""
    return labeled_graph(2, 3, [(0, 1), (0, 2)], {center: 0, leaf1: 1, leaf2: 2})


# ---------------------------------------------------------------------------
# Canonical form for labeled graphs
# ---------------------------------------------------------------------------


def labeled_canonical_form(A: LabeledGraph) -> LabeledGraph:
    """Canonical relabeling: labeled vertices first in label order, rest minimized."""
    G = A.graph
    in_order = sorted(A.labels)
    fixed = {v: i for i, (_, v) in enumerate(in_order)}
    if len(fixed) == G.n:
        enc = [tuple(sorted(fixed[v] for v in e)) for e in G.edges]
    else:
        # seed invariants pin each labeled vertex to a unique class
        seed = {v: fixed.get(v, -1) + 1 for v in range(G.n)}
        classes = [cl for cl in _refine_classes(G.n, G.sorted_edges(), seed) if cl[0] not in fixed]
        enc = _min_relabeling(G.n, G.sorted_edges(), classes, fixed)
    new_labels = tuple((l, i) for i, (l, _) in enumerate(in_order))
    return LabeledGraph(Hypergraph(G.r, G.n, frozenset(enc)), new_labels)


def labeled_parts(r: int, n: int, edges, vlabs) -> list[tuple[frozenset[int], int, str]]:
    """Components of a raw labeled graph: (labels under vlabs, vertex count, key) each."""
    out = []
    for verts, part in split_components(n, edges):
        labs = frozenset(vlabs[v] for v in verts if v in vlabs)
        out.append((labs, len(verts), component_key(Hypergraph(r, len(verts), frozenset(part)))))
    return out


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------


def _glue_raw(a, b) -> tuple[int, int, frozenset[tuple[int, ...]], dict[int, int]]:
    """Raw labeled graphs a and b glued along shared labels, as a raw labeled graph."""
    r, an, aedges, avlabs = a
    rb, bn, bedges, bvlabs = b
    if r != rb:
        raise ValueError(f"uniformity mismatch: {r} vs {rb}")
    amap = {l: v for v, l in avlabs.items()}
    bmap = {v: amap[l] for v, l in bvlabs.items() if l in amap}  # a label in both: a's vertex
    nxt = an
    for v in range(bn):
        if v not in bmap:
            bmap[v] = nxt
            nxt += 1
    edges = set(aedges)
    for e in bedges:
        edges.add(tuple(sorted(bmap[v] for v in e)))
    vlabs = dict(avlabs)
    for v, lab in bvlabs.items():
        vlabs[bmap[v]] = lab
    return r, nxt, frozenset(edges), vlabs


def glue(A: LabeledGraph, B: LabeledGraph) -> LabeledGraph:
    """Glue along shared labels, merging duplicate edges; commutative and associative."""
    r, n, edges, vlabs = _glue_raw(A.raw, B.raw)
    labels = tuple(sorted((l, v) for v, l in vlabs.items()))
    return labeled_canonical_form(LabeledGraph(Hypergraph(r, n, edges), labels))


def unlabel(A: LabeledGraph) -> Hypergraph:
    """Forget the labels; result is canonical."""
    return canonical_form(A.graph)


def unlabeled_product(A: LabeledGraph, B: LabeledGraph) -> Hypergraph:
    """unlabel(glue(A, B)) without building the labeled intermediate."""
    r, n, edges, _ = _glue_raw(A.raw, B.raw)
    return canonical_form(Hypergraph(r, n, edges))


def product_counts(A: LabeledGraph, B: LabeledGraph) -> dict[str, int]:
    """component_counts(unlabeled_product(A, B)), keying the components of the raw product."""
    return _key_counts(*_glue_raw(A.raw, B.raw))


# ---------------------------------------------------------------------------
# Component counts
# ---------------------------------------------------------------------------


def _key_counts(r: int, n: int, edges, vlabs) -> dict[str, int]:
    """Multiplicity of each connected component of a raw labeled graph, by key."""
    keys = [key for _, _, key in labeled_parts(r, n, edges, vlabs)]
    return {key: keys.count(key) for key in keys}


def component_counts(G: Hypergraph) -> dict[str, int]:
    """Multiplicity of each connected component of G, by key."""
    return _key_counts(G.r, G.n, G.edges, {})


def alpha_vector(G: Hypergraph, basis) -> tuple[int, ...]:
    """Multiplicities of G's connected components over the given keys, in their order."""
    counts = component_counts(G)
    unknown = set(counts) - set(basis)
    if unknown:
        raise ValueError(f"components outside basis: {sorted(unknown)}")
    return tuple(counts.get(k, 0) for k in basis)


# ---------------------------------------------------------------------------
# Bases of partially labeled graphs
# ---------------------------------------------------------------------------


def _shapes(d: int, r: int) -> list[Hypergraph]:
    """The graphs with at most d edges and no isolated vertex, up to isomorphism, in key order.

    One with m edges is one with m - 1 edges plus an edge whose new vertices
    come after the old ones; keys drop the isomorphic copies.
    """
    shapes = layer = {graph_key(empty_graph(0, r)): empty_graph(0, r)}
    for _ in range(d):
        grown: dict[str, Hypergraph] = {}
        for G in layer.values():
            for k in range(r + 1):
                for old in combinations(range(G.n), k):
                    e = old + tuple(range(G.n, G.n + r - k))
                    if e not in G.edges:
                        H = Hypergraph(r, G.n + r - k, G.edges | {e})
                        grown.setdefault(graph_key(H), H)
        shapes, layer = shapes | grown, grown
    return [key_graph(k) for k in sorted(shapes, key=basis_sort_key)]


def _placement_orbits(G: Hypergraph):
    """G's vertices by type (the edges at them), and the name of a placement's Aut(G)-orbit.

    An automorphism permutes the edges and maps the vertices of each type
    onto those of the permuted type, in any order.  So a labelling is known up
    to automorphism from its placement, the type of each label's vertex or ()
    for none, up to the edge permutations that keep the size of every type.
    """
    edges = G.sorted_edges()
    types: dict[tuple[int, ...], list[int]] = {}
    for v in range(G.n):
        types.setdefault(tuple(i for i, e in enumerate(edges) if v in e), []).append(v)
    maps = []
    for pi in permutations(range(len(edges))):
        m = {T: tuple(sorted(pi[i] for i in T)) for T in types}
        if all(len(types.get(U, ())) == len(types[T]) for T, U in m.items()):
            maps.append(m | {(): ()})
    return types, lambda p: min(tuple(m[T] for T in p) for m in maps)


class Basis(tuple):
    """Labeled graphs that carry their label action and the names of their restrictions.

    action holds their index images under the swap of labels 1 and 2 and
    under the cycle of all labels, which generate every label permutation.
    restricted(i, S) names element i with only its labels in the sorted S,
    renumbered 1..|S| in order: (its shape's orbit function, the orbit of its
    placement restricted to S and padded with ()), so two restrictions share
    a name exactly when they are isomorphic as labeled graphs.
    """


def enumerate_basis(kind: str, d: int, label_budget: int | None = None, r: int = 2) -> Basis:
    """Enumerate a gluing basis: "B" (all) or "B_tilde" (every component labeled).

    Each shape gets one labeled canonical form per orbit of its placements.
    The label action relabels an element's placement and looks its orbit up.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if label_budget is None:
        label_budget = 2 * d
    if label_budget < 0:
        raise ValueError("label budget must be nonnegative")
    if kind not in ("B", "B_tilde"):
        raise ValueError(f"unknown basis kind {kind!r}")
    found = []  # (element, its shape's orbit function, the name of its orbit)
    for shape in _shapes(d, r):
        types, orbit = _placement_orbits(shape)
        parts = [set(verts) for verts, _ in split_components(shape.n, shape.edges)]
        fits = [p for p in product([()] + list(types), repeat=label_budget)
                if all(p.count(T) <= len(verts) for T, verts in types.items())]
        for p in dict.fromkeys(map(orbit, fits)):
            free = {T: iter(verts) for T, verts in types.items()}
            labels = tuple((l + 1, next(free[T])) for l, T in enumerate(p) if T)
            if kind == "B_tilde" and any(part.isdisjoint(v for _, v in labels) for part in parts):
                continue
            A = labeled_canonical_form(LabeledGraph(shape, labels)) if shape.n else unit(r)
            found.append((A, orbit, p))
    found.sort(key=lambda f: (f[0].graph.edge_count, f[0].to_json()))
    basis = Basis(A for A, _, _ in found)
    index = {(orbit, p): i for i, (_, orbit, p) in enumerate(found)}
    basis.action = tuple(
        [index[orbit, orbit(move(p))] for _, orbit, p in found]
        for move in (lambda p: p[1::-1] + p[2:], lambda p: p[-1:] + p[:-1])
    )

    @cache
    def restricted(i: int, S: tuple[int, ...]):
        _, orbit, p = found[i]
        return orbit, orbit(tuple(p[l - 1] for l in S) + ((),) * (len(p) - len(S)))

    basis.restricted = restricted
    return basis


# ---------------------------------------------------------------------------
# Moment matrices
# ---------------------------------------------------------------------------


class MomentMatrix(NamedTuple):
    """Symmetric matrix of unlabeled gluing products over a labeled basis.

    Only the component counts of each product are stored, once per orbit of
    the pairs i <= j under the permutations of the labels.  orbit[i][j - i]
    holds the first pair (a, b) of (i, j)'s orbit in row-major order, as
    (b, a) when such a permutation carries a -> j and b -> i.  entries maps
    each first pair, in that order, to its entry.  Entries are read-only and
    shared by every caller of alpha_entry, and by every first pair whose
    factors restrict to the same pair of labeled graphs on their shared
    labels.  vbasis holds the sorted keys of every component that occurs.
    """

    basis: tuple[LabeledGraph, ...]
    vbasis: tuple[str, ...]
    entries: dict[tuple[int, int], Mapping[str, int]]
    orbit: list[list[tuple[int, int]]]

    @property
    def size(self) -> int:
        return len(self.basis)

    def alpha_entry(self, i: int, j: int) -> Mapping[str, int]:
        a, b = self.orbit[min(i, j)][abs(j - i)]
        return self.entries[(a, b) if a <= b else (b, a)]

    def generator(self, i: int, j: int) -> dict[str, int]:
        """The 2x2-minor generator alpha([[A^2]]) + alpha([[B^2]]) - 2 alpha([[AB]]).

        A and B are basis elements i and j; the result holds the nonzero
        counts by key, read from the stored entries.
        """
        out = dict(self.alpha_entry(i, i))
        for key, k in self.alpha_entry(j, j).items():
            out[key] = out.get(key, 0) + k
        for key, k in self.alpha_entry(i, j).items():
            out[key] = out.get(key, 0) - 2 * k
        return {key: k for key, k in out.items() if k}


def moment_matrix(basis) -> MomentMatrix:
    """Component counts of the unlabeled products of all pairs of labeled graphs.

    Gluing reads only which labels are equal, so relabeling both factors by
    one permutation keeps their product.  Each pair that no orbit holds yet,
    in row-major order, starts an orbit, which is then walked under the label
    permutations that an enumerated basis carries (Basis.action).  Gluing
    also reads only the labels that both factors carry, so the first pair is
    glued only when no earlier one restricts to the same pair of names on its
    shared labels (Basis.restricted); otherwise it takes that pair's entry.
    Any other sequence gets the trivial group and the trivial naming: every
    pair is its own orbit and glued once.  A pair's cell holds the first pair
    in the order that carries it onto the pair, so an image (a, b) with
    a > b takes the cell's pair flipped, at (b, a).
    """
    elems, action = tuple(basis), getattr(basis, "action", ())
    name = getattr(basis, "restricted", lambda i, S: i)
    labels = [frozenset(l for l, _ in A.labels) for A in elems]
    n = len(elems)
    orbit: list[list[tuple[int, int] | None]] = [[None] * (n - i) for i in range(n)]
    entries: dict[tuple[int, int], Mapping[str, int]] = {}
    glued: dict[tuple, Mapping[str, int]] = {}  # by the names of both factors on their shared labels
    for i in range(n):
        for j in range(i, n):
            if orbit[i][j - i] is not None:
                continue
            first, flip = (i, j), (j, i)
            shared = tuple(sorted(labels[i] & labels[j]))
            key = name(i, shared), name(j, shared)
            if key not in glued:
                glued[key] = MappingProxyType(product_counts(elems[i], elems[j]))
            entries[first] = glued[key]
            orbit[i][j - i], todo = first, [first]
            while todo:
                p, q = todo.pop()
                ahead, back = (first, flip) if orbit[p][q - p] == first else (flip, first)
                for image in action:
                    a, b = image[p], image[q]
                    a, b, cell = (a, b, ahead) if a <= b else (b, a, back)
                    if orbit[a][b - a] is None:
                        orbit[a][b - a] = cell
                        todo.append((a, b))
    vbasis = tuple(sorted(set().union(*glued.values()), key=basis_sort_key))
    return MomentMatrix(elems, vbasis, entries, orbit)


# ---------------------------------------------------------------------------
# Trivial squares
# ---------------------------------------------------------------------------


def is_trivial_square(H: Hypergraph) -> bool:
    """True when the only labeled graphs whose glued square is H are full copies of H.

    H = [[F^2]] for an F with an unlabeled vertex exactly when an involution
    s != id of Aut(H) splits its moved vertices into X and sX with no edge
    meeting both (swap the copies of F; conversely, label Fix(s) in
    H[Fix(s) + X]): no component of the moved vertices, joined along each
    edge's moved part, holds v and s(v).  H with an isolated vertex is trivial.
    """
    if H.edge_count == 0:
        raise ValueError("trivial-square test requires at least one edge")
    if H.edge_count > _TRIVIAL_SQUARE_EDGE_LIMIT:
        raise ValueError("trivial-square search limited to 12 edges")
    deg, sigma = H.degrees(), [-1] * H.n
    at = [[e for e in H.sorted_edges() if v in e] for v in range(H.n)]

    def fits(v: int) -> bool:  # each edge at v maps into an edge and holds no u, sigma(u) != u
        return all(any(({sigma[u] for u in e} - {-1}).issubset(g) for g in at[sigma[v]])
                   and not any(sigma[u] != u and sigma[u] in e for u in e) for e in at[v])

    def search() -> bool:  # extends sigma, keeping sigma(sigma(v)) = v
        free = [v for v in range(H.n) if sigma[v] < 0]
        if not free:
            moved, parent = [v for v in range(H.n) if sigma[v] != v], list(range(H.n))
            for part in ([v for v in e if sigma[v] != v] for e in H.edges):
                for u in part[1:]:
                    parent[_find(parent, u)] = _find(parent, part[0])
            return bool(moved) and all(_find(parent, v) != _find(parent, sigma[v]) for v in moved)
        # a free vertex on an edge with a mapped one comes first, so edges are checked early
        near = (u for w in range(H.n) if sigma[w] >= 0 for e in at[w] for u in e if sigma[u] < 0)
        v = next(near, free[0])
        for w in [v] + [w for w in free if w != v and deg[w] == deg[v]]:
            sigma[v], sigma[w] = w, v
            if fits(v) and fits(w) and search():
                return True
            sigma[v] = sigma[w] = -1
        return False

    return 0 in deg or not search()
