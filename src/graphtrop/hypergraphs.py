"""Exact r-uniform hypergraphs: densities, products, canonical forms, extremal families.

Vertices are 0..n-1 and every edge is a sorted tuple of r distinct vertices.
All densities are returned as `fractions.Fraction`, never floats.  A graph is
named by its key, the compact JSON of its canonical form; this module alone
encodes and decodes keys, and every other module treats them as opaque strings.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter, lshift

MAX_CANON_VERTICES = 20
_SEARCH_NODE_CAP = 100_000


class Hypergraph(namedtuple("Hypergraph", "r n edges")):
    """An r-uniform hypergraph on vertices 0..n-1 with a frozen edge set."""

    __slots__ = ()

    def __new__(cls, r: int, n: int, edges: frozenset[tuple[int, ...]]) -> "Hypergraph":
        if r < 2:
            raise ValueError(f"uniformity must be at least 2, got {r}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        for e in edges:
            if len(e) != r or len(set(e)) != r:
                raise ValueError(f"edge {e} is not a set of {r} distinct vertices")
            if tuple(sorted(e)) != e:
                raise ValueError(f"edge {e} is not sorted")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"edge {e} out of range for n={n}")
        return super().__new__(cls, r, n, edges)

    @staticmethod
    def make(r: int, n: int, edges) -> "Hypergraph":
        """Build a hypergraph, sorting and deduplicating the edge list."""
        return Hypergraph(r, n, frozenset(tuple(sorted(e)) for e in edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def to_json(self) -> str:
        obj = {"r": self.r, "n": self.n, "edges": [list(e) for e in self.sorted_edges()]}
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Hypergraph":
        obj = json.loads(text)
        return hypergraph_from_obj(obj)


def hypergraph_from_obj(obj) -> Hypergraph:
    """Build a hypergraph from a parsed JSON object, validating the schema."""
    if not isinstance(obj, dict):
        raise ValueError("hypergraph JSON must be an object")
    missing = {"r", "n", "edges"} - set(obj)
    if missing:
        raise ValueError(f"hypergraph JSON missing keys: {sorted(missing)}")
    unknown = set(obj) - {"r", "n", "edges"}
    if unknown:
        raise ValueError(f"hypergraph JSON has unknown keys {sorted(unknown)}; keys are r, n, edges")
    r, n, edges = obj["r"], obj["n"], obj["edges"]
    if type(r) is not int or type(n) is not int or not isinstance(edges, list):
        raise ValueError("hypergraph JSON has wrongly typed fields")
    for e in edges:
        if not isinstance(e, list) or not all(type(v) is int for v in e):
            raise ValueError(f"hypergraph JSON edge entries must be integers, got {e!r}")
    return Hypergraph.make(r, n, edges)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def empty_graph(n: int = 0, r: int = 2) -> Hypergraph:
    return Hypergraph(r, n, frozenset())


def single_edge(r: int = 2) -> Hypergraph:
    return Hypergraph(r, r, frozenset({tuple(range(r))}))


def complete_graph(j: int, r: int = 2) -> Hypergraph:
    """Complete r-uniform hypergraph on j vertices (edgeless when j < r)."""
    return Hypergraph(r, j, frozenset(combinations(range(j), r)))


def path_graph(k: int) -> Hypergraph:
    """Path with k edges (k+1 vertices), 2-uniform."""
    if k < 0:
        raise ValueError("edge count must be nonnegative")
    if k == 0:
        return empty_graph(1)
    return Hypergraph.make(2, k + 1, [(i, i + 1) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Hypergraph:
    return Hypergraph.make(2, a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_hypergraph(b: int, c: int, r: int = 2) -> Hypergraph:
    """Sunflower with b edges through a common core of c vertices (1 <= c < r)."""
    if not 1 <= c <= r - 1:
        raise ValueError(f"core size must satisfy 1 <= c <= r-1, got c={c}, r={r}")
    if b < 1:
        raise ValueError("branch count must be at least 1")
    core = tuple(range(c))
    edges = []
    nxt = c
    for _ in range(b):
        branch = tuple(range(nxt, nxt + r - c))
        nxt += r - c
        edges.append(core + branch)
    return Hypergraph.make(r, nxt, edges)


def longbroom() -> Hypergraph:
    """Path of three edges with two extra pendant edges at one end."""
    return Hypergraph.make(2, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])


NAMED_GRAPHS = {
    "edge": single_edge,
    "path2": lambda: path_graph(2),
    "P3": lambda: path_graph(3),
    "P4": lambda: path_graph(4),
    "K3": lambda: complete_graph(3),
    "K4": lambda: complete_graph(4),
    "longbroom": longbroom,
}


def named_graph(name: str) -> Hypergraph:
    base, sep, power = name.partition("^")
    if base not in NAMED_GRAPHS:
        raise ValueError(f"unknown graph name {name!r}; known: {sorted(NAMED_GRAPHS)}")
    g = NAMED_GRAPHS[base]()
    if not sep:
        return g
    k = int(power) if power.isdecimal() else 0
    if k < 1:
        raise ValueError(f"power must be a positive integer in {name!r}")
    return disjoint_union(*[g] * k)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def _find(parent, x: int) -> int:
    """The root of x in a union-find forest kept as a parent list or dict, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def split_components(n: int, edges) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Components by first vertex: sorted vertices, and edges renumbered 0..k-1 in vertex order."""
    parent = list(range(n))
    for e in edges:
        root = _find(parent, e[0])
        for v in e[1:]:
            parent[_find(parent, v)] = root

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(_find(parent, v), []).append(v)
    index = {v: i for verts in groups.values() for i, v in enumerate(verts)}
    parts: dict[int, list[tuple[int, ...]]] = {root: [] for root in groups}
    for e in edges:
        parts[_find(parent, e[0])].append(tuple(index[v] for v in e))
    return [(verts, parts[root]) for root, verts in groups.items()]


def connected_components(G: Hypergraph) -> list[Hypergraph]:
    """Components as hypergraphs with compacted vertex ids, ordered by first vertex."""
    return [Hypergraph(G.r, len(vs), frozenset(es)) for vs, es in split_components(G.n, G.edges)]


def disjoint_union(G: Hypergraph, *more: Hypergraph) -> Hypergraph:
    """G and then each graph of more on the following vertices, built as one Hypergraph."""
    edges, n = set(G.edges), G.n
    for H in more:
        if H.r != G.r:
            raise ValueError(f"uniformity mismatch: {G.r} vs {H.r}")
        edges.update(tuple(v + n for v in e) for e in H.edges)
        n += H.n
    return Hypergraph(G.r, n, frozenset(edges))


def direct_product(G1: Hypergraph, G2: Hypergraph) -> Hypergraph:
    """Categorical product: each edge pair contributes all r! aligned edges."""
    if G1.r != G2.r:
        raise ValueError(f"uniformity mismatch: {G1.r} vs {G2.r}")
    edges = set()
    for e1 in G1.edges:
        for e2 in G2.edges:
            for p in permutations(e2):
                edges.add(tuple(sorted(u * G2.n + v for u, v in zip(e1, p))))
    return Hypergraph(G1.r, G1.n * G2.n, frozenset(edges))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _refine_classes(n: int, edges, seed_inv: dict[int, int]) -> list[list[int]]:
    """Partition vertices by iterated neighborhood invariants, classes in invariant order.

    A round gives each edge one signature, its sorted invariants, and each
    vertex its own invariant with the sorted signatures of its edges. Every
    signature at v holds inv[v] once more than the same edge's signature
    without v, and adding one value to multisets of one size keeps their
    order, so the classes and their order are those of the signatures without v.
    """
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    inv = [seed_inv[v] for v in range(n)]
    for _ in range(3):
        esig = [tuple(sorted([inv[u] for u in e])) for e in edges]
        sigs = [(inv[v], tuple(sorted([esig[i] for i in inc[v]]))) for v in range(n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_inv = [ranks[s] for s in sigs]
        if new_inv == inv:
            break
        inv = new_inv
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(inv[v], []).append(v)
    return [classes[k] for k in sorted(classes)]


def _min_relabeling(n: int, edges, classes: list[list[int]], fixed: dict[int, int]):
    """Smallest edge encoding over relabelings that keep each class in its block.

    `fixed` maps already-pinned vertices to their final indices; the class blocks
    fill the remaining indices in order. Branch and bound over one index at a
    time: candidates are ordered by an exact lower bound on the final sorted
    edge list, and a branch is cut once it cannot reach the best completion.

    The bound gives each edge a sorted tuple: the indices of its placed
    vertices, and for each class the next free indices of that class's block,
    one per unplaced vertex. The tuples are carried down the tree. Placing any
    candidate at index t of class c uses up slot t, so every edge that still
    holds an unplaced vertex of class c (exactly the tuples that contain t)
    moves its class-c slots up by one, while the edges at the placed vertex
    keep their tuple. A candidate's bound is its sorted list of tuples, and at
    a leaf that list is the encoding.

    Each tuple is carried as one int, its entries as digits of `bits` bits,
    most significant first; ints of tuples of one length sort as the tuples do.
    `bump[i]` sums the place values of edge i's unplaced class-c slots, so the
    shift is one addition per edge, and placing a vertex drops the top place
    value at each of its edges. At the last index of a block one candidate is
    left and only its edges hold the slot, so its bound is the node's own, which
    the parent has just compared with the best: the node passes it on unchanged.

    Two leaves with equal encodings differ by an automorphism that keeps the
    classes and the pinned vertices; each one found is recorded. At a node, a
    candidate is skipped when a recorded automorphism fixing every vertex mapped
    so far links it to a candidate already tried: it carries that candidate's
    subtree onto its own with equal encodings, so the minimum is unchanged
    (orbit pruning, McKay and Piperno, "Practical graph isomorphism II", 2014).
    """
    base: dict[int, int] = {}  # the first index of each unpinned vertex's block
    owner: list[int] = [-1] * n  # the class whose block holds each index
    stop: list[int] = [n] * n  # the end of that block
    start = len(fixed)
    for ci, cl in enumerate(classes):
        for v in cl:
            base[v] = start
        for t in range(start, start + len(cl)):
            owner[t], stop[t] = ci, start + len(cl)
        start += len(cl)

    r, bits = (len(edges[0]) if edges else 0), n.bit_length()
    shifts = [bits * (r - 1 - k) for k in range(r)]  # slot k's place value is 1 << shifts[k]
    rows = {c: [0] * len(edges) for c, cl in enumerate(classes) if len(cl) > 1}  # bump at block start
    inc: list[list[int]] = [[] for _ in range(n)]  # the edges at each vertex
    codes = []  # the root's bound: pinned indices, then each block's first slots
    for i, e in enumerate(edges):
        free = sorted(base[v] for v in e if v not in fixed)
        slots = [b + j - free.index(b) for j, b in enumerate(free)]
        tup = sorted(fixed[v] for v in e if v in fixed) + slots
        codes.append(sum(map(lshift, tup, shifts)))
        for s, b in zip(shifts[r - len(free) :], free):
            if owner[b] in rows:
                rows[owner[b]][i] += 1 << s
        for v in e:
            inc[v].append(i)

    mapping = dict(fixed)
    best = None
    best_at: list[int] = []  # the vertex at each index in the best leaf
    automorphisms: list[list[int]] = []
    nodes = 0

    def rec(t: int, cur: list[int]):
        nonlocal best, best_at, nodes
        nodes += 1
        if nodes > _SEARCH_NODE_CAP:
            raise ValueError("graph too symmetric for canonical relabeling")
        if t == n:
            enc = sorted(cur)
            if best is None or enc < best:
                best, best_at = enc, sorted(mapping, key=mapping.get)
            elif enc == best:
                automorphisms.append([best_at[mapping[v]] for v in range(n)])
            return
        c = owner[t]
        if stop[t] == t + 1:  # forced: the child's bound is cur itself
            v = next(v for v in classes[c] if v not in mapping)
            mapping[v] = t
            rec(t + 1, cur)
            del mapping[v]
            return
        bump = rows[c]
        shifted = [x + w for x, w in zip(cur, bump)]
        scored = []
        for v in classes[c]:
            if v in mapping:
                continue
            child = shifted.copy()
            for i in inc[v]:
                child[i] = cur[i]
            scored.append((sorted(child), v, child))
        scored.sort()  # candidates are distinct, so the children are never compared
        orbit = {v: v for _, v, _ in scored}  # union-find over the candidates
        merged = 0
        tried: list[int] = []
        for lb, v, child in scored:
            if best is not None and lb > best:
                break
            for a in automorphisms[merged:]:
                if all(a[u] == u for u in mapping):
                    for u in orbit:
                        orbit[_find(orbit, u)] = _find(orbit, a[u])
            merged = len(automorphisms)
            root = _find(orbit, v)
            if any(_find(orbit, w) == root for w in tried):
                continue
            tried.append(v)
            mapping[v] = t
            drops = [(i, 1 << (bump[i].bit_length() - 1)) for i in inc[v]]
            for i, w in drops:
                bump[i] -= w
            rec(t + 1, child)
            for i, w in drops:
                bump[i] += w
            del mapping[v]

    rec(len(fixed), codes)
    mask = (1 << bits) - 1
    return tuple([tuple([x >> s & mask for s in shifts]) for x in best])


@lru_cache(maxsize=None)
def _canonical_connected(G: Hypergraph) -> Hypergraph:
    if G.n > MAX_CANON_VERTICES:
        raise ValueError(f"canonical form limited to {MAX_CANON_VERTICES} vertices, got {G.n}")
    if not G.edges or len(G.edges) == math.comb(G.n, G.r):
        return G
    classes = _refine_classes(G.n, G.sorted_edges(), {v: 0 for v in range(G.n)})
    enc = _min_relabeling(G.n, G.sorted_edges(), classes, {})
    return Hypergraph(G.r, G.n, frozenset(enc))


def canonical_form(G: Hypergraph) -> Hypergraph:
    """Isomorphism-canonical relabeling, componentwise with sorted components."""
    comps = connected_components(G)
    if len(comps) <= 1:
        return _canonical_connected(comps[0]) if comps else G
    parts = sorted(
        (_canonical_connected(c) for c in comps),
        key=lambda c: (c.n, c.edge_count, c.sorted_edges()),
    )
    return disjoint_union(*parts)


# ---------------------------------------------------------------------------
# Keys and exact rationals in JSON
# ---------------------------------------------------------------------------


def graph_key(G: Hypergraph) -> str:
    """The key of G: the compact JSON of its canonical form."""
    return canonical_form(G).to_json()


def _map_plan(G: Hypergraph, deg: list[int]):
    """G's vertices in BFS order from one of its rarest degree, for `_maps_onto`.

    Each step holds the vertex's degree and, for every edge whose last vertex
    in the order it is, the positions of that edge's other vertices.
    """
    inc: list[list[tuple[int, ...]]] = [[] for _ in range(G.n)]
    for e in G.edges:
        for v in e:
            inc[v].append(e)
    root = min(range(G.n), key=lambda v: (deg.count(deg[v]), v))
    order, pos = [root], {root: 0}
    for v in order:
        for e in inc[v]:
            for u in e:
                if u not in pos:
                    pos[u] = len(order)
                    order.append(u)
    closes: list[list[list[int]]] = [[] for _ in order]
    for e in G.edges:
        at = sorted(pos[v] for v in e)
        closes[at[-1]].append(at[:-1])
    return [(deg[v], closes[pos[v]]) for v in order]


def _maps_onto(plan, C: Hypergraph, by_degree: dict[int, list[int]]) -> bool:
    """Whether a vertex map carries every edge of the plan's graph onto an edge of C.

    Vertices are placed in the plan's order, each onto an unused vertex of C
    of its degree, and each edge is checked when its last vertex is placed.
    The graphs have equal vertex and edge counts, so a complete map is an
    isomorphism.  False once the search passes _SEARCH_NODE_CAP nodes.
    """
    image: list[int] = []
    nodes = 0

    def rec(t: int) -> bool:
        nonlocal nodes
        if t == len(plan):
            return True
        d, closing = plan[t]
        for w in by_degree[d]:
            nodes += 1
            if nodes > _SEARCH_NODE_CAP:
                return False
            if w in image:
                continue
            if all(tuple(sorted([image[p] for p in at] + [w])) in C.edges for at in closing):
                image.append(w)
                if rec(t + 1):
                    return True
                image.pop()
        return False

    return rec(0)


_KEY_REPS: dict[tuple, list[tuple[list, str]]] = {}  # by invariant: (map plan, key) per class


@lru_cache(maxsize=None)
def component_key(C: Hypergraph) -> str:
    """The key of a connected hypergraph, memoised per component and interned.

    Behind the exact memo, one representative of each key seen is kept under
    (r, n, edge count, sorted degrees).  A representative's key is reused for
    C once `_maps_onto` has carried every edge of it onto an edge of C;
    otherwise the canonical search runs and C represents its key.
    """
    deg = C.degrees()
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(deg):
        by_degree.setdefault(d, []).append(v)
    bucket = _KEY_REPS.setdefault((C.r, C.n, C.edge_count, tuple(sorted(deg))), [])
    for plan, key in bucket:
        if _maps_onto(plan, C, by_degree):
            return key
    key = sys.intern(_canonical_connected(C).to_json())
    if C.n:
        bucket.append((_map_plan(C, deg), key))
    return key


@lru_cache(maxsize=None)
def key_graph(key: str) -> Hypergraph:
    """The canonical hypergraph a key names."""
    return Hypergraph.from_json(key)


def basis_sort_key(key: str) -> tuple[int, str]:
    """Order keys by edge count, then by the key itself."""
    return (key_graph(key).edge_count, key)


def fraction_str(x) -> str:
    """An exact rational as the "num/den" string of every JSON output."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def json_text(obj) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it once each Fraction is
    its fraction_str, each dict key its str and each named tuple its fields.  A named
    tuple is encoded once per depth.  Other types, floats included, raise TypeError."""
    return _json_value(obj, 0, {})


def _json_value(x, depth: int, memo: dict[tuple[int, int], str]) -> str:
    if isinstance(x, str):
        return json.encoder.encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, Fraction):
        return f'"{fraction_str(x)}"'
    if hasattr(x, "_asdict"):  # a report object: its fields, once per depth
        if (id(x), depth) not in memo:
            memo[id(x), depth] = _json_value(x._asdict(), depth, memo)
        return memo[id(x), depth]
    sep, end = ",\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(x, (list, tuple)):
        items = [_json_value(v, depth + 1, memo) for v in x]
        return "[" + sep[1:] + sep.join(items) + end + "]" if items else "[]"
    if isinstance(x, dict):
        x = {str(k): v for k, v in x.items()}
        items = [f"{_json_value(k, 0, memo)}: {_json_value(x[k], depth + 1, memo)}" for k in sorted(x)]
        return "{" + sep[1:] + sep.join(items) + end + "}" if items else "{}"
    raise TypeError(f"no JSON text for {type(x).__name__}")


# ---------------------------------------------------------------------------
# Homomorphism counting and densities
# ---------------------------------------------------------------------------


def _hom_plan(H: Hypergraph):
    """The steps of the frontier count for H, one per vertex in placement order.

    The state before a step is the images of the placed vertices that lie on
    an edge closed at that step or later.  Each step holds a getter, per edge
    closed there, for the images of the edge's other vertices in the state;
    the positions that make the next state out of the state extended by the
    new image; and whether that new image is kept at all.
    """
    order: list[int] = []
    placed: set[int] = set()
    for _ in range(H.n):
        v = max(
            (v for v in range(H.n) if v not in placed),
            key=lambda v: (sum(v in e and not placed.isdisjoint(e) for e in H.edges), -v),
        )
        order.append(v)
        placed.add(v)
    pos = {v: i for i, v in enumerate(order)}
    closes: list[list[tuple[int, ...]]] = [[] for _ in range(H.n)]
    last = list(range(H.n))  # the last step that reads each placed vertex's image
    for e in H.edges:
        step = max(pos[v] for v in e)
        closes[step].append(e)
        for v in e:
            last[pos[v]] = max(last[pos[v]], step)
    frontier = [[j for j in range(i) if last[j] >= i] for i in range(H.n + 1)]
    steps = []
    for i in range(H.n):
        index = {j: k for k, j in enumerate(frontier[i] + [i])}
        closing = [itemgetter(*(index[pos[u]] for u in e if pos[u] != i)) for e in closes[i]]
        steps.append((closing, [index[j] for j in frontier[i + 1]], last[i] > i))
    return steps


def hom_count(H: Hypergraph, G: Hypergraph) -> int:
    """Number of maps V(H) -> V(G) sending every edge of H onto an edge of G.

    Exact in Python ints.  H's vertices are placed one at a time, each next
    one the vertex on the most edges that meet the placed set (ties to the
    lowest id), and each edge of H is checked when its last vertex is placed:
    the new vertex's candidates are all of V(G) ANDed, over the edges closing
    there, with the link mask in G of their other vertices' images (the
    adjacency mask when r = 2).  A missing link is 0, which also rejects
    repeated images.  Partial maps are merged by their frontier, the images
    of the placed vertices still on an edge not yet checked, so the count is
    dynamic programming along the order.  A vertex whose image is never read
    again, the last one among them, is counted with `int.bit_count`.
    """
    if H.r != G.r:
        raise ValueError(f"uniformity mismatch: {H.r} vs {G.r}")
    link: dict = {}
    for e in G.edges:
        for p in permutations(e):
            key = p[0] if G.r == 2 else p[:-1]
            link[key] = link.get(key, 0) | (1 << p[-1])
    full = (1 << G.n) - 1
    states = {(): 1}
    for closing, keep, kept in _hom_plan(H):
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in states.items():
            mask = full
            for others in closing:
                mask &= link.get(others(state), 0)
            if not kept:
                new = tuple([state[k] for k in keep])
                nxt[new] = nxt.get(new, 0) + ways * mask.bit_count()
                continue
            while mask:
                low = mask & -mask
                ext = state + (low.bit_length() - 1,)
                new = tuple([ext[k] for k in keep])
                nxt[new] = nxt.get(new, 0) + ways
                mask ^= low
        states = nxt
    return states.get((), 0)


def density(H: Hypergraph, G: Hypergraph) -> Fraction:
    """Homomorphism density t(H; G) as an exact fraction."""
    if G.n < 1:
        raise ValueError("density target must have at least one vertex")
    return Fraction(hom_count(H, G), G.n**H.n)


# ---------------------------------------------------------------------------
# Extremal families
# ---------------------------------------------------------------------------


def turan_hypergraph(m: int, k: int, r: int = 2) -> Hypergraph:
    """Balanced k-partite r-graph: edges are r-sets meeting r distinct parts.

    Part sizes differ by at most one, larger parts first. Edgeless when k < r.
    """
    if m < 0:
        raise ValueError("vertex count must be nonnegative")
    if k < 1:
        raise ValueError("part count must be positive")
    q, rem = divmod(m, k)
    part = []
    for i in range(k):
        part += [i] * (q + 1 if i < rem else q)
    edges = [e for e in combinations(range(m), r) if len({part[v] for v in e}) == r]
    return Hypergraph.make(r, m, edges)


def clique_turan_density(j: int, alpha: Fraction, parts: int, r: int = 2) -> Fraction:
    """Limit density of the complete graph on j vertices in clique_plus_turan blowups."""
    if not 2 <= r <= j:
        raise ValueError(f"need 2 <= r <= j, got r={r}, j={j}")
    alpha = Fraction(alpha)
    value = alpha**j
    if r <= j <= parts:
        falling = Fraction(math.factorial(parts), math.factorial(parts - j))
        value += falling * (1 - alpha) ** j / Fraction(parts) ** j
    return value


def clique_plus_turan(n: int, alpha: Fraction, parts: int, r: int = 2) -> Hypergraph:
    """Disjoint union of a clique on alpha*n vertices and a balanced Turan graph."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    a = alpha * n
    if a.denominator != 1:
        raise ValueError(f"alpha*n must be an integer, got {a}")
    a = int(a)
    return disjoint_union(complete_graph(a, r), turan_hypergraph(n - a, parts, r))


def star_limit_density(b: int, r: int, c: int, rho: Fraction, m: int) -> Fraction:
    """Limit sunflower density in the regular-plus-clique family with alpha = rho^(m/c)."""
    if not 1 <= c <= r - 1:
        raise ValueError(f"core size must satisfy 1 <= c <= r-1, got c={c}, r={r}")
    if b < 1 or m < 1:
        raise ValueError("branch count and exponent must be positive")
    if m % c != 0:
        raise ValueError(f"core size {c} must divide exponent {m} for a rational alpha")
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    alpha = rho ** (m // c)
    beta = 1 - alpha
    inner = beta ** (r - c) * rho
    if r - 2 * c >= 0:
        inner += (
            Fraction(math.factorial(r - c), math.factorial(r - 2 * c) * math.factorial(c))
            * beta ** (r - 2 * c)
            * alpha**c
        )
    total = alpha**c + beta**c * inner**b
    for i in range(max(1, 2 * c - r), c):
        coeff = Fraction(math.comb(c, i)) * alpha**i * beta ** (c - i)
        base = (
            Fraction(math.factorial(r - c), math.factorial(c - i) * math.factorial(r - 2 * c + i))
            * alpha ** (c - i)
            * beta ** (r - 2 * c + i)
        )
        total += coeff * base**b
    return total
