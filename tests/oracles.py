"""Independent brute-force oracles used to freeze expected values in the tests.

Everything here is deliberately naive: full enumeration over all vertex maps,
no pruning, no shared code with the library internals beyond the Hypergraph
container itself.  The one exception is `brute_canonical`, which takes the
refinement classes from the library because they are part of what a key means.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd
from random import Random

from graphtrop.hypergraphs import Hypergraph, _refine_classes


def brute_hom(H: Hypergraph, G: Hypergraph) -> int:
    count = 0
    for image in product(range(G.n), repeat=H.n):
        ok = True
        for e in H.edges:
            t = tuple(sorted(image[v] for v in e))
            if len(set(t)) != H.r or t not in G.edges:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_density(H: Hypergraph, G: Hypergraph) -> Fraction:
    return Fraction(brute_hom(H, G), G.n**H.n)


def brute_canonical(G: Hypergraph, pinned=()) -> tuple[tuple[int, ...], ...]:
    """The smallest sorted edge list over every class-respecting relabeling (n <= 7).

    `pinned[i]` goes to index i; each class of the library's refinement (seeded
    so that every pinned vertex is alone) fills the next block of indices in
    class order, in every possible order.
    """
    if G.n > 7:
        raise ValueError(f"brute canonical form limited to 7 vertices, got {G.n}")
    seed = {v: 0 for v in range(G.n)}
    for i, v in enumerate(pinned):
        seed[v] = i + 1
    classes = [cl for cl in _refine_classes(G.n, G.sorted_edges(), seed) if cl[0] not in pinned]
    best = None
    for orders in product(*(permutations(cl) for cl in classes)):
        index = {v: i for i, v in enumerate([*pinned, *(v for order in orders for v in order)])}
        enc = tuple(sorted(tuple(sorted(index[v] for v in e)) for e in G.edges))
        if best is None or enc < best:
            best = enc
    return best


def fraction_primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, all in Fraction arithmetic."""
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(0 for _ in ints)
    return tuple(x // g for x in ints)


def rank_of(vectors) -> int:
    """Rank of a list of rational vectors, by Fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivval = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / pivval
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _kernel(rows, dim: int) -> list[list[Fraction]]:
    """Basis of {y: <a, y> = 0 for every row a}, from the Fraction reduced row echelon form."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(dim):
        piv = next((i for i in range(len(pivots), len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        r = len(pivots)
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        v = [Fraction(0)] * dim
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][free]
        basis.append(v)
    return basis


def extreme_rays(facets, dim: int) -> set[tuple[int, ...]]:
    """Primitive extreme rays of the pointed cone {y: <a, y> >= 0 for all facets a}.

    Every extreme ray spans the kernel of some dim-1 facets of rank dim-1, so
    try every such subset and keep the kernel directions inside the cone.
    """
    found = set()
    for subset in combinations(facets, dim - 1):
        kernel = _kernel(subset, dim)
        if len(kernel) != 1:
            continue
        for d in (kernel[0], [-x for x in kernel[0]]):
            if all(sum(a * y for a, y in zip(f, d)) >= 0 for f in facets):
                found.add(fraction_primitive(d))
    return found


def random_graph(rng: Random, n: int, p: float, r: int = 2) -> Hypergraph:
    edges = [e for e in combinations(range(n), r) if rng.random() < p]
    return Hypergraph.make(r, n, edges)


def random_permuted(rng: Random, G: Hypergraph) -> Hypergraph:
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Hypergraph.make(G.r, G.n, [tuple(perm[v] for v in e) for e in G.edges])


def clique_count(G: Hypergraph, j: int) -> int:
    """Number of j-cliques in a 2-uniform graph, by direct enumeration."""
    assert G.r == 2
    count = 0
    for verts in combinations(range(G.n), j):
        if all(tuple(sorted(pair)) in G.edges for pair in combinations(verts, 2)):
            count += 1
    return count


def random_labeled(rng: Random, max_n: int, p: float, label_budget: int):
    """Random labeled graph with no isolated vertices (import deferred for layering)."""
    from graphtrop.gluing import LabeledGraph, labeled_canonical_form

    n = rng.randint(2, max_n)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    used = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    G = Hypergraph.make(2, len(used), [(remap[a], remap[b]) for a, b in edges])
    verts = list(range(G.n))
    rng.shuffle(verts)
    count = rng.randint(0, min(G.n, label_budget))
    labs = rng.sample(range(1, label_budget + 1), count)
    pairs = tuple(sorted(zip(labs, verts[:count])))
    return labeled_canonical_form(LabeledGraph(G, pairs))
