"""Independent brute-force oracles used to freeze expected values in the tests.

Everything here is deliberately naive: full enumeration over all vertex maps,
no pruning, no shared code with the library internals beyond the Hypergraph
and Membership containers.  The one exception is `brute_canonical`, which
takes the refinement classes from the library because they are part of what a
key means.  `reference_refine_classes` is that refinement as first written,
one signature per vertex per edge, and is the reference for the refinement
that signs each edge once per round.  `reference_min_relabeling` is the canonical search as first
written, rebuilding its bound for every candidate; it shares the library's
union-find and node cap, and is the reference for the search that carries
each edge's bound tuple down the tree.  The Fraction
simplex and echelon form are the reference for the integer ones in
`graphtrop.cones`.  `einsum_hom` is the numpy tensor count
graphtrop once used, and is the reference for its exact frontier count.
`reference_pair_stats` is the census as it was first written, over labeled
canonical components (`labeled_components`), and is the reference for the
raw-component census in `graphtrop.obstructions`.  `reference_system_feasible`
and `reference_refutation` are the Sturm feasibility searches as first
written, with a Tarski query per candidate root (`_sign_at_root`), and are
the reference for the merged sign table: its witness, `_sign_table(polys)[1]`,
and its refuting subset.  They isolate roots with `reference_root_data`, the
isolation as first written, with Fraction endpoints and Fraction evaluation,
which is the reference for the isolation on dyadic integer points
(`_core_roots`).  `reference_minor_constraints` is the enumeration of
principal minors as first written: it lists every eligible index set, over
all triples of the diagonal, with tuple signatures and a Fraction
determinant.  `reference_refuting_subset` lists every candidate subset
before it tests one.  They are the reference for `minor_certificate`'s walk
over the triangles of eligible pairs and its lazy refutation search.
`reference_moment_matrix` builds every moment entry on its own, through the
canonical form of the whole product, and is the reference for the
orbit-shared `moment_matrix`.  `reference_v_basis` glues
every pair of the "B" basis on its own and is the reference for the "V"
basis, the `vbasis` of the moment matrix over "B".  Both glue through
`named_product` below, not through the package's raw gluing.
`reference_basis` is the gluing basis as first built, from
`reference_edge_shapes` (every edge subset of a large enough complete graph,
keyed) and `reference_labelings` (a labeled canonical form for every
labelling), and `reference_label_action` finds the images of its elements
by a labeled canonical search each; they are the
references for the bases built by one-edge augmentation, one search per orbit
of labellings, and the label action that `enumerate_basis` carries.
`reference_ordered_orbit` closes one ordered pair under that action, and is
the reference for the pairs that `moment_matrix` records as reached reversed.
Two references check the trivial-square verdict of `is_trivial_square`'s
involution search.  `reference_is_trivial_square` checks the definition: it
is the search as first written, over every subgraph and every label set,
with each square built by naming its vertices and compared with H by
networkx.  `reference_split_involution` checks the characterisation the
search relies on: it tries every involution of the vertex set (n <= 10),
keeps the automorphisms, and splits the moved vertices by networkx's
connected components; it reaches graphs the subgraph search is too slow for.
`reference_json` is the JSON encoder as first written, the standard
library's over a copy of the object, and is the reference for `json_text`.

The last section holds helpers that only the tests use, kept out of the
package: cones from facets, a cone's generators, membership checked against
the facets, cone equality, isomorphism with and without labels, the bilinear gluing of
combinations, density vectors, the explicit clique joined to a regular
graph, and loose cycles and paths.  Three of them
are references for what the package computes in one way only:
- `Combination`, `lift`, `square_expand` and `eval_combination` expand a
  glued square sum c_i c_j [[A_i A_j]] pair by pair, gluing through
  `named_product`, which names each vertex by its label and so shares no
  code with the package's gluing.  They are the reference for the quadratic
  form of `moment_matrix`.
- `cone_from_rays`, `rays_from_facets` and `project_cone` convert cones with
  `dd_rays` in both directions, and are the reference for the extreme rays
  of the closed-form cones (`clique_ray`, `star_ray`).
- `star_density_fast` is the closed-form sunflower density from the core
  degree sequence, and is the reference for `density` on
  `star_hypergraph`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, gcd
from operator import and_
from random import Random

import networkx as nx
import numpy as np

from graphtrop.cones import (
    CertificateError,
    Membership,
    RationalCone,
    cone_member,
    dd_rays,
    dot,
    primitive,
)
from graphtrop.gluing import (
    LabeledGraph,
    component_counts,
    enumerate_basis,
    glue,
    labeled_canonical_form,
    labeled_graph,
    unit,
)
from graphtrop.hypergraphs import (
    Hypergraph,
    _SEARCH_NODE_CAP,
    _find,
    _refine_classes,
    basis_sort_key,
    canonical_form,
    connected_components,
    density,
    fraction_str,
    graph_key,
    key_graph,
    split_components,
)
from graphtrop.obstructions import _deriv, _divmod


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


def einsum_hom(H: Hypergraph, G: Hypergraph) -> int:
    """hom(H, G) as one numpy einsum over G's adjacency tensor, one operand per edge of H.

    Exact in int64 only while every partial count stays below 2^63, so it
    refuses inputs with G.n ** H.n >= 2^62.  Vertices of H on no edge are
    not einsum indices and contribute a factor G.n each.
    """
    if G.n**H.n >= 2**62:
        raise ValueError("einsum count could overflow int64")
    covered = {v for e in H.edges for v in e}
    free = G.n ** (H.n - len(covered))
    if not H.edges:
        return free
    A = np.zeros((G.n,) * G.r, dtype=np.int64)
    for e in G.edges:
        for p in permutations(e):
            A[p] = 1
    operands = []
    for e in H.sorted_edges():
        operands += [A, list(e)]
    return free * int(np.einsum(*operands, [], optimize="greedy"))


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


def reference_refine_classes(n: int, edges, seed_inv: dict[int, int]) -> list[list[int]]:
    """Partition vertices by iterated neighborhood invariants, classes in invariant order."""
    inc: dict[int, list] = {v: [] for v in range(n)}
    for e in edges:
        for v in e:
            inc[v].append(e)
    inv = dict(seed_inv)
    for _ in range(3):
        sigs = {}
        for v in range(n):
            esigs = sorted(tuple(sorted(inv[u] for u in e if u != v)) for e in inc[v])
            sigs[v] = (inv[v], tuple(esigs))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new_inv = {v: ranks[sigs[v]] for v in range(n)}
        if new_inv == inv:
            break
        inv = new_inv
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(inv[v], []).append(v)
    return [classes[k] for k in sorted(classes)]


def reference_min_relabeling(n: int, edges, classes: list[list[int]], fixed: dict[int, int]):
    """The canonical search as first written, rebuilding the bound for every candidate.

    The same branch and bound, candidate order and orbit pruning as
    `hypergraphs._min_relabeling`, but `lower_bound` walks every vertex of
    every edge under the current partial map and sorts the result, with
    `filled` counting the indices used in each class's block.
    """
    class_of: dict[int, int] = {}
    blocks: list[list[int]] = []
    owner: list[int] = [-1] * n
    start = len(fixed)
    for ci, cl in enumerate(classes):
        for v in cl:
            class_of[v] = ci
        blocks.append(list(range(start, start + len(cl))))
        for t in range(start, start + len(cl)):
            owner[t] = ci
        start += len(cl)

    mapping = dict(fixed)
    filled = [0] * len(classes)
    best = None
    best_at: list[int] = []  # the vertex at each index in the best leaf
    automorphisms: list[list[int]] = []
    nodes = 0

    def lower_bound():
        tuples = []
        for e in edges:
            known = []
            need: dict[int, int] = {}
            for v in e:
                idx = mapping.get(v)
                if idx is None:
                    c = class_of[v]
                    need[c] = need.get(c, 0) + 1
                else:
                    known.append(idx)
            for c, k in need.items():
                known.extend(blocks[c][filled[c] : filled[c] + k])
            tuples.append(tuple(sorted(known)))
        return tuple(sorted(tuples))

    def rec(t: int):
        nonlocal best, best_at, nodes
        nodes += 1
        if nodes > _SEARCH_NODE_CAP:
            raise ValueError("graph too symmetric for canonical relabeling")
        if t == n:
            enc = lower_bound()
            if best is None or enc < best:
                best, best_at = enc, sorted(mapping, key=mapping.get)
            elif enc == best:
                automorphisms.append([best_at[mapping[v]] for v in range(n)])
            return
        c = owner[t]
        scored = []
        for v in classes[c]:
            if v in mapping:
                continue
            mapping[v] = t
            filled[c] += 1
            scored.append((lower_bound(), v))
            filled[c] -= 1
            del mapping[v]
        scored.sort()
        orbit = {v: v for _, v in scored}  # union-find over the candidates
        merged = 0
        tried: list[int] = []
        for lb, v in scored:
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
            filled[c] += 1
            rec(t + 1)
            filled[c] -= 1
            del mapping[v]

    rec(len(fixed))
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


def fraction_echelon(rows):
    """Reduced echelon basis by Fraction elimination: primitive rows, pivots positive."""
    basis = []
    pivots = []
    for row in [[Fraction(x) for x in r] for r in rows]:
        for pcol, brow in zip(pivots, basis):
            if row[pcol] != 0:
                f = row[pcol] / brow[pcol]
                row = [x - f * y for x, y in zip(row, brow)]
        pcol = next((i for i, x in enumerate(row) if x != 0), None)
        if pcol is None:
            continue
        basis.append(row)
        pivots.append(pcol)
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and basis[i][pivots[j]] != 0:
                f = basis[i][pivots[j]] / basis[j][pivots[j]]
                basis[i] = [x - f * y for x, y in zip(basis[i], basis[j])]
    out = []
    for row, pcol in sorted(zip(basis, pivots), key=lambda t: t[1]):
        v = fraction_primitive(row)
        out.append(v if v[pcol] > 0 else tuple(-x for x in v))
    return out


def fraction_cone_member(target, generators, pivots=None) -> Membership:
    """Phase-1 simplex on a dense Fraction tableau, with the library's pivot rule.

    First negative reduced cost enters; the minimum ratio leaves, ties broken
    by basis index.  Returns the coefficients, or the separator built from the
    phase-1 dual prices.  A list given as pivots gets one (entering column,
    pivot row, number of rows at the least ratio) per pivot; the columns from
    n on are the artificials.
    """
    target = [Fraction(x) for x in target]
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    m = len(target)
    n = len(gens)
    sigma = [1 if t >= 0 else -1 for t in target]
    rows = []
    for i in range(m):
        row = [sigma[i] * g[i] for g in gens]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(sigma[i] * target[i])
        rows.append(row)
    cost = [-sum((rows[i][j] for i in range(m)), Fraction(0)) for j in range(n + m + 1)]
    for i in range(m):
        cost[n + i] += 1
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (rows[i][-1] / rows[i][enter], basis[i], i) for i in range(m) if rows[i][enter] > 0
        ]
        least, _, piv = min(ratios)
        if pivots is not None:
            pivots.append((enter, piv, sum(r == least for r, _, _ in ratios)))
        pv = rows[piv][enter]
        rows[piv] = [x / pv for x in rows[piv]]
        for i in range(m):
            if i != piv and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, rows[piv])]
        basis[piv] = enter
    if cost[-1] == 0:
        lam = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = rows[i][-1]
        residual = [sum((l * g[i] for l, g in zip(lam, gens)), Fraction(0)) for i in range(m)]
        assert residual == target and all(l >= 0 for l in lam)
        return Membership(True, tuple(lam), None)
    pi = [1 - cost[n + i] for i in range(m)]
    return Membership(False, None, fraction_primitive([-sigma[i] * pi[i] for i in range(m)]))


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


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b) -> list[Fraction]:
    """Product of two Fraction polynomials (ascending powers, no trailing zeros)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return _poly_trim(out)


def _poly_eval(a, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(a):
        total = total * x + c
    return total


def _poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of Fraction polynomial long division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        coeff = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = coeff
        for i, c in enumerate(b):
            rem[shift + i] -= coeff * c
        _poly_trim(rem)
    return _poly_trim(quo), rem


def _poly_gcd(a, b) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def _poly_squarefree(a) -> list[Fraction]:
    """Monic product of the distinct irreducible factors of a."""
    quo = _poly_divmod(a, _poly_gcd(a, [i * c for i, c in enumerate(a)][1:]))[0]
    return [c / quo[-1] for c in quo]


def _fraction_chain(a) -> list[list[Fraction]]:
    """Sturm chain of the squarefree part of a, in Fractions."""
    chain = [_poly_squarefree(a)]
    chain.append(_poly_trim([i * c for i, c in enumerate(chain[0])][1:]))
    while chain[-1]:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    return chain


def _fraction_variations(chain, x: Fraction) -> int:
    """Sign variations of a chain of int or Fraction polynomials at x, by Fraction evaluation."""
    signs = [v > 0 for v in (_poly_eval(q, x) for q in chain if q) if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _fraction_roots_within(a, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of a in (lo, hi] by a Fraction Sturm chain."""
    chain = _fraction_chain(a)
    return _fraction_variations(chain, lo) - _fraction_variations(chain, hi)


def fraction_sign_at_root(p, q, lo: Fraction, hi: Fraction) -> int:
    """Sign of p at the one root of the squarefree q in (lo, hi), all in Fractions.

    A common root inside (lo, hi) gives 0; otherwise (lo, hi) is halved around
    the root of q until p has no root in [lo, hi], and p is evaluated there.
    """
    def sign(v):
        return (v > 0) - (v < 0)

    shared = _poly_gcd(p, q)
    if len(shared) > 1 and _fraction_roots_within(shared, lo, hi) > 0:
        return 0
    while _poly_eval(p, lo) == 0 or _poly_eval(p, hi) == 0 or _fraction_roots_within(p, lo, hi):
        mid = (lo + hi) / 2
        if _poly_eval(q, mid) == 0:
            return sign(_poly_eval(p, mid))
        if _fraction_roots_within(q, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return sign(_poly_eval(p, (lo + hi) / 2))


def random_graph(rng: Random, n: int, p: float, r: int = 2) -> Hypergraph:
    edges = [e for e in combinations(range(n), r) if rng.random() < p]
    return Hypergraph.make(r, n, edges)


def random_permuted(rng: Random, G: Hypergraph) -> Hypergraph:
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Hypergraph.make(G.r, G.n, [tuple(perm[v] for v in e) for e in G.edges])


def loose_hypergraph(k: int, r: int, cycle: bool) -> Hypergraph:
    """The loose r-uniform cycle or path with k edges, consecutive edges sharing one vertex
    (for r = 2, the plain cycle or path)."""
    n = k * (r - 1) + (not cycle)
    return Hypergraph.make(r, n, [[(i * (r - 1) + j) % n for j in range(r)] for i in range(k)])


def clique_count(G: Hypergraph, j: int) -> int:
    """Number of j-cliques in a 2-uniform graph, by direct enumeration."""
    assert G.r == 2
    count = 0
    for verts in combinations(range(G.n), j):
        if all(tuple(sorted(pair)) in G.edges for pair in combinations(verts, 2)):
            count += 1
    return count


def random_labeled(rng: Random, max_n: int, p: float, label_budget: int):
    """Random labeled graph with no isolated vertices."""
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


def labeled_components(A):
    """Components of a labeled graph, each keeping its labels, in labeled canonical form."""
    vlabs = {v: l for l, v in A.labels}
    out = []
    for verts, edges in split_components(A.graph.n, A.graph.edges):
        labels = {vlabs[v]: i for i, v in enumerate(verts) if v in vlabs}
        out.append(labeled_graph(A.graph.r, len(verts), edges, labels))
    return out


def reference_pair_stats(A, B, C):
    """The pair census read from labeled canonical components: the reference for pair_stats.

    Every component of A, B and their gluings AA, BB and AB is put in labeled
    canonical form and keyed on its own.  Imports are deferred for layering.
    """
    from graphtrop.cones import CertificateError
    from graphtrop.hypergraphs import component_key, graph_key
    from graphtrop.obstructions import PairStats

    ckey = graph_key(C)

    def copies(comps):
        return sum(1 for comp in comps if component_key(comp.graph) == ckey)

    aa = copies(labeled_components(glue(A, A)))
    bb = copies(labeled_components(glue(B, B)))
    gcomps = labeled_components(glue(A, B))
    ab = copies(gcomps)
    owner = {l: idx for idx, comp in enumerate(gcomps) for l, _ in comp.labels}

    def fully_labeled(X):
        return {
            frozenset(l for l, _ in comp.labels)
            for comp in labeled_components(X)
            if len(comp.labels) == comp.graph.n and component_key(comp.graph) == ckey
        }

    def survivors(copies):
        alive = set()
        for labset in copies:
            comp = gcomps[owner[next(iter(labset))]]
            if component_key(comp.graph) != ckey:
                continue
            if frozenset(l for l, _ in comp.labels) != labset:
                raise CertificateError("surviving copy carries unexpected labels")
            alive.add(labset)
        return alive

    def unlabeled(X):
        return sum(
            1 for c in labeled_components(X) if not c.labels and component_key(c.graph) == ckey
        )

    fl_a, fl_b = fully_labeled(A), fully_labeled(B)
    surv_a, surv_b = survivors(fl_a), survivors(fl_b)
    l_ab = len(surv_a & surv_b)
    l_a, l_b = len(surv_a) - l_ab, len(surv_b) - l_ab
    u_a, u_b = unlabeled(A), unlabeled(B)
    self_glue_a = aa - len(fl_a) - 2 * u_a
    self_glue_b = bb - len(fl_b) - 2 * u_b
    hybrid = ab - (l_a + l_b + l_ab) - u_a - u_b
    if self_glue_a < 0 or self_glue_b < 0 or hybrid < 0:
        raise CertificateError("pair census produced a negative residual")
    return PairStats(
        ckey,
        len(fl_a) - len(surv_a),
        len(fl_b) - len(surv_b),
        l_a,
        l_b,
        l_ab,
        u_a,
        u_b,
        self_glue_a,
        self_glue_b,
        hybrid,
        aa + bb - 2 * ab,
    )


# ---------------------------------------------------------------------------
# Sturm feasibility by one Tarski query per candidate root
# ---------------------------------------------------------------------------
# The feasibility search and minimal-refutation search minor certificates used
# before the merged sign table, over the root isolation as first written, with
# Fraction endpoints and Fraction evaluation (reference_root_data); they
# decide the sign of each constraint at each algebraic candidate with its own
# query.


@dataclass(frozen=True)
class ReferenceRoots:
    """The roots in (0, 1) of one primitive polynomial ipol.

    core is its squarefree part, with positive lead, stripped of the roots at
    0, 1 and the rational roots met by bisection; every root of core in
    (0, 1) lies alone in one of the isolating intervals.
    """

    ipol: tuple[int, ...]
    core: tuple[int, ...]
    rational: list[Fraction]
    intervals: list[tuple[Fraction, Fraction]]


def _reference_isolate(core):
    """Isolating intervals with non-root endpoints for the roots of core in (0, 1),
    or the first rational root that bisection lands on."""
    chain = _fraction_chain(core)
    intervals = []
    stack = [(Fraction(0), Fraction(1))]
    while stack:
        lo, hi = stack.pop()
        count = _fraction_variations(chain, lo) - _fraction_variations(chain, hi)
        if count == 0:
            continue
        if count == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _poly_eval(core, mid) == 0:
            return mid
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(intervals)


def reference_root_data(ipol) -> ReferenceRoots:
    """Root isolation of a primitive polynomial over (0, 1) in Fractions: the reference for
    graphtrop.obstructions._core_roots(ipol, {}), whose points are dyadic integer pairs."""
    core = primitive(_poly_squarefree(ipol))
    if core[0] == 0:
        core = core[1:]
    if sum(core) == 0:
        core = primitive(_poly_divmod(core, [-1, 1])[0])
    rational = []
    while isinstance(found := _reference_isolate(core), Fraction):
        rational.append(found)
        core = primitive(_poly_divmod(core, [-found, 1])[0])
    return ReferenceRoots(tuple(ipol), core, sorted(rational), found)


def _int_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return tuple(out)


def _remainder_chain(a, b) -> list[tuple[int, ...]]:
    """Signed remainder chain a, b, -rem(a, b), ... up to the last nonzero member."""
    chain = [a, b]
    while chain[-1]:
        chain.append(tuple(-c for c in primitive(_divmod(chain[-2], chain[-1])[1])))
    return chain[:-1]


def _sign_at_root(p, q, lo: Fraction, hi: Fraction) -> int:
    """Sign of p at the one root of the squarefree q in (lo, hi), by a Tarski query.

    With q nonzero at lo and hi, the signed remainder chain of
    (q, rem(q' * p, q)) loses Var(lo) - Var(hi) sign variations, which sums
    the sign of p over the roots of q in (lo, hi) (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, Thm 2.58).  It is 0 when p
    vanishes at that root.
    """
    chain = _remainder_chain(q, primitive(_divmod(_int_mul(_deriv(q), p), q)[1]))
    return _fraction_variations(chain, lo) - _fraction_variations(chain, hi)


def reference_system_feasible(polys, roots: dict | None = None):
    """(feasible, point, interval) for all polys >= 0 somewhere on [0, 1]: the reference
    for graphtrop.obstructions._sign_table(polys)[1].

    Candidates are tried in order: 0, 1, the rational roots, then each
    isolating interval, with the sign of every constraint evaluated at each.
    roots maps primitive polynomials to their root data across calls.
    """
    if roots is None:
        roots = {}
    datas = []
    for p in polys:
        ipol = primitive(p)
        while ipol and ipol[-1] == 0:
            ipol = ipol[:-1]
        if ipol:
            if ipol not in roots:
                roots[ipol] = reference_root_data(ipol)
            datas.append(roots[ipol])
    if not datas:
        return True, Fraction(0), None
    points = [Fraction(0), Fraction(1)]
    for d in datas:
        points += [r for r in d.rational if r not in points]
    for x in points:
        if all(_poly_eval(p.ipol, x) >= 0 for p in datas):
            return True, x, None
    seen = set()
    for d in datas:
        for lo, hi in d.intervals:
            if (d.core, lo, hi) in seen:
                continue
            seen.add((d.core, lo, hi))
            if all(_sign_at_root(p.ipol, d.core, lo, hi) >= 0 for p in datas):
                return True, None, (lo, hi)
    return False, None, None


def reference_refutation(polys) -> tuple[int, ...]:
    """Indices of the first infeasible polynomial, else the first infeasible pair, else all."""
    roots: dict = {}
    for i, p in enumerate(polys):
        if not reference_system_feasible([p], roots)[0]:
            return (i,)
    for i, j in combinations(range(len(polys)), 2):
        if not reference_system_feasible([polys[i], polys[j]], roots)[0]:
            return (i, j)
    return tuple(range(len(polys)))


def _reference_minor_poly(terms, S) -> tuple[Fraction, ...]:
    """Determinant of the principal minor on S by the Leibniz formula, in Fractions."""
    poly: dict[int, Fraction] = {}
    for perm in permutations(range(len(S))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        coeff, power = Fraction(sign), 0
        for a, b in enumerate(perm):
            i, j = sorted((S[a], S[b]))
            coeff *= terms[(i, j)][0]
            power += terms[(i, j)][1]
        poly[power] = poly.get(power, Fraction(0)) + coeff
    top = max(poly, default=-1)
    return tuple(_poly_trim([poly.get(w, Fraction(0)) for w in range(top + 1)]))


def reference_minor_constraints(M, fixed_map, free_key):
    """The eligible minors of a moment matrix and its constraints, as first enumerated.

    Every pair whose entry involves only the coordinates gets its monomial,
    (coefficient, power of the free density); every triple of the diagonal
    is scanned, every eligible set is listed, singletons, then pairs, then
    triples, and each set's signature is the tuple of its entries' monomials.
    Returns the count of eligible sets and the constraints, each polynomial
    with its first index set, in the order the sign table receives them.
    """
    allowed = set(fixed_map) | {free_key}
    orbit_terms = {}
    for first, counts in M.entries.items():
        if counts.keys() <= allowed:
            coeff = Fraction(1)
            for key, cnt in counts.items():
                if key != free_key:
                    coeff *= fixed_map[key] ** cnt
            orbit_terms[first] = (coeff, counts.get(free_key, 0))
    orbit_terms |= {(j, i): term for (i, j), term in orbit_terms.items()}
    terms = {(i, i + k): orbit_terms[cell] for i, row in enumerate(M.orbit)
             for k, cell in enumerate(row) if cell in orbit_terms}
    diag = [i for i in range(M.size) if (i, i) in terms]
    index_sets = [(i,) for i in diag]
    index_sets += [S for S in combinations(diag, 2) if S in terms]
    index_sets += [
        (i, j, k)
        for i, j, k in combinations(diag, 3)
        if (i, j) in terms and (i, k) in terms and (j, k) in terms
    ]
    signatures = set()
    constraints: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for S in index_sets:
        sig = tuple(terms[ij] for ij in combinations_with_replacement(S, 2))
        if sig not in signatures:
            signatures.add(sig)
            pol = _reference_minor_poly(terms, S)
            if pol:
                constraints.setdefault(pol, S)
    return len(index_sets), constraints


def reference_refuting_subset(masks) -> tuple[int, ...]:
    """The first infeasible constraint, pair or whole set, from the list of every candidate."""
    every = range(len(masks))
    subsets = [(i,) for i in every] + list(combinations(every, 2)) + [tuple(every)]
    return next(S for S in subsets if not reduce(and_, (masks[i] for i in S), -1))


def reference_moment_matrix(basis):
    """Every entry (i, j), i <= j, of the moment matrix built on its own, and the sorted keys.

    Each entry is the component counts of the canonical form of the whole
    unlabeled product, glued by named_product, with no sharing between pairs.
    """
    elems = tuple(basis)
    counts = {}
    for i in range(len(elems)):
        for j in range(i, len(elems)):
            counts[(i, j)] = component_counts(named_product(elems[i], elems[j]))
    keys = {key for entry in counts.values() for key in entry}
    return counts, tuple(sorted(keys, key=basis_sort_key))


def reference_edge_shapes(d: int, r: int) -> list[Hypergraph]:
    """All unlabeled graphs with 1..d edges and no isolated vertices, up to isomorphism."""
    keys: set[str] = set()
    pool = d * r
    all_edges = list(combinations(range(pool), r))
    for m in range(1, d + 1):
        for chosen in combinations(all_edges, m):
            used = sorted({v for e in chosen for v in e})
            remap = {v: i for i, v in enumerate(used)}
            G = Hypergraph.make(r, len(used), [tuple(remap[v] for v in e) for e in chosen])
            keys.add(graph_key(G))
    return [key_graph(k) for k in sorted(keys, key=basis_sort_key)]


def reference_labelings(shape: Hypergraph, label_budget: int) -> list[LabeledGraph]:
    """The distinct labeled canonical forms of every labelling of shape with labels 1..label_budget."""
    out: dict[LabeledGraph, None] = {}
    for sz in range(0, min(shape.n, label_budget) + 1):
        for vset in combinations(range(shape.n), sz):
            for labs in permutations(range(1, label_budget + 1), sz):
                L = LabeledGraph(shape, tuple(sorted(zip(labs, vset))))
                out[labeled_canonical_form(L)] = None
    return list(out)


def reference_basis(kind: str, d: int, label_budget: int | None = None, r: int = 2):
    """The gluing basis "B" or "B_tilde" from every labelling of every edge subset."""
    if label_budget is None:
        label_budget = 2 * d
    elements = [unit(r)]
    for shape in reference_edge_shapes(d, r):
        for L in reference_labelings(shape, label_budget):
            if kind == "B_tilde" and any(not comp.labels for comp in labeled_components(L)):
                continue
            elements.append(L)
    return tuple(sorted(elements, key=lambda L: (L.graph.edge_count, L.to_json())))


def reference_label_action(elems) -> list[list[int]]:
    """Index images of the basis under the swap of the two smallest labels and the cycle of all.

    The two permutations generate the symmetric group of the labels used.
    Returns no images when some relabeled element is missing from the basis.
    """
    labels = sorted({l for A in elems for l, _ in A.labels})
    if len(labels) < 2:
        return []
    index = {A: i for i, A in enumerate(elems)}
    swap = dict(zip(labels, labels))
    swap[labels[0]], swap[labels[1]] = labels[1], labels[0]
    images = []
    for sigma in (swap, dict(zip(labels, labels[1:] + labels[:1]))):
        image = []
        for A in elems:
            moved = tuple(sorted((sigma[l], v) for l, v in A.labels))
            i = index.get(labeled_canonical_form(LabeledGraph(A.graph, moved)))
            if i is None:
                return []
            image.append(i)
        images.append(image)
    return images


def reference_pair_orbits(n: int, images) -> dict[tuple[int, int], tuple[int, int]]:
    """Each pair i <= j of n elements mapped to the least pair of its orbit under the images.

    Orbits are closed by search, pair by pair, with no union-find.
    """
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for pair in ((i, j) for i in range(n) for j in range(i, n)):
        if pair in out:
            continue
        orbit, todo = {pair}, [pair]
        while todo:
            i, j = todo.pop()
            for image in images:
                moved = tuple(sorted((image[i], image[j])))
                if moved not in orbit:
                    orbit.add(moved)
                    todo.append(moved)
        for q in orbit:
            out[q] = min(orbit)
    return out


def reference_ordered_orbit(images, pair: tuple[int, int]) -> set[tuple[int, int]]:
    """The ordered pairs (a, b) onto which the images, composed, carry the ordered pair."""
    orbit, todo = {pair}, [pair]
    while todo:
        i, j = todo.pop()
        for image in images:
            moved = (image[i], image[j])
            if moved not in orbit:
                orbit.add(moved)
                todo.append(moved)
    return orbit


def reference_v_basis(d: int, label_budget: int | None = None, r: int = 2) -> tuple[str, ...]:
    """The "V" basis, the vbasis of the moment matrix over "B", by naming every pair's product.

    Keeps the sorted keys of the products that are connected and nonempty.
    """
    elems = enumerate_basis("B", d, label_budget, r)
    keys: set[str] = set()
    for i in range(len(elems)):
        for j in range(i, len(elems)):
            counts = component_counts(named_product(elems[i], elems[j]))
            if list(counts.values()) == [1]:
                keys.update(counts)
    return tuple(sorted(keys, key=basis_sort_key))


def _incidence(vertices, edges) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from((("v", v) for v in vertices), side=0)
    out.add_nodes_from((("e", e) for e in edges), side=1)
    out.add_edges_from((("v", v), ("e", e)) for e in edges for v in e)
    return out


def _nx_isomorphic(vertices1, edges1, vertices2, edges2) -> bool:
    """Isomorphism of hypergraphs by networkx, on their vertex-edge incidence graphs."""
    if (len(vertices1), len(edges1)) != (len(vertices2), len(edges2)):
        return False
    return nx.is_isomorphic(
        _incidence(vertices1, edges1),
        _incidence(vertices2, edges2),
        node_match=lambda a, b: a["side"] == b["side"],
    )


def reference_is_trivial_square(H: Hypergraph) -> bool:
    """The trivial-square test as first written, comparing squares by networkx.

    Every subgraph of H, one per shape, with every set of its vertices
    labeled; each square is built by naming a labeled vertex by itself and
    any other by its copy, with no bound on edge or vertex counts.
    """
    if H.edge_count == 0:
        raise ValueError("trivial-square test requires at least one edge")
    hverts, hedges = range(H.n), sorted(H.edges)
    seen_shapes: set[Hypergraph] = set()
    for m in range(1, len(hedges) + 1):
        for chosen in combinations(hedges, m):
            used = sorted({v for e in chosen for v in e})
            remap = {v: i for i, v in enumerate(used)}
            F0 = canonical_form(
                Hypergraph.make(H.r, len(used), [tuple(remap[v] for v in e) for e in chosen])
            )
            if F0 in seen_shapes:
                continue
            seen_shapes.add(F0)
            full_copy = _nx_isomorphic(range(F0.n), F0.edges, hverts, hedges)
            for sz in range(0, F0.n + 1):
                for vset in combinations(range(F0.n), sz):
                    labeled = set(vset)
                    names = [
                        [v if v in labeled else (side, v) for v in range(F0.n)] for side in "AB"
                    ]
                    verts = {x for name in names for x in name}
                    edges = {frozenset(name[v] for v in e) for name in names for e in F0.edges}
                    if _nx_isomorphic(verts, edges, hverts, hedges) and not (
                        sz == F0.n and full_copy
                    ):
                        return False
    return True


def _involutions(todo: list[int]):
    """Every involution of the elements of todo, as a dict, by pairing the first one or not."""
    if not todo:
        yield {}
        return
    v, rest = todo[0], todo[1:]
    for sigma in _involutions(rest):
        yield {**sigma, v: v}
    for i, w in enumerate(rest):
        for sigma in _involutions(rest[:i] + rest[i + 1 :]):
            yield {**sigma, v: w, w: v}


def reference_split_involution(H: Hypergraph):
    """An involutive automorphism s != id of H whose moved vertices split, or None.

    Every involution of range(n) is tried (meant for n <= 10).  The split is
    X and sX with no edge meeting both; it exists when no connected component
    of the moved vertices, joined by networkx along each edge's moved part,
    holds both v and s(v).  H with an isolated vertex is no glued square, so
    it gets None, the verdict "trivial square".
    """
    if H.edge_count == 0:
        raise ValueError("trivial-square test requires at least one edge")
    if 0 in H.degrees():
        return None
    for sigma in _involutions(list(range(H.n))):
        moved = [v for v in range(H.n) if sigma[v] != v]
        if not moved or {tuple(sorted(sigma[v] for v in e)) for e in H.edges} != H.edges:
            continue
        joined = nx.Graph()
        joined.add_nodes_from(moved)
        for e in H.edges:
            part = [v for v in e if sigma[v] != v]
            joined.add_edges_from(zip(part, part[1:]))
        if all(sigma[v] not in c for c in nx.connected_components(joined) for v in c):
            return tuple(sigma[v] for v in range(H.n))
    return None


def _jsonable(x):
    """x with each Fraction as its fraction_str, each dict key as its str, and
    each named tuple as its fields; anything else as it is."""
    if isinstance(x, Fraction):
        return fraction_str(x)
    if hasattr(x, "_asdict"):
        return _jsonable(x._asdict())
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def reference_json(x) -> str:
    """The JSON text of x as the standard library's indented encoder writes it."""
    return json.dumps(_jsonable(x), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Test-only helpers
# ---------------------------------------------------------------------------


def _dual_facets(rays, lineality, dim: int):
    """Facet normals of cone(rays) + span(lineality); equations appear as +/- pairs."""
    gens = list(rays) + [tuple(l) for l in lineality] + [tuple(-x for x in l) for l in lineality]
    dlines, drays = dd_rays(gens, dim)
    return sorted(set(drays) | set(dlines) | {tuple(-x for x in l) for l in dlines})


def cone_from_rays(basis, rays, lineality=()) -> RationalCone:
    """The cone generated by rays and lineality, with its facets and minimal generators."""
    dim = len(basis)
    rays = [r for r in (primitive(v) for v in rays) if any(r)]
    facets = _dual_facets(rays, [primitive(l) for l in lineality], dim)
    plines, prays = dd_rays(facets, dim)
    cone = RationalCone(tuple(basis), tuple(facets), tuple(sorted(prays)), tuple(plines))
    cone.validate()
    return cone


def rays_from_facets(cone: RationalCone) -> RationalCone:
    """The cone with its extreme rays and lineality computed again from its facets."""
    lines, rays = dd_rays(cone.facets, cone.dim)
    out = RationalCone(cone.basis, cone.facets, tuple(sorted(rays)), tuple(lines))
    out.validate()
    return out


def project_cone(cone: RationalCone, coords) -> RationalCone:
    """Coordinate projection of the V-representation, reduced to extreme generators.

    Coordinates are given by index or by basis name.
    """
    idx = [c if isinstance(c, int) else cone.basis.index(c) for c in coords]
    prays = [tuple(r[i] for i in idx) for r in cone.rays]
    plines = [tuple(l[i] for i in idx) for l in cone.lineality]
    return cone_from_rays(tuple(cone.basis[i] for i in idx), prays, plines)


def cone_from_facets(basis, facets) -> RationalCone:
    facets = tuple(primitive(f) for f in facets)
    facets = tuple(f for f in dict.fromkeys(facets) if any(f))
    lines, rays = dd_rays(facets, len(basis))
    cone = RationalCone(tuple(basis), facets, tuple(sorted(rays)), tuple(lines))
    cone.validate()
    return cone


def facets_from_rays(cone: RationalCone) -> RationalCone:
    return cone_from_rays(cone.basis, cone.rays, cone.lineality)


def generators(cone: RationalCone) -> list[tuple[int, ...]]:
    """The rays, then each lineality vector and its negative."""
    gens = list(cone.rays)
    for l in cone.lineality:
        gens.append(tuple(l))
        gens.append(tuple(-x for x in l))
    return gens


def cone_contains(cone: RationalCone, target) -> Membership:
    """Membership by simplex over the cone's generators, checked against its facets."""
    result = cone_member(target, generators(cone))
    by_facets = all(dot(a, target) >= 0 for a in cone.facets)
    if by_facets != result.inside:
        raise CertificateError("facet check disagrees with membership certificate")
    return result


def cones_equal(c1: RationalCone, c2: RationalCone) -> bool:
    """Equality as sets, by mutual membership of generators."""
    if c1.dim != c2.dim:
        return False
    return all(cone_contains(c2, g).inside for g in generators(c1)) and all(
        cone_contains(c1, g).inside for g in generators(c2)
    )


def is_isomorphic(G1: Hypergraph, G2: Hypergraph) -> bool:
    """Isomorphism of hypergraphs, by their canonical forms."""
    if (G1.r, G1.n, G1.edge_count) != (G2.r, G2.n, G2.edge_count):
        return False
    if sorted(G1.degrees()) != sorted(G2.degrees()):
        return False
    return canonical_form(G1) == canonical_form(G2)


def labeled_isomorphic(A: LabeledGraph, B: LabeledGraph) -> bool:
    """Isomorphism fixing every label pointwise."""
    return labeled_canonical_form(A) == labeled_canonical_form(B)


class Combination:
    """Formal Q-linear combination of canonical labeled or unlabeled graphs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                coeff = Fraction(coeff)
                if isinstance(key, LabeledGraph):
                    key = labeled_canonical_form(key)
                elif isinstance(key, Hypergraph):
                    key = canonical_form(key)
                else:
                    raise ValueError(f"unsupported term {key!r}")
                acc[key] = acc.get(key, Fraction(0)) + coeff
        self.terms = {k: c for k, c in acc.items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, Combination) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Combination") -> "Combination":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Combination(out)

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-1) * other

    def __neg__(self) -> "Combination":
        return (-1) * self

    def __rmul__(self, scalar) -> "Combination":
        s = Fraction(scalar)
        return Combination({k: s * c for k, c in self.terms.items()})

    def __repr__(self) -> str:
        parts = [f"{c}*{k.to_json()}" for k, c in sorted(self.terms.items(), key=lambda t: t[0].to_json())]
        return "Combination(" + " + ".join(parts) + ")" if parts else "Combination(0)"


def lift(key) -> Combination:
    return Combination({key: 1})


def named_product(A: LabeledGraph, B: LabeledGraph) -> Hypergraph:
    """The unlabeled product of A and B, built by naming every vertex.

    A labeled vertex is named by its label and any other by its side and
    index, so equally labeled vertices get one name and duplicate edges merge.
    """
    def names(X: LabeledGraph, side: str) -> list:
        labs = {v: l for l, v in X.labels}
        return [("label", labs[v]) if v in labs else (side, v) for v in range(X.graph.n)]

    na, nb = names(A, "A"), names(B, "B")
    index = {x: i for i, x in enumerate(sorted(set(na) | set(nb)))}
    edges = {tuple(sorted(index[na[v]] for v in e)) for e in A.graph.edges}
    edges |= {tuple(sorted(index[nb[v]] for v in e)) for e in B.graph.edges}
    return canonical_form(Hypergraph(A.graph.r, len(index), frozenset(edges)))


def square_expand(a: Combination) -> Combination:
    """Unlabeled expansion of the glued square of a labeled combination, pair by pair."""
    out: dict = {}
    terms = list(a.terms.items())
    for A, ca in terms:
        for B, cb in terms:
            U = named_product(A, B)
            out[U] = out.get(U, Fraction(0)) + ca * cb
    return Combination(out)


def eval_combination(a: Combination, G: Hypergraph) -> Fraction:
    """Evaluate a combination of unlabeled graphs as densities in G."""
    total = Fraction(0)
    for H, c in a.terms.items():
        if not isinstance(H, Hypergraph):
            raise ValueError("evaluation requires unlabeled terms")
        total += c * density(H, G)
    return total


def glue_product(a: Combination, b: Combination) -> Combination:
    """Bilinear extension of gluing to combinations of labeled graphs."""
    out: dict = {}
    for A, ca in a.terms.items():
        for B, cb in b.terms.items():
            P = glue(A, B)
            out[P] = out.get(P, Fraction(0)) + ca * cb
    return Combination(out)


def star_density_fast(G: Hypergraph, b: int, c: int) -> Fraction:
    """Density of the b-branch, c-core sunflower via the core degree sequence.

    Exact: a sunflower hom is an injective core placement plus b independent
    ordered edge extensions, giving c! * sum_S ((r-c)! * deg(S))^b over c-sets S.
    """
    r = G.r
    if not 1 <= c <= r - 1:
        raise ValueError(f"core size must satisfy 1 <= c <= r-1, got c={c}, r={r}")
    if b < 1:
        raise ValueError("branch count must be at least 1")
    if G.n < 1:
        raise ValueError("density target must have at least one vertex")
    deg: dict[tuple[int, ...], int] = {}
    for e in G.edges:
        for core in combinations(e, c):
            deg[core] = deg.get(core, 0) + 1
    scale = factorial(r - c)
    total = sum((scale * d) ** b for d in deg.values())
    return Fraction(factorial(c) * total, G.n ** (b * (r - c) + c))


@dataclass(frozen=True)
class DensityVector:
    """Densities of a fixed list of connected graphs in one target graph."""

    basis: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.values):
            raise ValueError("basis and values must have equal length")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("basis entries must be distinct")
        for v in self.values:
            if not 0 <= v <= 1:
                raise ValueError(f"density {v} outside [0, 1]")


def density_vector(basis: list[Hypergraph], G: Hypergraph) -> DensityVector:
    for B in basis:
        if len(connected_components(B)) != 1:
            raise ValueError("density vector basis graphs must be connected")
    return DensityVector(tuple(graph_key(B) for B in basis), tuple(density(B, G) for B in basis))


def regular_plus_clique(n: int, rho: Fraction, m: int, r: int = 2, c: int = 1) -> Hypergraph:
    """Clique on rho^m * n vertices joined completely to a rho*n'-regular circulant.

    Only the graph case (r=2, c=1) admits this explicit construction; the
    closed-form limit is available for general parameters via
    star_limit_density.
    """
    if (r, c) != (2, 1):
        raise ValueError("explicit construction only available for r=2, c=1")
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    alpha = rho**m
    a = alpha * n
    if a.denominator != 1:
        raise ValueError(f"alpha*n must be an integer, got {a}")
    a = int(a)
    nb = n - a
    if a < 1 or nb < 1:
        raise ValueError("both the clique part and the regular part must be nonempty")
    kf = rho * nb
    if kf.denominator != 1:
        raise ValueError(f"regular degree rho*(n - alpha*n) must be an integer, got {kf}")
    k = int(kf)
    if k % 2 == 1 and nb % 2 == 1:
        raise ValueError("odd regular degree requires an even number of vertices")
    if k >= nb:
        raise ValueError(f"regular degree {k} must be below part size {nb}")

    edges = list(combinations(range(a), 2))
    edges += [(i, a + j) for i in range(a) for j in range(nb)]
    for j in range(nb):
        for off in range(1, k // 2 + 1):
            edges.append(tuple(sorted((a + j, a + (j + off) % nb))))
        if k % 2 == 1:
            edges.append(tuple(sorted((a + j, a + (j + nb // 2) % nb))))
    return Hypergraph.make(2, n, edges)
