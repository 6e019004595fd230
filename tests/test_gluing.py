"""Tests for labeled graphs, gluing products, bases and moment matrices."""

import functools
import json
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtrop.gluing import (
    Basis,
    LabeledGraph,
    _glue_raw,
    _shapes,
    alpha_vector,
    cherry,
    component_counts,
    enumerate_basis,
    glue,
    graph_key,
    is_trivial_square,
    labeled_canonical_form,
    labeled_edge,
    labeled_graph,
    labeled_parts,
    moment_matrix,
    product_counts,
    unit,
    unlabel,
    unlabeled_product,
)
from graphtrop.hypergraphs import (
    Hypergraph,
    basis_sort_key,
    canonical_form,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    empty_graph,
    key_graph,
    path_graph,
    single_edge,
    star_hypergraph,
)
from oracles import (
    Combination,
    eval_combination,
    glue_product,
    is_isomorphic,
    labeled_components,
    labeled_isomorphic,
    lift,
    loose_hypergraph,
    random_graph,
    random_labeled,
    random_permuted,
    reference_basis,
    reference_edge_shapes,
    reference_label_action,
    reference_moment_matrix,
    reference_is_trivial_square,
    reference_ordered_orbit,
    reference_pair_orbits,
    reference_split_involution,
    reference_v_basis,
    square_expand,
)


def K(name):
    return graph_key({"e": single_edge(), "p2": path_graph(2), "K3": complete_graph(3)}[name])


# ---------------------------------------------------------------------------
# Labeled graphs and canonical forms
# ---------------------------------------------------------------------------


def test_labeled_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph(Hypergraph.make(2, 3, [(0, 1)]), ())  # isolated vertex
    with pytest.raises(ValueError):
        LabeledGraph(Hypergraph.make(2, 2, [(0, 1)]), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        LabeledGraph(Hypergraph.make(2, 2, [(0, 1)]), ((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        LabeledGraph(Hypergraph.make(2, 2, [(0, 1)]), ((0, 0),))


def test_labeled_canonical_form_invariance():
    rng = Random(42)
    for _ in range(40):
        A = random_labeled(rng, 5, 0.5, 3)
        assert labeled_canonical_form(A) == A
        # permute the unlabeled vertices via a relabeled reconstruction
        perm = list(range(A.graph.n))
        rng.shuffle(perm)
        G2 = Hypergraph.make(2, A.graph.n, [(perm[a], perm[b]) for a, b in A.graph.edges])
        labs2 = tuple(sorted((l, perm[v]) for l, v in A.labels))
        assert labeled_canonical_form(LabeledGraph(G2, labs2)) == A


def test_labeled_isomorphism_fixes_labels():
    assert not labeled_isomorphic(labeled_edge(1), labeled_edge(2))
    assert labeled_isomorphic(
        labeled_graph(2, 3, [(0, 1), (1, 2)], {1: 1}),
        labeled_graph(2, 3, [(2, 1), (0, 2)], {1: 2}),
    )
    assert not labeled_isomorphic(cherry(1, 2, 3), cherry(2, 1, 3))


def test_labeled_components():
    A = LabeledGraph(
        disjoint_union(path_graph(2), single_edge()).edges and
        disjoint_union(path_graph(2), single_edge()),
        ((1, 0), (2, 3)),
    )
    comps = labeled_components(A)
    assert len(comps) == 2
    assert comps[0].labels == ((1, 0),)
    assert comps[1].labels == ((2, 0),)


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------


def test_glue_identical_edges_merge():
    e12 = labeled_edge(1, 2)
    assert glue(e12, e12) == e12


def test_glue_unit_is_identity():
    rng = Random(3)
    for _ in range(20):
        A = random_labeled(rng, 5, 0.5, 3)
        assert glue(A, unit()) == A
        assert glue(unit(), A) == A


def test_glue_shared_label_makes_cherry():
    g = glue(labeled_edge(1), labeled_edge(1))
    assert g.graph.edge_count == 2
    assert is_isomorphic(unlabel(g), path_graph(2))
    lab, v = g.labels[0]
    assert lab == 1 and g.graph.degrees()[v] == 2


def test_glue_commutative_associative():
    rng = Random(8)
    for _ in range(25):
        A = random_labeled(rng, 4, 0.6, 3)
        B = random_labeled(rng, 4, 0.6, 3)
        C = random_labeled(rng, 4, 0.6, 3)
        assert glue(A, B) == glue(B, A)
        assert glue(glue(A, B), C) == glue(A, glue(B, C))


def test_glue_label_disjoint_is_disjoint_union():
    A = labeled_graph(2, 3, [(0, 1), (1, 2)], {1: 0})
    B = labeled_graph(2, 2, [(0, 1)], {2: 0})
    assert is_isomorphic(
        unlabeled_product(A, B), disjoint_union(unlabel(A), unlabel(B))
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([0.3, 0.5, 0.7]))
def test_raw_gluing_splits_like_the_labeled_product(seed, max_n, p):
    """The raw gluing is a valid labeled graph, and its parts are those of glue.

    labeled_parts keys the same (label set, vertex count, key) components as
    the labeled canonical components of glue(A, B), and the product's counts
    agree in both orders and with the canonical unlabeled product.
    """
    rng = Random(seed)
    A, B = random_labeled(rng, max_n, p, 3), random_labeled(rng, max_n, p, 3)
    r, n, edges, vlabs = raw = _glue_raw(A.raw, B.raw)
    LabeledGraph(Hypergraph(r, n, edges), tuple(sorted((l, v) for v, l in vlabs.items())))
    expected = Counter(
        (frozenset(l for l, _ in C.labels), C.graph.n, graph_key(C.graph))
        for C in labeled_components(glue(A, B))
    )
    assert Counter(labeled_parts(*raw)) == expected
    assert product_counts(A, B) == product_counts(B, A) == component_counts(unlabeled_product(A, B))


def test_unlabel_canonical():
    A = labeled_graph(2, 3, [(0, 2), (1, 2)], {2: 1})
    assert unlabel(A) == path_graph(2) or is_isomorphic(unlabel(A), path_graph(2))


# ---------------------------------------------------------------------------
# Combinations, squares, evaluation
# ---------------------------------------------------------------------------


def test_combination_arithmetic():
    a = lift(labeled_edge(1)) - lift(labeled_edge(2))
    assert (a + a) == 2 * a
    assert a - a == Combination()
    assert -a == (-1) * a


def test_square_expand_difference_of_edges():
    sq = square_expand(lift(labeled_edge(1)) - lift(labeled_edge(2)))
    want = Combination(
        {path_graph(2): 2, disjoint_union(single_edge(), single_edge()): -2}
    )
    assert sq == want


def test_square_expand_bilinear_matches_glue_product():
    rng = Random(11)
    for _ in range(10):
        A = random_labeled(rng, 4, 0.5, 2)
        B = random_labeled(rng, 4, 0.5, 2)
        a = lift(A) - 2 * lift(B)
        direct = square_expand(a)
        # collecting by unlabeled graph must agree
        acc = {}
        for P, c in glue_product(a, a).terms.items():
            U = unlabel(P)
            acc[U] = acc.get(U, Fraction(0)) + c
        assert direct == Combination(acc)


def test_goodman_identity():
    a1 = (
        lift(labeled_edge(2, 3))
        - lift(cherry(2, 1, 3))
        - lift(cherry(3, 1, 2))
        + lift(labeled_graph(2, 3, [(0, 1), (0, 2), (1, 2)], {1: 0, 2: 1, 3: 2}))
    )
    a2 = lift(labeled_edge(1)) - lift(labeled_edge(2))
    total = square_expand(a1) + square_expand(a2)
    want = Combination(
        {
            complete_graph(3): 1,
            disjoint_union(single_edge(), single_edge()): -2,
            single_edge(): 1,
        }
    )
    assert total == want
    assert eval_combination(total, complete_graph(3)) == 0
    assert eval_combination(total, complete_bipartite(2, 2)) == 0
    # pentagon: t(K3)=0, t(e)=2/5 -> 0 - 2*(2/5)^2 + 2/5 = 2/25
    C5 = Hypergraph.make(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert eval_combination(total, C5) == Fraction(2, 25)


def test_eval_combination_unit():
    assert eval_combination(Combination({Hypergraph(2, 0, frozenset()): 1}), complete_graph(3)) == 1


def test_moment_matrix_quadratic_form_matches_square_expand():
    """On 200 seeded combinations, sum c_i c_j M[i, j] is the oracle's glued square.

    Both sides are read as monomials in the component keys; the terms are
    distinct labeled graphs with up to 3 labels, so shared labels are glued.
    """
    rng = Random(2121)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            A = labeled_canonical_form(random_labeled(rng, 4, 0.5, 3))
            terms.setdefault(A, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
        elems, coeffs = list(terms), list(terms.values())
        M = moment_matrix(elems)
        got: dict = {}
        for i, ci in enumerate(coeffs):
            for j, cj in enumerate(coeffs):
                monomial = frozenset(M.alpha_entry(i, j).items())
                got[monomial] = got.get(monomial, 0) + ci * cj
        want: dict = {}
        for U, c in square_expand(Combination(terms)).terms.items():
            monomial = frozenset(component_counts(U).items())
            want[monomial] = want.get(monomial, 0) + c
        assert {m: c for m, c in got.items() if c} == want


# ---------------------------------------------------------------------------
# Exponent vectors
# ---------------------------------------------------------------------------


def test_alpha_vector_examples():
    e, p2, P3 = single_edge(), path_graph(2), path_graph(3)
    e3 = disjoint_union(disjoint_union(e, e), e)
    assert alpha_vector(e3, [graph_key(e), graph_key(P3)]) == (3, 0)
    ep = [graph_key(e), graph_key(p2)]
    assert alpha_vector(disjoint_union(disjoint_union(e, e), p2), ep) == (2, 1)
    with pytest.raises(ValueError):
        alpha_vector(complete_graph(3), ep)


def test_alpha_vector_additive_over_union():
    rng = Random(17)
    pieces = [single_edge(), path_graph(2), path_graph(3), complete_graph(3)]
    basis = [graph_key(G) for G in pieces]
    for _ in range(10):
        A = rng.choice(pieces)
        B = rng.choice(pieces)
        u = alpha_vector(disjoint_union(A, B), basis)
        va = alpha_vector(A, basis)
        vb = alpha_vector(B, basis)
        assert u == tuple(x + y for x, y in zip(va, vb))


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------


def test_basis_degree1_budget2():
    b = enumerate_basis("B_tilde", 1, 2)
    jsons = [el.to_json() for el in b]
    assert len(b) == 4
    assert '{"edges":[],"labels":{},"n":0,"r":2}' in jsons
    assert '{"edges":[[0,1]],"labels":{"1":0},"n":2,"r":2}' in jsons
    assert '{"edges":[[0,1]],"labels":{"2":0},"n":2,"r":2}' in jsons
    assert '{"edges":[[0,1]],"labels":{"1":0,"2":1},"n":2,"r":2}' in jsons
    # unrestricted basis additionally has the unlabeled edge
    assert len(enumerate_basis("B", 1, 2)) == 5


def test_basis_zero_budget():
    b = enumerate_basis("B_tilde", 1, 0)
    assert len(b) == 1
    assert b[0] == unit()


def test_basis_degree2_budget4_counts():
    # 1 empty + 10 single-edge labelings + 38 two-edge-path labelings
    # + 21 disjoint-pair labelings, every component labeled
    assert len(enumerate_basis("B_tilde", 2, 4)) == 1 + 10 + 38 + 21
    assert len(enumerate_basis("B", 2, 4)) == 83


@pytest.mark.parametrize(
    "d, labels, r", [(d, labels, r) for r in (2, 3) for d in range(4) for labels in range(5) if (d, r) != (3, 3)]
)
def test_basis_matches_reference(d, labels, r):
    """Both kinds equal the basis built from every labelling of every edge subset, as tuples.

    d=3 at r=3 is left out: the reference keys all 98,854 edge subsets of
    three 3-edges on 9 vertices, which takes about 5.5 s.
    """
    for kind in ("B", "B_tilde"):
        basis = enumerate_basis(kind, d, labels, r)
        assert isinstance(basis, Basis) and len(basis) == len(tuple(basis))
        assert basis == reference_basis(kind, d, labels, r)
        # the reference finds no images with fewer than two labels; then both are the identity
        identity = [list(range(len(basis)))] * 2
        assert list(basis.action) == (reference_label_action(basis) or identity)


@pytest.mark.parametrize("d, r", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)])
def test_shapes_match_reference(d, r):
    """Shapes grown one edge at a time are the keyed edge subsets, in basis order, after the empty graph."""
    assert _shapes(d, r) == [empty_graph(0, r)] + reference_edge_shapes(d, r)


def test_degree3_shapes_of_3graphs_are_fast():
    """The 16 shapes of at most three 3-edges, which the reference finds among 98,854 keyed subsets."""
    start = time.perf_counter()
    shapes = _shapes(3, 3)
    assert time.perf_counter() - start < 1.0
    assert [G.edge_count for G in shapes] == [0, 1] + [2] * 3 + [3] * 12
    assert len({graph_key(G) for G in shapes}) == 17


def test_one_labeled_search_per_orbit(monkeypatch):
    """One labeled canonical search per element with an edge, and none for the label action.

    "B" has 170 such elements at d=3, L=3 and 82 at d=2, L=4; "B_tilde"
    drops labellings that leave a component unlabeled before any search.
    """
    import graphtrop.gluing as gluing

    calls = []
    search = gluing.labeled_canonical_form
    monkeypatch.setattr(gluing, "labeled_canonical_form", lambda A: calls.append(A) or search(A))
    for kind, d, labels, searches in (
        ("B", 3, 3, 170), ("B", 2, 4, 82), ("B_tilde", 3, 3, 120), ("B_tilde", 2, 4, 69)
    ):
        calls.clear()
        basis = enumerate_basis(kind, d, labels)
        assert len(calls) == searches == len(basis) - 1


def _cells(M):
    """Each pair i <= j of M mapped to its cell in the triangular orbit table."""
    return {(i, i + k): cell for i, row in enumerate(M.orbit) for k, cell in enumerate(row)}


def _in_order(pair):
    return tuple(sorted(pair))


@pytest.mark.parametrize(
    "d, labels, r", [(1, 2, 2), (2, 3, 2), (2, 4, 2), (3, 3, 2), (2, 3, 3), (3, 4, 2), (4, 2, 2)]
)
def test_carried_action_gives_reference_orbits(d, labels, r):
    """The carried action is the searched one, and M.orbit closes pairs under it.

    Each cell, put in order, is its pair's least orbit pair, and the
    permutations carry the cell as stored onto the pair.
    """
    basis = enumerate_basis("B_tilde", d, labels, r)
    images = reference_label_action(basis)
    assert list(basis.action) == images
    M = moment_matrix(basis)
    cells = _cells(M)
    assert {pair: _in_order(cell) for pair, cell in cells.items()} == reference_pair_orbits(
        len(basis), images
    )
    ordered = {cell: reference_ordered_orbit(images, cell) for cell in set(cells.values())}
    for pair, cell in cells.items():
        assert pair in ordered[cell], pair
    assert all(cells[_in_order(cell)] == _in_order(cell) for cell in ordered)


def test_plain_sequence_gets_trivial_group():
    """Only an enumerated basis carries its action; the same elements in a list are not merged."""
    basis = enumerate_basis("B_tilde", 2, 2)
    M = moment_matrix(basis)
    assert len(set(map(_in_order, _cells(M).values()))) < sum(map(len, M.orbit))
    for plain in (list(basis), tuple(basis), basis[:]):
        M = moment_matrix(plain)
        assert all(cell == pair for pair, cell in _cells(M).items())


def test_moment_matrix_at_three_edges_and_four_labels_stays_small():
    """The d=3, L=4 matrix (64,261 pairs) retains under 3 MB: no dict or set over its pairs."""
    basis = enumerate_basis("B_tilde", 3, 4)
    tracemalloc.start()
    try:
        M = moment_matrix(basis)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, M.orbit)) == 64261
    assert retained < 3 * 2**20, retained


def v_basis(d, labels, r=2):
    """The "V" basis: the vbasis of the moment matrix over "B"."""
    return moment_matrix(enumerate_basis("B", d, labels, r)).vbasis


def test_v_basis_degree1():
    v = v_basis(1, 2)
    assert v == (graph_key(single_edge()), graph_key(path_graph(2)))


def test_v_basis_degree2_is_the_ten_small_graphs():
    v = v_basis(2, 4)
    keys = set(v)
    paw = Hypergraph.make(2, 4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    spider = Hypergraph.make(2, 5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    expected = {
        graph_key(single_edge()),
        graph_key(path_graph(2)),
        graph_key(complete_graph(3)),
        graph_key(path_graph(3)),
        graph_key(star_hypergraph(3, 1)),
        graph_key(path_graph(4)),
        graph_key(star_hypergraph(4, 1)),
        graph_key(complete_bipartite(2, 2)),
        graph_key(paw),
        graph_key(spider),
    }
    assert keys == expected
    counts = [key_graph(k).edge_count for k in v]
    assert counts == sorted(counts)


def test_basis_bad_kind():
    for kind in ("Z", "V"):
        with pytest.raises(ValueError, match="unknown basis kind"):
            enumerate_basis(kind, 1, 2)


# ---------------------------------------------------------------------------
# Moment matrices
# ---------------------------------------------------------------------------


def test_moment_matrix_degree1_entries():
    M = moment_matrix(enumerate_basis("B_tilde", 1, 2))
    elems = {el.to_json(): i for i, el in enumerate(M.basis)}
    i1 = elems['{"edges":[],"labels":{},"n":0,"r":2}']
    i12 = elems['{"edges":[[0,1]],"labels":{"1":0,"2":1},"n":2,"r":2}']
    ia = elems['{"edges":[[0,1]],"labels":{"1":0},"n":2,"r":2}']
    ib = elems['{"edges":[[0,1]],"labels":{"2":0},"n":2,"r":2}']
    e, p2 = graph_key(single_edge()), graph_key(path_graph(2))
    assert M.alpha_entry(i1, i1) == {}
    assert M.alpha_entry(i1, ia) == {e: 1}
    assert M.alpha_entry(i12, i12) == {e: 1}
    assert M.alpha_entry(ia, ia) == {p2: 1}
    assert M.alpha_entry(ia, i12) == {p2: 1}
    assert M.alpha_entry(ib, i12) == {p2: 1}
    assert M.alpha_entry(ia, ib) == {e: 2}
    assert M.vbasis == (e, p2)


def test_moment_matrix_symmetry():
    M = moment_matrix(enumerate_basis("B_tilde", 1, 2))
    assert M.vbasis == (graph_key(single_edge()), graph_key(path_graph(2)))
    for i in range(M.size):
        for j in range(M.size):
            assert unlabeled_product(M.basis[i], M.basis[j]) == unlabeled_product(
                M.basis[j], M.basis[i]
            )


def test_moment_entries_match_fresh_component_counts():
    M = moment_matrix(enumerate_basis("B_tilde", 1, 2))
    for i in range(M.size):
        for j in range(M.size):
            fresh = component_counts(unlabeled_product(M.basis[i], M.basis[j]))
            assert M.alpha_entry(i, j) == fresh
            assert M.alpha_entry(j, i) == M.alpha_entry(i, j)
    with pytest.raises(TypeError):
        M.alpha_entry(0, 1)[graph_key(single_edge())] = 5


def _nx(G):
    out = nx.Graph()
    out.add_nodes_from(range(G.n))
    out.add_edges_from(G.edges)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from([0.2, 0.35, 0.5, 0.7]),
)
def test_graph_key_properties(seed, n1, n2, p):
    """Keys are permutation invariant, name isomorphism classes, and sort by edge count."""
    rng = Random(seed)
    G = random_graph(rng, n1, p)
    others = [random_permuted(rng, G), random_graph(rng, n2, p), random_graph(rng, n1, p)]
    key = graph_key(G)
    assert graph_key(others[0]) == key
    assert component_counts(G) == component_counts(canonical_form(G))
    for H in others:
        assert (graph_key(H) == key) == nx.is_isomorphic(_nx(G), _nx(H))
    for k in [key] + list(component_counts(G)):
        assert basis_sort_key(k) == (len(json.loads(k)["edges"]), k)


def test_moment_matrix_unit_row():
    M = moment_matrix(enumerate_basis("B_tilde", 1, 2))
    for j, el in enumerate(M.basis):
        assert M.alpha_entry(0, j) == component_counts(unlabel(el))


def _assert_matches_full_build(basis):
    """moment_matrix equals the full build entry by entry, with one shared entry per orbit."""
    M = moment_matrix(basis)
    counts, vbasis = reference_moment_matrix(basis)
    cells = _cells(M)
    assert counts.keys() == cells.keys()
    assert M.entries.keys() == set(map(_in_order, cells.values()))
    assert list(M.entries) == sorted(M.entries)  # first pairs in row-major order
    for pair, entry in counts.items():
        assert M.alpha_entry(*pair) == entry, pair
        rep = _in_order(cells[pair])
        assert rep <= pair and cells[rep] == rep, pair
        assert M.alpha_entry(*pair) is M.entries[rep], pair
    assert M.vbasis == vbasis
    return M


@pytest.mark.parametrize(
    "d, labels", [(d, labels) for d in (1, 2, 3) for labels in (1, 2, 3, 4) if (d, labels) != (3, 4)]
)
def test_orbit_moment_matrix_matches_full_build(d, labels):
    """B_tilde at each degree and label budget whose full build stays small (d=3, L=4 has 64,261 pairs)."""
    _assert_matches_full_build(enumerate_basis("B_tilde", d, labels))


def test_orbit_moment_matrix_matches_full_build_other_bases():
    """An r=3 basis and a "B" basis, both closed under the label permutations."""
    for basis in (enumerate_basis("B_tilde", 2, 3, r=3), enumerate_basis("B", 2, 3)):
        M = _assert_matches_full_build(basis)
        assert len(M.entries) < sum(map(len, M.orbit))


def test_orbit_moment_matrix_basis_not_closed():
    """Dropping the edge labeled 2 breaks the swap of labels 1 and 2: every pair is its own orbit."""
    basis = [unit(), labeled_edge(1), labeled_edge(1, 2), cherry(1, 2, 3), cherry(3, 1, 2)]
    M = _assert_matches_full_build(basis)
    assert all(cell == pair for pair, cell in _cells(M).items())


@pytest.mark.parametrize(
    "kind, d, labels, r, restrictions, classes",
    [
        ("B_tilde", 3, 3, 2, 589, 86),
        ("B_tilde", 2, 4, 2, 385, 23),
        ("B_tilde", 2, 3, 3, 303, 41),
        ("B", 2, 3, 2, 148, 20),
        ("B", 2, 4, 2, 420, 23),
    ],
)
def test_restriction_names_are_labeled_isomorphism_classes(kind, d, labels, r, restrictions, classes):
    """Two restrictions of basis elements share a name exactly when they are isomorphic.

    Each element is restricted to every subset S of its labels, renumbered
    1..|S| in order, and put in labeled canonical form independently of its
    placement.
    """
    basis = enumerate_basis(kind, d, labels, r)
    named = []
    for i, A in enumerate(basis):
        own = [l for l, _ in A.labels]
        for S in chain.from_iterable(combinations(own, k) for k in range(len(own) + 1)):
            renumber = {l: k + 1 for k, l in enumerate(S)}
            kept = tuple((renumber[l], v) for l, v in A.labels if l in renumber)
            form = labeled_canonical_form(LabeledGraph(A.graph, kept)).to_json()
            named.append((basis.restricted(i, S), form))
    assert len(named) == restrictions
    assert len({n for n, _ in named}) == len({f for _, f in named}) == len(set(named)) == classes


def test_orbit_moment_matrix_builds_one_product_per_orbit(monkeypatch):
    """d=3, L=3 builds 545 of its 7,381 products; d=3, L=4 883 of 64,261; d=2, L=4 52 of 2,485.

    Each orbit's first pair is glued only when no earlier pair restricts to
    the same pair of names on its shared labels: 545 of the 1,420 orbits,
    883 of the 3,469 and 52 of the 178 (one product per orbit built 1,420,
    3,469 and 178).  The matrix stores one entry per orbit.  The minor
    certificate and the "V" basis read the moment matrix, so they build 52
    for a c06 point, whose basis is the d=2, L=4 one, and 52 for "V" at d=2,
    L=4, over the 83 elements of "B" (one per orbit built 178 and 283).  A
    plain tuple of the d=2, L=4 basis glues all 2,485 into the same counts.
    """
    import graphtrop.gluing as gluing
    import graphtrop.obstructions as obstructions

    calls = []

    def counted(A, B):
        calls.append((A, B))
        return product_counts(A, B)

    product_counts = gluing.product_counts
    monkeypatch.setattr(gluing, "product_counts", counted)
    cases = ((3, 3, 7381, 1420, 545), (3, 4, 64261, 3469, 883), (2, 4, 2485, 178, 52))
    for d, labels, pairs, orbits, glued in cases:
        basis = enumerate_basis("B_tilde", d, labels)
        calls.clear()
        M = moment_matrix(basis)
        firsts = set(map(_in_order, _cells(M).values()))
        assert (sum(map(len, M.orbit)), len(M.entries), len(firsts)) == (pairs, orbits, orbits)
        assert len(calls) == glued
    calls.clear()
    plain = moment_matrix(tuple(basis))  # no action and no names: every pair is glued
    assert len(calls) == 2485 and plain.vbasis == M.vbasis and _cells(plain).keys() == _cells(M).keys()
    assert all(plain.alpha_entry(*pair) == M.alpha_entry(*pair) for pair in _cells(M))
    calls.clear()
    fixed = {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(3, 25)}
    obstructions.minor_certificate(fixed, path_graph(2), 2)
    assert len(calls) == 52
    calls.clear()
    v_basis(2, 4)
    assert len(calls) == 52


def test_key_cache_runs_one_canonical_search_per_key(monkeypatch):
    """Cold, the B_tilde moment matrix runs one connected canonical search per component key.

    d=3, L=3 has 52 keys and d=2, L=4 has 10; the exact memo alone, with no
    representatives to map from, ran 485 and 26 searches.
    """
    import graphtrop.gluing as gluing
    import graphtrop.hypergraphs as hypergraphs

    searches = []

    def counted(G):
        searches.append(G)
        return canonical(G)

    canonical = hypergraphs._canonical_connected.__wrapped__
    bases = {(d, labels): enumerate_basis("B_tilde", d, labels) for d, labels in ((3, 3), (2, 4))}
    monkeypatch.setattr(hypergraphs, "_canonical_connected", counted)
    for (d, labels), keys in zip(bases, (52, 10)):
        monkeypatch.setattr(hypergraphs, "_KEY_REPS", {})
        cold = functools.lru_cache(maxsize=None)(hypergraphs.component_key.__wrapped__)
        monkeypatch.setattr(gluing, "component_key", cold)
        searches.clear()
        M = moment_matrix(bases[d, labels])
        assert len(M.vbasis) == len(searches) == keys
        assert {canonical(C).to_json() for C in searches} == set(M.vbasis)


def test_products_are_glued_without_labeled_graphs(monkeypatch):
    """Cold, the d=3, L=3 moment matrix builds no LabeledGraph and 880 Hypergraphs.

    Each product is glued raw and split once, and only its components become
    Hypergraphs; gluing each into a LabeledGraph built 1,420 of them and
    3,499 Hypergraphs, and one raw product per orbit built 2,079 Hypergraphs.
    The e+P3 vs P4 report at d=2, L=4 builds 139 LabeledGraphs, where it
    built 389; its trivial-square search built 18 more before it kept its
    subgraphs and squares raw.
    """
    import graphtrop.gluing as gluing
    import graphtrop.hypergraphs as hypergraphs
    from graphtrop.obstructions import counting_obstruction

    built = Counter()

    def counting(cls):
        make = cls.__new__
        monkeypatch.setattr(cls, "__new__", staticmethod(lambda c, *a: built.update([cls]) or make(c, *a)))

    def cold(f):
        return functools.lru_cache(maxsize=None)(f.__wrapped__)

    monkeypatch.setattr(hypergraphs, "_KEY_REPS", {})
    monkeypatch.setattr(hypergraphs, "_canonical_connected", cold(hypergraphs._canonical_connected))
    monkeypatch.setattr(gluing, "component_key", cold(hypergraphs.component_key))
    key_graph = cold(hypergraphs.key_graph)
    monkeypatch.setattr(hypergraphs, "key_graph", key_graph)
    monkeypatch.setattr(gluing, "key_graph", key_graph)
    basis = enumerate_basis("B_tilde", 3, 3)
    counting(LabeledGraph)
    counting(Hypergraph)
    moment_matrix(basis)
    assert (built[LabeledGraph], built[Hypergraph]) == (0, 880)
    built.clear()
    upper = Hypergraph.make(2, 6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    counting_obstruction(upper, path_graph(4), 3, 2, 4)
    assert built[LabeledGraph] == 139


@pytest.mark.parametrize(
    "d, labels, r", [(1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 3, 2), (2, 3, 3)]
)
def test_v_basis_matches_pairwise_reference(d, labels, r):
    """"V" read off the moment matrix equals gluing every pair of "B" on its own."""
    assert v_basis(d, labels, r) == reference_v_basis(d, labels, r)


def test_symbolically_zero_minor_needs_shared_labeled_components():
    # distinct elements with every component labeled never cancel
    basis = enumerate_basis("B_tilde", 2, 2)
    M = moment_matrix(basis)
    for i in range(M.size):
        for j in range(i + 1, M.size):
            m = _minor_vector(M, i, j)
            assert any(c != 0 for c in m.values()), (i, j)
    # but an unlabeled component shared through the product cancels exactly
    A = LabeledGraph(disjoint_union(single_edge(), single_edge()), ((1, 0),))
    B = labeled_edge(1)
    m = _pair_vector(A, B)
    assert all(c == 0 for c in m.values())


def _pair_vector(A, B):
    out: dict[str, int] = {}
    for U, s in ((unlabeled_product(A, A), 1), (unlabeled_product(B, B), 1), (unlabeled_product(A, B), -2)):
        for k, c in component_counts(U).items():
            out[k] = out.get(k, 0) + s * c
    return out


def _minor_vector(M, i, j):
    out: dict[str, int] = {}
    for (a, b), s in (((i, i), 1), ((j, j), 1), ((i, j), -2)):
        for k, c in M.alpha_entry(a, b).items():
            out[k] = out.get(k, 0) + s * c
    return out


# ---------------------------------------------------------------------------
# Trivial squares
# ---------------------------------------------------------------------------


def test_trivial_square_paths():
    assert is_trivial_square(path_graph(3))
    assert not is_trivial_square(path_graph(2))
    # the 4-edge path folds out of a cherry with one labeled leaf
    assert not is_trivial_square(path_graph(4))


def test_trivial_square_edge_and_clique():
    # the only labeled graph squaring to a single edge is the fully labeled edge
    assert is_trivial_square(single_edge())
    assert is_trivial_square(complete_graph(3))


def test_trivial_square_star_fails():
    # a half-labeled cherry squares to the 3-star
    assert not is_trivial_square(star_hypergraph(3, 1))


def test_trivial_square_validation():
    with pytest.raises(ValueError):
        is_trivial_square(Hypergraph(2, 3, frozenset()))


def test_trivial_square_matches_reference_on_small_graphs():
    """The involution search keeps every verdict of the subgraph search and of the
    involution enumeration, for r = 2 and r = 3.

    The atlas graphs have no isolated vertex; the random 3-graphs often do.
    """
    graphs = [
        Hypergraph.make(2, g.number_of_nodes(), list(g.edges()))
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_edges() <= 8 and min(d for _, d in g.degree()) > 0
    ]
    rng = Random(3)
    graphs += [random_graph(rng, rng.randint(3, 7), rng.choice([0.1, 0.2, 0.3]), 3) for _ in range(60)]
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    graphs += [complete_graph(4, 3), star_hypergraph(3, 2, 3), Hypergraph.make(3, 7, fano)]
    for H in graphs:
        if H.edge_count:
            verdict = is_trivial_square(H)
            assert verdict == reference_is_trivial_square(H), H
            assert verdict == (reference_split_involution(H) is None), H


def test_trivial_square_matches_involution_reference_on_random_graphs():
    """Random 2- and 3-graphs on 6 to 9 vertices with up to 12 edges and no isolated
    vertex, beyond the reach of the subgraph search: the involution enumeration's verdict."""
    rng = Random(43)
    verdicts = []
    while len(verdicts) < 150:
        r, n = rng.choice([2, 3]), rng.randint(6, 9)
        edges = rng.sample(list(combinations(range(n), r)), rng.randint(3, 12))
        H = Hypergraph.make(r, n, edges)
        if 0 not in H.degrees():
            verdicts.append(is_trivial_square(H))
            assert verdicts[-1] == (reference_split_involution(H) is None), H
    assert set(verdicts) == {True, False}


# 12-edge graphs on 8 and 9 vertices, at the edge limit of the search
TWELVE_EDGE_GRAPHS = {
    "reproducer": (8, [(0, 2), (0, 4), (0, 7), (1, 2), (1, 5), (2, 3), (2, 5), (2, 6),
                       (3, 4), (3, 7), (4, 6), (5, 6)]),
    "cube": (8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                 (0, 4), (1, 5), (2, 6), (3, 7)]),
    "wagner": (8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]),
    "k33_with_pendants": (9, [(a, b) for a in range(3) for b in range(3, 6)]
                          + [(0, 6), (1, 7), (2, 8)]),
    "c9_with_triangle": (9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 3), (3, 6), (6, 0)]),
}


@pytest.mark.parametrize("name", sorted(TWELVE_EDGE_GRAPHS))
def test_trivial_square_matches_reference_at_twelve_edges(name):
    n, edges = TWELVE_EDGE_GRAPHS[name]
    H = Hypergraph.make(2, n, edges)
    assert is_trivial_square(H) == reference_is_trivial_square(H)


def test_trivial_square_keys_subgraphs_through_component_key(monkeypatch):
    """Cold, each 12-edge search runs no canonical search: the involution search keys nothing.

    Keying every subgraph and square by its whole canonical form ran 1,349,
    649, 995, 2,225 and 2,052 connected canonical searches on these graphs,
    and keying them through component_key 131, 16, 36, 116 and 46, counted
    by the same unmemoised wrapper.
    """
    import graphtrop.gluing as gluing
    import graphtrop.hypergraphs as hypergraphs

    searches = []

    def counted(G):
        searches.append(G)
        return canonical(G)

    canonical = hypergraphs._canonical_connected.__wrapped__
    monkeypatch.setattr(hypergraphs, "_canonical_connected", counted)
    for name, (n, edges) in TWELVE_EDGE_GRAPHS.items():
        monkeypatch.setattr(hypergraphs, "_KEY_REPS", {})
        cold = functools.lru_cache(maxsize=None)(hypergraphs.component_key.__wrapped__)
        monkeypatch.setattr(gluing, "component_key", cold)
        searches.clear()
        is_trivial_square(Hypergraph.make(2, n, edges))
        assert len(searches) == 0, name


def test_trivial_square_keeps_subgraphs_and_squares_raw(monkeypatch):
    """Cold, each 12-edge search builds no LabeledGraph and no Hypergraph.

    A validated subgraph, a LabeledGraph per label set and a Hypergraph per
    candidate square built 3,788, 1,370, 2,237, 4,401 and 5,602 Hypergraphs
    and 1,162, 131, 280, 737 and 1,626 LabeledGraphs on these graphs; the
    raw subgraph search still built 1,457, 664, 1,029, 2,333 and 2,055
    Hypergraphs to key their components.
    """
    import graphtrop.gluing as gluing
    import graphtrop.hypergraphs as hypergraphs

    built = Counter()

    def counting(cls):
        make = cls.__new__
        monkeypatch.setattr(cls, "__new__", staticmethod(lambda c, *a: built.update([cls]) or make(c, *a)))

    counting(LabeledGraph)
    counting(Hypergraph)
    for name, (n, edges) in TWELVE_EDGE_GRAPHS.items():
        H = Hypergraph.make(2, n, edges)
        monkeypatch.setattr(hypergraphs, "_KEY_REPS", {})
        for module, f in ((hypergraphs, "_canonical_connected"), (gluing, "component_key")):
            cold = functools.lru_cache(maxsize=None)(getattr(hypergraphs, f).__wrapped__)
            monkeypatch.setattr(module, f, cold)
        built.clear()
        is_trivial_square(H)
        assert (built[LabeledGraph], built[Hypergraph]) == (0, 0), name


def test_trivial_square_verdict_ignores_vertex_numbering():
    """The five 12-edge graphs and 20 atlas graphs keep their verdict under 3 renumberings each."""
    atlas = [g for g in nx.graph_atlas_g()
             if 5 <= g.number_of_edges() <= 8 and min(d for _, d in g.degree()) > 0]
    graphs = [Hypergraph.make(2, n, edges) for n, edges in TWELVE_EDGE_GRAPHS.values()]
    graphs += [Hypergraph.make(2, g.number_of_nodes(), list(g.edges())) for g in atlas[::11][:20]]
    rng = Random(39)
    verdicts = []
    for H in graphs:
        verdicts.append(is_trivial_square(H))
        for _ in range(3):
            assert is_trivial_square(random_permuted(rng, H)) == verdicts[-1], H
    assert set(verdicts) == {True, False}


# Symmetric and hypergraph cases up to the edge limit, with the verdicts of the
# subgraph search that the involution search replaced
SYMMETRIC_VERDICTS = {
    "12K2": (lambda: disjoint_union(*[single_edge()] * 12), False),
    "6P2": (lambda: disjoint_union(*[path_graph(2)] * 6), False),
    "4K3": (lambda: disjoint_union(*[complete_graph(3)] * 4), False),
    "2K4": (lambda: disjoint_union(complete_graph(4), complete_graph(4)), False),
    "K1,12": (lambda: complete_bipartite(1, 12), False),
    "K3,4": (lambda: complete_bipartite(3, 4), False),
    "C12": (lambda: loose_hypergraph(12, 2, True), False),
    "3C4": (lambda: disjoint_union(*[loose_hypergraph(4, 2, True)] * 3), False),
    "cube": (lambda: Hypergraph.make(2, *TWELVE_EDGE_GRAPHS["cube"]), False),
    "2C6": (lambda: disjoint_union(loose_hypergraph(6, 2, True), loose_hypergraph(6, 2, True)), False),
    "P12": (lambda: path_graph(12), False),
    "12 3-edges": (lambda: disjoint_union(*[single_edge(3)] * 12), False),
    "3K4^(3)": (lambda: disjoint_union(*[complete_graph(4, 3)] * 3), False),
    "K5^(3)": (lambda: complete_graph(5, 3), True),
    "C5+C7": (lambda: disjoint_union(loose_hypergraph(5, 2, True), loose_hypergraph(7, 2, True)), True),
    "K3+C9": (lambda: disjoint_union(complete_graph(3), loose_hypergraph(9, 2, True)), True),
    "C11+K2": (lambda: disjoint_union(loose_hypergraph(11, 2, True), single_edge()), True),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_VERDICTS))
def test_trivial_square_verdicts_on_symmetric_graphs(name):
    """Each verdict holds as built and under one random renumbering."""
    build, verdict = SYMMETRIC_VERDICTS[name]
    H = build()
    assert H.edge_count in (10, 12)
    assert is_trivial_square(H) is verdict
    assert is_trivial_square(random_permuted(Random(43), H)) is verdict


def test_trivial_square_search_stays_small_on_renumbered_loose_hypergraphs():
    """Loose hypercycles and hyperpaths with up to 37 vertices keep their verdicts under
    3 numberings each, all within 2 s: a vertex next to a mapped one is placed first, and
    each edge is checked as soon as some of its vertices are mapped.  Placing vertices in
    component order and checking each edge only once it was fully mapped took 22 s on one
    numbering of the 3-uniform loose 11-cycle.
    """
    cases = [(11, 3, True, True), (11, 4, True, True), (9, 4, True, True), (10, 3, True, False),
             (12, 4, False, False), (11, 3, False, True)]
    rng = Random(5)
    start = time.monotonic()
    for k, r, cycle, verdict in cases:
        H = loose_hypergraph(k, r, cycle)
        assert [is_trivial_square(random_permuted(rng, H)) for _ in range(3)] == [verdict] * 3, H
    assert time.monotonic() - start < 2.0
    for H in (loose_hypergraph(5, 3, True), loose_hypergraph(4, 3, True), loose_hypergraph(3, 4, False), loose_hypergraph(4, 3, False)):
        assert is_trivial_square(H) == (reference_split_involution(H) is None), H
