"""Tests for exact hypergraph densities, products, canonical forms and families."""

import time
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphtrop.gluing import glue, labeled_edge, product_counts
from graphtrop.hypergraphs import (
    Hypergraph,
    canonical_form,
    clique_plus_turan,
    clique_turan_density,
    complete_bipartite,
    complete_graph,
    connected_components,
    density,
    direct_product,
    disjoint_union,
    empty_graph,
    hom_count,
    json_text,
    longbroom,
    named_graph,
    path_graph,
    single_edge,
    star_hypergraph,
    star_limit_density,
    turan_hypergraph,
)
from oracles import (
    DensityVector,
    brute_hom,
    clique_count,
    density_vector,
    einsum_hom,
    is_isomorphic,
    random_graph,
    random_permuted,
    reference_json,
    regular_plus_clique,
    star_density_fast,
)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_edge_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, 3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Hypergraph(2, 2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Hypergraph(1, 2, frozenset())
    with pytest.raises(ValueError):
        Hypergraph(2, 3, frozenset({(1, 0)}))


def test_make_sorts_and_dedupes():
    G = Hypergraph.make(2, 3, [(1, 0), (0, 1), (2, 1)])
    assert G.sorted_edges() == [(0, 1), (1, 2)]


def test_json_round_trip():
    G = turan_hypergraph(5, 3, 2)
    assert Hypergraph.from_json(G.to_json()) == G
    with pytest.raises(ValueError):
        Hypergraph.from_json('{"r": 2, "n": 3}')


def test_named_graphs():
    assert named_graph("K3") == complete_graph(3)
    assert named_graph("P4").edge_count == 4
    assert named_graph("edge^3").n == 6
    assert named_graph("edge^3").edge_count == 3
    with pytest.raises(ValueError):
        named_graph("K99")


def test_degrees():
    assert sorted(longbroom().degrees()) == [1, 1, 1, 2, 2, 3]
    assert star_hypergraph(4, 1, 3).degrees()[0] == 4


# ---------------------------------------------------------------------------
# Homomorphism counts and densities
# ---------------------------------------------------------------------------


def test_hom_count_frozen_values():
    # values frozen from the brute-force oracle in oracles.py
    K3 = complete_graph(3)
    K22 = complete_bipartite(2, 2)
    assert hom_count(K3, K3) == 6
    assert density(K3, K3) == Fraction(2, 9)
    assert hom_count(single_edge(), K22) == 8
    assert density(single_edge(), K22) == Fraction(1, 2)
    assert hom_count(K3, K22) == 0
    assert density(path_graph(2), K3) == Fraction(4, 9)
    assert hom_count(single_edge(3), complete_graph(4, 3)) == 24


def test_hom_count_edge_cases():
    K3 = complete_graph(3)
    assert hom_count(empty_graph(0), K3) == 1
    assert hom_count(empty_graph(2), K3) == 9
    assert hom_count(K3, empty_graph(0)) == 0
    assert density(empty_graph(0), K3) == 1
    with pytest.raises(ValueError):
        density(K3, empty_graph(0))
    with pytest.raises(ValueError):
        hom_count(single_edge(3), K3)


def test_hom_count_matches_oracle():
    rng = Random(20260814)
    for _ in range(60):
        r = rng.choice([2, 2, 2, 3])
        H = random_graph(rng, rng.randint(1, 4), 0.6, r)
        G = random_graph(rng, rng.randint(1, 5), 0.6, r)
        assert hom_count(H, G) == brute_hom(H, G)


def test_hom_count_beyond_exact_count_limit():
    """P19 into one edge among 9 vertices: 9**20 maps overflow int64, 2 are homomorphisms."""
    G = Hypergraph.make(2, 9, [(0, 1)])
    assert 9**20 > 2**62
    assert hom_count(path_graph(19), G) == 2
    assert density(path_graph(19), G) == Fraction(2, 9**20)


@st.composite
def hom_instances(draw):
    """(H, G) with r in {2, 3}: H has at most 5 vertices and may be disconnected, G at most 5."""
    r = draw(st.sampled_from([2, 3]))

    def graph(max_n):
        n = draw(st.integers(0, max_n))
        tuples = [tuple(c) for c in combinations(range(n), r)]
        edges = draw(st.lists(st.sampled_from(tuples), unique=True)) if tuples else []
        return Hypergraph.make(r, n, edges)

    return graph(5), graph(5)


TWO_TRIPLES = Hypergraph.make(3, 5, [(0, 1, 2), (2, 3, 4)])


@settings(max_examples=300, deadline=None)
@given(hom_instances())
# disconnected H; a 3-edge whose first two vertices close no edge; two 3-edges on one vertex
@example((Hypergraph.make(2, 5, [(0, 1), (2, 3)]), complete_bipartite(2, 2)))
@example((single_edge(3), TWO_TRIPLES))
@example((TWO_TRIPLES, Hypergraph.make(3, 5, [(0, 1, 2), (1, 2, 3), (0, 3, 4)])))
def test_hom_count_matches_brute_force_property(instance):
    H, G = instance
    assert hom_count(H, G) == brute_hom(H, G)


def test_hom_count_matches_einsum_reference():
    rng = Random(20261018)
    for r, max_h, max_g in ((2, 7, 9), (3, 6, 8), (4, 6, 7)):
        for _ in range(40):
            H = random_graph(rng, rng.randint(1, max_h), rng.choice([0.3, 0.6]), r)
            G = random_graph(rng, rng.randint(1, max_g), rng.choice([0.4, 0.8]), r)
            assert hom_count(H, G) == einsum_hom(H, G), (H, G)


def test_long_path_count_within_budget():
    """P15 into a seeded G(20, 0.4) against a walk count in Python ints, within 1 s.

    The 20**16 maps overflow int64, so a tensor count could not take this case.
    """
    rng = Random(15)
    G = random_graph(rng, 20, 0.4)
    adj = [[v for v in range(G.n) if tuple(sorted((u, v))) in G.edges] for u in range(G.n)]
    walks = [1] * G.n
    for _ in range(15):
        walks = [sum(walks[v] for v in adj[u]) for u in range(G.n)]
    start = time.perf_counter()
    count = hom_count(path_graph(15), G)
    elapsed = time.perf_counter() - start
    assert count == sum(walks)
    assert elapsed < 1.0, f"P15 count took {elapsed:.2f} s"


def test_hom_count_multiplicative_over_components():
    rng = Random(99)
    for _ in range(20):
        A = random_graph(rng, rng.randint(1, 4), 0.5)
        B = random_graph(rng, rng.randint(1, 4), 0.5)
        G = random_graph(rng, rng.randint(1, 5), 0.5)
        assert hom_count(disjoint_union(A, B), G) == hom_count(A, G) * hom_count(B, G)


def test_hom_count_cliques_by_clique_enumeration():
    # hom(K_j, G) = j! * (number of j-cliques)
    rng = Random(5)
    for _ in range(10):
        G = random_graph(rng, rng.randint(4, 8), 0.5)
        for j, fact in ((3, 6), (4, 24)):
            assert hom_count(complete_graph(j), G) == fact * clique_count(G, j)


def test_density_additive_over_disjoint_target():
    # hom into a disjoint union splits as a sum over placements of components
    K4 = complete_graph(4)
    K22 = complete_bipartite(2, 2)
    H = path_graph(2)
    G = disjoint_union(K4, K22)
    assert hom_count(H, G) == hom_count(H, K4) + hom_count(H, K22)


def test_star_density_fast_frozen():
    assert star_density_fast(complete_graph(3), 2, 1) == Fraction(4, 9)
    assert star_density_fast(complete_graph(3), 1, 1) == density(single_edge(), complete_graph(3))
    assert star_density_fast(empty_graph(4), 3, 1) == 0


def test_star_density_fast_matches_density():
    rng = Random(13)
    for _ in range(15):
        G = random_graph(rng, rng.randint(2, 6), 0.5)
        for b in (1, 2, 3):
            assert star_density_fast(G, b, 1) == density(star_hypergraph(b, 1), G)
    for _ in range(8):
        G = random_graph(rng, rng.randint(3, 5), 0.5, 3)
        for b, c in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert star_density_fast(G, b, c) == density(star_hypergraph(b, c, 3), G)


def test_star_density_fast_validation():
    with pytest.raises(ValueError):
        star_density_fast(complete_graph(3), 2, 2)
    with pytest.raises(ValueError):
        star_density_fast(complete_graph(3), 0, 1)


# ---------------------------------------------------------------------------
# Products and unions
# ---------------------------------------------------------------------------


def test_direct_product_of_two_edges():
    P = direct_product(single_edge(), single_edge())
    assert P.n == 4
    assert P.sorted_edges() == [(0, 3), (1, 2)]


def test_direct_product_multiplicativity():
    rng = Random(2)
    for _ in range(15):
        r = rng.choice([2, 3])
        H = random_graph(rng, rng.randint(1, 3), 0.7, r)
        G1 = random_graph(rng, rng.randint(1, 4), 0.6, r)
        G2 = random_graph(rng, rng.randint(1, 4), 0.6, r)
        P = direct_product(G1, G2)
        if G1.n and G2.n:
            assert density(H, P) == density(H, G1) * density(H, G2)


def test_direct_product_uniformity_mismatch():
    """Every binary product of graphs refuses factors of different r, as do the gluings."""
    e2, e3 = single_edge(), single_edge(3)
    A, B = labeled_edge(1), labeled_edge(1, r=3)
    for build in (
        lambda: direct_product(e2, e3),
        lambda: disjoint_union(e2, e3),
        lambda: disjoint_union(e2, e2, e3),
        lambda: glue(A, B),
        lambda: product_counts(A, B),
    ):
        with pytest.raises(ValueError, match="uniformity mismatch: 2 vs 3"):
            build()


def test_disjoint_union_counts():
    G = disjoint_union(complete_graph(3), single_edge())
    assert G.n == 5
    assert G.edge_count == 4
    assert disjoint_union(empty_graph(0), G) == G


# ---------------------------------------------------------------------------
# Components and canonical forms
# ---------------------------------------------------------------------------


def test_connected_components():
    G = disjoint_union(complete_graph(3), disjoint_union(empty_graph(1), single_edge()))
    comps = connected_components(G)
    assert [c.n for c in comps] == [3, 1, 2]
    assert comps[0] == complete_graph(3)
    assert comps[2] == single_edge()


def test_components_reassemble():
    rng = Random(31)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 8), 0.25)
        comps = connected_components(G)
        rebuilt = empty_graph(0)
        for c in comps:
            rebuilt = disjoint_union(rebuilt, c)
        assert is_isomorphic(canonical_form(rebuilt), canonical_form(G)) or rebuilt.n == G.n
        assert sum(c.n for c in comps) == G.n
        assert sum(c.edge_count for c in comps) == G.edge_count


def test_canonical_form_idempotent_and_label_invariant():
    rng = Random(77)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
        C = canonical_form(G)
        assert canonical_form(C) == C
        assert canonical_form(random_permuted(rng, G)) == C


def test_canonical_form_3_uniform():
    rng = Random(78)
    for _ in range(20):
        G = random_graph(rng, rng.randint(3, 6), 0.4, 3)
        C = canonical_form(G)
        assert canonical_form(random_permuted(rng, G)) == C


def test_is_isomorphic():
    assert is_isomorphic(turan_hypergraph(4, 2, 2), complete_bipartite(2, 2))
    assert not is_isomorphic(path_graph(3), star_hypergraph(3, 1))
    assert not is_isomorphic(path_graph(2), complete_graph(3))
    assert is_isomorphic(star_hypergraph(2, 1), path_graph(2))


def test_canonical_form_size_guard():
    with pytest.raises(ValueError):
        canonical_form(turan_hypergraph(21, 21, 2))
    # a disconnected graph is refused by the size of its largest component
    with pytest.raises(ValueError, match="limited to 20 vertices, got 21$"):
        canonical_form(disjoint_union(single_edge(), path_graph(20)))


# ---------------------------------------------------------------------------
# Extremal families
# ---------------------------------------------------------------------------


def test_turan_basics():
    assert is_isomorphic(turan_hypergraph(4, 2, 2), complete_bipartite(2, 2))
    assert turan_hypergraph(6, 2, 3).edge_count == 0
    assert hom_count(complete_graph(3), turan_hypergraph(8, 2, 2)) == 0
    # parts of sizes 2,2,1: degrees frozen from the oracle run
    assert sorted(turan_hypergraph(5, 3, 2).degrees()) == [3, 3, 3, 3, 4]


def test_turan_clique_density_closed_form():
    # t(K_j; T(m,k)) = k!/(k-j)! / k^j when parts divide evenly
    for m, k, j in ((12, 3, 2), (12, 3, 3), (12, 4, 3), (10, 5, 4)):
        T = turan_hypergraph(m, k, 2)
        want = Fraction(1)
        for i in range(j):
            want *= Fraction(k - i, k)
        assert density(complete_graph(j), T) == want


def test_clique_plus_turan_frozen():
    G = clique_plus_turan(40, Fraction(1, 4), 2)
    assert G.n == 40
    # frozen from the oracle run: the K10 part carries all triangles
    assert density(complete_graph(3), G) == Fraction(9, 800)
    assert density(single_edge(), G) == Fraction(27, 80)
    assert clique_turan_density(3, Fraction(1, 4), 2) == Fraction(1, 64)
    assert clique_turan_density(2, Fraction(1, 4), 2) == Fraction(11, 32)


def test_clique_plus_turan_approaches_formula():
    alpha, parts = Fraction(1, 4), 3
    for j in (2, 3):
        limit = clique_turan_density(j, alpha, parts)
        prev_gap = None
        for n in (24, 48, 96):
            got = density(complete_graph(j), clique_plus_turan(n, alpha, parts))
            gap = abs(got - limit)
            assert gap <= Fraction(5, n)
            if prev_gap is not None:
                assert gap <= prev_gap
            prev_gap = gap


def test_clique_turan_density_beyond_parts():
    assert clique_turan_density(3, Fraction(1, 2), 2) == Fraction(1, 8)
    # parts below uniformity: Turan part is edgeless, clique term only
    assert clique_turan_density(3, Fraction(1, 2), 2, r=3) == Fraction(1, 8)
    with pytest.raises(ValueError):
        clique_turan_density(2, Fraction(1, 2), 3, r=3)


def test_clique_turan_density_rejects_uniformity_below_two():
    # t(K1) is 1 in every graph, so no clique-fraction limit applies below r = 2
    with pytest.raises(ValueError, match="need 2 <= r"):
        clique_turan_density(1, Fraction(1, 10), 0, 1)
    with pytest.raises(ValueError, match="need 2 <= r"):
        clique_turan_density(3, Fraction(1, 10), 2, 0)


def test_clique_plus_turan_validation():
    with pytest.raises(ValueError):
        clique_plus_turan(10, Fraction(1, 3), 2)
    with pytest.raises(ValueError):
        clique_plus_turan(10, Fraction(0), 2)


def test_regular_plus_clique_degrees():
    G = regular_plus_clique(12, Fraction(1, 2), 1)
    # clique part: degree n-1; regular part: k + clique size
    assert sorted(set(G.degrees())) == [9, 11]
    B_verts = range(6, 12)
    b_deg_inside = {sum(1 for e in G.edges if u in e and min(e) >= 6) for u in B_verts}
    assert b_deg_inside == {3}


def test_regular_plus_clique_star_densities_approach_limit():
    rho, m = Fraction(1, 2), 1
    for b in (1, 2, 3):
        limit = star_limit_density(b, 2, 1, rho, m)
        gaps = []
        for n in (12, 24, 48):
            got = star_density_fast(regular_plus_clique(n, rho, m), b, 1)
            gaps.append(abs(got - limit))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < Fraction(1, 10)


def test_star_limit_density_frozen():
    # alpha = 1/100: a + (1-a)((1-a)rho + a)^b
    assert star_limit_density(1, 2, 1, Fraction(1, 10), 2) == Fraction(11791, 100000)
    assert star_limit_density(2, 2, 1, Fraction(1, 10), 2) == Fraction(2176219, 10**8)
    assert star_limit_density(2, 3, 1, Fraction(1, 10), 1) == Fraction(1613089, 10**7)


def test_star_limit_density_validation():
    with pytest.raises(ValueError):
        star_limit_density(1, 3, 2, Fraction(1, 10), 3)
    with pytest.raises(ValueError):
        star_limit_density(1, 2, 1, Fraction(2), 1)


def test_regular_plus_clique_validation():
    with pytest.raises(ValueError):
        regular_plus_clique(12, Fraction(1, 2), 1, r=3)
    with pytest.raises(ValueError):
        regular_plus_clique(13, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        regular_plus_clique(12, Fraction(1, 3), 1)  # degree 8/3 not integral
    with pytest.raises(ValueError):
        regular_plus_clique(12, Fraction(1), 1)  # degenerate, no regular part


# ---------------------------------------------------------------------------
# Density vectors
# ---------------------------------------------------------------------------


def test_density_vector():
    dv = density_vector([single_edge(), path_graph(2)], complete_graph(3))
    assert dv.values == (Fraction(2, 3), Fraction(4, 9))
    with pytest.raises(ValueError):
        density_vector([disjoint_union(single_edge(), single_edge())], complete_graph(3))
    with pytest.raises(ValueError):
        DensityVector(("a",), (Fraction(3, 2),))


# ---------------------------------------------------------------------------
# The JSON writer
# ---------------------------------------------------------------------------


class _Report(NamedTuple):
    name: str
    values: tuple


_LEAF = _Report('e\u00e9"\\\n', (Fraction(-3, 7), None, [True, -(10**30)]))
_NODE = _Report("node", (_LEAF, {"leaf": _LEAF}, ()))

_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\t\n", "\u00e9\u20ac\U0001f600", ""]),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.sampled_from([_LEAF, _NODE]),
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example([_LEAF, [_LEAF, {"a": _LEAF, "b": _NODE}], _NODE, _LEAF])
@example({"": [], "x": {}, 3: ()})
def test_json_text_matches_reference_encoder(value):
    """One writer gives the bytes of the indented standard encoder, report objects
    included wherever they repeat and at whatever depth."""
    assert json_text(value) == reference_json(value)


@pytest.mark.parametrize("value", [0.5, [1, {"a": float("nan")}], object(), {1, 2}, b"x"])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
