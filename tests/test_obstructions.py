"""Tests for degree weights, pair censuses, counting obstructions, and minor certificates."""

import json
import random
import signal
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphtrop.obstructions as obstructions
from graphtrop.cones import primitive
from graphtrop.gluing import (
    cherry,
    enumerate_basis,
    graph_key,
    labeled_edge,
    labeled_graph,
    moment_matrix,
    unit,
)
from graphtrop.hypergraphs import (
    Hypergraph,
    basis_sort_key,
    canonical_form,
    complete_graph,
    density,
    disjoint_union,
    empty_graph,
    key_graph,
    longbroom,
    path_graph,
    single_edge,
)
from graphtrop.obstructions import (
    PairVerdict,
    _PRIME,
    _coprime,
    _core_roots,
    _deriv,
    _divmod,
    _gcd,
    _refuting_subset,
    _roots_within,
    _sign_at,
    _sign_table,
    _squarefree,
    _sturm_chain,
    counting_obstruction,
    g_eval,
    l_value,
    m_vector,
    minor_certificate,
    pair_stats,
    positive_pair_check,
    y_pairing,
    y_vector,
)
from oracles import (
    _poly_eval,
    _poly_gcd,
    _poly_mul,
    _int_mul,
    _poly_squarefree,
    _sign_at_root,
    fraction_sign_at_root,
    random_graph,
    reference_json,
    reference_pair_stats,
    reference_minor_constraints,
    reference_refutation,
    reference_refuting_subset,
    reference_root_data,
    reference_system_feasible,
)


def edge_power(k):
    G = single_edge()
    for _ in range(k - 1):
        G = disjoint_union(G, single_edge())
    return canonical_form(G)


def example_pair():
    A = labeled_graph(2, 6, [(0, 1), (1, 2), (2, 3), (4, 5)], {1: 0, 2: 1, 3: 2, 4: 3})
    B = labeled_graph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4)], {1: 0, 2: 1, 3: 2, 4: 3})
    return A, B


def pair_entry(M, i, j):
    entry = dict(M.alpha_entry(i, i))
    for key, c in M.alpha_entry(j, j).items():
        entry[key] = entry.get(key, 0) + c
    for key, c in M.alpha_entry(i, j).items():
        entry[key] = entry.get(key, 0) - 2 * c
    return entry


# ---------------------------------------------------------------------------
# Degree weights
# ---------------------------------------------------------------------------


def test_g_eval_frozen_values():
    """The p=1 weight is 0, -1, -2 and then constant -5/2."""
    assert [g_eval(m, 1) for m in range(6)] == [
        Fraction(0), Fraction(-1), Fraction(-2), Fraction(-5, 2), Fraction(-5, 2), Fraction(-5, 2)
    ]
    assert g_eval(3, 2) == Fraction(-3)
    assert g_eval(4, 2) == Fraction(-7, 2)


def test_g_eval_validation():
    """Negative degrees and thresholds below one are rejected."""
    with pytest.raises(ValueError):
        g_eval(-1, 1)
    with pytest.raises(ValueError):
        g_eval(0, 0)


def test_g_eval_nonincreasing_convex():
    """For each p the weight is nonincreasing and convex with g(0) = 0."""
    for p in (1, 2, 3):
        vals = [g_eval(m, p) for m in range(2 * p + 5)]
        assert vals[0] == 0
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_l_value_frozen():
    """Total weights of the path family and small graphs match hand values."""
    assert l_value(path_graph(3), 1) == Fraction(-6)
    assert l_value(longbroom(), 1) == Fraction(-19, 2)
    assert l_value(path_graph(4), 1) == Fraction(-8)
    assert l_value(single_edge(), 1) == Fraction(-2)
    assert l_value(complete_graph(3), 1) == Fraction(-6)


def test_y_vector_values():
    """Weights are nonpositive and equal -2|E| whenever max degree is small."""
    graphs = [single_edge(), path_graph(2), path_graph(3), complete_graph(3), complete_graph(4)]
    for p in (1, 2):
        y = y_vector([graph_key(G) for G in graphs], p)
        assert list(y) == [graph_key(G) for G in graphs]
        for G, val in zip(graphs, y.values()):
            assert val <= 0
            if max(G.degrees()) <= p + 1:
                assert val == -2 * G.edge_count


def test_y_vector_rejects_bad_entries():
    """Disconnected, empty, or duplicate basis entries are rejected."""
    with pytest.raises(ValueError):
        y_vector([graph_key(edge_power(2))], 1)
    with pytest.raises(ValueError):
        y_vector([graph_key(empty_graph(0))], 1)
    with pytest.raises(ValueError):
        y_vector([graph_key(single_edge()), graph_key(single_edge())], 1)


def test_y_pairing_forms():
    """Pairing reads count dicts, and refuses coordinates outside the y-vector."""
    y = y_vector([graph_key(single_edge()), graph_key(path_graph(2))], 1)
    assert y_pairing(y, {graph_key(single_edge()): 3}) == Fraction(-6)
    m = m_vector(labeled_edge(1), labeled_edge(2))
    assert m == {graph_key(path_graph(2)): 2, graph_key(single_edge()): -4}
    assert y_pairing(y, m) == Fraction(0)
    with pytest.raises(ValueError):
        y_pairing(y, {graph_key(complete_graph(3)): 1})
    other = m_vector(labeled_edge(1), labeled_edge(1, 2))
    with pytest.raises(ValueError):
        y_pairing(y_vector([graph_key(single_edge())], 1), other)


# ---------------------------------------------------------------------------
# Minor generators
# ---------------------------------------------------------------------------


def test_m_vector_worked_example():
    """The four-labeled path pair gives 1 P3 + 1 longbroom - 2 P4."""
    A, B = example_pair()
    m = m_vector(A, B)
    expected = {
        graph_key(path_graph(3)): 1,
        graph_key(longbroom()): 1,
        graph_key(path_graph(4)): -2,
    }
    assert m == expected
    # the edge cancels, and zero counts are dropped
    assert graph_key(single_edge()) not in m


def test_m_vector_of_pair_with_itself_is_zero():
    """m(A, A) vanishes identically."""
    for A in (labeled_edge(1), labeled_edge(1, 2), unit(), example_pair()[0]):
        assert m_vector(A, A) == {}


def test_m_vector_unit_row():
    """Against the unit, m reduces to alpha of the square minus twice alpha."""
    m = m_vector(unit(), labeled_edge(1))
    assert m == {graph_key(path_graph(2)): 1, graph_key(single_edge()): -2}


def test_m_vector_keys_are_sorted_support():
    """The generator's keys are its nonzero support, in sorted key order."""
    A, B = example_pair()
    m = m_vector(A, B)
    support = [graph_key(path_graph(3)), graph_key(longbroom()), graph_key(path_graph(4))]
    assert list(m) == sorted(support, key=basis_sort_key)


def test_worked_example_pairing():
    """The weight pairing of the worked pair equals 1/2 at p = 1."""
    A, B = example_pair()
    m = m_vector(A, B)
    assert y_pairing(y_vector(m, 1), m) == Fraction(1, 2)


def test_binomial_target_pairing_is_twice_edge_count():
    """Pairing k P3 against (k+1) e^3 gives 6 = 2|E| for every k."""
    vbasis = (graph_key(single_edge()), graph_key(path_graph(3)))
    y = y_vector(vbasis, 1)
    for k in range(1, 9):
        target = {vbasis[1]: k, vbasis[0]: -3 * (k + 1)}
        assert y_pairing(y, target) == Fraction(6)


def test_m_vector_matches_moment_entries_degree_two():
    """m_vector and M.generator agree with the moment-matrix entry identity on all pairs."""
    M = moment_matrix(enumerate_basis("B_tilde", 2, 4))
    for i in range(M.size):
        for j in range(i + 1, M.size):
            entry = {key: c for key, c in pair_entry(M, i, j).items() if c}
            assert m_vector(M.basis[i], M.basis[j]) == entry
            assert M.generator(i, j) == entry
            assert M.generator(j, i) == entry


# ---------------------------------------------------------------------------
# Pair statistics
# ---------------------------------------------------------------------------


def test_pair_stats_worked_example():
    """The worked pair has one destroyed fully labeled copy and nothing else."""
    A, B = example_pair()
    st = pair_stats(A, B, path_graph(3))
    assert (st.z_a, st.z_b) == (1, 0)
    assert (st.l_a, st.l_b, st.l_ab, st.u_a, st.u_b) == (0, 0, 0, 0, 0)
    assert (st.self_glue_a, st.self_glue_b, st.hybrid) == (0, 0, 0)
    assert st.coordinate == 1


def test_pair_stats_hybrid_component():
    """A hybrid copy formed across the gluing drives the coordinate negative."""
    A = labeled_edge(1)
    B = labeled_graph(2, 3, [(0, 1), (1, 2)], {1: 0})
    st = pair_stats(A, B, path_graph(3))
    assert st.coordinate == -2
    assert st.hybrid == 1
    assert st.z_a == st.z_b == 0


def test_pair_stats_self_glue_component():
    """A half-labeled edge squares to a two-edge path nobody fully labels."""
    st = pair_stats(labeled_edge(1), unit(), path_graph(2))
    assert st.coordinate == 1
    assert st.self_glue_a == 1
    assert st.z_a == st.z_b == 0


def test_pair_stats_shared_surviving_copy():
    """Identical fully labeled edges survive on both sides of the gluing."""
    st = pair_stats(labeled_edge(1, 2), labeled_edge(1, 2), single_edge())
    assert st.l_ab == 1
    assert (st.z_a, st.z_b, st.l_a, st.l_b) == (0, 0, 0, 0)
    assert st.coordinate == 0


def test_pair_stats_same_labels_different_wiring():
    """Equal label sets wired differently destroy both copies."""
    A = labeled_graph(2, 3, [(0, 1), (1, 2)], {1: 0, 2: 1, 3: 2})
    B = labeled_graph(2, 3, [(0, 1), (1, 2)], {2: 0, 1: 1, 3: 2})
    st = pair_stats(A, B, path_graph(2))
    assert (st.z_a, st.z_b, st.l_ab) == (1, 1, 0)
    assert st.coordinate == 2


def test_pair_stats_rejects_bad_witness():
    """The witness must be connected with at least one edge."""
    with pytest.raises(ValueError):
        pair_stats(labeled_edge(1), labeled_edge(2), edge_power(2))
    with pytest.raises(ValueError):
        pair_stats(labeled_edge(1), labeled_edge(2), path_graph(0))


def test_pair_stats_matches_reference_census_on_b_tilde():
    """Every ordered B_tilde pair (d=2, labels=3) has the reference census."""
    elems = enumerate_basis("B_tilde", 2, 3)
    for C in (single_edge(), path_graph(2), path_graph(3)):
        for A in elems:
            for B in elems:
                assert pair_stats(A, B, C) == reference_pair_stats(A, B, C)


def test_pair_stats_matches_reference_census_with_unlabeled_copies():
    """Basis elements with unlabeled components (B, d=2, labels=2) keep the reference census."""
    elems = enumerate_basis("B", 2, 2)
    unlabeled = 0
    for C in (single_edge(), path_graph(2)):
        for A in elems:
            for B in elems:
                st = pair_stats(A, B, C)
                assert st == reference_pair_stats(A, B, C)
                unlabeled += st.u_a
    assert unlabeled > 0


def test_report_verdicts_match_positive_pair_check():
    """Each census verdict of the e+P3 vs P4 report is positive_pair_check's on its pair."""
    upper = Hypergraph.make(2, 6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    rep = counting_obstruction(upper, path_graph(4), 3, 2, 3)
    M = moment_matrix(enumerate_basis("B_tilde", 2, 3))
    assert len(rep.positive_pair_verdicts) == len(rep.positive_pair_indices) == 102
    W = key_graph(rep.witness)
    for (i, j), verdict in zip(rep.positive_pair_indices, rep.positive_pair_verdicts):
        assert verdict == positive_pair_check(M.basis[i], M.basis[j], W, rep.p)


def test_report_takes_one_census_per_orbit(monkeypatch):
    """The e+P3 vs P4 report at d=2, L=4 lists 615 positive pairs from 36 censuses.

    Every other pair of an orbit takes its first pair's verdict, with the a and
    b fields swapped where the walk reached it reversed.
    """
    import graphtrop.obstructions as obstructions

    calls = []
    census = obstructions._census
    monkeypatch.setattr(
        obstructions, "_census", lambda M, i, j, *rest: calls.append((i, j)) or census(M, i, j, *rest)
    )
    upper = Hypergraph.make(2, 6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    rep = counting_obstruction(upper, path_graph(4), 3, 2, 4)
    assert (len(rep.positive_pair_indices), len(calls)) == (615, 36)
    assert set(calls) <= set(rep.positive_pair_indices)


def test_report_swaps_each_orbit_verdict_once(monkeypatch):
    """The 615 verdicts of e+P3 vs P4 at d=2, L=4 are at most 72 objects from 36 swaps.

    Each orbit's first pair swaps its verdict once, and every pair of the orbit
    takes one of the two.
    """
    import graphtrop.obstructions as obstructions

    calls = []
    swapped = obstructions._swapped
    monkeypatch.setattr(obstructions, "_swapped", lambda v: calls.append(v) or swapped(v))
    upper = Hypergraph.make(2, 6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    rep = counting_obstruction(upper, path_graph(4), 3, 2, 4)
    assert len(calls) == 36
    assert len({id(v) for v in rep.positive_pair_verdicts}) <= 72


def test_report_encodes_each_verdict_once(monkeypatch):
    """The e+P3 vs P4 report at d=2, L=4 lists 615 verdicts, and its JSON text
    encodes the fields of each of the 52 distinct verdict objects once."""
    import graphtrop.hypergraphs as hypergraphs

    upper = Hypergraph.make(2, 6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    rep = counting_obstruction(upper, path_graph(4), 3, 2, 4)
    verdicts = {id(v): v for v in rep.positive_pair_verdicts}
    listed, encoded = [], []
    value, asdict = hypergraphs._json_value, PairVerdict._asdict

    def counted(x, depth, memo):
        if isinstance(x, PairVerdict):
            listed.append(x)
        return value(x, depth, memo)

    monkeypatch.setattr(hypergraphs, "_json_value", counted)
    monkeypatch.setattr(PairVerdict, "_asdict", lambda v: encoded.append(v) or asdict(v))
    text = rep.to_json()
    assert (len(listed), len(verdicts), len(encoded)) == (615, 52, 52)
    monkeypatch.undo()
    assert text == rep.to_json() == reference_json(rep)


def test_positive_pair_check_builds_three_products(monkeypatch):
    """One moment matrix over (A, B) gives m(A, B) and the census: [[A^2]], [[AB]], [[B^2]]."""
    import graphtrop.gluing as gluing

    calls = []
    product_counts = gluing.product_counts
    monkeypatch.setattr(
        gluing, "product_counts", lambda A, B: calls.append((A, B)) or product_counts(A, B)
    )
    for A, B, C in (
        (cherry(1, 2, 3), labeled_edge(1), single_edge()),
        (labeled_edge(1), labeled_edge(2), path_graph(2)),
    ):
        calls.clear()
        verdict = positive_pair_check(A, B, C)
        assert calls == [(A, A), (A, B), (B, B)]
        assert verdict.stats == pair_stats(A, B, C)


def test_positive_pair_check_edge_witness():
    """Two differently labeled edges meet both census bounds with slack."""
    v = positive_pair_check(labeled_edge(1, 2), labeled_edge(1, 3), single_edge())
    assert v.applies
    assert v.stats.coordinate == 2
    assert (v.stats.z_a, v.stats.z_b) == (1, 1)
    assert v.coordinate_bound_ok and v.pairing_bound_ok and v.passed
    assert v.pairing == Fraction(4)


def test_positive_pair_check_needs_trivial_square_witness():
    """The census bounds can fail when the witness is not a trivial square."""
    v = positive_pair_check(labeled_edge(1), labeled_edge(2), path_graph(2))
    assert v.applies
    assert v.stats.coordinate == 2
    assert not v.coordinate_bound_ok
    assert not v.passed


def test_exhaustive_edge_witness_bounds_degree_two():
    """Every degree-2 pair with positive edge coordinate passes both bounds."""
    M = moment_matrix(enumerate_basis("B_tilde", 2, 4))
    ekey = graph_key(single_edge())
    positives = 0
    for i in range(M.size):
        for j in range(i + 1, M.size):
            if pair_entry(M, i, j).get(ekey, 0) > 0:
                positives += 1
                assert positive_pair_check(M.basis[i], M.basis[j], single_edge()).passed
    assert positives == 615


def test_exhaustive_nonnegative_pairings_degree_two():
    """All degree-2 pair generators pair nonnegatively with y at p = 1 and 2."""
    M = moment_matrix(enumerate_basis("B_tilde", 2, 4))
    for p in (1, 2):
        y = y_vector(M.vbasis, p)
        for i in range(M.size):
            for j in range(i + 1, M.size):
                assert y_pairing(y, pair_entry(M, i, j)) >= 0


# ---------------------------------------------------------------------------
# Counting obstruction reports
# ---------------------------------------------------------------------------


def test_counting_obstruction_small_case():
    """At degree 1 the chain is inconclusive and the LP oracle refutes."""
    rep = counting_obstruction(path_graph(3), edge_power(3), 1, 1, 2, 1)
    assert rep.status == "validated-obstruction"
    assert rep.conclusion == "not implied by the degree-1 generators at label budget 2"
    assert all(ok for _, ok in rep.preconditions)
    assert rep.witness == graph_key(path_graph(3))
    assert rep.target_pairing == Fraction(6)
    assert rep.chain_bound == Fraction(12)
    assert rep.chain_contradiction is False
    assert rep.lp_inside is False
    assert rep.lp_separator == (0, 0, -1)
    assert rep.separator_verified is True
    assert rep.vbasis_extensions == (graph_key(path_graph(3)),)
    assert rep.pair_count == 6


def test_counting_obstruction_chain_contradiction():
    """Beyond twice the pairing bound both routes agree on the refutation."""
    rep = counting_obstruction(path_graph(3), edge_power(3), 13, 1, 2, 1)
    assert rep.chain_contradiction is True
    assert rep.lp_inside is False
    assert rep.status == "validated-obstruction"
    assert rep.conclusion == "not sos-testable at degree 1"


def test_counting_obstruction_stays_sparse_to_the_lp():
    """c08's d=3, L=3 report peaks under 2.5 MB traced: no generator is dense before the LP
    (dense ones peaked at 3.07 MB)."""
    tracemalloc.start()
    try:
        rep = counting_obstruction(path_graph(3), edge_power(3), 7, 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.status == "validated-obstruction"
    assert peak < 2.5 * 2**20, peak


def test_counting_obstruction_keeps_a_census_only_where_the_witness_is():
    """c08's d=3, L=3 report, after one warm-up call, peaks under 0.85 MB traced: only the
    orbits whose entry holds the witness keep a census key.  With a None kept for each of
    the 1,420 orbits it peaked at 1.00 MB."""
    first = counting_obstruction(path_graph(3), edge_power(3), 7, 3, 3)
    tracemalloc.start()
    try:
        rep = counting_obstruction(path_graph(3), edge_power(3), 7, 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep == first
    assert peak < 0.85 * 2**20, peak


def test_counting_obstruction_prints_its_lp_combination_dense(monkeypatch):
    """An inside verdict lists the generators it uses as dense vectors over vbasis, each
    with its coefficient.  The preconditions make every such LP outside, so the LP is
    handed the first generator as its target here."""
    lp = obstructions.sparse_cone_member
    columns = []

    def first_generator_as_target(target, generators):
        columns.extend(generators)
        dense = [0] * len(target)
        for k, v in generators[0]:
            dense[k] = v
        return lp(tuple(dense), generators)

    monkeypatch.setattr(obstructions, "sparse_cone_member", first_generator_as_target)
    rep = counting_obstruction(path_graph(3), edge_power(3), 1, 1, 2, 1)
    assert (rep.status, rep.lp_inside, rep.lp_separator) == ("inconclusive", True, None)
    dense = {tuple(dict(col).get(k, 0) for k in range(len(rep.vbasis))) for col in columns}
    assert rep.lp_combination and all(gen in dense and c > 0 for gen, c in rep.lp_combination)
    total = [sum(c * gen[k] for gen, c in rep.lp_combination) for k in range(len(rep.vbasis))]
    first = dict(columns[0])
    assert total == [first.get(k, 0) for k in range(len(rep.vbasis))]


def test_counting_obstruction_precondition_failures():
    """Missing witness components and non trivial squares are reported."""
    rep = counting_obstruction(single_edge(), single_edge(), 2, 1)
    assert rep.status == "precondition-failure"
    failed = {name for name, ok in rep.preconditions if not ok}
    assert failed == {"witness component of upper absent from lower"}
    rep2 = counting_obstruction(path_graph(2), edge_power(2), 2, 1)
    assert rep2.status == "precondition-failure"
    assert ("upper graph is a trivial square", False) in rep2.preconditions


def test_counting_obstruction_triangle_preconditions_pass():
    """A triangle upper graph satisfies every precondition at p = 1."""
    rep = counting_obstruction(complete_graph(3), edge_power(3), 2, 1, 2, 1)
    assert all(ok for _, ok in rep.preconditions)
    assert rep.status == "validated-obstruction"
    assert rep.witness == graph_key(complete_graph(3))


def test_counting_obstruction_validation():
    """Nonpositive exponents and degrees are rejected."""
    with pytest.raises(ValueError):
        counting_obstruction(path_graph(3), edge_power(3), 0, 1)
    with pytest.raises(ValueError):
        counting_obstruction(path_graph(3), edge_power(3), 1, 0)


def test_obstruction_report_json():
    """Reports serialize deterministically with rationals as num/den strings."""
    rep = counting_obstruction(path_graph(3), edge_power(3), 1, 1, 2, 1)
    text = rep.to_json()
    assert text == counting_obstruction(path_graph(3), edge_power(3), 1, 1, 2, 1).to_json()
    obj = json.loads(text)
    assert obj["target_pairing"] == "6/1"
    assert obj["chain_bound"] == "12/1"
    assert obj["status"] == "validated-obstruction"
    assert obj["preconditions"][0] == ["equal edge counts", True]


# ---------------------------------------------------------------------------
# Exact polynomial helpers
# ---------------------------------------------------------------------------


def _int_poly(rng, max_degree, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(rng.randint(1, max_degree + 1))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) or (rng.choice([-1, 1]),)


def test_poly_divmod_random_roundtrip():
    """Pseudo-division reconstructs a positive multiple of the dividend with smaller remainder."""
    rng = random.Random(4170)
    for _ in range(200):
        a = _int_poly(rng, 7)
        b = _int_poly(rng, 4)
        quo, rem = _divmod(a, b)
        recon = [0] * max(len(a), len(quo) + len(b) - 1, len(rem))
        for i, qc in enumerate(quo):
            for j, bc in enumerate(b):
                recon[i + j] += qc * bc
        for i, rc in enumerate(rem):
            recon[i] += rc
        scale = Fraction(recon[len(a) - 1], a[-1])
        assert scale > 0 and scale.denominator == 1
        assert recon == [scale * c for c in a] + [0] * (len(recon) - len(a))
        assert len(rem) < len(b) and (not rem or rem[-1] != 0)


def test_poly_gcd_and_squarefree():
    """The gcd is recovered up to a nonzero integer factor, the squarefree part exactly."""
    x_minus = lambda r: [Fraction(-r), Fraction(1)]
    p1 = primitive(_poly_mul(x_minus(1), x_minus(2)))
    p2 = primitive(_poly_mul(x_minus(2), x_minus(3)))
    assert _gcd(p1, p2) in ((-2, 1), (2, -1))
    squared = primitive(_poly_mul(_poly_mul(x_minus(1), x_minus(1)), x_minus(-2)))
    assert _squarefree(squared) == primitive(_poly_mul(x_minus(1), x_minus(-2)))
    rng = random.Random(4171)
    for _ in range(60):
        shared = _int_poly(rng, 2)
        a = primitive(_poly_mul(_poly_mul(shared, _int_poly(rng, 3)), _int_poly(rng, 2)))
        b = primitive(_poly_mul(shared, _int_poly(rng, 3)))
        g = _gcd(a, b)
        assert primitive(_poly_gcd(a, b)) in (g, tuple(-c for c in g))
        assert _squarefree(a) == primitive(_poly_squarefree(a))


def test_sturm_root_counts():
    """The chain counts distinct roots in half-open intervals."""
    x_minus = lambda r: [Fraction(-r), Fraction(1)]
    p = _poly_mul(_poly_mul(x_minus(Fraction(1, 4)), x_minus(Fraction(1, 2))), x_minus(Fraction(3, 4)))
    chain = _sturm_chain(primitive(p))
    assert _roots_within(chain, 0, 1, 0) == 3  # (0, 1]
    assert _roots_within(chain, 0, 1, 1) == 2  # (0, 1/2]
    assert _roots_within(chain, 1, 2, 1) == 1  # (1/2, 1]


def _random_poly(rng, max_degree):
    size = rng.randint(1, max_degree + 1)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [Fraction(rng.choice([-1, 1]), rng.randint(1, 9))]


def _sign(v):
    return (v > 0) - (v < 0)


def _on_dyadic_grid(pol, *points):
    """(polynomial, numerators, exponent) that put rational points on the dyadic grid k / 2**e.

    When the points' common denominator q is 2**e, they are k / 2**e of pol
    itself.  Otherwise they are k / 2**0 of q**n * pol(y / q), whose roots are
    q times those of pol and whose signs at q * x are those of pol at x.
    """
    q = lcm(*(x.denominator for x in points))
    ks = [x.numerator * (q // x.denominator) for x in points]
    if q & (q - 1) == 0:
        return primitive(pol), ks, q.bit_length() - 1
    n = len(pol) - 1
    return primitive([c * q ** (n - i) for i, c in enumerate(pol)]), ks, 0


def test_sign_at_matches_exact_evaluation():
    """Integer signs agree with Fraction evaluation, exact rational roots included."""
    rng = random.Random(5081)
    for _ in range(300):
        a = _random_poly(rng, 6)
        root = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        with_root = _poly_mul(a, [-root, Fraction(1)])
        points = [Fraction(0), Fraction(1), root, Fraction(-rng.randint(1, 30), rng.randint(1, 7))]
        for _ in range(4):
            points.append(Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 12)))
        for pol in (a, with_root):
            ipol = primitive(pol)
            assert all(isinstance(c, int) for c in ipol)
            for x in points:
                grid, (k,), e = _on_dyadic_grid(pol, x)
                assert _sign_at(grid, k, e) == _sign(_poly_eval(pol, x)), (pol, x)
        grid, (k,), e = _on_dyadic_grid(with_root, root)
        assert _sign_at(grid, k, e) == 0


def test_roots_within_matches_sympy_count_roots():
    """Sturm root counts agree with sympy on random squarefree polynomials.

    Every third polynomial is sparse, x^n + a x + b, so that the chain skips
    degrees and a remainder takes several division steps before it is scaled
    to integers.
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(6202)
    checked = 0
    while checked < 90:
        if checked % 3 == 0:
            pol = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
            pol += [Fraction(0)] * rng.randint(2, 4) + [Fraction(1)]
        else:
            pol = _random_poly(rng, 2)
            for _ in range(rng.randint(0, 4)):
                root = Fraction(rng.randint(-8, 16), rng.randint(1, 8))
                pol = _poly_mul(pol, [-root, Fraction(1)])
        pol = _poly_squarefree(pol)
        lo, hi = sorted(Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(2))
        if lo == hi or _poly_eval(pol, lo) == 0 or _poly_eval(pol, hi) == 0:
            continue
        rational = lambda c: sympy.Rational(c.numerator, c.denominator)
        poly = sympy.Poly([rational(c) for c in reversed(pol)], x)
        expected = poly.count_roots(rational(lo), rational(hi))
        grid, (klo, khi), e = _on_dyadic_grid(pol, lo, hi)
        assert _roots_within(_sturm_chain(grid), klo, khi, e) == expected, (pol, lo, hi)
        checked += 1


def _root_factor(rng):
    """A random integer factor: linear or quadratic with a root in (0, 1), or any cubic."""
    kind = rng.randrange(3)
    if kind == 0:
        den = rng.randint(2, 9)
        return (-rng.randint(1, den - 1), den)
    if kind == 1:
        den = rng.randint(2, 30)
        return (-rng.randint(1, den - 1), 0, den)
    return (rng.randint(-3, 3), rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([-9, 9]))


def test_sign_at_root_matches_reference_and_sympy():
    """Tarski-query signs at algebraic roots agree with Fraction narrowing and with sympy.

    q is squarefree with roots in (0, 1); p is random, a multiple of q, or
    shares the roots of one factor of q, so that signs 0 are checked as well.
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rational = lambda c: sympy.Rational(c.numerator, c.denominator)

    def sympy_sign(p, q, lo, hi):
        P = sympy.Poly(list(reversed(p)), x)
        Q = sympy.Poly(list(reversed(q)), x)
        lo, hi = rational(lo), rational(hi)
        shared = sympy.gcd(P, Q)
        if shared.degree() > 0 and shared.count_roots(lo, hi) > 0:
            return 0
        while P.count_roots(lo, hi) > 0:
            mid = (lo + hi) / 2
            if Q.eval(mid) == 0:
                return int(sympy.sign(P.eval(mid)))
            lo, hi = (lo, mid) if Q.count_roots(lo, mid) else (mid, hi)
        return int(sympy.sign(P.eval((lo + hi) / 2)))

    rng = random.Random(7301)
    checked = zeros = 0
    for case in range(150):
        factors = [_root_factor(rng) for _ in range(rng.randint(1, 3))]
        q = (1,)
        for f in factors:
            q = primitive(_poly_mul(q, f))
        core, _, intervals = _core_roots(q, {})
        if case % 3 == 0:
            p = _int_poly(rng, 5)
        elif case % 3 == 1:
            p = primitive(_poly_mul(core, _int_poly(rng, 2)))
        else:
            p = primitive(_poly_mul(rng.choice(factors), _int_poly(rng, 3)))
        for j, e in intervals:
            lo, hi = Fraction(j, 2**e), Fraction(j + 1, 2**e)
            sign = _sign_at_root(p, core, lo, hi)
            assert sign == fraction_sign_at_root(p, core, lo, hi), (p, core, lo, hi)
            assert sign == sympy_sign(p, core, lo, hi), (p, core, lo, hi)
            checked += 1
            zeros += sign == 0
    assert zeros >= 100 and checked - zeros >= 100


def test_system_feasible_simple_cases():
    """Point witnesses, zero touching, and empty systems behave."""
    assert _sign_table([])[1][0]
    feasible, point, _ = _sign_table([[Fraction(-1, 2), Fraction(1)]])[1]
    assert feasible and point == 1
    assert not _sign_table([[Fraction(-1)]])[1][0]
    feasible, point, _ = _sign_table([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(-1)]])[1]
    assert feasible and point == 0


def test_integer_coefficients_stay_exact():
    """Integer polynomial helpers return plain ints, never Fractions or floats."""
    assert _squarefree((-2, 0, 0, 1)) == _squarefree((2, 0, 0, -1)) == (-2, 0, 0, 1)
    results = [_squarefree((1, -2, 1)), _gcd((-1, 0, 1), (1, 1)), _deriv((3, 0, 5))]
    results += _divmod((1, 2, 3, 4), (3, -2))
    for pol in results:
        assert pol and all(type(c) is int for c in pol)
    feasible, point, interval = _sign_table([[-1, 0, 3]])[1]
    assert feasible and point == 1 and interval is None
    assert not _sign_table([[-1, 0, 3], [1, -2]])[1][0]


def test_system_feasible_algebraic_witness():
    """A constraint positive only between irrational roots is satisfiable."""
    pol = [Fraction(-1, 5), Fraction(1), Fraction(-1)]
    feasible, point, interval = _sign_table([pol])[1]
    assert feasible and point is None
    lo, hi = interval
    assert 0 <= lo < hi <= 1
    assert not _sign_table([pol, [Fraction(-1, 2), Fraction(1)], [Fraction(2, 5), Fraction(-1)]])[1][0]


def test_system_feasible_pinned_pair():
    """The pinned quadratic and cubic exclude each other on the unit interval."""
    quadratic = [Fraction(-2401, 10000), Fraction(0), Fraction(1)]
    cubic = [Fraction(-63, 6250), Fraction(0), Fraction(47, 50), Fraction(-2)]
    assert _sign_table([quadratic])[1][0]
    assert _sign_table([cubic])[1][0]
    assert not _sign_table([quadratic, cubic])[1][0]


def _within_seconds(seconds, fn, *args):
    """fn(*args), failing instead of hanging when it takes longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Integer factors with roots at 0, 1 and 1/2, at rationals bisection does not
# meet, at irrational points of (0, 1), and with no root there.  Products of
# them share roots across constraints; a factor drawn twice is a double root.
_FACTORS = (
    (0, 1), (-1, 1), (-1, 2), (-1, 3), (-2, 5),
    (-1, 0, 2), (1, -5, 5), (1, -3, 1), (1, 0, 1), (3, 1),
)


@st.composite
def _systems(draw):
    """1 to 6 integer polynomials of degree at most 4, some proportional to others."""
    quadratic = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9))
    pool = list(_FACTORS) + draw(st.lists(quadratic, max_size=2))
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        if polys and draw(st.integers(0, 3)) == 0:
            scale = draw(st.sampled_from((-2, -1, 3)))
            polys.append(tuple(scale * c for c in draw(st.sampled_from(polys))))
            continue
        pol = (draw(st.sampled_from((-2, -1, 1, 3))),)
        for f in draw(st.lists(st.sampled_from(pool), max_size=4)):
            if len(pol) + len(f) - 2 <= 4:
                pol = _int_mul(pol, f)
        polys.append(pol)
    return polys


@settings(max_examples=300, deadline=None)
@given(_systems())
@example([_int_mul((-1, 0, 2), (-1, 3)), _int_mul((1, 0, -2), (-2, 5))])
@example([_int_mul((1, -3), (-1, 3)), _int_mul((-1, 3), (2, -1))])
@example([(0, 0), (1, -2)])
@example([(-2401, 0, 10000), (-504, 0, 47000, -100000)])
def test_sign_table_matches_tarski_reference(polys):
    """Witness, pair feasibility and refutation agree with one Tarski query per candidate.

    The examples: an irrational root shared by two different cores, a double
    root at 1/3 where the only feasible point is, a zero polynomial, and the
    c06 pair.
    """
    masks, witness = _within_seconds(5, _sign_table, polys)
    assert witness == reference_system_feasible(polys)
    for i in range(len(polys)):
        for j in range(i, len(polys)):
            pair = [polys[i], polys[j]]
            assert bool(masks[i] & masks[j]) == reference_system_feasible(pair)[0], pair
    if not witness[0]:
        assert _refuting_subset(masks) == reference_refutation(polys)


def test_sign_table_matches_sympy_intervals():
    """Mask bits follow the roots sympy.Poly.intervals isolates, in order, with true signs.

    The candidates are 0, the roots in (0, 1) of the squarefree product of
    all constraints and 1; a constraint's bit is set where it vanishes or is
    positive.  sympy's intervals are closed and may share an endpoint.
    Constraints share irrational roots through common factors, so the merge
    must identify equal roots of different cores (without that check it
    would refine forever, which the alarm turns into a failure).
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(1414)
    for _ in range(60):
        shared = [rng.choice(_FACTORS) for _ in range(2)]
        polys = []
        for _ in range(rng.randint(2, 5)):
            pol = (rng.choice((-2, -1, 1, 3)),)
            for f in rng.sample(shared, rng.randint(0, 2)) + [rng.choice(_FACTORS)]:
                pol = _int_mul(pol, f)
            polys.append(pol)
        masks = _within_seconds(5, _sign_table, polys)[0]
        P = [sympy.Poly(list(reversed(p)), x) for p in polys]
        product = sympy.Poly(1, x)
        for q in P:
            product *= q
        product = product.sqf_part()
        for end in (0, 1):
            while product.eval(end) == 0:
                product = product.exquo(sympy.Poly(x - end, x))
        # an interval may end at the next one's rational root: count inside only
        roots = sorted(iv for iv, _ in product.intervals(inf=0, sup=1))
        for q, mask in zip(P, masks):
            common = sympy.gcd(q, product)
            bits = [q.eval(0) >= 0]
            for a, b in roots:
                if a == b:
                    vanishes = common.eval(a) == 0
                else:
                    ends = (common.eval(a) == 0) + (common.eval(b) == 0)
                    vanishes = common.count_roots(a, b) > ends
                bits.append(vanishes or q.eval((a + b) / 2) > 0)
            bits.append(q.eval(1) >= 0)
            assert mask == sum(1 << k for k, bit in enumerate(bits) if bit), (polys, q)


def _c06_constraints(monkeypatch, k3):
    """The constraints minor_certificate hands to the sign table at a c06 point."""
    import graphtrop.obstructions as obstructions

    handed = []
    solver = obstructions._sign_table
    monkeypatch.setattr(obstructions, "_sign_table", lambda polys: handed.append(polys) or solver(polys))
    minor_certificate({single_edge(): Fraction(7, 10), complete_graph(3): k3}, path_graph(2), 2)
    monkeypatch.undo()
    return handed[0]


def test_dyadic_isolation_matches_fraction_reference(monkeypatch):
    """Isolation on dyadic integer points gives the Fraction reference's cores, rational roots
    and intervals, on the corpus of test_sign_table_matches_sympy_intervals and on both c06
    constraint lists."""
    rng = random.Random(1414)
    polys = []
    for _ in range(60):
        shared = [rng.choice(_FACTORS) for _ in range(2)]
        for _ in range(rng.randint(2, 5)):
            pol = (rng.choice((-2, -1, 1, 3)),)
            for f in rng.sample(shared, rng.randint(0, 2)) + [rng.choice(_FACTORS)]:
                pol = _int_mul(pol, f)
            polys.append(pol)
    for k3 in (Fraction(3, 25), Fraction(343, 1000)):
        polys += _c06_constraints(monkeypatch, k3)
    rational_roots = 0
    for ipol in dict.fromkeys(primitive(p) for p in polys):
        core, rational, intervals = _core_roots(ipol, {})
        reference = reference_root_data(ipol)
        assert core == reference.core, ipol
        assert [Fraction(k, 2**e) for k, e in rational] == reference.rational, ipol
        assert [(Fraction(j, 2**e), Fraction(j + 1, 2**e)) for j, e in intervals] == reference.intervals
        rational_roots += len(rational)
    assert rational_roots > 0


@pytest.mark.parametrize(
    "k3, counts",
    [(Fraction(3, 25), (55, 156, 751, 528)), (Fraction(343, 1000), (54, 154, 736, 515))],
    ids=["refuted", "moment point"],
)
def test_sign_table_work_counts_at_the_c06_points(monkeypatch, k3, counts):
    """Root isolations, integer gcds, pseudo-divisions and root comparisons of one c06 table.

    The table keeps no state between calls, so every call is cold.  Roots are
    isolated once per open core (the squarefree part without roots at 0 and
    1), and a gcd is taken only when the modular pretest leaves a pair
    undecided; the constant constraint (1,) is coprime to its zero derivative
    with no gcd (it took one gcd and one division per point).  When each of
    the 166 constraints isolated its own roots, the counts were 166
    isolations, 535 and 533 gcds, 2,270 and 2,278 pseudo-divisions and 1,186
    and 1,187 comparisons.
    """
    import graphtrop.obstructions as obstructions

    polys = _c06_constraints(monkeypatch, k3)
    names = ("_isolate_core_roots", "_gcd", "_divmod", "_compare")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(obstructions, name, counted(name, getattr(obstructions, name)))
    obstructions._sign_table(polys)
    assert (len(polys), len({primitive(p) for p in polys})) == (166, 122)
    assert tuple(calls[name] for name in names) == counts


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from((-3, -2, -1, 1, 2, 5, _PRIME, -_PRIME, 2 * _PRIME, _PRIME + 1)), min_size=1, max_size=3
        ),
        min_size=3,
        max_size=3,
    )
)
@example([[-1, _PRIME], [1, 1], [1]])
@example([[1, 2], [_PRIME, 1], [3, _PRIME]])
def test_coprime_pretest_never_misses_a_common_factor(factors):
    """A pair with a nonconstant gcd is never called coprime by the mod-p pretest.

    a = s * f and b = s * g share s; coefficients that are multiples of p
    drop degrees modulo p.  The first example is p x - 1 against
    (p x - 1)(x + 1): modulo p the first is a constant, so only the check of
    the leading coefficients keeps the pretest from calling them coprime.
    """
    s, f, g = (tuple(c) for c in factors)
    a, b = _int_mul(s, f), _int_mul(s, g)
    if len(_poly_gcd(a, b)) > 1:
        assert not _coprime(a, b) and not _coprime(b, a), (a, b)


# ---------------------------------------------------------------------------
# Minor certificates
# ---------------------------------------------------------------------------


def test_minor_certificate_refutes_pinned_point():
    """The pinned density point is excluded by a pair of small minors."""
    cert = minor_certificate(
        {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(3, 25)}, path_graph(2), 2
    )
    assert cert.status == "refuted"
    assert cert.eligible_minors == 3298
    assert cert.constraints == 166
    assert len(cert.refutation) == 2
    polys = {mc.coefficients for mc in cert.refutation}
    assert polys == {
        (Fraction(-49, 100), Fraction(1)),
        (Fraction(-63, 6250), Fraction(0), Fraction(47, 50), Fraction(-2)),
    }
    assert not _sign_table([list(mc.coefficients) for mc in cert.refutation])[1][0]


@pytest.mark.parametrize(
    "k3, d, labels",
    [(Fraction(3, 25), 2, 4), (Fraction(343, 1000), 2, 4), (Fraction(3, 25), 3, 3), (Fraction(3, 25), 3, 4)],
    ids=["c06-refuted", "c06-moment-point", "d3-L3", "d3-L4"],
)
def test_minor_certificate_matches_the_listed_enumeration(monkeypatch, k3, d, labels):
    """The walk over the triangles of eligible pairs gives the enumeration over every triple
    of the diagonal: the same count of eligible minors, the same polynomials handed to the
    sign table in the same order, and the same refuting index sets."""
    handed = []
    solver = obstructions._sign_table
    monkeypatch.setattr(obstructions, "_sign_table", lambda polys: handed.append(polys) or solver(polys))
    fixed = {single_edge(): Fraction(7, 10), complete_graph(3): k3}
    cert = minor_certificate(fixed, path_graph(2), d, labels)
    monkeypatch.undo()
    M = moment_matrix(enumerate_basis("B_tilde", d, labels, 2))
    fixed_map = {graph_key(g): value for g, value in fixed.items()}
    count, constraints = reference_minor_constraints(M, fixed_map, graph_key(path_graph(2)))
    assert cert.eligible_minors == count
    assert handed == [list(constraints)]
    masks, (feasible, _, _) = solver(list(constraints))
    assert (cert.status == "refuted") == (not feasible)
    if not feasible:
        first_sets = list(constraints.values())
        assert [mc.indices for mc in cert.refutation] == [
            first_sets[i] for i in reference_refuting_subset(masks)
        ]


def test_minor_certificate_peak_memory_at_degree_3():
    """The (3, 4) certificate peaks under 4.5 MB traced, after a (2, 2) one warms the small
    caches.  It peaked at 6.2 MB when it listed every eligible index set, built a pair map
    and a tuple signature for each, and listed the 45,753 candidate refuting pairs; with
    only that pair list restored it peaks at 5.4 MB."""
    fixed = {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(3, 25)}
    minor_certificate(fixed, path_graph(2), 2, 2)
    tracemalloc.start()
    try:
        cert = minor_certificate(fixed, path_graph(2), 3, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cert.status, cert.eligible_minors, cert.constraints) == ("refuted", 6242, 303)
    assert peak < 4.5 * 2**20, peak


def test_minor_certificate_moment_point_is_inconclusive():
    """Densities of the constant graphon at 7/10 admit a feasible free value."""
    cert = minor_certificate(
        {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(343, 1000)}, path_graph(2), 2
    )
    assert cert.status == "inconclusive"
    assert cert.witness_point is not None or cert.witness_interval is not None


def test_minor_certificate_all_ones_point():
    """The all-ones point is feasible at the free value one."""
    cert = minor_certificate(
        {single_edge(): Fraction(1), complete_graph(3): Fraction(1)}, path_graph(2), 2
    )
    assert cert.status == "inconclusive"
    assert cert.witness_point == 1


def test_minor_certificate_single_refutation():
    """An impossible fixed value is refuted by a single constant minor."""
    cert = minor_certificate({single_edge(): Fraction(2)}, path_graph(2), 1)
    assert cert.status == "refuted"
    assert len(cert.refutation) == 1


def test_minor_certificate_degree_one_consistent_point():
    """A realizable degree-1 point is inconclusive."""
    cert = minor_certificate({single_edge(): Fraction(1, 2)}, path_graph(2), 1)
    assert cert.status == "inconclusive"


def test_minor_constraints_nonnegative_at_realised_points(monkeypatch):
    """At the densities of an actual graph every eligible minor is >= 0 and nothing is refuted.

    The moment matrix of a graph's densities is positive semidefinite
    (reflection positivity), so each principal-minor polynomial, with edge and
    K3 fixed at their densities in G, is >= 0 at the true t(path2; G).  The
    constraints are read where the certificate hands them to the solver.
    """
    import graphtrop.obstructions as obstructions

    solver = obstructions._sign_table
    handed = []

    def recording(polys):
        handed.append(list(polys))
        return solver(polys)

    monkeypatch.setattr(obstructions, "_sign_table", recording)
    rng = random.Random(20261018)
    for _ in range(6):
        G = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.5, 0.8]))
        fixed = {g: density(g, G) for g in (single_edge(), complete_graph(3))}
        handed.clear()
        cert = minor_certificate(fixed, path_graph(2), 2)
        assert cert.status == "inconclusive", G
        constraints = handed[0]
        assert len(constraints) == cert.constraints
        point = density(path_graph(2), G)
        assert all(_poly_eval(pol, point) >= 0 for pol in constraints), G


def test_minor_certificate_validation():
    """Fixing the free coordinate is rejected."""
    with pytest.raises(ValueError):
        minor_certificate({path_graph(2): Fraction(1, 2)}, path_graph(2), 1)


def test_minor_certificate_rejects_disconnected_or_edgeless_coordinates():
    """A fixed or free coordinate that is not a connected graph with an edge is named.

    Such a coordinate never appears among the moment entries' components, so
    it used to be dropped without a word: K1 fixed at 1/2 came out
    inconclusive although t(K1) = 1.
    """
    edge = {single_edge(): Fraction(1, 2)}
    cases = (  # (fixed, free, the graph the error must name)
        ({empty_graph(1): Fraction(1, 2)}, path_graph(2), empty_graph(1)),
        ({**edge, edge_power(2): Fraction(1, 4)}, path_graph(2), edge_power(2)),
        (edge, edge_power(2), edge_power(2)),
        (edge, empty_graph(2), empty_graph(2)),
    )
    for fixed, free, bad in cases:
        with pytest.raises(ValueError, match="connected graph with at least one edge") as err:
            minor_certificate(fixed, free, 1)
        assert graph_key(bad) in str(err.value)


def test_minor_certificate_json_roundtrip():
    """Certificates serialize deterministically with fraction strings."""
    cert = minor_certificate({single_edge(): Fraction(2)}, path_graph(2), 1)
    obj = json.loads(cert.to_json())
    assert obj["status"] == "refuted"
    assert obj["fixed"][0][1] == "2/1"
