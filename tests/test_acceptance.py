"""Acceptance suite: one test per pinned criterion, each with its time budget."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

from graphtrop.cli import main
from graphtrop.cones import clique_trop_cone, cone_member, dd_rays, dot, star_trop_cone
from graphtrop.gluing import (
    cherry,
    graph_key,
    labeled_edge,
    labeled_graph,
    moment_matrix,
)
from graphtrop.hypergraphs import (
    Hypergraph,
    complete_bipartite,
    complete_graph,
    density,
    direct_product,
    disjoint_union,
    key_graph,
    longbroom,
    path_graph,
    single_edge,
    star_hypergraph,
)
from graphtrop.obstructions import (
    _sign_table,
    counting_obstruction,
    l_value,
    m_vector,
    minor_certificate,
    y_pairing,
    y_vector,
)


def random_graph(rng, max_n, r=2):
    n = rng.randint(1, max_n)
    edges = [e for e in combinations(range(n), r) if rng.random() < 0.5]
    return Hypergraph.make(r, n, edges)


def run_cli_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(["--out", str(out), *argv])
    assert code == 0
    return json.loads(out.read_text())


def test_c01_small_moment_cone_rays_and_facets(tmp_path):
    """The degree-1 cone has rays (-1,-1),(-1,-2) and the three known facets."""
    start = time.monotonic()
    obj = run_cli_json(tmp_path, "trop-sos", "--d", "1", "--labels", "2")
    assert obj["basis"] == [graph_key(single_edge()), graph_key(path_graph(2))]
    assert {tuple(r) for r in obj["rays"]} == {(-1, -1), (-1, -2)}
    emitted = tuple(tuple(f) for f in obj["facets"])
    reference = ((-2, 1), (1, -1), (-1, 0))
    for f in emitted:
        assert cone_member(f, reference).inside
    for f in reference:
        assert cone_member(f, emitted).inside
    assert time.monotonic() - start < 1.0


def test_c02_clique_cone_formula_matches_double_description():
    """DD of the clique-cone facets reproduces the ray formula for small sizes."""
    start = time.monotonic()
    for r in (2, 3):
        for l in range(r, r + 5):
            cone = clique_trop_cone(r, l)
            lines, rays = dd_rays(cone.facets, cone.dim)
            assert set(rays) == set(cone.rays)
            assert not lines
    # forgetting K4..K6 projects the (2, 6) cone onto the pointed (2, 3) one
    small = clique_trop_cone(2, 3)
    projected = [ray[:2] for ray in clique_trop_cone(2, 6).rays]
    for ray in projected:
        assert all(dot(a, ray) >= 0 for a in small.facets)
    for ray in small.rays:
        assert cone_member(ray, projected).inside
    assert set(small.rays) == {(-2, -3), (0, -1)}
    assert time.monotonic() - start < 5.0


def test_c03_star_cone_formula_matches_double_description():
    """DD of the star-cone facets reproduces the ray formula for small sizes."""
    start = time.monotonic()
    for r, c in ((2, 1), (3, 1), (3, 2)):
        for l in range(1, 7):
            cone = star_trop_cone(r, c, l)
            lines, rays = dd_rays(cone.facets, cone.dim)
            assert set(rays) == set(cone.rays)
            assert not lines
    assert time.monotonic() - start < 5.0


def test_c04_clique_and_moment_inequality_sweep():
    """Clique-power and degree-moment inequalities hold on 100 seeded graphs."""
    start = time.monotonic()
    rng = random.Random(20250414)
    for _ in range(100):
        G = random_graph(rng, 25)
        cliques = {p: density(complete_graph(p), G) for p in range(2, 6)}
        for p in range(2, 6):
            for q in range(p + 1, 6):
                assert cliques[p] ** q >= cliques[q] ** p
        moments = [Fraction(1)] + [density(star_hypergraph(b, 1), G) for b in range(1, 7)]
        assert moments[2] >= moments[1] ** 2
        for b in range(1, 6):
            assert moments[b - 1] * moments[b + 1] >= moments[b] ** 2
        for b in range(1, 7):
            assert moments[b - 1] >= moments[b]
    assert time.monotonic() - start < 60.0


def glued_square(terms):
    """Sum of c_i c_j [[A_i A_j]] over (A_i, c_i) in terms, read from their moment matrix.

    Each product is the monomial of its component counts, as a frozenset of
    (key, count) pairs.
    """
    M = moment_matrix([A for A, _ in terms])
    out = {}
    for i, (_, ci) in enumerate(terms):
        for j, (_, cj) in enumerate(terms):
            monomial = frozenset(M.alpha_entry(i, j).items())
            out[monomial] = out.get(monomial, 0) + ci * cj
    return out


def test_c05_triangle_edge_identity():
    """The square expansion gives K3 - 2e.e + e, vanishing on K3 and K22."""
    start = time.monotonic()
    a1 = [
        (labeled_edge(2, 3), 1),
        (cherry(2, 1, 3), -1),
        (cherry(3, 1, 2), -1),
        (labeled_graph(2, 3, [(0, 1), (0, 2), (1, 2)], {1: 0, 2: 1, 3: 2}), 1),
    ]
    a2 = [(labeled_edge(1), 1), (labeled_edge(2), -1)]
    total = glued_square(a1)
    for monomial, c in glued_square(a2).items():
        total[monomial] = total.get(monomial, 0) + c
    total = {monomial: c for monomial, c in total.items() if c}
    e, k3 = graph_key(single_edge()), graph_key(complete_graph(3))
    assert total == {
        frozenset({(k3, 1)}): 1,
        frozenset({(e, 2)}): -2,
        frozenset({(e, 1)}): 1,
    }
    for G in (complete_graph(3), complete_bipartite(2, 2)):
        value = sum(
            c * prod(density(key_graph(k), G) ** n for k, n in monomial)
            for monomial, c in total.items()
        )
        assert value == 0
    assert time.monotonic() - start < 1.0


def test_c06_single_point_exclusion_certificates():
    """One density point is refuted by two minors; the moment point is not."""
    start = time.monotonic()
    cert = minor_certificate(
        {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(3, 25)},
        path_graph(2),
        2,
    )
    assert cert.status == "refuted"
    assert not _sign_table([list(mc.coefficients) for mc in cert.refutation])[1][0]
    quadratic = [Fraction(-2401, 10000), Fraction(0), Fraction(1)]
    cubic = [Fraction(-63, 6250), Fraction(0), Fraction(47, 50), Fraction(-2)]
    assert not _sign_table([quadratic, cubic])[1][0]
    moment_point = minor_certificate(
        {single_edge(): Fraction(7, 10), complete_graph(3): Fraction(343, 1000)},
        path_graph(2),
        2,
    )
    assert moment_point.status == "inconclusive"
    assert time.monotonic() - start < 5.0


def test_c07_worked_generator_and_weights():
    """The worked pair gives P3 + longbroom - 2 P4 with weight pairing 1/2."""
    start = time.monotonic()
    A = labeled_graph(2, 6, [(0, 1), (1, 2), (2, 3), (4, 5)], {1: 0, 2: 1, 3: 2, 4: 3})
    B = labeled_graph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4)], {1: 0, 2: 1, 3: 2, 4: 3})
    m = m_vector(A, B)
    assert m == {
        graph_key(path_graph(3)): 1,
        graph_key(longbroom()): 1,
        graph_key(path_graph(4)): -2,
    }
    assert l_value(path_graph(3), 1) == Fraction(-6)
    assert l_value(longbroom(), 1) == Fraction(-19, 2)
    assert l_value(path_graph(4), 1) == Fraction(-8)
    assert y_pairing(y_vector(m, 1), m) == Fraction(1, 2)
    assert time.monotonic() - start < 1.0


def test_c08_counting_obstruction_flagship_run():
    """The full degree-2 run validates every check and refutes 7 P3 >= 8 e^3."""
    start = time.monotonic()
    upper = path_graph(3)
    lower = disjoint_union(disjoint_union(single_edge(), single_edge()), single_edge())
    report = counting_obstruction(upper, lower, 7, 2, 4, 1)
    assert report.status == "validated-obstruction"
    assert all(ok for _, ok in report.preconditions)
    assert report.pairings_nonnegative is True
    assert all(v.passed for v in report.positive_pair_verdicts)
    assert report.pair_count == 2415
    ekey = graph_key(single_edge())
    pkey = graph_key(path_graph(3))
    expected = {pkey: 7, ekey: -24}
    assert {
        b: t for b, t in zip(report.vbasis, report.target) if t
    } == expected
    assert report.lp_inside is False
    assert report.separator_verified is True
    assert report.chain_contradiction is False
    assert report.conclusion == "not implied by the degree-2 generators at label budget 4"
    assert time.monotonic() - start < 600.0


def test_c09_density_multiplicativity_sweep():
    """Densities are multiplicative over the direct product on 50 seeded triples."""
    start = time.monotonic()
    rng = random.Random(977)
    for _ in range(50):
        H = random_graph(rng, 6)
        G1 = random_graph(rng, 6)
        G2 = random_graph(rng, 6)
        product = direct_product(G1, G2)
        assert density(H, product) == density(H, G1) * density(H, G2)
    assert time.monotonic() - start < 60.0


def test_c10_trajectory_convergence(tmp_path):
    """Both closed-form trajectories land within 0.05 of their target rays."""
    start = time.monotonic()
    out = tmp_path / "clique.csv"
    code = main([
        "--out", str(out), "family-trajectory", "clique",
        "--r", "2", "--l", "3", "--k", "2", "--schedule", "1e-1,1e-2,1e-3,1e-4",
    ])
    assert code == 0
    final = out.read_text().strip().splitlines()[-1].split(",")
    assert float(final[-1]) < 0.05
    out = tmp_path / "star.csv"
    code = main([
        "--out", str(out), "family-trajectory", "star",
        "--r", "2", "--c", "1", "--l", "3", "--k", "2", "--schedule", "1e-1,1e-2,1e-3,1e-4",
    ])
    assert code == 0
    final = out.read_text().strip().splitlines()[-1].split(",")
    assert float(final[-1]) < 0.05
    assert time.monotonic() - start < 5.0
