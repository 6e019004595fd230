"""Tests for exact cone computations: double description, membership, formula cones."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphtrop import cones
from graphtrop.cli import load_graph, main
from graphtrop.cones import (
    CertificateError,
    RationalCone,
    _echelon,
    clique_trop_cone,
    cone_member,
    dd_rays,
    dot,
    minor_cone,
    primitive,
    star_trop_cone,
)
from graphtrop.gluing import enumerate_basis, moment_matrix
from graphtrop.obstructions import counting_obstruction
from oracles import (
    cone_contains,
    cone_from_facets,
    cone_from_rays,
    cones_equal,
    extreme_rays,
    facets_from_rays,
    fraction_cone_member,
    fraction_echelon,
    fraction_primitive,
    project_cone,
    rank_of,
    rays_from_facets,
)


def test_primitive_normalization():
    """Rational vectors scale to coprime integers with direction preserved."""
    assert primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive((6, -9, 0)) == (2, -3, 0)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((Fraction(-1, 2),)) == (-1,)


def test_primitive_matches_fraction_reference():
    """The integer normaliser agrees with the Fraction reference on ints, Fractions and mixes."""
    rng = random.Random(4471)

    def entry(kind):
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-30, 30)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    cases = [(), (0,), (0, 0, 0), (Fraction(0), 0), (Fraction(0, 5),)]
    for kind in ("int", "fraction", "mixed"):
        for _ in range(300):
            cases.append(tuple(entry(kind) for _ in range(rng.randint(0, 7))))
    for vec in cases:
        got = primitive(vec)
        assert got == fraction_primitive(vec), vec
        assert all(type(x) is int for x in got)


def test_dot_of_int_vectors_is_int():
    """Integer vectors pair to a plain int, never a Fraction or a float."""
    assert type(dot((3, -1, 2), (4, 5, -6))) is int
    assert dot((3, -1, 2), (4, 5, -6)) == -5
    assert type(dot((), ())) is int
    assert dot((Fraction(1, 2), 1), (3, 4)) == Fraction(11, 2)


def test_minor_cone_entries_are_int():
    """Double description keeps every facet, ray and lineality entry a plain int."""
    cone = minor_cone(moment_matrix(enumerate_basis("B_tilde", 2, 2)))
    vectors = cone.facets + cone.rays + cone.lineality
    assert vectors
    assert all(type(x) is int for v in vectors for x in v)


def test_dd_frozen_wedge():
    """Three halfplanes cut out the wedge spanned by (-1,-1) and (-1,-2)."""
    lines, rays = dd_rays([(-2, 1), (1, -1), (-1, 0)], 2)
    assert lines == []
    assert sorted(rays) == [(-1, -2), (-1, -1)]


def test_dd_no_constraints_gives_full_space():
    """With no facets the cone is the whole space, reported as lineality."""
    lines, rays = dd_rays([], 3)
    assert rays == []
    assert rank_of(lines) == 3


def test_dd_single_halfspace():
    """One halfspace has a lineality hyperplane plus its inner normal as ray."""
    lines, rays = dd_rays([(1, 0, 0)], 3)
    assert rank_of(lines) == 2
    assert all(l[0] == 0 for l in lines)
    assert len(rays) == 1 and rays[0][0] > 0


def test_dd_opposite_facets_make_equation():
    """Facets a and -a force the cone into the hyperplane a = 0."""
    lines, rays = dd_rays([(1, 1), (-1, -1), (1, -1)], 2)
    assert lines == []
    assert rays == [(1, -1)]


def test_clique_cone_frozen_2_3():
    """Edge and triangle densities give facets -y1 and 3y1 - 2y2."""
    c = clique_trop_cone(2, 3)
    assert c.facets == ((-1, 0), (3, -2))
    assert c.rays == ((-2, -3), (0, -1))
    assert c.lineality == ()


def test_clique_cone_formula_matches_dd():
    """Explicit clique-cone rays agree with double description from the facets."""
    for r in range(2, 5):
        for l in range(r, r + 5):
            c = clique_trop_cone(r, l)
            d = cone_from_facets(c.basis, c.facets)
            assert d.rays == c.rays
            assert d.lineality == ()
            assert cones_equal(c, d)


def test_star_cone_frozen_l1():
    """A single branch count gives the nonpositive halfline."""
    s = star_trop_cone(3, 1, 1)
    assert s.facets == ((-1,),)
    assert s.rays == ((-1,),)


def test_star_cone_formula_matches_dd():
    """Explicit sunflower-cone rays agree with double description from the facets."""
    for r, c in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        for l in range(1, 7):
            s = star_trop_cone(r, c, l)
            d = cone_from_facets(s.basis, s.facets)
            assert d.rays == s.rays
            assert d.lineality == ()


def test_star_cone_ray_shape():
    """Ray b decreases by unit steps then flattens at depth b."""
    s = star_trop_cone(2, 1, 5)
    assert (-1, -2, -3, -3, -3) in s.rays
    assert (-1, -1, -1, -1, -1) in s.rays


def _random_facets(rng, dim, count):
    return [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)]


def test_duality_round_trip_random():
    """H to V to H to V round trips reproduce rays and lineality exactly."""
    rng = random.Random(20819)
    for _ in range(50):
        dim = rng.randint(1, 5)
        c1 = cone_from_facets([str(i) for i in range(dim)], _random_facets(rng, dim, rng.randint(0, 8)))
        c2 = facets_from_rays(c1)
        c3 = rays_from_facets(c2)
        assert c3.rays == c1.rays
        assert c3.lineality == c1.lineality
        # original facets remain valid for the minimal representation
        RationalCone(c1.basis, c1.facets, c2.rays, c2.lineality).validate()


def test_vrep_round_trip_random():
    """Cones rebuilt from random generators keep exactly their minimal generators."""
    rng = random.Random(5417)
    for _ in range(30):
        dim = rng.randint(1, 4)
        gens = _random_facets(rng, dim, rng.randint(1, 6))
        c1 = cone_from_rays([str(i) for i in range(dim)], gens)
        c2 = rays_from_facets(c1)
        assert c2.rays == c1.rays
        assert c2.lineality == c1.lineality
        for g in gens:
            assert cone_contains(c1, g).inside


def test_extreme_ray_tightness_rank():
    """Each extreme ray is tight on facets of rank exactly dim - lines - 1."""
    rng = random.Random(3301)
    for _ in range(25):
        dim = rng.randint(2, 5)
        c = cone_from_facets([str(i) for i in range(dim)], _random_facets(rng, dim, rng.randint(2, 8)))
        c = facets_from_rays(c)
        for r in c.rays:
            tight = [a for a in c.facets if dot(a, r) == 0]
            assert rank_of(tight) == dim - len(c.lineality) - 1


@st.composite
def _degenerate_facets(draw):
    """Facet lists with entries in -2..2, repeated and negated rows and zero rows."""
    dim = draw(st.integers(1, 6))
    size = draw(st.integers(0, dim + 2))
    base = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=size, max_size=size))
    extra = [(0,) * dim] * draw(st.integers(0, 1))
    if base:
        pick = st.tuples(st.sampled_from(base), st.sampled_from([1, -1]))
        extra += [tuple(s * x for x in v) for v, s in draw(st.lists(pick, max_size=2))]
    return dim, draw(st.permutations(base + extra))


@settings(max_examples=200, deadline=None)
@given(_degenerate_facets())
def test_dd_rays_are_the_brute_force_extreme_rays(case):
    """Every ray is extreme; on pointed cones the rays are exactly the brute-force ones."""
    dim, facets = case
    lines, rays = dd_rays(facets, dim)
    assert len(lines) == dim - rank_of(facets)
    assert all(dot(a, l) == 0 for a in facets for l in lines)
    assert len(set(rays)) == len(rays)
    for r in rays:
        assert all(dot(a, r) >= 0 for a in facets)
        assert rank_of([a for a in facets if dot(a, r) == 0]) == dim - len(lines) - 1
    if rank_of(facets) == dim:
        assert set(rays) == extreme_rays(facets, dim)


def test_cone_member_inside_certificate():
    """Nonnegative combinations are recognised with exact coefficients."""
    gens = [(-1, -1), (-1, -2)]
    m = cone_member((Fraction(-3), Fraction(-4)), gens)
    assert m.inside
    assert m.coefficients == (Fraction(2), Fraction(1))
    assert m.separator is None


def test_cone_member_outside_certificate():
    """Points outside come with a separating functional verified both ways."""
    gens = [(-1, -1), (-1, -2)]
    m = cone_member((1, 0), gens)
    assert not m.inside
    assert m.coefficients is None
    assert dot(m.separator, (1, 0)) < 0
    assert all(dot(m.separator, g) >= 0 for g in gens)


def test_cone_member_zero_target():
    """The origin belongs to every cone, even the empty one."""
    assert cone_member((0, 0, 0), []).inside
    assert cone_member((Fraction(0),), [(5,)]).inside


def test_cone_member_empty_generators():
    """Without generators only the origin is inside."""
    m = cone_member((2, -3), [])
    assert not m.inside
    assert dot(m.separator, (2, -3)) < 0


def test_cone_member_dimension_mismatch():
    """Generators of the wrong length are rejected."""
    with pytest.raises(ValueError):
        cone_member((1, 0), [(1, 0, 0)])


def test_cone_member_random_combinations():
    """Random nonnegative combinations of random generators always test inside."""
    rng = random.Random(90125)
    for _ in range(40):
        dim = rng.randint(1, 5)
        gens = _random_facets(rng, dim, rng.randint(1, 5))
        coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in gens]
        target = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
        m = cone_member(target, gens)
        assert m.inside
        rebuilt = [sum(c * Fraction(g[i]) for c, g in zip(m.coefficients, gens)) for i in range(dim)]
        assert [Fraction(t) for t in target] == rebuilt


_rationals = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)


@st.composite
def _membership_instances(draw):
    dim = draw(st.integers(0, 5))
    vectors = st.tuples(*[_rationals] * dim)
    gens = draw(st.lists(vectors, max_size=7))
    if draw(st.booleans()):
        weights = st.sampled_from([0, 0, 1, 2, Fraction(1, 2), Fraction(5, 3)])
        coeffs = draw(st.lists(weights, min_size=len(gens), max_size=len(gens)))
        target = tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), 0) for i in range(dim))
    else:
        target = draw(vectors)
    return target, gens


@settings(max_examples=300, deadline=None)
@given(_membership_instances())
@example(((0, 0, 0), [(1, -1, 0), (-1, 1, 2)]))
@example(((Fraction(0), 0), []))
@example(((), []))
@example(((), [()]))
@example(((2, -3), []))
@example(((1, 1), [(1, 1)]))
@example(((2, 2, 1), [(1, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 0)]))
@example(((Fraction(3, 2), 3, 0), [(Fraction(1, 2), 1, 0), (1, 2, 0), (0, 0, -1)]))
@example(((2, -2, -2), [(2, 2, -2), (1, 0, -2), (-2, 0, -2)]))
@example(((-2, 0, -2), [(-1, 2, 2), (2, 0, 2), (-1, 0, -1)]))
@example(((1, -1), [(2, -2)]))
@example(((), [(), ()]))
@example(((0, -1, 0), []))
def test_cone_member_matches_fraction_simplex(case):
    """The integer simplex gives the Fraction simplex's verdict, coefficients and
    separator, through the same pivot rows."""
    target, gens = case
    trace = []
    expected = fraction_cone_member(target, gens, trace)
    assert pivot_rows(cone_member, target, gens) == (expected, [row for _, row, _ in trace])


def pivot_rows(fn, *args):
    """fn(*args) and the pivot row of each simplex pivot it made, counted at cones._pivot."""
    rows = []
    step = cones._pivot

    def counted(*step_args):
        rows.append(step_args[5])  # _pivot(rows, row_d, cost, entering, f, piv, d)
        return step(*step_args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cones, "_pivot", counted)
        result = fn(*args)
    return result, rows


@pytest.mark.parametrize(
    "target, gens, inside, artificial, tied",
    [
        ((2, -2, -2), [(2, 2, -2), (1, 0, -2), (-2, 0, -2)], False, True, True),
        ((-2, 0, -2), [(-1, 2, 2), (2, 0, 2), (-1, 0, -1)], True, True, True),
        ((1, -1), [(2, -2)], True, False, True),
        ((), [(), ()], True, False, False),
        ((0, -1, 0), [], False, False, False),
    ],
    ids=["artificial-reenters", "zero-and-negative-target", "ratio-tie", "m=0", "no-generators"],
)
def test_cone_member_edge_cases_match_fraction_simplex(target, gens, inside, artificial, tied):
    """Cases the revised simplex must get right, each shown to arise in the Fraction
    simplex: an artificial column entering again, a tie in the ratio test, a target with
    zero and negative coordinates, no rows, and no generators."""
    trace = []
    expected = fraction_cone_member(target, gens, trace)
    assert expected.inside is inside
    assert any(enter >= len(gens) for enter, _, _ in trace) is artificial
    assert any(ties > 1 for _, _, ties in trace) is tied
    assert pivot_rows(cone_member, target, gens) == (expected, [row for _, row, _ in trace])


def test_pivot_counts_of_the_ledger_lps(capsys):
    """The membership LPs of c08 at d=3 and of test-binomial P3 at (d, L) = (2, 4) and
    (3, 3), and P7 at (4, 2), take 19, 16, 142 and 215 pivots."""
    report, rows = pivot_rows(counting_obstruction, load_graph("P3"), load_graph("edge^3"), 7, 3, 3)
    assert report.lp_inside is False and len(rows) == 19
    p7 = '{"r": 2, "n": 8, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7]]}'
    for argv, pivots in (
        (["P3", "edge^3", "--d", "2", "--labels", "4"], 16),
        (["P3", "edge^3", "--d", "3", "--labels", "3"], 142),
        ([p7, "edge^7", "--d", "4", "--labels", "2"], 215),
    ):
        code, rows = pivot_rows(main, ["test-binomial", "trop-sos", *argv])
        assert (code, len(rows)) == (0, pivots), argv
        assert '"verdict": "not valid"' in capsys.readouterr().out


@st.composite
def _row_sets(draw):
    dim = draw(st.integers(0, 5))
    rows = draw(st.lists(st.tuples(*[_rationals] * dim), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(_rationals), draw(_rationals)
        rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return rows


@settings(max_examples=300, deadline=None)
@given(_row_sets())
@example([(0, 0), (0, 0)])
@example([(2, 4, 6), (1, 2, 3), (0, 0, 5)])
def test_echelon_matches_fraction_elimination(rows):
    """The division-free echelon form equals the Fraction one, row for row."""
    assert _echelon(rows) == fraction_echelon(rows)


def test_cone_member_verdict_matches_linprog():
    """Inside or outside agrees with a floating-point LP on small integer instances."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(4471)
    verdicts = set()
    for _ in range(150):
        dim = rng.randint(1, 5)
        gens = _random_facets(rng, dim, rng.randint(0, 6))
        if gens and rng.random() < 0.5:
            coeffs = [rng.randint(0, 3) for _ in gens]
            target = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim))
        else:
            target = tuple(rng.randint(-3, 3) for _ in range(dim))
        if gens:
            res = optimize.linprog(
                c=[0] * len(gens),
                A_eq=[[g[i] for g in gens] for i in range(dim)],
                b_eq=list(target),
                bounds=(0, None),
                method="highs",
            )
            assert res.status in (0, 2), res.message
            expected = res.status == 0
        else:
            expected = not any(target)
        assert cone_member(target, gens).inside == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_membership_and_echelon_never_yield_floats():
    """int / int must not leak a float: coefficients are Fractions, the rest ints."""
    for target, gens, coeffs in (
        ((3, 1), [(2, 0), (0, 2)], (Fraction(3, 2), Fraction(1, 2))),
        ((Fraction(1, 3),), [(Fraction(2, 3),)], (Fraction(1, 2),)),
        ((0, 0), [(1, 1)], (Fraction(0),)),
    ):
        m = cone_member(target, gens)
        assert m.inside and m.coefficients == coeffs
        assert all(type(c) is Fraction for c in m.coefficients)
    for target, gens in (((1, -1), [(2, 0)]), ((Fraction(1, 2), 3), [(Fraction(-1, 3), 0)])):
        m = cone_member(target, gens)
        assert not m.inside and type(m.separator) is tuple
        assert all(type(x) is int for x in m.separator)
    rows = _echelon([(2, 4, 6), (Fraction(1, 2), 0, 1), (3, 3, 3)])
    assert rows and all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)


def test_cone_contains_cross_checks_facets():
    """Membership by simplex agrees with direct facet evaluation on random points."""
    rng = random.Random(777)
    c = cone_from_facets(["a", "b", "c"], [(-2, 1, 0), (1, -1, 0), (-1, 0, 1)])
    for _ in range(30):
        target = tuple(rng.randint(-4, 4) for _ in range(3))
        result = cone_contains(c, target)
        assert result.inside == all(dot(a, target) >= 0 for a in c.facets)


def test_cones_equal_and_unequal():
    """Set equality of cones is decided by mutual generator membership."""
    c1 = clique_trop_cone(2, 4)
    redundant = cone_from_facets(c1.basis, list(c1.facets) + [(-1, -1, -1)])
    assert cones_equal(c1, redundant)
    smaller = cone_from_facets(c1.basis, list(c1.facets) + [(1, 0, 0)])
    assert not cones_equal(c1, smaller)
    assert not cones_equal(clique_trop_cone(2, 3), star_trop_cone(2, 1, 2))
    assert not cones_equal(clique_trop_cone(2, 3), clique_trop_cone(2, 4))


def test_projection_clique_cone_drops_to_smaller_profile():
    """Forgetting K4 projects the (2,4) clique cone onto the (2,3) one."""
    p = project_cone(clique_trop_cone(2, 4), [0, 1])
    c = clique_trop_cone(2, 3)
    assert p.rays == c.rays
    assert p.facets == tuple(sorted(c.facets))
    assert cones_equal(p, c)


def test_projection_clique_cone_shifts_profile():
    """Forgetting the edge coordinate turns the (2,4) cone into the (3,4) one."""
    p = project_cone(clique_trop_cone(2, 4), [1, 2])
    assert cones_equal(p, clique_trop_cone(3, 4))


def test_projection_star_cone():
    """Forgetting the longest branch count projects sunflower cones consistently."""
    p = project_cone(star_trop_cone(3, 1, 3), [0, 1])
    s = star_trop_cone(3, 1, 2)
    assert p.rays == s.rays
    assert cones_equal(p, s)


def test_projection_by_name():
    """Coordinates can be selected by basis name as well as by index."""
    c = clique_trop_cone(2, 4)
    p = project_cone(c, [c.basis[0], c.basis[1]])
    assert p.basis == c.basis[:2]


def test_minor_cone_degree_one_frozen():
    """The degree-1 moment matrix yields the wedge with facets -2y1+y2, y1-y2, -y1."""
    M = moment_matrix(enumerate_basis("B_tilde", 1, 2))
    c = minor_cone(M)
    assert c.facets == ((-2, 1), (-1, 0), (1, -1))
    assert c.rays == ((-1, -2), (-1, -1))
    assert c.lineality == ()
    assert c.basis == M.vbasis


def test_minor_cone_rejects_unlabeled_components():
    """Bases with fully unlabeled components have symbolically zero minors.

    The refusal names the first such pair in row-major order.
    """
    for d, labels, pair in ((1, 2, "(0, 4)"), (2, 4, "(0, 11)")):
        M = moment_matrix(enumerate_basis("B", d, labels))
        with pytest.raises(ValueError, match=rf"basis pair {re.escape(pair)}"):
            minor_cone(M)


def test_minor_cone_requires_unit():
    """The empty graph must be part of the moment basis."""
    B = enumerate_basis("B_tilde", 1, 2)
    M = moment_matrix(B[1:])
    with pytest.raises(ValueError):
        minor_cone(M)


def test_validate_catches_bad_ray():
    """A ray violating a facet fails validation."""
    bad = RationalCone(("a", "b"), ((-1, 0),), ((1, 0),))
    with pytest.raises(CertificateError):
        bad.validate()


def test_formula_cone_validation():
    """Parameter ranges for the explicit cones are enforced."""
    with pytest.raises(ValueError):
        clique_trop_cone(3, 2)
    with pytest.raises(ValueError):
        clique_trop_cone(1, 4)
    with pytest.raises(ValueError):
        star_trop_cone(3, 3, 2)
    with pytest.raises(ValueError):
        star_trop_cone(2, 1, 0)


def test_dd_dimension_cap():
    """Double description refuses ambient dimensions above the cap."""
    with pytest.raises(ValueError):
        dd_rays([], 13)
