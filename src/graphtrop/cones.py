"""Exact rational polyhedral cones: double description, membership, formula cones.

Facet normals a mean the halfspace <a, y> >= 0. Rays and facet normals are
kept as primitive integer vectors. Double description projects and combines
them in integer arithmetic, and its adjacency test is combinatorial on
bitsets of the facets tight on each ray (Fukuda and Prodon 1996). Only
_echelon and the simplex work over Fraction. Every certificate is exact and
independently re-checked before it is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .gluing import MomentMatrix
from .hypergraphs import complete_graph, graph_key, star_hypergraph

MAX_DD_DIM = 12


class CertificateError(RuntimeError):
    """An independently re-checked certificate failed to verify."""


# ---------------------------------------------------------------------------
# Vector helpers
# ---------------------------------------------------------------------------


def dot(a, b):
    """Exact inner product; an int when both vectors are integer."""
    return sum(x * y for x, y in zip(a, b))


def primitive(vec) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to coprime integers, preserving direction."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _neg(v):
    return tuple(-x for x in v)


def _combine(a_pos: int, rn, a_neg: int, rp):
    # nonnegative combination a_pos * rn - a_neg * rp lying on the hyperplane
    return primitive(tuple(a_pos * y - a_neg * x for x, y in zip(rp, rn)))


def _echelon(rows):
    """Reduced echelon basis (primitive integer rows, pivot entries positive)."""
    work = [[Fraction(x) for x in r] for r in rows]
    basis = []
    pivots = []
    for row in work:
        for pcol, brow in zip(pivots, basis):
            if row[pcol] != 0:
                f = row[pcol] / brow[pcol]
                row = [x - f * y for x, y in zip(row, brow)]
        pcol = next((i for i, x in enumerate(row) if x != 0), None)
        if pcol is None:
            continue
        basis.append(row)
        pivots.append(pcol)
    # back-substitute for reduced form
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and basis[i][pivots[j]] != 0:
                f = basis[i][pivots[j]] / basis[j][pivots[j]]
                basis[i] = [x - f * y for x, y in zip(basis[i], basis[j])]
    out = []
    for row, pcol in sorted(zip(basis, pivots), key=lambda t: t[1]):
        v = primitive(row)
        if v[pcol] < 0:
            v = _neg(v)
        out.append(v)
    return out


def _reduce_mod_lines(vec, lines):
    """Normal form of an integer ray modulo the lineality space.

    The lines are _echelon's output, so each pivot entry is positive and
    every elimination step scales the ray by a positive integer.
    """
    row = vec
    for line in lines:
        pcol = next(i for i, x in enumerate(line) if x != 0)
        if row[pcol] != 0:
            row = [line[pcol] * x - row[pcol] * y for x, y in zip(row, line)]
    return primitive(row)


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def dd_rays(facets, dim: int):
    """V-representation (lineality basis, extreme rays) of {y: <a, y> >= 0 for all a}."""
    if dim > MAX_DD_DIM:
        raise ValueError(f"double description limited to dimension {MAX_DD_DIM}, got {dim}")
    if dim == 0:
        return [], []
    lines = _echelon([tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)])
    # ray -> bitset whose bit k is set when the k-th processed nonzero facet is tight on it
    rays: dict[tuple[int, ...], int] = {}
    k = 0

    for raw in facets:
        a = primitive(raw)
        if all(x == 0 for x in a):
            continue
        bit = 1 << k
        k += 1
        pivot = next((l for l in lines if dot(a, l) != 0), None)
        if pivot is not None:
            if dot(a, pivot) < 0:
                pivot = _neg(pivot)
            apiv = dot(a, pivot)
            newlines = []
            for l in lines:
                if l == pivot or l == _neg(pivot):
                    continue
                al = dot(a, l)
                v = primitive(tuple(apiv * x - al * y for x, y in zip(l, pivot)))
                if any(v):
                    newlines.append(v)
            lines = _echelon(newlines)
            # processed facets vanish on the old lines, so projecting keeps each tight
            # set; the pivot direction is tight on every earlier facet
            projected = {}
            for r, z in rays.items():
                ar = dot(a, r)
                v = _reduce_mod_lines(tuple(apiv * x - ar * y for x, y in zip(r, pivot)), lines)
                if any(v):
                    projected[v] = z | bit
            projected.setdefault(_reduce_mod_lines(pivot, lines), bit - 1)
            rays = projected
        else:
            pos, zero, neg = [], [], []
            for r, z in rays.items():
                s = dot(a, r)
                (pos if s > 0 else zero if s == 0 else neg).append((r, z, s))
            kept = {r: z for r, z, _ in pos}
            kept.update((r, z | bit) for r, z, _ in zero)
            quotient_dim = dim - len(lines)
            for rp, zp, ap in pos:
                for rn, zn, an in neg:
                    if _adjacent(rp, rn, zp & zn, rays, quotient_dim):
                        v = _reduce_mod_lines(_combine(ap, rn, an, rp), lines)
                        if any(v):
                            kept.setdefault(v, (zp & zn) | bit)
            rays = kept
    return lines, list(rays)


def _dedupe(rays):
    out = {}
    for r in rays:
        out.setdefault(r, r)
    return list(out.values())


def _adjacent(rp, rn, common: int, rays, quotient_dim: int) -> bool:
    if quotient_dim <= 2:
        return True
    if common.bit_count() < quotient_dim - 2:
        return False
    # valid only because rays holds exactly the extreme rays of the pointed quotient
    return not any(z & common == common for r, z in rays.items() if r is not rp and r is not rn)


def _dual_facets(rays, lineality, dim: int):
    """Facet normals of cone(rays) + span(lineality); equations appear as +/- pairs."""
    gens = list(rays) + [tuple(l) for l in lineality] + [_neg(l) for l in lineality]
    dlines, drays = dd_rays(gens, dim)
    return sorted(_dedupe(list(drays) + [l for l in dlines] + [_neg(l) for l in dlines]))


# ---------------------------------------------------------------------------
# Cone container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalCone:
    """Polyhedral cone over named coordinates, with exact H- and V-representations."""

    basis: tuple[str, ...]
    facets: tuple[tuple[int, ...], ...] | None = None
    rays: tuple[tuple[int, ...], ...] | None = None
    lineality: tuple[tuple[int, ...], ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generators(self) -> list[tuple[int, ...]]:
        gens = list(self.rays or ())
        for l in self.lineality:
            gens.append(tuple(l))
            gens.append(_neg(l))
        return gens

    def to_json(self) -> str:
        obj = {"basis": list(self.basis)}
        if self.facets is not None:
            obj["facets"] = [list(f) for f in self.facets]
        if self.rays is not None:
            obj["rays"] = [list(r) for r in self.rays]
        if self.lineality:
            obj["lineality"] = [list(l) for l in self.lineality]
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RationalCone":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "basis" not in obj:
            raise ValueError("cone JSON must be an object with a 'basis' key")
        return RationalCone(
            tuple(obj["basis"]),
            tuple(tuple(f) for f in obj["facets"]) if "facets" in obj else None,
            tuple(tuple(r) for r in obj["rays"]) if "rays" in obj else None,
            tuple(tuple(l) for l in obj.get("lineality", ())),
        )

    def validate(self) -> None:
        for v in (self.facets or ()) + (self.rays or ()) + self.lineality:
            if len(v) != self.dim:
                raise ValueError("vector length does not match basis")
        if self.facets is not None:
            for r in self.rays or ():
                for a in self.facets:
                    if dot(a, r) < 0:
                        raise CertificateError(f"ray {r} violates facet {a}")
            for l in self.lineality:
                for a in self.facets:
                    if dot(a, l) != 0:
                        raise CertificateError(f"lineality {l} not tight on facet {a}")


def cone_from_facets(basis, facets) -> RationalCone:
    facets = tuple(primitive(f) for f in facets)
    facets = tuple(f for f in _dedupe(list(facets)) if any(f))
    lines, rays = dd_rays(facets, len(basis))
    cone = RationalCone(tuple(basis), facets, tuple(sorted(rays)), tuple(lines))
    cone.validate()
    return cone


def cone_from_rays(basis, rays, lineality=()) -> RationalCone:
    dim = len(basis)
    rays = [r for r in (primitive(v) for v in rays) if any(r)]
    facets = _dual_facets(rays, [primitive(l) for l in lineality], dim)
    plines, prays = dd_rays(facets, dim)
    cone = RationalCone(tuple(basis), tuple(facets), tuple(sorted(prays)), tuple(plines))
    cone.validate()
    return cone


def rays_from_facets(cone: RationalCone) -> RationalCone:
    if cone.facets is None:
        raise ValueError("cone has no facet representation")
    lines, rays = dd_rays(cone.facets, cone.dim)
    out = RationalCone(cone.basis, cone.facets, tuple(sorted(rays)), tuple(lines))
    out.validate()
    return out


def facets_from_rays(cone: RationalCone) -> RationalCone:
    if cone.rays is None:
        raise ValueError("cone has no ray representation")
    return cone_from_rays(cone.basis, cone.rays, cone.lineality)


def project_cone(cone: RationalCone, coords) -> RationalCone:
    """Coordinate projection of the V-representation, reduced to extreme generators."""
    idx = []
    for c in coords:
        idx.append(c if isinstance(c, int) else cone.basis.index(c))
    if cone.rays is None:
        cone = rays_from_facets(cone)
    prays = [tuple(r[i] for i in idx) for r in cone.rays]
    plines = [tuple(l[i] for i in idx) for l in cone.lineality]
    return cone_from_rays(tuple(cone.basis[i] for i in idx), prays, plines)


# ---------------------------------------------------------------------------
# Membership via exact phase-1 simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Membership:
    """Outcome of a conic membership test, with a re-verified certificate."""

    inside: bool
    coefficients: tuple[Fraction, ...] | None
    separator: tuple[int, ...] | None


def cone_member(target, generators) -> Membership:
    """Decide target in cone(generators); returns coefficients or a Farkas separator."""
    generators = tuple(generators)
    target = [Fraction(x) for x in target]
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    m = len(target)
    n = len(gens)
    for g in gens:
        if len(g) != m:
            raise ValueError("generator dimension mismatch")

    sigma = [1 if t >= 0 else -1 for t in target]
    # tableau columns: n structural, m artificial, rhs
    rows = []
    for i in range(m):
        row = [sigma[i] * g[i] for g in gens]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(sigma[i] * target[i])
        rows.append(row)
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n + m + 1):
        cost[j] = -sum(rows[i][j] for i in range(m))
    for i in range(m):
        cost[n + i] += 1
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (rows[i][-1] / rows[i][enter], basis[i], i)
            for i in range(m)
            if rows[i][enter] > 0
        ]
        if not ratios:
            raise CertificateError("phase-1 simplex unbounded; this should not happen")
        _, _, piv = min(ratios)
        pv = rows[piv][enter]
        rows[piv] = [x / pv for x in rows[piv]]
        for i in range(m):
            if i != piv and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, rows[piv])]
        basis[piv] = enter

    objective = -cost[-1]
    if objective == 0:
        lam = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                lam[b] = rows[i][-1]
        residual = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(m)]
        if residual != target or any(l < 0 for l in lam):
            raise CertificateError("membership coefficients failed re-verification")
        return Membership(True, tuple(lam), None)

    # phase-1 dual prices: pi_i = 1 - reduced cost of the i-th artificial
    pi = [1 - cost[n + i] for i in range(m)]
    y = primitive([-sigma[i] * pi[i] for i in range(m)])
    if dot(y, target) >= 0 or any(dot(y, g) < 0 for g in generators):
        raise CertificateError("Farkas separator failed re-verification")
    return Membership(False, None, y)


def cone_contains(cone: RationalCone, target) -> Membership:
    full = cone if cone.rays is not None else rays_from_facets(cone)
    result = cone_member(target, full.generators())
    if cone.facets is not None:
        by_facets = all(dot(a, target) >= 0 for a in cone.facets)
        if by_facets != result.inside:
            raise CertificateError("facet check disagrees with membership certificate")
    return result


def cones_equal(c1: RationalCone, c2: RationalCone) -> bool:
    """Equality as sets, by mutual membership of generators."""
    if c1.dim != c2.dim:
        return False
    a = c1 if c1.rays is not None else rays_from_facets(c1)
    b = c2 if c2.rays is not None else rays_from_facets(c2)
    return all(cone_contains(b, g).inside for g in a.generators()) and all(
        cone_contains(a, g).inside for g in b.generators()
    )


# ---------------------------------------------------------------------------
# Formula cones
# ---------------------------------------------------------------------------


def clique_trop_cone(r: int, l: int) -> RationalCone:
    """Tropicalized profile of the clique densities K_r..K_l: explicit H- and V-reps."""
    if not 2 <= r <= l:
        raise ValueError(f"need 2 <= r <= l, got r={r}, l={l}")
    s = l - r + 1
    names = tuple(graph_key(complete_graph(j, r)) for j in range(r, l + 1))
    facets = [tuple(-1 if k == 0 else 0 for k in range(s))]
    for i in range(1, s):
        row = [0] * s
        row[i - 1] = r + i
        row[i] = -(r + i - 1)
        facets.append(tuple(row))
    rays = []
    for i in range(1, s + 1):
        v = [0] * s
        for j in range(i, s + 1):
            v[j - 1] = -(r + j - 1)
        rays.append(primitive(v))
    cone = RationalCone(names, tuple(facets), tuple(sorted(rays)), ())
    cone.validate()
    return cone


def star_trop_cone(r: int, c: int, l: int) -> RationalCone:
    """Tropicalized profile of sunflower densities with b = 1..l branches."""
    if not 1 <= c <= r - 1:
        raise ValueError(f"core size must satisfy 1 <= c <= r-1, got c={c}, r={r}")
    if l < 1:
        raise ValueError("need at least one branch count")
    names = tuple(graph_key(star_hypergraph(b, c, r)) for b in range(1, l + 1))
    if l == 1:
        facets = [(-1,)]
    else:
        facets = []
        row = [0] * l
        row[0], row[1] = -2, 1
        facets.append(tuple(row))
        for b in range(2, l):
            row = [0] * l
            row[b - 2], row[b - 1], row[b] = 1, -2, 1
            facets.append(tuple(row))
        row = [0] * l
        row[l - 2], row[l - 1] = 1, -1
        facets.append(tuple(row))
    rays = []
    for b in range(1, l + 1):
        rays.append(primitive([-min(i, b) for i in range(1, l + 1)]))
    cone = RationalCone(names, tuple(facets), tuple(sorted(rays)), ())
    cone.validate()
    return cone


def minor_cone(M: MomentMatrix) -> RationalCone:
    """Cone cut out by the 2x2 principal minors of a moment matrix, in log space."""
    if not any(el.graph.n == 0 for el in M.basis):
        raise ValueError("moment matrix basis must contain the empty graph")
    vbasis = M.vbasis
    rows = {}
    for i in range(M.size):
        for j in range(i + 1, M.size):
            vec = {}
            for (a, b), s in (((i, i), 1), ((j, j), 1), ((i, j), -2)):
                for k, cnt in M.alpha_entry(a, b).items():
                    vec[k] = vec.get(k, 0) + s * cnt
            row = primitive([vec.get(k, 0) for k in vbasis])
            if not any(row):
                raise ValueError(
                    f"symbolically zero 2x2 minor for basis pair ({i}, {j}); "
                    "use a basis whose components are all labeled"
                )
            rows.setdefault(row, row)
    facets = tuple(sorted(rows))
    lines, rays = dd_rays(facets, len(vbasis))
    cone = RationalCone(vbasis, facets, tuple(sorted(rays)), tuple(lines))
    cone.validate()
    return cone
