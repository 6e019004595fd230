"""Exact rational polyhedral cones: double description, membership, formula cones.

Facet normals a mean the halfspace <a, y> >= 0. Rays and facet normals are
kept as primitive integer vectors. Double description projects and combines
them in integer arithmetic, and its adjacency test is combinatorial on
bitsets of the facets tight on each ray (Fukuda and Prodon 1996). Echelon
forms and the membership simplex are division-free as well; only the
membership coefficients that are reported are rationals. Every certificate is
exact and independently re-checked before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

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
    return sum(map(mul, a, b))


def _integer_scaled(vec) -> tuple[int, list[int]]:
    """The least s > 0 with s * vec integral, and s * vec, for int and rational entries."""
    if all(type(x) is int for x in vec):
        return 1, list(vec)
    den = lcm(*(x.denominator for x in vec))
    return den, [x.numerator * (den // x.denominator) for x in vec]


def primitive(vec) -> tuple[int, ...]:
    """Scale a vector of int and rational entries to coprime integers, keeping direction."""
    ints = vec if all(type(x) is int for x in vec) else _integer_scaled(vec)[1]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _neg(v):
    return tuple(-x for x in v)


def _combine(a_pos: int, rn, a_neg: int, rp):
    # nonnegative combination a_pos * rn - a_neg * rp lying on the hyperplane
    return primitive(tuple(a_pos * y - a_neg * x for x, y in zip(rp, rn)))


def _echelon(rows):
    """Reduced echelon basis (primitive integer rows, pivot entries positive).

    Division-free; a reduced echelon form is unique for its row space, so the
    rows are those of rational elimination, normalised.
    """
    basis: dict[int, tuple[int, ...]] = {}  # pivot column -> row
    for raw in rows:
        row = _reduce_mod_lines(primitive(raw), basis.values())
        pcol = next((i for i, x in enumerate(row) if x != 0), None)
        if pcol is None:
            continue
        if row[pcol] < 0:
            row = _neg(row)
        for c, brow in basis.items():
            if brow[pcol] != 0:
                basis[c] = _reduce_mod_lines(brow, (row,))
        basis[pcol] = row
    return [basis[c] for c in sorted(basis)]


def _reduce_mod_lines(vec, lines):
    """Normal form of an integer vector modulo the span of reduced echelon lines.

    Each line's first nonzero entry is positive and zero in the other lines,
    so every elimination step scales the vector by a positive integer.
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


def _adjacent(rp, rn, common: int, rays, quotient_dim: int) -> bool:
    if quotient_dim <= 2:
        return True
    if common.bit_count() < quotient_dim - 2:
        return False
    # valid only because rays holds exactly the extreme rays of the pointed quotient
    return not any(z & common == common for r, z in rays.items() if r is not rp and r is not rn)


# ---------------------------------------------------------------------------
# Cone container
# ---------------------------------------------------------------------------


class RationalCone(NamedTuple):
    """Polyhedral cone over named coordinates, with exact H- and V-representations."""

    basis: tuple[str, ...]
    facets: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def validate(self) -> None:
        for v in self.facets + self.rays + self.lineality:
            if len(v) != self.dim:
                raise ValueError("vector length does not match basis")
        for r in self.rays:
            for a in self.facets:
                if dot(a, r) < 0:
                    raise CertificateError(f"ray {r} violates facet {a}")
        for l in self.lineality:
            for a in self.facets:
                if dot(a, l) != 0:
                    raise CertificateError(f"lineality {l} not tight on facet {a}")


# ---------------------------------------------------------------------------
# Membership via exact phase-1 simplex
# ---------------------------------------------------------------------------


class Membership(NamedTuple):
    """Outcome of a conic membership test, with a re-verified certificate."""

    inside: bool
    coefficients: tuple[Fraction, ...] | None
    separator: tuple[int, ...] | None


def cone_member(target, generators) -> Membership:
    """Decide target in cone(generators); returns coefficients or a Farkas separator.

    Dense vectors of ints and rationals: sparse_cone_member on their nonzero
    entries, each generator scaled to integers.
    """
    target = tuple(target)
    m = len(target)
    columns, scales = [], []
    for g in generators:
        if len(g) != m:
            raise ValueError("generator dimension mismatch")
        nonzero = [(k, x) for k, x in enumerate(g) if x]
        s, ints = _integer_scaled([x for _, x in nonzero])
        columns.append(tuple((k, x) for (k, _), x in zip(nonzero, ints)))
        scales.append(s)
    membership = sparse_cone_member(target, columns)
    if not membership.inside:
        return membership
    return membership._replace(
        coefficients=tuple(c * s for c, s in zip(membership.coefficients, scales))
    )


def sparse_cone_member(target, columns) -> Membership:
    """cone_member over sparse integer columns: (coordinate, value) pairs, values nonzero.

    Revised phase-1 simplex (Dantzig 1963) in integers (Edmonds 1967; Bareiss
    1968): it keeps only d * B^-1, the right-hand side and the artificial part
    of the cost row, where the positive common denominator d is the last
    pivot, so each update (p * x - f * y) // d is exact.  The cost row gives
    d * pi, a structural column is priced from its nonzeros as
    -(d * pi) . A_j, and every integer compared is one the dense tableau
    holds: the pivots, the coefficients and the separator are those of the
    simplex over rationals.
    """
    t_scale, t = _integer_scaled(target)
    m, n = len(t), len(columns)
    sigma = [1 if x >= 0 else -1 for x in t]
    # rows of [B^-1 | rhs] for the constraints sigma_i * (A x)_i = |t_i|, row i
    # times row_d[i], the d at which a pivot last rewrote it (see _pivot)
    rows = [[1 if j == i else 0 for j in range(m)] + [abs(t[i])] for i in range(m)]
    row_d = [1] * m
    # times d: the artificials' reduced costs, then minus the phase-1 objective
    cost = [0] * m + [-sum(map(abs, t))]
    basis = list(range(n, n + m))
    d = 1

    while True:
        # sigma_i * (d * pi_i), where d * pi_i = d - (reduced cost of artificial i)
        w = [s * (d - c) for s, c in zip(sigma, cost)]
        for enter, col in enumerate(columns):
            f = -sum(w[k] * v for k, v in col)
            if f < 0:
                signed = [(k, sigma[k] * v) for k, v in col]
                entering = [
                    sum(row[k] * v for k, v in signed) * d // rd for row, rd in zip(rows, row_d)
                ]
                break
        else:
            art = next((i for i in range(m) if cost[i] < 0), None)
            if art is None:
                break
            enter, f = n + art, cost[art]
            entering = [row[art] * d // rd for row, rd in zip(rows, row_d)]
        piv = None
        for i, a in enumerate(entering):
            if a > 0:
                b = rows[i][m] * d // row_d[i]
                # b / a < pb / pa, compared by cross-multiplying (a, pa > 0)
                if piv is None or b * pa < pb * a or (b * pa == pb * a and basis[i] < basis[piv]):
                    piv, pa, pb = i, a, b
        if piv is None:
            raise CertificateError("phase-1 simplex unbounded; this should not happen")
        cost = _pivot(rows, row_d, cost, entering, f, piv, d)
        basis[piv] = enter
        d = pa

    if cost[m] == 0:
        support = [(b, rows[i][m] * d // row_d[i]) for i, b in enumerate(basis) if b < n]
        residual = [0] * m
        for b, v in support:
            for k, x in columns[b]:
                residual[k] += v * x
        if residual != [d * x for x in t] or any(v < 0 for _, v in support):
            raise CertificateError("membership coefficients failed re-verification")
        lam = [Fraction(0)] * n
        for b, v in support:
            lam[b] = Fraction(v, d * t_scale)
        return Membership(True, tuple(lam), None)

    y = primitive([-s * (d - c) for s, c in zip(sigma, cost)])
    if dot(y, t) >= 0 or any(sum(y[k] * v for k, v in col) < 0 for col in columns):
        raise CertificateError("Farkas separator failed re-verification")
    return Membership(False, None, y)


def _pivot(rows, row_d, cost, entering, f, piv, d):
    """One Bareiss step on entering[piv], in place; returns the new cost row.

    Row i holds its rational entries times row_d[i].  A row that the entering
    column misses keeps them: its entries times d are integers, so it is
    brought to d exactly, as row * d // row_d[i], only when a later pivot
    reads or rewrites it.
    """
    pa = entering[piv]
    prow = rows[piv] = [y * d // row_d[piv] for y in rows[piv]]
    row_d[piv] = pa
    for i, a in enumerate(entering):
        if a and i != piv:
            rd = row_d[i]
            rows[i] = [(pa * (x * d // rd) - a * y) // d for x, y in zip(rows[i], prow)]
            row_d[i] = pa
    return [(pa * x - f * y) // d for x, y in zip(cost, prow)]


# ---------------------------------------------------------------------------
# Formula cones
# ---------------------------------------------------------------------------


def clique_ray(r: int, l: int, i: int) -> tuple[int, ...]:
    """The i-th extreme ray of clique_trop_cone(r, l): -(r + j - 1) at K_{r+j-1} for j >= i."""
    if not 2 <= r <= l:
        raise ValueError(f"need 2 <= r <= l, got r={r}, l={l}")
    span = l - r + 1
    if not 1 <= i <= span:
        raise ValueError(f"ray index must lie in 1..{span}, got {i}")
    return primitive([-(r + j - 1) if j >= i else 0 for j in range(1, span + 1)])


def star_ray(l: int, m: int) -> tuple[int, ...]:
    """The extreme ray of star_trop_cone(r, c, l) for exponent m: -min(b, m) at b branches."""
    if l < 1:
        raise ValueError("need at least one branch count")
    return primitive([-min(b, m) for b in range(1, l + 1)])


def clique_trop_cone(r: int, l: int) -> RationalCone:
    """Tropicalized profile of the clique densities K_r..K_l: explicit H- and V-reps."""
    s = len(clique_ray(r, l, 1))  # raises unless 2 <= r <= l
    names = tuple(graph_key(complete_graph(j, r)) for j in range(r, l + 1))
    facets = [tuple(-1 if k == 0 else 0 for k in range(s))]
    for i in range(1, s):
        row = [0] * s
        row[i - 1] = r + i
        row[i] = -(r + i - 1)
        facets.append(tuple(row))
    rays = [clique_ray(r, l, i) for i in range(1, s + 1)]
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
    rays = [star_ray(l, b) for b in range(1, l + 1)]
    cone = RationalCone(names, tuple(facets), tuple(sorted(rays)), ())
    cone.validate()
    return cone


def minor_facets(M: MomentMatrix) -> tuple[tuple[int, ...], ...]:
    """Sorted distinct primitive rows over M.vbasis of the 2x2 principal minors, in log space."""
    if not any(el.graph.n == 0 for el in M.basis):
        raise ValueError("moment matrix basis must contain the empty graph")
    position = {key: k for k, key in enumerate(M.vbasis)}
    rows = set()
    for i, j in M.entries:  # one generator per orbit, at its first pair
        if i == j:
            continue
        vec = M.generator(i, j)
        if not vec:
            raise ValueError(
                f"symbolically zero 2x2 minor for basis pair ({i}, {j}); "
                "use a basis whose components are all labeled"
            )
        g = gcd(*vec.values())
        row = [0] * len(position)
        for key, c in vec.items():
            row[position[key]] = c // g
        rows.add(tuple(row))
    return tuple(sorted(rows))


def minor_cone(M: MomentMatrix) -> RationalCone:
    """Cone cut out by the 2x2 principal minors of a moment matrix, in log space."""
    facets = minor_facets(M)
    lines, rays = dd_rays(facets, len(M.vbasis))
    cone = RationalCone(M.vbasis, facets, tuple(sorted(rays)), tuple(lines))
    cone.validate()
    return cone
