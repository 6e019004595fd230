"""Counting obstructions to binomial density inequalities, with exact certificates.

A convex non-increasing vertex weight, summed over the vertices of a connected
graph, pairs nonnegatively with every two-by-two minor generator m(A, B).
Counting fully labeled copies of a witness component then caps the exponent k
for which k copies of the upper graph can dominate k+1 copies of the lower one
inside the degree-d relaxation; an exact LP over the generators acts as an
independent oracle, and every verdict ships with a re-verified certificate.
Minor certificates exclude single density points by exact sign analysis of
univariate principal-minor polynomials, kept as integer polynomials: Sturm
chains isolate their roots, and one merged order of every constraint's roots,
refined by bisection, gives each constraint's sign at every candidate point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm
from operator import and_
from typing import NamedTuple

from .cones import CertificateError, dot, primitive, sparse_cone_member
from .gluing import (
    LabeledGraph,
    _glue_raw,
    alpha_vector,
    component_counts,
    enumerate_basis,
    is_trivial_square,
    labeled_parts,
    moment_matrix,
)
from .hypergraphs import (
    Hypergraph,
    basis_sort_key,
    graph_key,
    json_text,
    key_graph,
    split_components,
)


# ---------------------------------------------------------------------------
# Degree weights
# ---------------------------------------------------------------------------


def g_eval(m: int, p: int) -> Fraction:
    """Vertex weight -m up to the breakpoint p + 3/2, constant beyond it."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    if p < 1:
        raise ValueError(f"threshold p must be at least 1, got {p}")
    cap = Fraction(2 * p + 3, 2)
    return -Fraction(m) if m <= cap else -cap


def l_value(F: Hypergraph, p: int) -> Fraction:
    """Total vertex weight of F: the sum of g_eval over all vertex degrees."""
    return sum((g_eval(m, p) for m in F.degrees()), Fraction(0))


def y_vector(basis, p: int) -> dict[str, Fraction]:
    """The total vertex weight of every graph of the basis, by key, in basis order.

    Each key must name a nonempty connected graph, so that componentwise
    evaluation is well defined.
    """
    y = {}
    for key in basis:
        G = key_graph(key)
        if G.n == 0 or len(split_components(G.n, G.edges)) != 1:
            raise ValueError("y-vector basis entries must be nonempty connected graphs")
        if key in y:
            raise ValueError("duplicate y-vector basis entries")
        y[key] = l_value(G, p)
    return y


def y_pairing(y: dict[str, Fraction], v) -> Fraction:
    """Exact inner product of a y-vector with a count dict."""
    total = Fraction(0)
    for key, e in v.items():
        if key not in y:
            raise ValueError(f"coordinate outside the y-vector basis: {key}")
        total += y[key] * e
    return total


# ---------------------------------------------------------------------------
# Minor generators
# ---------------------------------------------------------------------------


def m_vector(A: LabeledGraph, B: LabeledGraph) -> dict[str, int]:
    """Generator alpha([[A^2]]) + alpha([[B^2]]) - 2 alpha([[AB]]) of the dual cone.

    The nonzero counts by key, in sorted key order.
    """
    return _key_sorted(moment_matrix((A, B)).generator(0, 1))


def _key_sorted(counts: dict[str, int]) -> dict[str, int]:
    return {key: counts[key] for key in sorted(counts, key=basis_sort_key)}


# ---------------------------------------------------------------------------
# Pair statistics for a witness component
# ---------------------------------------------------------------------------


class PairStats(NamedTuple):
    """Census of the copies of a witness component C across A, B, and their gluing.

    Fully labeled copies are keyed by their label set and classified by whether
    that label set still spans a copy of C after gluing; unlabeled copies pass
    through unchanged.  Copies of C arising any other way show up as the
    self-glue residuals (in the squares) and the hybrid residual (in the
    gluing), all of which are provably nonnegative.  Components are read raw,
    with their label sets and keys; no labeled canonical form is built.  The
    squares' witness counts are a moment matrix's stored diagonal entries, and
    only the raw gluing of A and B is new.
    """

    witness: str
    z_a: int
    z_b: int
    l_a: int
    l_b: int
    l_ab: int
    u_a: int
    u_b: int
    self_glue_a: int
    self_glue_b: int
    hybrid: int
    coordinate: int


def _witness_key(C: Hypergraph, role: str = "witness") -> str:
    """The key of C, which must name a connected graph with at least one edge."""
    key = graph_key(C)
    G = key_graph(key)
    if G.edge_count == 0 or len(split_components(G.n, G.edges)) != 1:
        raise ValueError(f"{role} must be a connected graph with at least one edge: {key}")
    return key


def _census(M, i: int, j: int, ckey: str, parts) -> PairStats:
    """Census of the witness key on the basis pair (i, j) of the moment matrix M.

    The squares' witness counts are M's stored entries, parts holds the
    labeled_parts of every basis element, and only the raw gluing is new.
    """
    aa, bb = M.alpha_entry(i, i).get(ckey, 0), M.alpha_entry(j, j).get(ckey, 0)
    parts_a, parts_b = parts[i], parts[j]
    parts_ab = labeled_parts(*_glue_raw(M.basis[i].raw, M.basis[j].raw))
    owner = {l: (labs, key) for labs, _, key in parts_ab for l in labs}

    def fully_labeled(comps):
        return [labs for labs, n, key in comps if key == ckey and len(labs) == n]

    def survivors(copies):
        alive = set()
        for labs in copies:
            glabs, gkey = owner[next(iter(labs))]
            if gkey != ckey:
                continue
            if glabs != labs:
                raise CertificateError("surviving copy carries unexpected labels")
            alive.add(labs)
        return alive

    def unlabeled(comps):
        return sum(1 for labs, _, key in comps if not labs and key == ckey)

    fl_a, fl_b = fully_labeled(parts_a), fully_labeled(parts_b)
    surv_a, surv_b = survivors(fl_a), survivors(fl_b)
    l_ab = len(surv_a & surv_b)
    l_a, l_b = len(surv_a) - l_ab, len(surv_b) - l_ab
    z_a, z_b = len(fl_a) - len(surv_a), len(fl_b) - len(surv_b)
    u_a, u_b = unlabeled(parts_a), unlabeled(parts_b)
    ab = sum(1 for _, _, key in parts_ab if key == ckey)
    self_glue_a = aa - len(fl_a) - 2 * u_a
    self_glue_b = bb - len(fl_b) - 2 * u_b
    hybrid = ab - (l_a + l_b + l_ab) - u_a - u_b
    if self_glue_a < 0 or self_glue_b < 0 or hybrid < 0:
        raise CertificateError("pair census produced a negative residual")
    coordinate = aa + bb - 2 * ab
    return PairStats(
        ckey, z_a, z_b, l_a, l_b, l_ab, u_a, u_b, self_glue_a, self_glue_b, hybrid, coordinate
    )


def pair_stats(A: LabeledGraph, B: LabeledGraph, C) -> PairStats:
    """Count copies of the witness C in the squares and the gluing of (A, B)."""
    return _pair_census(moment_matrix((A, B)), C)


def _pair_census(M, C) -> PairStats:
    """The census of the witness C on the one pair of a two-element moment matrix."""
    parts = [labeled_parts(*X.raw) for X in M.basis]
    return _census(M, 0, 1, _witness_key(C), parts)


class PairVerdict(NamedTuple):
    """Result of the census bounds for one pair against one witness component."""

    stats: PairStats
    pairing: Fraction
    applies: bool
    coordinate_bound_ok: bool
    pairing_bound_ok: bool
    passed: bool


def _verdict(stats: PairStats, pairing: Fraction) -> PairVerdict:
    zsum = stats.z_a + stats.z_b
    applies = stats.coordinate > 0
    coordinate_bound_ok = stats.coordinate <= zsum
    pairing_bound_ok = pairing >= Fraction(zsum, 2)
    passed = (not applies) or (coordinate_bound_ok and pairing_bound_ok)
    return PairVerdict(stats, pairing, applies, coordinate_bound_ok, pairing_bound_ok, passed)


def _swapped(verdict: PairVerdict) -> PairVerdict:
    """The verdict on (B, A) from the one on (A, B): every a and b field of the census trades."""
    s = verdict.stats
    stats = s._replace(
        z_a=s.z_b, z_b=s.z_a, l_a=s.l_b, l_b=s.l_a, u_a=s.u_b, u_b=s.u_a,
        self_glue_a=s.self_glue_b, self_glue_b=s.self_glue_a,
    )
    return verdict._replace(stats=stats)


def positive_pair_check(A: LabeledGraph, B: LabeledGraph, C, p: int = 1) -> PairVerdict:
    """Check the two census bounds that drive the counting argument.

    When the witness coordinate of m(A, B) is positive it must not exceed
    z_a + z_b, and the pairing with the weight vector must be at least half
    of z_a + z_b; for nonpositive coordinates the bounds are not required.
    One moment matrix over (A, B) gives both m(A, B) and the census.
    """
    M = moment_matrix((A, B))
    m = _key_sorted(M.generator(0, 1))
    return _verdict(_pair_census(M, C), y_pairing(y_vector(m, p), m))


# ---------------------------------------------------------------------------
# The counting obstruction
# ---------------------------------------------------------------------------


class ObstructionReport(NamedTuple):
    """Outcome of the counting and LP analysis of one binomial density target."""

    upper: str
    lower: str
    k: int
    degree: int
    label_budget: int
    p: int
    status: str
    conclusion: str
    preconditions: tuple[tuple[str, bool], ...]
    witness: str | None = None
    vbasis: tuple[str, ...] = ()
    vbasis_extensions: tuple[str, ...] = ()
    pair_count: int = 0
    pairings_nonnegative: bool | None = None
    positive_pair_indices: tuple[tuple[int, int], ...] = ()
    positive_pair_verdicts: tuple[PairVerdict, ...] = ()
    target: tuple[int, ...] = ()
    target_pairing: Fraction | None = None
    chain_bound: Fraction | None = None
    chain_contradiction: bool | None = None
    lp_inside: bool | None = None
    lp_combination: tuple[tuple[tuple[int, ...], Fraction], ...] | None = None
    lp_separator: tuple[int, ...] | None = None
    separator_verified: bool | None = None

    def to_json(self) -> str:
        return json_text(self)


def counting_obstruction(
    upper: Hypergraph,
    lower: Hypergraph,
    k: int,
    degree: int,
    label_budget: int | None = None,
    p: int = 1,
) -> ObstructionReport:
    """Analyse whether k copies of upper can dominate k+1 copies of lower.

    The target k*alpha(upper) - (k+1)*alpha(lower) is tested against the cone
    generated by the m(A, B) of all basis pairs at the given degree and label
    budget, along two independent routes: the counting argument over a witness
    component (whose census bounds cap k by twice the target pairing), and an
    exact LP membership run whose certificate is re-verified.  Disagreement
    between the two routes raises CertificateError.
    """
    for name, value in (("exponent k", k), ("degree", degree), ("threshold p", p)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if label_budget is None:
        label_budget = 2 * degree
    upper_key, lower_key = graph_key(upper), graph_key(lower)
    if upper.r != lower.r:
        raise ValueError(f"uniformity mismatch: {upper.r} vs {lower.r}")
    upper_c, lower_c = key_graph(upper_key), key_graph(lower_key)
    upper_counts = component_counts(upper_c)
    lower_counts = component_counts(lower_c)
    witness = None
    for key in sorted(upper_counts, key=basis_sort_key):
        if key not in lower_counts:
            witness = key
            break
    degs = set(upper_c.degrees())
    checks = (
        ("equal edge counts", upper_c.edge_count == lower_c.edge_count),
        ("upper graph is a trivial square", is_trivial_square(upper_c)),
        ("upper degrees within {p, p+1}", degs <= {p, p + 1}),
        ("lower max degree at most p+1", max(lower_c.degrees(), default=0) <= p + 1),
        ("witness component of upper absent from lower", witness is not None),
    )
    base = dict(
        upper=upper_key,
        lower=lower_key,
        k=k,
        degree=degree,
        label_budget=label_budget,
        p=p,
        preconditions=checks,
    )
    if not all(ok for _, ok in checks):
        return ObstructionReport(
            status="precondition-failure", conclusion="precondition failure", **base
        )

    M = moment_matrix(enumerate_basis("B_tilde", degree, label_budget, upper_c.r))
    vkeys = set(M.vbasis) | set(upper_counts) | set(lower_counts)
    vbasis = tuple(sorted(vkeys, key=basis_sort_key))
    extensions = tuple(sorted(vkeys - set(M.vbasis), key=basis_sort_key))
    y = y_vector(vbasis, p)
    up = alpha_vector(upper_c, vbasis)
    low = alpha_vector(lower_c, vbasis)
    target = tuple(k * a - (k + 1) * b for a, b in zip(up, low))
    target_pairing = y_pairing(y, dict(zip(vbasis, target)))
    chain_bound = 2 * target_pairing / upper_counts[witness]
    chain_contradiction = k > chain_bound

    # a positive multiple of y in integers: the sign of a pairing is an int sum's
    weights = dict(zip(y, primitive(y.values())))
    position = {key: n for n, key in enumerate(vbasis)}
    parts = [labeled_parts(*L.raw) for L in M.basis]
    # primitive generators as sparse columns over vbasis, deduplicated in first-seen order
    generators: dict[tuple[tuple[int, int], ...], None] = {}
    # at each orbit's first pair (a, b): its verdict at (a, b) and, swapped, at (b, a)
    census: dict[tuple[int, int], PairVerdict | None] = {}
    pos_indices = []
    verdicts = []
    pair_count = 0
    for i in range(M.size):
        for j in range(i + 1, M.size):
            pair_count += 1
            cell = M.orbit[i][j - i]
            if cell == (i, j):  # the orbit is checked and its census taken here
                entry = M.generator(i, j)
                if sum(weights[key] * c for key, c in entry.items()) < 0:
                    raise CertificateError(f"negative weight pairing for basis pair ({i}, {j})")
                g = gcd(*entry.values())
                if g:
                    column = sorted((position[key], c // g) for key, c in entry.items())
                    generators.setdefault(tuple(column))
                census[i, j] = census[j, i] = None
                if entry.get(witness, 0) > 0:
                    verdict = _verdict(_census(M, i, j, witness, parts), y_pairing(y, entry))
                    if not verdict.passed:
                        raise CertificateError(f"census bounds failed for basis pair ({i}, {j})")
                    census[i, j], census[j, i] = verdict, _swapped(verdict)
            if census[cell] is not None:
                pos_indices.append((i, j))
                verdicts.append(census[cell])

    membership = sparse_cone_member(target, tuple(generators))
    if membership.inside:
        if chain_contradiction:
            raise CertificateError("counting chain contradicts the LP membership verdict")
        status = "inconclusive"
        conclusion = f"implied by the degree-{degree} generators at label budget {label_budget}"
        lp_combination = tuple(
            (tuple(dict(column).get(k, 0) for k in range(len(vbasis))), coeff)
            for column, coeff in zip(generators, membership.coefficients)
            if coeff
        )
        lp_separator = None
        separator_verified = None
    else:
        lp_combination = None
        lp_separator = membership.separator
        separator_verified = dot(lp_separator, target) < 0 and all(
            sum(lp_separator[k] * v for k, v in column) >= 0 for column in generators
        )
        if not separator_verified:
            raise CertificateError("Farkas separator failed the report re-verification")
        status = "validated-obstruction"
        if chain_contradiction:
            conclusion = f"not sos-testable at degree {degree}"
        else:
            conclusion = (
                f"not implied by the degree-{degree} generators at label budget {label_budget}"
            )
    return ObstructionReport(
        status=status,
        conclusion=conclusion,
        witness=witness,
        vbasis=vbasis,
        vbasis_extensions=extensions,
        pair_count=pair_count,
        pairings_nonnegative=True,
        positive_pair_indices=tuple(pos_indices),
        positive_pair_verdicts=tuple(verdicts),
        target=target,
        target_pairing=target_pairing,
        chain_bound=chain_bound,
        chain_contradiction=chain_contradiction,
        lp_inside=membership.inside,
        lp_combination=lp_combination,
        lp_separator=lp_separator,
        separator_verified=separator_verified,
        **base,
    )


# ---------------------------------------------------------------------------
# Exact univariate polynomials and Sturm sequences
# ---------------------------------------------------------------------------
# A polynomial is a tuple of ints, ascending powers, no trailing zeros.  Every
# helper returns a nonzero integer multiple of the rational polynomial it
# stands for; remainders are positive multiples, so Sturm chains keep their
# signs and counts of sign variations.  A point is dyadic, k / 2**e, held as
# the two ints k and e.


def _deriv(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(a))[1:]


def _divmod(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pseudo-division: (q, r) with s * a = q * b + r, deg r < deg b, for an integer s > 0.

    Each step scales by |lead(b)| and subtracts with the sign of lead(b), so r
    is a positive multiple of the true remainder.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        coeff = sign * rem[-1]
        shift = len(rem) - len(b)
        rem = [scale * c for c in rem]
        quo = [scale * c for c in quo]
        quo[shift] = coeff
        for i, c in enumerate(b):
            rem[shift + i] -= coeff * c
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(quo), tuple(rem)


def _gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    while b:
        a, b = b, primitive(_divmod(a, b)[1])
    return primitive(a)


_PRIME = 32749  # below 2**15, so a product of two residues is a one-digit int


def _coprime(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True only if a and b share no nonconstant factor; False proves nothing.

    If _PRIME divides neither lead, the integer gcd keeps its degree modulo
    _PRIME and divides the gcd there, so a constant gcd modulo _PRIME proves
    a and b coprime (von zur Gathen and Gerhard, Modern Computer Algebra,
    2013, ch. 6).  Pseudo-remainders scale by units and take no inverse.
    """
    if not b:
        return len(a) == 1  # gcd(a, 0) = a
    if a[-1] % _PRIME == 0 or b[-1] % _PRIME == 0:
        return False
    a, b = [c % _PRIME for c in a], [c % _PRIME for c in b]
    while len(b) > 1:
        while len(a) >= len(b):
            scale, coeff, low = b[-1], a[-1], [0] * (len(a) - len(b)) + b
            a = [(scale * c - coeff * d) % _PRIME for c, d in zip(a, low)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(b) == 1


def _squarefree(a: tuple[int, ...]) -> tuple[int, ...]:
    """The product of the distinct irreducible factors of a: primitive, with positive lead."""
    d = _deriv(a)
    sf = primitive(a) if _coprime(a, d) else primitive(_divmod(a, _gcd(a, d))[0])
    return sf if sf[-1] > 0 else tuple(-c for c in sf)


def _sign_at(a: tuple[int, ...], k: int, e: int) -> int:
    """Sign of the integer polynomial a at k / 2**e: with n = deg a, that of the integer
    2**(e*n) * a(k / 2**e) = sum of a_i * k**i * 2**(e*(n - i)), by Horner's rule with shifts."""
    total, shift = 0, 0
    for c in reversed(a):
        total = total * k + (c << shift)
        shift += e
    return (total > 0) - (total < 0)


def _sturm_chain(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Signed remainder chain a, a', -rem(a, a'), ... up to the last nonzero member."""
    chain = [a, primitive(_deriv(a))]
    while chain[-1]:
        chain.append(tuple(-c for c in primitive(_divmod(chain[-2], chain[-1])[1])))
    return chain[:-1]


def _roots_within(chain, lo: int, hi: int, e: int) -> int:
    """Number of distinct roots in (lo / 2**e, hi / 2**e] of a squarefree chain head, by Sturm."""
    lost = 0
    for k, sign in ((lo, 1), (hi, -1)):
        signs = [s for s in (_sign_at(q, k, e) for q in chain) if s]
        lost += sign * sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
    return lost


def _isolate_core_roots(core: tuple[int, ...]):
    """(core, rational roots (k, e), intervals (j, e) for (j / 2**e, (j + 1) / 2**e)) over (0, 1).

    The given core is squarefree and nonzero at 0 and 1.  Bisection that lands
    exactly on a root deflates the core by it and starts again, so each root
    of the returned core lies alone in one interval.  Both lists ascend; right
    halves are searched first, so the intervals are found descending.
    """
    rational, intervals, stack, chain = [], [], [(0, 0)], _sturm_chain(core)
    while stack:
        j, e = stack.pop()
        count = _roots_within(chain, j, j + 1, e)
        if count == 1:
            intervals.append((j, e))
        elif count > 1 and _sign_at(core, 2 * j + 1, e + 1) == 0:
            rational.append((2 * j + 1, e + 1))
            core = primitive(_divmod(core, (-2 * j - 1, 1 << e + 1))[0])
            intervals, stack, chain = [], [(0, 0)], _sturm_chain(core)
        elif count > 1:
            stack += [(2 * j, e + 1), (2 * j + 1, e + 1)]
    top = max((e for _, e in rational), default=0)
    return core, sorted(rational, key=lambda r: r[0] << top - r[1]), intervals[::-1]


def _core_roots(ipol: tuple[int, ...], cores: dict):
    """The isolated roots of a primitive ipol, from its squarefree part without roots
    at 0 and 1, which keys cores: one isolation serves every constraint with those roots."""
    key = _squarefree(ipol)
    if key[0] == 0:
        key = key[1:]
    if sum(key) == 0:
        key = primitive(_divmod(key, (-1, 1))[0])
    if key not in cores:
        cores[key] = _isolate_core_roots(key)
    return cores[key]


def _compare(a, b, gcds: dict) -> int:
    """Order two roots, -1, 0 or 1, refining their intervals until they are apart.

    A root is a list [j, e, core, sign of core at j / 2**e]: the one root of
    the squarefree core in (j / 2**e, (j + 1) / 2**e), or the rational
    j / 2**e when core is None.  Apart roots have disjoint intervals, or
    algebraic ones that only touch.
    """
    checked = False
    while True:
        (aj, ae, acore, _), (bj, be, bcore, _) = a, b
        e = max(ae, be)
        alo, blo = aj << e - ae, bj << e - be
        ahi, bhi = alo + (bool(acore) << e - ae), blo + (bool(bcore) << e - be)
        if ahi < blo or (ahi == blo and acore and bcore):
            return -1
        if bhi < alo or (bhi == alo and acore and bcore):
            return 1
        if acore == bcore:  # equal rationals, or one root of one core
            return 0
        if not checked:
            checked = True
            if acore is None or bcore is None:
                shared = _sign_at(acore or bcore, *(b[:2] if acore else a[:2])) == 0
            else:
                key = min(acore, bcore), max(acore, bcore)
                if key not in gcds:
                    gcds[key] = [(1,)] if _coprime(*key) else _sturm_chain(_gcd(*key))
                shared = _roots_within(gcds[key], max(alo, blo), min(ahi, bhi), e) > 0
            if shared:
                return 0
        x = a if acore and (bcore is None or ae <= be) else b
        j, e = 2 * x[0] + 1, x[1] + 1
        s = _sign_at(x[2], j, e)
        if s == 0:
            x[:] = [j, e, None, 0]
        else:
            x[:2] = [j - (s != x[3]), e]


def _sign_table(polys):
    """Masks of the sorted candidate points of [0, 1] where each polynomial is >= 0.

    The candidates, 0, 1 and every root in (0, 1), are merged into one order
    on copies of their isolating intervals: the 1-D case of Collins'
    cylindrical algebraic decomposition; each distinct root is sorted once.
    A polynomial is 0 at its own roots and keeps, up to the next one, its
    sign at the separator after the last.  A subset is feasible exactly when
    the AND of its masks is nonzero: its own candidates lie among these, and
    they are complete, because a nonempty feasible set is closed and each of
    its boundary points inside (0, 1) zeroes some constraint.  Returns the
    masks and the witness of the whole system, (feasible, point, interval):
    a rational witness point, or an interval isolating an algebraic witness
    root of one constraint, searched in the order 0, 1, rational roots,
    isolating intervals.
    """
    ipols = [primitive(p[: max((i + 1 for i, c in enumerate(p) if c), default=0)]) for p in polys]
    cores: dict = {}
    datas = {ipol: _core_roots(ipol, cores) for ipol in dict.fromkeys(ipols) if ipol}
    # each polynomial's roots, keyed (k, e) if rational and (core, j, e) if not
    owned = {ipol: rs + [(c, *iv) for iv in ivs] for ipol, (c, rs, ivs) in datas.items()}
    roots = [
        ([*key, None, 0] if len(key) == 2 else [*key[1:], key[0], _sign_at(*key)], key)
        for key in dict.fromkeys(key for keys in owned.values() for key in keys)
    ]
    gcds: dict = {}
    roots.sort(key=cmp_to_key(lambda u, v: _compare(u[0], v[0], gcds)))
    where = {(0, 0): 0}
    separators = []
    prev = [0, 0, None, 0]
    for root, key in roots + [([1, 0, None, 0], (1, 0))]:
        if _compare(prev, root, gcds):
            e = max(prev[1], root[1])  # prev's upper end and root's lower end, over 2**e
            hi, lo = prev[0] + (prev[2] is not None) << e - prev[1], root[0] << e - root[1]
            separators.append((hi, e) if hi == lo else (hi + lo, e + 1))
        where[key] = len(separators)
        prev = root
    top = len(separators)  # the index of the point 1
    masks = {}
    for ipol, keys in owned.items():
        bits = (ipol[0] >= 0) | (sum(ipol) >= 0) << top  # the signs at 0 and 1
        last = 0
        for j in sorted(where[key] for key in keys) + [top]:
            if j - last > 1 and _sign_at(ipol, *separators[last]) > 0:
                bits |= ((1 << (j - last - 1)) - 1) << (last + 1)
            bits |= (j < top) << j
            last = j
        masks[ipol] = bits
    points = [(0, 0), (1, 0)] + [r for _, rational, _ in datas.values() for r in rational]
    candidates = [(where[x], x, None) for x in points]
    candidates += [(where[(c, *iv)], None, iv) for c, _, ivs in datas.values() for iv in ivs]
    out = [masks.get(ipol, -1) for ipol in ipols]
    mask = reduce(and_, out, -1)
    k, x, iv = next((c for c in candidates if mask >> c[0] & 1), (None, None, None))
    if iv:
        iv = Fraction(iv[0], 1 << iv[1]), Fraction(iv[0] + 1, 1 << iv[1])
    return out, (k is not None, x and Fraction(x[0], 1 << x[1]), iv)


def _refuting_subset(masks) -> tuple[int, ...]:
    """Indices of the first infeasible constraint, else the first infeasible pair, else all."""
    every = range(len(masks))
    subsets = [(i,) for i in every] + list(combinations(every, 2)) + [tuple(every)]
    return next(S for S in subsets if not reduce(and_, (masks[i] for i in S), -1))


# ---------------------------------------------------------------------------
# Minor certificates for single density points
# ---------------------------------------------------------------------------


class MinorConstraint(NamedTuple):
    """One principal-minor constraint, as a polynomial in the free density."""

    indices: tuple[int, ...]
    coefficients: tuple[Fraction, ...]


class MinorCertificate(NamedTuple):
    """Sturm-exact feasibility verdict for one partially fixed density point."""

    status: str
    free: str
    fixed: tuple[tuple[str, Fraction], ...]
    degree: int
    label_budget: int
    eligible_minors: int
    constraints: int
    refutation: tuple[MinorConstraint, ...] | None = None
    witness_point: Fraction | None = None
    witness_interval: tuple[Fraction, Fraction] | None = None

    def to_json(self) -> str:
        return json_text(self)


def _entry_term(counts, fixed_map, free_key) -> tuple[int, int, int]:
    """A moment entry's monomial: its coefficient, the product of the fixed
    densities, as (numerator, denominator), and the power of the free density."""
    coeff = Fraction(1)
    power = 0
    for key, cnt in counts.items():
        if key == free_key:
            power += cnt
        else:
            coeff *= fixed_map[key] ** cnt
    return coeff.numerator, coeff.denominator, power


# (permutation, sign) for the Leibniz expansion of minors of size 1 to 3
_SIGNED_PERMUTATIONS = {
    k: [(p, (-1) ** sum(i > j for i, j in combinations(p, 2))) for p in permutations(range(k))]
    for k in (1, 2, 3)
}


def _minor_poly(terms, S):
    """Determinant of the principal minor on S, as a polynomial in the free density.

    terms maps each pair i <= j of S to its entry's monomial.  Each row is
    scaled by the lcm of its denominators, so the determinant is summed in
    integers and divided by the product of the scales once at the end.
    """
    rows = []
    scale = 1
    for i in S:
        row = [terms[(i, j) if i <= j else (j, i)] for j in S]
        den = lcm(*(d for _, d, _ in row))
        rows.append([(n * (den // d), w) for n, d, w in row])
        scale *= den
    poly: dict[int, int] = {}
    for perm, coeff in _SIGNED_PERMUTATIONS[len(S)]:
        power = 0
        for i, j in enumerate(perm):
            c, w = rows[i][j]
            coeff *= c
            power += w
        if coeff:
            poly[power] = poly.get(power, 0) + coeff
    degree = max((w for w, c in poly.items() if c), default=-1)
    return tuple(Fraction(poly.get(w, 0), scale) for w in range(degree + 1))


def minor_certificate(fixed, free, degree: int, label_budget: int | None = None) -> MinorCertificate:
    """Test a density point with one free coordinate against small principal minors.

    All principal minors of size at most 3 of the degree-d moment matrix whose
    entries involve only the fixed graphs and the free one become univariate
    polynomial constraints >= 0; their joint solvability over [0, 1] is decided
    exactly.  An empty solution set is reported with a minimal refuting
    constraint set (a single minor or a pair where possible).  Every coordinate
    must be a connected graph with at least one edge.
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    free_key = _witness_key(free, "free coordinate")
    fixed_map: dict[str, Fraction] = {}
    for g, value in fixed.items():
        if g.r != free.r:
            raise ValueError(f"uniformity mismatch: {free.r} vs {g.r}")
        key = _witness_key(g, "fixed coordinate")
        if key in fixed_map:
            raise ValueError("duplicate fixed coordinate")
        fixed_map[key] = Fraction(value)
    if free_key in fixed_map:
        raise ValueError("the free coordinate is also fixed")
    if label_budget is None:
        label_budget = 2 * degree
    M = moment_matrix(enumerate_basis("B_tilde", degree, label_budget, free.r))
    allowed = set(fixed_map) | {free_key}
    # the monomial of every entry whose graphs are all coordinates, at its first pair both ways
    orbit_terms = {
        first: _entry_term(counts, fixed_map, free_key)
        for first, counts in M.entries.items()
        if counts.keys() <= allowed
    }
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
    # a minor is fixed by its entries' terms: expand each signature once
    signatures: set[tuple[tuple[int, int, int], ...]] = set()
    constraints: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for S in index_sets:
        sig = tuple(terms[ij] for ij in combinations_with_replacement(S, 2))
        if sig not in signatures:
            signatures.add(sig)
            pol = _minor_poly(terms, S)
            if pol:
                constraints.setdefault(pol, S)

    masks, (feasible, point, interval) = _sign_table(list(constraints))
    fixed_out = tuple(sorted(fixed_map.items(), key=lambda kv: basis_sort_key(kv[0])))
    base = dict(
        free=free_key,
        fixed=fixed_out,
        degree=degree,
        label_budget=label_budget,
        eligible_minors=len(index_sets),
        constraints=len(constraints),
    )
    if feasible:
        return MinorCertificate(
            status="inconclusive", witness_point=point, witness_interval=interval, **base
        )
    ordered = [MinorConstraint(S, pol) for pol, S in constraints.items()]
    return MinorCertificate(
        status="refuted",
        refutation=tuple(ordered[i] for i in _refuting_subset(masks)),
        **base,
    )
