"""Batch command-line surface for exact density, cone, and obstruction runs.

Every command is deterministic: identical invocations produce byte-identical
output.  Exact quantities appear in JSON as "num/den" strings; the trajectory
CSV is the only floating-point output.  Exit codes: 0 verdict reached, 2
precondition failure, 4 input or I/O error, 3 internal certificate mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial

from .cones import (
    CertificateError,
    clique_ray,
    clique_trop_cone,
    cone_member,
    dot,
    minor_cone,
    minor_facets,
    star_ray,
    star_trop_cone,
)
from .gluing import alpha_vector, enumerate_basis, moment_matrix
from .hypergraphs import (
    Hypergraph,
    clique_turan_density,
    density,
    fraction_str,
    graph_key,
    key_graph,
    named_graph,
    star_limit_density,
    write_json,
)
from .obstructions import MinorCertificate, ObstructionReport, counting_obstruction, minor_certificate


class GraphInputError(ValueError):
    """A graph argument could not be read or parsed."""


def load_graph(spec: str) -> Hypergraph:
    """Graph from inline JSON, @file, '-' for stdin, or a library name."""
    text = spec
    if spec == "-":
        text = sys.stdin.read()
    elif spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    text = text.strip()
    if text.startswith("{"):
        try:
            return Hypergraph.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise GraphInputError(f"bad graph JSON: {exc}") from exc
    try:
        return named_graph(text)
    except ValueError as exc:
        raise GraphInputError(str(exc)) from exc


def parse_fraction(token: str) -> Fraction:
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphInputError(f"bad rational token {token!r}") from exc


def log_fraction(x: Fraction) -> float:
    """Natural log of a positive rational, safe far outside float range."""
    return math.log(x.numerator) - math.log(x.denominator)


def format_12g(x: Fraction) -> str:
    """'%.12g' of a positive rational, rounded half to even from its exact value in integers,
    so that a value below float range, such as 1e-400, does not print as 0."""
    n, d = x.numerator, x.denominator
    exp = len(str(n)) - len(str(d))
    exp -= n * 10 ** max(-exp, 0) < d * 10 ** max(exp, 0)  # now 10**exp <= x < 10**(exp + 1)
    num, den = n * 10 ** max(11 - exp, 0), d * 10 ** max(exp - 11, 0)
    m, r = divmod(num, den)
    m += 2 * r > den or (2 * r == den and m & 1)
    if m == 10**12:
        m, exp = m // 10, exp + 1
    if -4 <= exp < 12:  # a float prints the 12 rounded digits back exactly
        return "%.12g" % float(f"{m}e{exp - 11}")
    return "%.12ge%+03d" % (float(f"{m}e-11"), exp)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_density(args: argparse.Namespace) -> tuple[dict, int]:
    H = load_graph(args.H)
    G = load_graph(args.G)
    return {"H": graph_key(H), "G": graph_key(G), "density": density(H, G)}, 0


def build_cone(args: argparse.Namespace):
    """The cone named by args.cone, its descriptor, and the keys that trop-sos adds to it."""
    if args.cone == "clique":
        return clique_trop_cone(args.r, args.l), {"source": "clique", "r": args.r, "l": args.l}, {}
    if args.cone == "star":
        cone = star_trop_cone(args.r, args.c, args.l)
        return cone, {"source": "star", "r": args.r, "c": args.c, "l": args.l}, {}
    if args.d < 1:
        raise ValueError("degree must be positive")
    M = moment_matrix(enumerate_basis("B_tilde", args.d, args.labels))
    descriptor = {"source": "trop-sos", "d": args.d, "labels": args.labels}
    if args.command == "test-binomial":  # (basis, facets) only: the test reads no rays
        return (M.vbasis, minor_facets(M)), descriptor, {}
    cone = minor_cone(M)
    return cone, descriptor, {"moment_basis_size": M.size, "degenerate": not cone.basis}


def cmd_cone(args: argparse.Namespace) -> tuple[dict, int]:
    """A cone command prints the cone; test-binomial tests t(H1) >= t(H2) on it."""
    if args.command != "test-binomial":
        cone, _, extra = build_cone(args)
        obj = {"basis": cone.basis, "facets": cone.facets, "rays": cone.rays, **extra}
        if cone.lineality:
            obj["lineality"] = cone.lineality
        return obj, 0
    H1 = load_graph(args.H1)
    H2 = load_graph(args.H2)
    r = 2 if args.cone == "trop-sos" else args.r
    for H in (H1, H2):
        if H.r != r:
            raise ValueError(f"uniformity mismatch: {r} vs {H.r}")
    (basis, facets, *_), descriptor, _ = build_cone(args)
    diff = tuple(x - y for x, y in zip(alpha_vector(H1, basis), alpha_vector(H2, basis)))
    membership = cone_member(diff, facets)
    obj = {
        "H1": graph_key(H1),
        "H2": graph_key(H2),
        "cone": descriptor,
        "basis": list(basis),
        "difference": list(diff),
    }
    if membership.inside:
        recon = [0] * len(basis)  # the same sums, over the support only
        for c, f in zip(membership.coefficients, facets):
            if c:
                for j, x in enumerate(f):
                    if x:
                        recon[j] += c * x
        if recon != list(diff):
            raise CertificateError("Farkas combination does not reproduce the difference")
        obj["verdict"] = "valid on trop"
        obj["coefficients"] = membership.coefficients
    else:
        sep = membership.separator
        if not (dot(sep, diff) < 0 and all(dot(sep, f) >= 0 for f in facets)):
            raise CertificateError("separating cone point failed re-verification")
        obj["verdict"] = "not valid"
        obj["separator"] = list(sep)
    return obj, 0


def cmd_obstruction(args: argparse.Namespace) -> tuple[ObstructionReport, int]:
    upper = load_graph(args.upper)
    lower = load_graph(args.lower)
    report = counting_obstruction(
        upper, lower, args.k, args.d, args.labels, args.p
    )
    code = 2 if report.status == "precondition-failure" else 0
    return report, code


def cmd_minor_cert(args: argparse.Namespace) -> tuple[MinorCertificate, int]:
    fixed: dict[str, Fraction] = {}  # by key, so that a graph fixed twice is caught here
    for spec, value in args.fixed:
        key = graph_key(load_graph(spec))
        if key in fixed:
            raise ValueError(f"duplicate fixed coordinate {key}")
        fixed[key] = parse_fraction(value)
        if not 0 <= fixed[key] <= 1:
            raise ValueError(f"density of {spec} must lie in [0, 1], got {fraction_str(fixed[key])}")
    graphs = {key_graph(key): value for key, value in fixed.items()}
    cert = minor_certificate(graphs, load_graph(args.free), args.d, args.labels)
    return cert, 0


def trajectory_setup(args: argparse.Namespace):
    """Column names, target ray, and the exact density evaluator for a family."""
    if args.family == "clique":
        r, l, i = args.r, args.l, args.k
        target = clique_ray(r, l, i)
        parts = r + i - 2
        names = [f"K{q}" for q in range(r, l + 1)]

        def evaluate(param: Fraction) -> list[Fraction]:
            return [clique_turan_density(q, param, parts, r) for q in range(r, l + 1)]

    else:
        r, c, l, m = args.r, args.c, args.l, args.k
        target = star_ray(l, m)
        names = [f"S{b}" for b in range(1, l + 1)]

        def evaluate(param: Fraction) -> list[Fraction]:
            return [star_limit_density(b, r, c, param, m) for b in range(1, l + 1)]

    return names, target, evaluate


def cmd_family_trajectory(args: argparse.Namespace) -> tuple[dict | str, int]:
    if not args.schedule:
        raise ValueError("--schedule is required")
    schedule = [parse_fraction(tok) for tok in args.schedule.split(",")]
    for param in schedule:
        if not 0 < param < 1:
            raise ValueError(f"schedule values must lie strictly between 0 and 1: {param}")

    names, target, evaluate = trajectory_setup(args)
    tnorm = math.sqrt(sum(t * t for t in target))
    rows = []
    for param in schedule:
        densities = evaluate(param)
        base = -log_fraction(param)
        coords = [log_fraction(t) / base for t in densities]
        vnorm = math.sqrt(sum(x * x for x in coords))
        dist = math.sqrt(
            sum((x / vnorm - t / tnorm) ** 2 for x, t in zip(coords, target))
        )
        rows.append(
            [format_12g(param)] + ["%.12g" % x for x in coords] + ["%.12g" % dist]
        )

    header = ["parameter"] + names + ["distance"]
    if args.format == "json":
        return {"columns": header, "rows": rows}, 0
    # no field holds a comma, a quote or a newline, so no field needs CSV quoting
    return "".join(",".join(row) + "\n" for row in [header, *rows]), 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

COMMANDS = {
    "density": cmd_density,
    "trop-sos": cmd_cone,
    "clique-cone": cmd_cone,
    "star-cone": cmd_cone,
    "test-binomial": cmd_cone,
    "obstruction": cmd_obstruction,
    "minor-cert": cmd_minor_cert,
    "family-trajectory": cmd_family_trajectory,
}

Parser = partial(argparse.ArgumentParser, allow_abbrev=False)  # --l is not read as --labels

GRAPH_HELP = "graph as inline JSON, @file, '-' for stdin, or a name like K3 or edge^3"


def add_cone_options(parser: argparse.ArgumentParser, cone: str) -> None:
    """The size options of one cone kind, for its cone command, test-binomial and family-trajectory."""
    if cone == "trop-sos":
        parser.add_argument("--d", type=int, required=True, help="degree bound")
        parser.add_argument("--labels", type=int, default=None, help="label budget (default 2d)")
    elif cone == "clique":
        parser.add_argument("--r", type=int, default=2, help="uniformity / smallest clique")
        parser.add_argument("--l", type=int, required=True, help="largest clique")
    else:
        parser.add_argument("--r", type=int, default=2, help="uniformity")
        parser.add_argument("--c", type=int, default=1, help="core size")
        parser.add_argument("--l", type=int, required=True, help="largest branch count")


@cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="graphtrop",
        description="Exact homomorphism densities, tropical cones, and obstruction certificates.",
    )
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p = sub.add_parser("density", help="homomorphism density t(H; G)")
    p.add_argument("H", help=GRAPH_HELP)
    p.add_argument("G", help=GRAPH_HELP)

    for command, cone, text in (
        ("trop-sos", "trop-sos", "minor cone of the degree-d moment matrix"),
        ("clique-cone", "clique", "tropical cone of clique densities"),
        ("star-cone", "star", "tropical cone of sunflower densities"),
    ):
        p = sub.add_parser(command, help=text)
        add_cone_options(p, cone)
        p.set_defaults(cone=cone)

    p = sub.add_parser("test-binomial", help="test t(H1) >= t(H2) on a tropical cone")
    kinds = p.add_subparsers(dest="cone", required=True, parser_class=Parser)
    for cone in ("clique", "star", "trop-sos"):
        p = kinds.add_parser(cone)
        p.add_argument("H1", help=GRAPH_HELP)
        p.add_argument("H2", help=GRAPH_HELP)
        add_cone_options(p, cone)

    p = sub.add_parser("obstruction", help="counting obstruction report for k*upper >= (k+1)*lower")
    p.add_argument("upper", help=GRAPH_HELP)
    p.add_argument("lower", help=GRAPH_HELP)
    p.add_argument("--k", type=int, required=True, help="exponent of the upper graph")
    p.add_argument("--d", type=int, required=True, help="relaxation degree")
    p.add_argument("--labels", type=int, default=None, help="label budget (default 2d)")
    p.add_argument("--p", type=int, default=1, help="degree threshold of the vertex weight")

    p = sub.add_parser("minor-cert", help="principal-minor certificate for one density point")
    p.add_argument("free", help="free coordinate: " + GRAPH_HELP)
    p.add_argument(
        "--fixed", nargs=2, action="append", required=True, metavar=("GRAPH", "VALUE"),
        help="a fixed coordinate and its rational density; repeatable",
    )
    p.add_argument("--d", type=int, required=True, help="relaxation degree")
    p.add_argument("--labels", type=int, default=None, help="label budget (default 2d)")

    p = sub.add_parser("family-trajectory", help="extremal family log-density trajectory as CSV")
    families = p.add_subparsers(dest="family", required=True, parser_class=Parser)
    for family, k_help in (("clique", "ray index"), ("star", "exponent")):
        p = families.add_parser(family)
        add_cone_options(p, family)
        p.add_argument("--k", type=int, required=True, help=k_help)
        p.add_argument("--schedule", help="comma-separated parameter values, e.g. 1e-1,1e-2")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format is None:
        args.format = "csv" if args.command == "family-trajectory" else "json"
    try:
        if args.format == "csv" and args.command != "family-trajectory":
            raise ValueError(f"command {args.command} only emits JSON")
        result, code = COMMANDS[args.command](args)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            if isinstance(result, str):  # the trajectory CSV
                fh.write(result)
            else:
                write_json(result, fh.write)
                fh.write("\n")
        return code
    except GraphInputError as exc:
        print(f"graphtrop: input error: {exc}", file=sys.stderr)
        return 4
    except CertificateError as exc:
        print(f"graphtrop: certificate mismatch: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"graphtrop: i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"graphtrop: precondition failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
