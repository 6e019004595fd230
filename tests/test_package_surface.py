"""Every module-level function and class, and every method of a class, is used or public.

Every true division, and every call that makes a float, in the package is on a
list that says why it is exact or why its float is output.
"""

import ast
from pathlib import Path

import graphtrop

SRC = Path(graphtrop.__file__).resolve().parent

# Definitions that nothing in the package calls, each kept for a stated reason.
PUBLIC = {
    "gluing.labeled_edge",  # builder: a single edge with labels on its first vertices
    "gluing.cherry",  # builder: the fully labelled two-edge path
    "gluing.glue",  # library operation: the labelled gluing product itself
    "gluing.unlabel",  # library operation: forget the labels, in canonical form
    "gluing.unlabeled_product",  # perfbench binding: perfbench/tracing.py spans it
    "hypergraphs.complete_bipartite",  # builder: K_{a,b}
    "hypergraphs.direct_product",  # builder: the categorical product of two hypergraphs
    "hypergraphs.clique_plus_turan",  # builder: the explicit clique plus Turan graph
    "obstructions.positive_pair_check",  # perfbench binding: perfbench/tracing.py spans it
    "obstructions.m_vector",  # library operation: the minor generator m(A, B) of one pair
    "obstructions.pair_stats",  # library operation: the witness census of one pair
}

# Every true division, as "module.definition: expression", with the reason it
# may stay: its operands are Fractions, or its float is output.  An `int / int`
# would bring a float into exact code.
DIVISIONS = {
    "hypergraphs.clique_turan_density: falling * (1 - alpha) ** j / Fraction(parts) ** j":
        "Fraction over Fraction",
    "obstructions.counting_obstruction: 2 * target_pairing / upper_counts[witness]":
        "Fraction over int: the chain bound",
    "cli.cmd_family_trajectory: log_fraction(t) / base": "float output: a trajectory coordinate",
    "cli.cmd_family_trajectory: x / vnorm": "float output: the normalised coordinate",
    "cli.cmd_family_trajectory: t / tnorm": "float output: the normalised target",
}

# Every call of float or of a float-valued math function, as "module.definition:
# expression", with the reason its float may stay.  A float in exact code would
# round a verdict or a certificate.
FLOAT_SOURCES = {
    "cli.log_fraction: math.log(x.numerator)": "float output: a log-density coordinate",
    "cli.log_fraction: math.log(x.denominator)": "float output: a log-density coordinate",
    "cli.format_12g: float(f'{m}e{exp - 11}')": "float output: 12 digits rounded exactly, printed back",
    "cli.format_12g: float(f'{m}e-11')": "float output: 12 digits rounded exactly, printed back",
    "cli.cmd_family_trajectory: math.sqrt(sum((t * t for t in target)))":
        "float output: the target's norm",
    "cli.cmd_family_trajectory: math.sqrt(sum((x * x for x in coords)))":
        "float output: a trajectory point's norm",
    "cli.cmd_family_trajectory: math.sqrt(sum(((x / vnorm - t / tnorm) ** 2 for x, t in zip(coords, target))))":
        "float output: the distance to the target direction",
}

# math functions whose value is an int for int and Fraction arguments.
_INT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "trunc"}


def _definitions_and_uses():
    """Module-level definitions as "module.name", and where each name is read.

    A name is read at (module, i) when the i-th top-level statement of the
    module holds it as a name or an attribute.  Imports are not reads.
    """
    defs = {}
    uses: dict[str, set[tuple[str, int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{stmt.name}"] = (path.stem, i)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add((path.stem, i))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add((path.stem, i))
    return defs, uses


def test_every_definition_is_referenced_or_public():
    """A helper only the tests use belongs in tests/oracles.py, not in the package."""
    defs, uses = _definitions_and_uses()
    unreferenced = {
        qualified
        for qualified, site in defs.items()
        if not uses.get(qualified.split(".", 1)[1], set()) - {site}
    }
    assert unreferenced - PUBLIC == set()


def test_public_entries_are_definitions():
    defs, _ = _definitions_and_uses()
    assert PUBLIC - set(defs) == set()


def test_every_method_is_read_as_an_attribute():
    """A non-dunder method or property of a package class is read somewhere in the package.

    Reads are matched by name only, so a method that shares its name with one
    of another class (such as `from_json` or `to_json`) is not caught.
    """
    methods = set()
    attributes = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                methods.update(
                    (f"{path.stem}.{stmt.name}", node.name)
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                )
        attributes.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    assert {f"{cls}.{name}" for cls, name in methods if name not in attributes} == set()


def test_every_true_division_is_listed():
    """A division that is not on DIVISIONS fails, and so does a listed one that is gone."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(getattr(node, "op", None), ast.Div):
                    found.add(f"{path.stem}.{getattr(stmt, 'name', '')}: {ast.unparse(node)}")
    assert found == set(DIVISIONS)


def test_every_float_source_is_listed():
    """A float call that is not on FLOAT_SOURCES fails, and so does a listed one that is gone.

    A math function imported by name counts as well as one read off `math`.
    """
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        floats = {"float"} | {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "math"
            for alias in node.names
            if alias.name not in _INT_MATH
        }
        for stmt in tree.body:
            for node in ast.walk(stmt):
                f = getattr(node, "func", None)
                if (isinstance(f, ast.Name) and f.id in floats) or (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "math"
                    and f.attr not in _INT_MATH
                ):
                    found.add(f"{path.stem}.{getattr(stmt, 'name', '')}: {ast.unparse(node)}")
    assert found == set(FLOAT_SOURCES)


def test_every_imported_name_is_read():
    """Every name a package module imports is read in that module; `__future__` is exempt."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread.update(f"{path.stem}.{name}" for name in bound if name not in read)
    assert unread == set()
