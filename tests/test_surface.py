"""The package's surface: every top-level definition in src/qvbench is reached
from the command line, by name reference from `cli.main`, `run`,
`emit_report` and `COMMANDS`, or by the benchmark's tracer, which wraps each
`TARGETS` entry of bench/spans.py by name.  `UNREACHED` lists what only the
benchmark reaches.  So is every method and property of a top-level class.

Reachability follows loaded names only: a definition is reached when a
reached one reads it as an `ast.Name`.  An attribute such as
`self.parse_term` does not reach a top-level function that shares the
method's name, and neither does a record field such as `holds: bool`.
A class member is reached when a reached definition reads an attribute of
its name, on any object, and only a reached member's body is followed.
Python calls the dunder members itself, so they go with their class.
`_Parser.parse_workspace` reads its `parse_{keyword}_body` methods through
`getattr`, so reaching `parser.DECL_KEYWORDS` reads them.
bench/spans.py is read with `ast`, not imported.  Unreached code fails, and
so does a listed name that a command comes to use.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qvbench"
SPANS = ROOT / "bench" / "spans.py"
ROOTS = ("cli.main", "cli.run", "cli.emit_report", "cli.COMMANDS")

# Top-level definitions that only bench/spans.py `TARGETS` reach, by what is to
# become of them.  Each leaves the package when the next change to the
# benchmark drops it from `TARGETS`.
UNREACHED = {
    # Checks the paper states, waiting for a command to run them.
    "adjunction.LiftViolation", "adjunction.universal_property_check",
    "adjunction.PpMembership", "adjunction.pp_expansion_membership",
    "implicit.PreservationViolation", "implicit.check_preservation",
    "implicit.check_totalizable",
    # The `mono-reflective` verdict of `cross-validate`, which computes it
    # without calling this.
    "beth.check_mono_reflective",
    # The bounded pp search, to be replaced by the exact test on generators.
    "implicit.bounded_pp_definability_search", "implicit._MaskTarget",
    "implicit._terms_up_to_depth", "implicit._product_graph",
    "implicit.generator_products", "implicit.graphs_on",
    # Helpers that only the tests use.
    "core.are_isomorphic", "core.closure_extend", "logic.satisfies_pp",
    # The n! canonical form, which the isomorphism dedup no longer uses.
    "core.canonical_tables", "core._permuted_tables",
}


def definitions() -> dict[str, ast.AST]:
    """Each top-level function, class and assigned name, as `module.name`."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                out[f"{path.stem}.{name}"] = node
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def members(defs: dict[str, ast.AST]) -> dict[str, ast.FunctionDef]:
    """Each method and property of a class in `defs` but the dunders, as
    `module.Class.name`."""
    return {
        f"{key}.{node.name}": node
        for key, cls in defs.items() if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name)
    }


def benchmark_targets() -> set[str]:
    """`module.name` of each `TARGETS` entry; a method entry names its class
    and `module.Class.name` its member."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            keys = {f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in node.value.elts}
            return keys | {key.rsplit(".", 1)[0] for key in keys if key.count(".") == 2}
    raise AssertionError("bench/spans.py assigns no TARGETS")


def _read(node: ast.AST) -> tuple[list[str], list[str]]:
    """The names and the attribute names that `node` loads.  Of a class,
    the members but the dunders are left out, to be followed once reached."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list] + [
            n for n in node.body if not isinstance(n, ast.FunctionDef) or _is_dunder(n.name)
        ]
    names, attributes = [], []
    for n in (n for part in parts for n in ast.walk(part)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.append(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attributes.append(n.attr)
    return names, attributes


def reached(roots) -> set[str]:
    """The top-level definitions and class members that `roots` reach."""
    defs = definitions()
    nodes = defs | members(defs)
    by_name, by_attribute = defaultdict(list), defaultdict(list)
    for key in nodes:
        module, name = key.split(".", 1)
        (by_attribute[name.split(".")[1]] if "." in name else by_name[name]).append(key)
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            names, attributes = _read(nodes[key])
            if key == "parser.DECL_KEYWORDS":
                attributes += [f"parse_{k.value}_body" for k in nodes[key].value.keys]
            for name in names:
                todo.extend(by_name[name])
            for attribute in attributes:
                todo.extend(by_attribute[attribute])
    return seen


def test_every_definition_is_reached_by_a_command_or_the_benchmark():
    assert set(definitions()) - reached(ROOTS) - reached(benchmark_targets()) == set()


def test_unreached_definitions_are_the_listed_ones():
    assert set(definitions()) - reached(ROOTS) == UNREACHED


def test_every_member_is_read_by_a_reached_definition():
    assert set(members(definitions())) - reached(ROOTS) - reached(benchmark_targets()) == set()


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.stem}: {a.asname or a.name}"
                    for a in node.names
                    if (a.asname or a.name.split(".")[0]) not in used
                ]
    assert unused == []
