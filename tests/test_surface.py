"""The package's surface: every top-level definition in src/qvbench is reached
from the command line, by name reference from `cli.main`, `run`,
`emit_report` and `COMMANDS`, or by the benchmark's tracer, which wraps each
`TARGETS` entry of bench/spans.py by name.  `UNREACHED` lists what only the
benchmark reaches.

Reachability follows loaded names only: a definition is reached when a
reached one reads it as an `ast.Name`.  An attribute such as
`self.parse_term` does not reach a top-level function that shares the
method's name, and neither does a record field such as `holds: bool`.
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


def benchmark_targets() -> set[str]:
    """`module.name` of each `TARGETS` entry; a method entry names its class."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                f"{entry.elts[0].value}.{entry.elts[1].value.split('.')[0]}"
                for entry in node.value.elts
            }
    raise AssertionError("bench/spans.py assigns no TARGETS")


def reached(roots) -> set[str]:
    defs = definitions()
    by_name = defaultdict(list)
    for key in defs:
        by_name[key.split(".", 1)[1]].append(key)
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            for n in ast.walk(defs[key]):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    todo.extend(by_name[n.id])
    return seen


def test_every_definition_is_reached_by_a_command_or_the_benchmark():
    assert set(definitions()) - reached(ROOTS) - reached(benchmark_targets()) == set()


def test_unreached_definitions_are_the_listed_ones():
    assert set(definitions()) - reached(ROOTS) == UNREACHED


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
