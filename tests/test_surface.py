"""The package's surface: every top-level definition in src/qvbench is reached
from the command line, by name reference from `cli.main`, `run`,
`emit_report` and `_HANDLERS`, except the ones listed in `UNREACHED`.

Reachability is by name: a definition is reached when a reached one mentions
its name, as a name or as an attribute.  The set must equal the list, so new
dead code fails, and so does a listed name that a command comes to use.
"""
import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qvbench"
ROOTS = ("cli.main", "cli.run", "cli.emit_report", "cli._HANDLERS")

# Top-level definitions that no command reaches, by what is to become of them.
UNREACHED = {
    # Checks the paper states, waiting for a command to run them.  The
    # mono-reflective verdict of `cross-validate` reuses its unit/counit
    # verdict instead of calling `check_mono_reflective`.
    "adjunction.LiftViolation", "adjunction.universal_property_check",
    "adjunction.PpMembership", "adjunction.pp_expansion_membership",
    "beth.check_mono_reflective",
    "beth.HarnessReport", "beth.harness_unique_witness_expansions",
    "implicit.PreservationViolation", "implicit.check_preservation",
    "implicit.check_totalizable", "implicit.witness_projection_specs",
    # The bounded pp search, to be replaced by the exact test on generators.
    "implicit.bounded_pp_definability_search", "implicit._MaskTarget",
    "implicit._terms_up_to_depth", "implicit._product_graph",
    "implicit.generator_products", "implicit.graphs_on",
    # Helpers that only the tests use.
    "core.are_isomorphic", "core.closure_extend", "core.compose",
    "core.decode_product_element", "core.is_congruence", "core.kernel", "core.permuted",
    "core.product_projection",
    "logic.rename_equation", "logic.rename_term", "logic.satisfies_pp",
    "parser.parse", "parser.parse_pp_formula",
    # The printer, whose round trip the parser tests check.
    "parser.format_workspace", "parser.format_signature", "parser.format_algebra",
    "parser.format_quasivariety", "parser.format_ppop", "parser.format_expansion",
    "parser.format_translation", "parser.format_pp_formula", "parser.format_quasiequation",
    "parser.format_equation", "parser.format_term", "parser._format_table",
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


def mentioned(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached() -> set[str]:
    defs = definitions()
    by_name = defaultdict(list)
    for key in defs:
        by_name[key.split(".", 1)[1]].append(key)
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            for name in mentioned(defs[key]):
                todo.extend(by_name[name])
    return set(defs) - seen


def test_unreached_definitions_are_the_listed_ones():
    assert unreached() == UNREACHED

