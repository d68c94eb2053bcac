"""Command-line driver: workspace loading, command dispatch, and canonical
JSON reports.

Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 some verdict is
unknown-within-bound (and none fails), 3 usage or parse error, 4 internal
error (any other exception; its traceback goes to stderr).  Reports are
canonical JSON (sorted keys, deterministic arrays, integers only), so identical
inputs produce byte-identical bytes.

Each command takes at most one size bound, echoed in its report's params:
--max-size (default 4) for unit, counit, check-simple, check-beth,
check-unique-witnesses, term-equiv and cross-validate; --ext-bound (default 6)
for check-regular, check-extendable and amalgamate; --size (default 4) for
enumerate; --product-cap (default 1000000) for free and reflect.  membership,
cg and expand take none.  `counit --algebra` echoes no bound: its one
instance is not about the members up to one.  A product over the cap is a
usage error in free and reflect, whose cap is that flag.  Only in counit
does it make a verdict unknown: the member's instance is unknown-within-bound,
with the product's size and the cap in its certificate.

Only `counit` builds every reflection F: it prints each member's counit map
and F's size, which a stopped generation does not know.  `unit` decides each
member from its seeds and certifies a failure by two elements with the same
seed; `cross-validate` and `term-equiv --transfer` build no F either, as
`beth.unit_counit_verdict` says, so each of their verdicts holds or fails
within --max-size alone.

Every handler returns its named verdicts, each a (name, `Verdict`, bound)
triple, with the bound None where the instance is about one given input,
not the members up to a bound: the library checks decide every status, and `membership` and `expand`
wrap their library results.  `run` alone turns the triples into report
instances, through `_verdict_instance`, and `jsonable` gives each kind of
certificate its JSON shape.  An algebra outside the class a command
ranges over is a usage error, not an unknown verdict.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

from . import __version__
from .core import FiniteAlgebra, Homomorphism, is_homomorphism, record
from .adjunction import (
    ExpansionSpec,
    FreeExtension,
    PpExpansionSpec,
    UndefinedAt,
    check_counit_iso,
    check_unit_mono,
    counit_verdict,
    expand_algebra,
    free_extension,
    induced_expansion,
)
from .beth import (
    check_beth_companion,
    check_faithful_term_equivalence,
    check_regular_mono,
    check_simple,
    check_simplicity_transfer,
    cross_validate_main_theorem,
)
from .implicit import (
    Extension,
    FunctionalityViolation,
    UniqueWitnessViolation,
    check_extendable,
    check_unique_witnesses,
)
from .parser import Workspace, parse_workspace
from .quasivariety import (
    Amalgam,
    DEFAULT_PRODUCT_CAP,
    MembershipResult,
    NotFoundWithinBound,
    Verdict,
    bounded_amalgamation,
    enumerate_members,
    free_algebra,
    membership,
    relative_congruence,
    require_member,
)

DISCLAIMER = (
    "finite-scale semantics: every verdict quantifies only over the finite "
    "instances enumerated within the stated bounds; nothing is claimed beyond them"
)

# Each size bound with its default and help line.  `COMMANDS`, below the
# handlers, gives each command its flags, the one bound it honours (None: it
# takes none) and its handler; `run` and `build_argparser` both read them.
BOUNDS = {
    "max_size": (4, "largest member size the verdicts range over"),
    "ext_bound": (6, "largest codomain, extension or amalgam searched for"),
    "size": (4, "size of the members to list"),
    "product_cap": (DEFAULT_PRODUCT_CAP, "most elements of a direct product to build"),
}

@record
class Report:
    check: str
    params: dict
    instances: list[dict]
    summary: str
    version: str = __version__
    disclaimer: str = DISCLAIMER

    def exit_code(self) -> int:
        verdicts = [inst.get("verdict") for inst in self.instances]
        if any(v == "fails" for v in verdicts):
            return 1
        if any(v == "unknown-within-bound" for v in verdicts):
            return 2
        return 0


class Table(tuple):
    """An operation table in a report: the algebra's cells and, as `size`,
    the algebra's size.  A `FiniteAlgebra` has int cells in range(size),
    checked when it was built, so `_pieces` writes a `Table` from the digit
    strings of range(size) with no scan of its own; to `json.dumps` it is
    the tuple of its cells."""

    def __new__(cls, cells, size: int):
        table = super().__new__(cls, cells)
        table.size = size
        return table


@lru_cache(maxsize=None)
def _digits(n: int) -> tuple[str, ...]:
    """The decimal strings of range(n), which depend on nothing else."""
    return tuple(map(str, range(n)))


def _json(value, newline: str, end: str = "") -> str:
    """The text of `json.dumps(value, sort_keys=True, indent=2)` for a
    JSON-native value nested at the indent that `newline` carries, without
    the pure-Python encoder that `indent` selects: a list of plain ints is
    one join, and keys and strings go to the C string encoder.

    A `Table`, such as each table of `algebra_json`, relies on the
    `FiniteAlgebra` invariant, int cells in range(size): it is written with
    no type or range scan, from the cached digit strings of range(size),
    so each value is converted once per process, not once per cell.  Any
    other list is scanned for its types: one of plain ints, such as a map,
    converts each cell, and a bool is written as JSON's `true` or `false`.
    The pieces go to one list, joined once, so a large table is copied
    once, not once per level of nesting; those copies needed fresh memory,
    and their cost depended on what the process had freed before.  `end`,
    such as a report's final newline, is the last piece of that join, not
    a second copy of the text."""
    out: list[str] = []
    _pieces(value, newline, out)
    out.append(end)
    return "".join(out)


def _pieces(value, newline: str, out: list[str]) -> None:
    if isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        if type(value) is Table:
            # One `itemgetter` call looks up every cell; of one index it
            # would return a bare string.
            digits = _digits(value.size)
            cells = itemgetter(*value)(digits) if len(value) > 1 else [digits[value[0]]]
        elif set(map(type, value)) == {int}:
            cells = map(str, value)
        else:
            for i, v in enumerate(value):
                out.append("," + inner if i else "[" + inner)
                _pieces(v, inner, out)
            out += (newline, "]")
            return
        out += ("[", inner, ("," + inner).join(cells), newline, "]")
    elif isinstance(value, dict):
        inner = newline + "  "
        for i, (k, v) in enumerate(sorted(value.items())):
            key = _encode_str(k if isinstance(k, str) else json.dumps(k))
            out += ("," + inner if i else "{" + inner, key, ": ")
            _pieces(v, inner, out)
        out += (newline, "}")
    elif type(value) is str:
        out.append(_encode_str(value))
    else:
        out.append(json.dumps(value))


def emit_report(report: Report, format: str = "json") -> bytes:
    if format == "json":
        payload = {
            "version": report.version,
            "check": report.check,
            "params": report.params,
            "instances": report.instances,
            "summary": report.summary,
            "disclaimer": report.disclaimer,
        }
        return _json(payload, "\n", "\n").encode()
    lines = [f"{report.check} (qvbench {report.version})"]
    for k in sorted(report.params):
        lines.append(f"  {k} = {report.params[k]}")
    for inst in report.instances:
        lines.append(f"  [{inst.get('verdict', '-')}] {inst.get('name', '?')}")
        if "certificate" in inst:
            lines.append(f"      certificate: {json.dumps(inst['certificate'], sort_keys=True)}")
    lines.append(f"summary: {report.summary}")
    lines.append(f"note: {report.disclaimer}")
    return ("\n".join(lines) + "\n").encode()


def load_workspace(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        return parse_workspace(fh.read())


# ---------------------------------------------------------------------------
# JSON encoders for certificates (full maps and tables, replayable)


def algebra_json(A: FiniteAlgebra) -> dict:
    """A's JSON form.  Each table is a `Table`, which the emitter writes
    with no scan: A's cells are ints in range(A.size), as construction
    checked."""
    return {
        "name": A.name,
        "signature": {"name": A.signature.name, "symbols": [[s, k] for s, k in A.signature.symbols]},
        "size": A.size,
        "tables": {sym: Table(table, A.size) for (sym, _), table in zip(A.signature.symbols, A.tables)},
    }


def jsonable(obj):
    """The JSON form of a certificate: each kind of record with a shape of
    its own has a branch here, and any other record gives its fields."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, FiniteAlgebra):
        return algebra_json(obj)
    if isinstance(obj, Verdict):
        out = {"claim": obj.claim, "status": obj.status}
        if obj.certificate is not None:
            out["certificate"] = jsonable(obj.certificate)
        if obj.notes:
            out["notes"] = list(obj.notes)
        return out
    if isinstance(obj, MembershipResult) and obj.holds:
        if obj.separating is None:
            return None
        return {"separating-maps": [list(h.mapping) for h in obj.separating]}
    if isinstance(obj, NotFoundWithinBound):
        return {"not-found-within-bound": obj.bound}
    if isinstance(obj, FunctionalityViolation):
        return {
            "functionality-violation": {
                "algebra": algebra_json(obj.algebra),
                "args": list(obj.args),
                "values": [obj.value_a, obj.value_b],
            }
        }
    if isinstance(obj, UniqueWitnessViolation):
        return {
            "unique-witness-violation": {
                "algebra": algebra_json(obj.algebra),
                "args": list(obj.args),
                "witnesses": [list(obj.witness_a), list(obj.witness_b)],
            }
        }
    if isinstance(obj, UndefinedAt):
        return {"undefined-at": {"op": obj.op_symbol, "args": list(obj.args)}}
    if isinstance(obj, Extension):
        return {"extension": {"algebra": algebra_json(obj.algebra), "embedding": list(obj.embedding.mapping)}}
    if isinstance(obj, Amalgam):
        return {
            "amalgam": algebra_json(obj.apex),
            "left-leg": list(obj.left_leg.mapping),
            "right-leg": list(obj.right_leg.mapping),
        }
    if isinstance(obj, FreeExtension):
        return {
            "reflected-size": obj.algebra.size,
            "unit-injective": obj.unit_injective,
            "unit-map": list(obj.unit.mapping),
            "factor-count": obj.factor_count,
            "reflected": algebra_json(obj.algebra),
        }
    if isinstance(obj, (tuple, list)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if hasattr(obj, "_fields"):
        return {name: jsonable(getattr(obj, name)) for name in sorted(obj._fields)}
    return repr(obj)


# ---------------------------------------------------------------------------
# flag value parsing


def parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.replace(" ", "").strip().strip(",").split("),"):
        part = part.strip("()")
        if not part:
            continue
        try:
            a, b = map(int, part.split(","))
        except ValueError:
            raise ValueError(f"--pairs: {part!r} is not a pair a,b of integers") from None
        pairs.append((a, b))
    return pairs


def parse_tuple(text: str) -> tuple[int, ...]:
    inner = text.replace(" ", "").strip().strip("()")
    if not inner:
        return ()
    out = []
    for x in inner.split(","):
        try:
            out.append(int(x))
        except ValueError:
            raise ValueError(f"--tuple: {x!r} is not an integer") from None
    return tuple(out)


def parse_map(text: str) -> dict[int, int]:
    """`a:b,...` as a dict.  Its errors name no flag: `_hom_from_flags`,
    which reads --map, --left-map and --right-map, adds the flag."""
    out = {}
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        try:
            a, b = map(int, part.split(":"))
        except ValueError:
            raise ValueError(f"{part!r} is not an entry a:b of integers") from None
        if a in out:
            raise ValueError(f"element {a} is given two images")
        out[a] = b
    return out


def _check_elements(A: FiniteAlgebra, values, flag: str) -> None:
    for v in values:
        if not 0 <= v < A.size:
            raise ValueError(f"--{flag}: {A.name} has no element {v} (its elements are 0..{A.size - 1})")


def _hom_from_flags(
    ws: Workspace, source: str, target: str, mapping: str, flag: str, language
) -> Homomorphism:
    A = ws.lookup("algebras", source)
    B = ws.lookup("algebras", target)
    try:
        m = parse_map(mapping)
    except ValueError as exc:
        raise ValueError(f"--{flag}: {exc}") from None
    _check_elements(A, m, flag)
    missing = [a for a in range(A.size) if a not in m]
    if missing:
        raise ValueError(f"--{flag}: no image given for element {missing[0]} of {A.name}")
    full = tuple(m[i] for i in range(A.size))
    h = Homomorphism(A, B, language, full)
    if not is_homomorphism(h):
        raise ValueError(f"the map {mapping!r} is not a homomorphism {source} -> {target}")
    return h


def _expansion_pair(ws: Workspace, name: str) -> tuple[ExpansionSpec, PpExpansionSpec | None]:
    spec = ws.lookup("expansions", name)
    if isinstance(spec, ExpansionSpec):
        return spec, None
    return induced_expansion(spec), spec


# ---------------------------------------------------------------------------
# command implementations; each returns its named verdicts, as
# (instance name, verdict, bound) triples, and its report params


def _flag(key: str) -> str:
    return key.replace("_", "-")


def run(command: str, ws: Workspace, flags: dict) -> tuple[Report, int]:
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    _, bound, handler = COMMANDS[command]
    for key in BOUNDS:
        if key in flags and key != bound:
            takes = f"--{_flag(bound)}" if bound else "no bound"
            raise ValueError(f"argument --{_flag(key)}: {command} takes {takes}")
    if bound:
        flags = {bound: BOUNDS[bound][0], **flags}
        # A bound below 1 admits no member, so a verdict over it is vacuous.
        value = flags[bound]
        if type(value) is not int or value < 1:
            raise ValueError(
                f"argument --{_flag(bound)}: must be an integer of at least 1, got {str(value)!r}"
            )
    verdicts, params = handler(ws, flags)
    # A handler whose verdicts its bound does not reach sets it to None.
    if bound and params.setdefault(_flag(bound), flags[bound]) is None:
        del params[_flag(bound)]
    instances = [_verdict_instance(*item) for item in verdicts]
    summary = f"{sum(v.holds for _, v, _ in verdicts)}/{len(verdicts)} hold"
    report = Report(check=command, params=params, instances=instances, summary=summary)
    return report, report.exit_code()


def _verdict_instance(name: str, v: Verdict, bound) -> dict:
    """The one place a report instance is built: a certificate that encodes
    to nothing, and notes of None, are left out."""
    inst = {"name": name, "bound": bound, "verdict": v.status}
    certificate = jsonable(v.certificate)
    if certificate is not None:
        inst["certificate"] = certificate
    if v.notes is not None:
        inst["notes"] = list(v.notes)
    return inst


def cmd_membership(ws, flags):
    A = ws.lookup("algebras", flags["algebra"])
    K = ws.lookup("quasivarieties", flags["in"])
    result = membership(A, K)
    v = Verdict("membership", "holds" if result.holds else "fails", result)
    return [(A.name, v, None)], {"algebra": A.name, "quasivariety": K.name}


def cmd_cg(ws, flags):
    A = ws.lookup("algebras", flags["algebra"])
    K = ws.lookup("quasivarieties", flags["in"])
    pairs = parse_pairs(flags["pairs"])
    _check_elements(A, [a for pair in pairs for a in pair], "pairs")
    theta = relative_congruence(A, pairs, K)
    blocks = theta.blocks()
    v = Verdict("relative-congruence", "holds", {
        "pairs": pairs, "partition": theta.partition, "blocks": blocks, "quotient-size": len(blocks),
    })
    return [(A.name, v, None)], {"algebra": A.name, "quasivariety": K.name, "pairs": flags["pairs"]}


def cmd_free(ws, flags):
    K = ws.lookup("quasivarieties", flags["in"])
    names = [n for n in flags["generators"].split(",") if n]
    T, gen_map = free_algebra(K, names, product_cap=flags["product_cap"])
    v = Verdict("free-algebra", "holds", {"size": T.size, "generator-map": gen_map, "algebra": T})
    return [(T.name, v, None)], {"quasivariety": K.name, "generators": flags["generators"]}


def cmd_expand(ws, flags):
    A = ws.lookup("algebras", flags["algebra"])
    spec = ws.lookup("expansions", flags["expansion"])
    if not isinstance(spec, PpExpansionSpec):
        raise ValueError("expand needs a pp expansion (QV + { ... })")
    require_member(A, spec.base)
    result = expand_algebra(A, spec)
    if isinstance(result, FiniteAlgebra):
        v = Verdict("expand", "holds", {"expanded": result})
    else:
        v = Verdict("expand", "fails", result)
    return [(A.name, v, None)], {"algebra": A.name, "expansion": flags["expansion"]}


def cmd_reflect(ws, flags):
    A = ws.lookup("algebras", flags["algebra"])
    E, _ = _expansion_pair(ws, flags["expansion"])
    v = Verdict("reflect", "holds", free_extension(A, E, product_cap=flags["product_cap"]))
    return [(A.name, v, None)], {"algebra": A.name, "expansion": flags["expansion"]}


def cmd_unit(ws, flags):
    E, _ = _expansion_pair(ws, flags["expansion"])
    bound = flags["max_size"]
    return [(A.name, v, bound) for A, v in check_unit_mono(E, bound)], {"expansion": flags["expansion"]}


def cmd_counit(ws, flags):
    """Every member's counit up to the bound, or with --algebra one member's,
    whose instance has no bound: then the bound is not echoed either."""
    E, _ = _expansion_pair(ws, flags["expansion"])
    params = {"expansion": flags["expansion"]}
    if flags.get("algebra"):
        B = ws.lookup("algebras", flags["algebra"])
        require_member(B, E.expanded)
        verdicts = [(B.name, counit_verdict(B, E), None)]
        params["max-size"] = None
    else:
        bound = flags["max_size"]
        verdicts = [(B.name, v, bound) for B, v in check_counit_iso(E, bound)]
    return verdicts, params


def cmd_check_simple(ws, flags):
    spec = ws.lookup("expansions", flags["expansion"])
    if not isinstance(spec, PpExpansionSpec):
        raise ValueError("check-simple needs a pp expansion")
    bound = flags["max_size"]
    return [(flags["expansion"], check_simple(spec, bound), bound)], {"expansion": flags["expansion"]}


def cmd_check_beth(ws, flags):
    spec = ws.lookup("expansions", flags["expansion"])
    if not isinstance(spec, PpExpansionSpec):
        raise ValueError("check-beth needs a pp expansion")
    ops = tuple(
        ws.lookup("ppops", name) for name in flags.get("ops", "").split(",") if name
    )
    bound = flags["max_size"]
    return [(flags["expansion"], check_beth_companion(spec, ops, bound), bound)], {
        "expansion": flags["expansion"],
        "ops": flags.get("ops", ""),
    }


def cmd_check_regular(ws, flags):
    M = ws.lookup("quasivarieties", flags["in"])
    h = _hom_from_flags(ws, flags["source"], flags["target"], flags["map"], "map", M.signature)
    bound = flags["ext_bound"]
    v = check_regular_mono(h, M, size_bound=bound)
    return [(f"{h.source.name}->{h.target.name}", v, bound)], {
        "quasivariety": M.name, "source": flags["source"], "target": flags["target"],
        "map": flags["map"],
    }


def cmd_check_extendable(ws, flags):
    s = ws.lookup("ppops", flags["ppop"])
    K = ws.lookup("quasivarieties", flags["in"])
    A = ws.lookup("algebras", flags["algebra"])
    args = parse_tuple(flags["tuple"])
    if len(args) != s.arity:
        raise ValueError(f"--tuple: {s.name} has arity {s.arity}, got {len(args)} entries")
    _check_elements(A, args, "tuple")
    bound = flags["ext_bound"]
    return [(A.name, check_extendable(s, K, A, args, bound), bound)], {
        "ppop": s.name, "quasivariety": K.name, "algebra": A.name, "tuple": flags["tuple"],
    }


def cmd_check_unique_witnesses(ws, flags):
    s = ws.lookup("ppops", flags["ppop"])
    K = ws.lookup("quasivarieties", flags["in"])
    bound = flags["max_size"]
    return [(s.name, check_unique_witnesses(s, K, bound), bound)], {"ppop": s.name, "quasivariety": K.name}


def cmd_term_equiv(ws, flags):
    M1 = ws.lookup("quasivarieties", flags["m1"])
    M2 = ws.lookup("quasivarieties", flags["m2"])
    tau = ws.lookup("translations", flags["tau"])
    rho = ws.lookup("translations", flags["rho"])
    K = ws.lookup("quasivarieties", flags["in"])
    bound = flags["max_size"]
    v = check_faithful_term_equivalence(M1, M2, tau, rho, K, bound)
    verdicts = [(f"{M1.name}~{M2.name}", v, bound)]
    if flags.get("transfer") and v.holds:
        t = check_simplicity_transfer(M1, M2, tau, rho, K, bound, equivalence=v)
        verdicts.append(("simplicity-transfer", t, bound))
    return verdicts, {
        "m1": M1.name, "m2": M2.name, "tau": flags["tau"], "rho": flags["rho"],
        "quasivariety": K.name,
    }


def cmd_cross_validate(ws, flags):
    E, P = _expansion_pair(ws, flags["expansion"])
    if flags.get("pp_expansion"):
        P = ws.lookup("expansions", flags["pp_expansion"])
        if not isinstance(P, PpExpansionSpec):
            raise ValueError("--pp-expansion must name a pp expansion")
    bound = flags["max_size"]
    verdicts = cross_validate_main_theorem(E, P, bound)
    return [(name, v, bound) for name, v in verdicts.items()], {"expansion": flags["expansion"]}


def cmd_amalgamate(ws, flags):
    K = ws.lookup("quasivarieties", flags["in"])
    A = ws.lookup("algebras", flags["apex"])
    B = ws.lookup("algebras", flags["left"])
    C = ws.lookup("algebras", flags["right"])
    f = _hom_from_flags(ws, flags["apex"], flags["left"], flags["left_map"], "left-map", K.signature)
    g = _hom_from_flags(ws, flags["apex"], flags["right"], flags["right_map"], "right-map", K.signature)
    bound = flags["ext_bound"]
    v = bounded_amalgamation(A, B, C, f, g, K, bound)
    return [(f"{B.name}<-{A.name}->{C.name}", v, bound)], {"quasivariety": K.name}


def cmd_enumerate(ws, flags):
    K = ws.lookup("quasivarieties", flags["in"])
    n = flags["size"]
    return [
        (A.name, Verdict("member", "holds", {"algebra": A}), n) for A in enumerate_members(K, n)
    ], {"quasivariety": K.name}


COMMANDS = {
    "membership": (["--algebra", "--in"], None, cmd_membership),
    "cg": (["--algebra", "--in", "--pairs"], None, cmd_cg),
    "free": (["--in", "--generators"], "product_cap", cmd_free),
    "expand": (["--algebra", "--expansion"], None, cmd_expand),
    "reflect": (["--algebra", "--expansion"], "product_cap", cmd_reflect),
    "unit": (["--expansion"], "max_size", cmd_unit),
    "counit": (["--expansion", "--algebra?"], "max_size", cmd_counit),
    "check-simple": (["--expansion"], "max_size", cmd_check_simple),
    "check-beth": (["--expansion", "--ops"], "max_size", cmd_check_beth),
    "check-regular": (["--in", "--source", "--target", "--map"], "ext_bound", cmd_check_regular),
    "check-extendable": (
        ["--ppop", "--in", "--algebra", "--tuple"], "ext_bound", cmd_check_extendable
    ),
    "check-unique-witnesses": (["--ppop", "--in"], "max_size", cmd_check_unique_witnesses),
    "term-equiv": (
        ["--m1", "--m2", "--tau", "--rho", "--in", "--transfer?flag"], "max_size", cmd_term_equiv
    ),
    "cross-validate": (["--expansion", "--pp-expansion?"], "max_size", cmd_cross_validate),
    "amalgamate": (
        ["--in", "--apex", "--left", "--right", "--left-map", "--right-map"], "ext_bound", cmd_amalgamate
    ),
    "enumerate": (["--in"], "size", cmd_enumerate),
}


def build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qvbench", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    for name, (flag_specs, bound, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--workspace", required=True, help="workspace file to load")
        p.add_argument("--report", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if bound:
            default, text = BOUNDS[bound]
            p.add_argument(f"--{_flag(bound)}", type=int, dest=bound, help=f"{text} (default {default})")
        for f in flag_specs:
            base = f.split("?")[0]
            dest = base.lstrip("-").replace("-", "_")
            if f.endswith("?flag"):
                p.add_argument(base, action="store_true", dest=dest)
            elif "?" in f:
                p.add_argument(base, default=None, dest=dest)
            else:
                p.add_argument(base, required=True, dest=dest)
    return top


def main(argv=None) -> int:
    parser = build_argparser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    flags = {k: v for k, v in vars(ns).items() if v is not None}
    try:
        ws = load_workspace(ns.workspace)
        report, code = run(ns.command, ws, flags)
        payload = emit_report(report, ns.format)
        if ns.report:
            with open(ns.report, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception:
        import traceback  # only on a crash: the module adds to every start-up

        traceback.print_exc()
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
