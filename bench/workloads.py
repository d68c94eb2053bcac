"""Workloads of the qvbench benchmark: command lists, the seeded relabelling
of the benchmark workspace, and reference answers that do not come from
qvbench.

Each workload is a list of CLI commands run through `qvbench.cli.run` and
`emit_report`.  Every command carries the exit code it must give and a check
of its report against a reference with stated provenance.  A check returns a
list of mismatch messages; an empty list means the answer is right.
"""
from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

BENCH_WORKSPACE = "bench/workspace.qvw"
FIXTURE_WORKSPACE = "workspaces/fixtures.qvw"

# A report check gets the parsed report and the relabelling of the workspace
# the command ran on (algebra name -> permutation, old label -> new label).
Check = Callable[[dict, dict], list]


@dataclass(frozen=True)
class Command:
    label: str
    command: str
    flags: dict
    exit: int
    check: Check | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # The fixture suite runs like scripts/run_fixture_suite.py: on the
    # unchanged fixtures, re-parsed per command.  Its flags name element
    # indices, so it ignores the seed.  Every other workload runs on the
    # benchmark workspace, relabelled by the seed and parsed once.
    fixture_suite: bool = False

    @property
    def workspace(self) -> str:
        return FIXTURE_WORKSPACE if self.fixture_suite else BENCH_WORKSPACE


# ---------------------------------------------------------------------------
# Seeded relabelling of workspace algebras


_ALGEBRA_RE = re.compile(r"^algebra\s+(\w+)\s*:")
_UNIVERSE_RE = re.compile(r"^\s*universe\s+(\d+)\s*$")
_OP_RE = re.compile(r"^(\s*)op\s+(\w+)\s*=\s*(.+?)\s*$")


def permutation_for(seed: int, name: str, size: int) -> tuple:
    """The seeded permutation applied to algebra `name`: old label -> new."""
    perm = list(range(size))
    random.Random(f"{seed}:{name}").shuffle(perm)
    return tuple(perm)


def _flatten(nested, arity: int) -> list:
    if arity == 0:
        return [nested]
    if arity == 1:
        return list(nested)
    return [v for row in nested for v in _flatten(row, arity - 1)]


def _arity(value) -> int:
    k = 0
    while isinstance(value, list):
        value = value[0]
        k += 1
    return k


def _nest(flat: list, arity: int, size: int):
    if arity == 0:
        return flat[0]
    if arity == 1:
        return flat
    step = size ** (arity - 1)
    return [_nest(flat[i * step:(i + 1) * step], arity - 1, size) for i in range(size)]


def relabel_table(value, perm: tuple):
    """Table of the relabelled operation: new[p(a1),...,p(ak)] = p(old[a1,...,ak])."""
    size = len(perm)
    arity = _arity(value)
    old = _flatten(value, arity)
    new = [0] * len(old)
    for flat, args in enumerate(itertools.product(range(size), repeat=arity)):
        target = 0
        for a in args:
            target = target * size + perm[a]
        new[target] = perm[old[flat]]
    return _nest(new, arity, size)


def relabel_workspace(text: str, seed: int) -> tuple[str, dict]:
    """Permute the element labels of every algebra block by a permutation
    drawn from `seed`.  Returns the new text and the permutation per algebra."""
    out, perms = [], {}
    name = size = None
    for line in text.splitlines():
        m = _ALGEBRA_RE.match(line)
        if m:
            name, size = m.group(1), None
        elif name is not None and line.strip() == "}":
            name = None
        elif name is not None and _UNIVERSE_RE.match(line):
            size = int(_UNIVERSE_RE.match(line).group(1))
            perms[name] = permutation_for(seed, name, size)
        elif name is not None and _OP_RE.match(line):
            indent, sym, rhs = _OP_RE.match(line).groups()
            table = relabel_table(json.loads(rhs), perms[name])
            line = f"{indent}op {sym} = {json.dumps(table, separators=(',', ':'))}"
        out.append(line)
    return "\n".join(out) + "\n", perms


# ---------------------------------------------------------------------------
# Reference checks


def _op(alg: dict, sym: str):
    """A constant's value, or a binary operation as a function."""
    n, table = alg["size"], alg["tables"][sym]
    arity = dict(alg["signature"]["symbols"])[sym]
    if arity == 0:
        return table[0]
    return lambda a, b: table[a * n + b]


def semilattice_errors(alg: dict, sym: str, unit: str | None, zero: str | None) -> list:
    """Brute-force check that `sym` is an idempotent, commutative, associative
    operation with the given unit and absorbing element."""
    n, f = alg["size"], _op(alg, sym)
    errors = []
    for a, b in itertools.product(range(n), repeat=2):
        if f(a, a) != a or f(a, b) != f(b, a):
            errors.append(f"{sym} not idempotent/commutative at {a},{b}")
            break
    for a, b, c in itertools.product(range(n), repeat=3):
        if f(f(a, b), c) != f(a, f(b, c)):
            errors.append(f"{sym} not associative at {a},{b},{c}")
            break
    for name, absorbs in ((unit, False), (zero, True)):
        if name is None:
            continue
        e = _op(alg, name)
        if any(f(a, e) != (e if absorbs else a) for a in range(n)):
            errors.append(f"{name} is not the {'zero' if absorbs else 'unit'} of {sym}")
    return errors


def distributive_lattice_errors(alg: dict) -> list:
    errors = semilattice_errors(alg, "meet", "top", "bot") + semilattice_errors(alg, "join", "bot", "top")
    n, meet, join = alg["size"], _op(alg, "meet"), _op(alg, "join")
    for a, b in itertools.product(range(n), repeat=2):
        if meet(a, join(a, b)) != a:
            errors.append(f"absorption fails at {a},{b}")
            break
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
            errors.append(f"distributivity fails at {a},{b},{c}")
            break
    return errors


def members(count: int, size: int, laws: Callable[[dict], list]) -> Check:
    """`count` instances, each a size-`size` algebra obeying `laws`."""
    def check(report: dict, perms: dict) -> list:
        insts = report["instances"]
        errors = [] if len(insts) == count else [f"{len(insts)} classes, expected {count}"]
        for inst in insts:
            alg = inst["certificate"]["algebra"]
            if alg["size"] != size:
                errors.append(f"{inst['name']} has size {alg['size']}, expected {size}")
            else:
                errors += [f"{inst['name']}: {e}" for e in laws(alg)]
        return errors
    return check


def msl_laws(alg):
    return semilattice_errors(alg, "meet", "top", "bot")


def mon_laws(alg):
    return semilattice_errors(alg, "mul", "e", None)


def certificate(**expected) -> Check:
    """The single instance's certificate has these field values."""
    def check(report: dict, perms: dict) -> list:
        cert = report["instances"][0].get("certificate", {})
        return [
            f"{k} = {cert.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if cert.get(k) != v
        ]
    return check


def summary(text: str) -> Check:
    """The report's verdict tally, e.g. '5/5 hold'."""
    def check(report: dict, perms: dict) -> list:
        return [] if report["summary"] == text else [f"summary {report['summary']!r}, expected {text!r}"]
    return check


def all_of(*checks: Check) -> Check:
    def check(report: dict, perms: dict) -> list:
        return [e for c in checks for e in c(report, perms)]
    return check


def counit_msl_dl(report: dict, perms: dict) -> list:
    # The five-element lattice that is not distributive has no DL counit
    # preimage: one failing instance, whose reflection has 5 elements.
    bad = [i for i in report["instances"] if i["verdict"] == "fails"]
    if len(bad) == 1 and bad[0]["certificate"]["reflected-size"] == 5:
        return []
    return [f"failing instances {[(i['name'], i['certificate']) for i in bad]}"]


def term_equiv_names(report: dict, perms: dict) -> list:
    names = [i["name"] for i in report["instances"]]
    return [] if names == ["BOOL~BIMPQ", "simplicity-transfer"] else [f"instances {names}"]


def xor_table(report: dict, perms: dict) -> list:
    """The induced xor on Bool8 is bitwise XOR, carried through Bool8's
    relabelling."""
    alg = report["instances"][0]["certificate"]["expanded"]
    p, n = perms.get("Bool8", tuple(range(8))), alg["size"]
    table = alg["tables"].get("xor")
    want = [0] * (n * n)
    for a, b in itertools.product(range(n), repeat=2):
        want[p[a] * n + p[b]] = p[a ^ b]
    return [] if table == want else ["xor table differs from bitwise XOR"]


def undefined_at(report: dict, perms: dict) -> list:
    # Box12 = Chain3 x Bool4 has uncomplemented elements, so xorpp is partial.
    inst = report["instances"][0]
    if inst["verdict"] == "fails" and "undefined-at" in inst.get("certificate", {}):
        return []
    return [f"verdict {inst['verdict']}, certificate {inst.get('certificate')}"]


# ---------------------------------------------------------------------------
# The four workloads


# The 27 checks of scripts/run_fixture_suite.py, frozen here so the workload
# cannot change under a later commit.  Exit codes and tallies are those the
# tests in tests/test_cli.py assert; class counts are OEIS A006982
# (distributive lattices: 1,1,1,2 for n = 1..4) and A006966 (lattices:
# 1,1,1,2); free algebras are M(2) = 6 and 2^(2^2) = 16.
SUITE_B4 = Workload("suite-b4", (
    Command("membership-chain3", "membership", {"algebra": "Chain3", "in": "DL"}, 0, summary("1/1 hold")),
    Command("cg-chain3-total", "cg", {"algebra": "Chain3", "in": "DL", "pairs": "(0,2)"}, 0,
            certificate(**{"quotient-size": 1, "partition": [0, 0, 0]})),
    Command("cg-chain3-upper", "cg", {"algebra": "Chain3", "in": "DL", "pairs": "(1,2)"}, 0,
            certificate(**{"quotient-size": 2})),
    Command("free-dl-2", "free", {"in": "DL", "generators": "x,y"}, 0, certificate(size=6)),
    Command("free-bool-2", "free", {"in": "BOOL", "generators": "x,y"}, 0, certificate(size=16)),
    Command("expand-diamond", "expand", {"algebra": "Diamond", "expansion": "DLcompl"}, 0, summary("1/1 hold")),
    Command("expand-chain3", "expand", {"algebra": "Chain3", "expansion": "DLcompl"}, 1, summary("0/1 hold")),
    Command("reflect-chain3", "reflect", {"algebra": "Chain3", "expansion": "DLtoBOOL"}, 0,
            certificate(**{"reflected-size": 4, "unit-injective": True})),
    Command("reflect-diamond-msl", "reflect", {"algebra": "DiamondMS", "expansion": "MSLtoDL"}, 0,
            summary("1/1 hold")),
    Command("unit-dl-bool", "unit", {"expansion": "DLtoBOOL", "max_size": 4}, 0, summary("5/5 hold")),
    Command("unit-msl-dl", "unit", {"expansion": "MSLtoDL", "max_size": 4}, 0, summary("5/5 hold")),
    Command("counit-dl-bool", "counit", {"expansion": "DLtoBOOL", "max_size": 4}, 0, summary("3/3 hold")),
    Command("counit-msl-dl", "counit", {"expansion": "MSLtoDL", "max_size": 4}, 1,
            all_of(summary("4/5 hold"), counit_msl_dl)),
    Command("check-simple-compl", "check-simple", {"expansion": "DLcompl", "max_size": 4}, 0, summary("1/1 hold")),
    Command("check-simple-jc", "check-simple", {"expansion": "DLjc", "max_size": 4}, 1, summary("0/1 hold")),
    Command("check-beth-compl", "check-beth", {"expansion": "DLcompl", "ops": "compl", "max_size": 4}, 0,
            summary("1/1 hold")),
    Command("check-regular-twoba", "check-regular",
            {"in": "BOOL", "source": "TwoBA", "target": "FourBA", "map": "0:0,1:3", "ext_bound": 4}, 0,
            summary("1/1 hold")),
    Command("check-extendable-chain3", "check-extendable",
            {"ppop": "compl", "in": "DL", "algebra": "Chain3", "tuple": "(1)", "ext_bound": 4}, 0,
            summary("1/1 hold")),
    Command("check-unique-witnesses-compl", "check-unique-witnesses",
            {"ppop": "compl", "in": "DL", "max_size": 4}, 0, summary("1/1 hold")),
    Command("check-unique-witnesses-padded", "check-unique-witnesses",
            {"ppop": "complpad", "in": "DL", "max_size": 4}, 1, summary("0/1 hold")),
    Command("term-equiv-not-imp", "term-equiv",
            {"m1": "BOOL", "m2": "BIMPQ", "tau": "notToImp", "rho": "impToNot",
             "in": "DL", "max_size": 4, "transfer": True}, 0,
            all_of(summary("2/2 hold"), term_equiv_names)),
    Command("cross-validate-dl-bool", "cross-validate",
            {"expansion": "DLtoBOOL", "pp_expansion": "DLcompl", "max_size": 4}, 0, summary("4/4 hold")),
    Command("cross-validate-msl-dl", "cross-validate", {"expansion": "MSLtoDL", "max_size": 4}, 1,
            summary("1/3 hold")),
    Command("cross-validate-trivial", "cross-validate", {"expansion": "DLtriv", "max_size": 4}, 0,
            summary("3/3 hold")),
    Command("amalgamate-chains", "amalgamate",
            {"in": "DL", "apex": "Chain2", "left": "Chain3", "right": "Chain3",
             "left_map": "0:0,1:2", "right_map": "0:0,1:2", "ext_bound": 4}, 0, summary("1/1 hold")),
    Command("enumerate-dl-4", "enumerate", {"in": "DL", "size": 4}, 0, members(2, 4, distributive_lattice_errors)),
    Command("enumerate-msl-4", "enumerate", {"in": "MSLQ", "size": 4}, 0, members(2, 4, msl_laws)),
), fixture_suite=True)

# Class counts: OEIS A006982 (distributive lattices, 15 at n = 8) and A006966
# (lattices, 15 at n = 6).  Finite bounded meet-semilattices and finite
# idempotent commutative monoids are both lattices with the constants added.
ENUMERATE_B8 = Workload("enumerate-b8", (
    Command("enumerate-dl-8", "enumerate", {"in": "DL", "size": 8}, 0, members(15, 8, distributive_lattice_errors)),
    Command("enumerate-mslq-6", "enumerate", {"in": "MSLQ", "size": 6}, 0, members(15, 6, msl_laws)),
    Command("enumerate-monq-6", "enumerate", {"in": "MONQ", "size": 6}, 0, members(15, 6, mon_laws)),
))

# A006982 gives 1 distributive lattice of size 3; A006966 gives 2 lattices of
# size 4.
AXIOMATIC_B4 = Workload("axiomatic-b4", (
    Command("enumerate-dlax-3", "enumerate", {"in": "DLAX", "size": 3}, 0, members(1, 3, distributive_lattice_errors)),
    Command("enumerate-mslax-4", "enumerate", {"in": "MSLAX", "size": 4}, 0, members(2, 4, msl_laws)),
    Command("enumerate-monax-4", "enumerate", {"in": "MONAX", "size": 4}, 0, members(2, 4, mon_laws)),
))

# The free bounded distributive lattice on 4 generators has M(4) = 168
# elements (Dedekind).  The Boolean reflection of an n-chain has 2^(n-1)
# elements and an injective unit.  Complements are unique in a distributive
# lattice, so xorpp has unique witnesses.
REFLECT_PP = Workload("reflect-pp", (
    Command("free-dl-4", "free", {"in": "DL", "generators": "w,x,y,z"}, 0, certificate(size=168)),
    Command("reflect-chain8", "reflect", {"algebra": "Chain8", "expansion": "DLtoBOOL"}, 0,
            certificate(**{"reflected-size": 128, "unit-injective": True})),
    Command("expand-box12", "expand", {"algebra": "Box12", "expansion": "DLxor"}, 1, undefined_at),
    Command("expand-bool8", "expand", {"algebra": "Bool8", "expansion": "DLxor"}, 0, xor_table),
    Command("unique-witnesses-xor-6", "check-unique-witnesses", {"ppop": "xorpp", "in": "DL", "max_size": 6}, 0,
            summary("1/1 hold")),
))

WORKLOADS = {w.name: w for w in (SUITE_B4, ENUMERATE_B8, AXIOMATIC_B4, REFLECT_PP)}
