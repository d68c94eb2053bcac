"""Terms, equations, quasiequations, and primitive positive formulas, with
evaluation on finite algebras.

Every evaluation goes through `_lookups`, the only translator from terms to
table lookups.  `compile_term` wraps one term's expression in a function,
and `compile_pp` wraps a pp body in one generated search with a loop per
bound variable, on total tables.  The partial form of `compile_term` reads
tables with unassigned cells: its value is the term's value or the marker of
the first unassigned cell it reads, so a caller learns which cell the value
waits on.  The checks here compile once per call and then enumerate
assignments.

Every generated source becomes a function through `_define`, the package's
one code cache, which compiles once per shape: sources that differ only in
their table slots `T[k]` and variable indices `v[i]` share one compile, and
each function gets its own ints back in the constants of that code.

Conjunctions are flat lists: satisfaction does not depend on bracketing or
order.  Existential witnesses are reported lexicographically least, so every
search result is deterministic.
"""
from __future__ import annotations

import opcode
import re
from functools import lru_cache
from itertools import product as iproduct
from types import FunctionType
from typing import Callable

from .core import FiniteAlgebra, Signature, SignatureError, record


class LogicError(ValueError):
    pass


class UnboundVariableError(LogicError):
    pass


@record
class Var:
    name: str


@record
class App:
    symbol: str
    args: tuple = ()


Term = Var | App


@record
class Equation:
    left: Term
    right: Term


@record
class Quasiequation:
    premises: tuple[Equation, ...]
    conclusion: Equation


@record
class PpFormula:
    """Existentially quantified conjunction of equations."""
    bound_vars: tuple[str, ...]
    body: tuple[Equation, ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise LogicError("pp formula needs a nonempty body")
        if len(set(self.bound_vars)) != len(self.bound_vars):
            raise LogicError("bound variables must be distinct")

    def free_vars(self) -> list[str]:
        return sorted(equations_variables(self.body) - set(self.bound_vars))


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for child in t.args:
        out |= term_variables(child)
    return out


def equations_variables(eqs) -> set[str]:
    out: set[str] = set()
    for eq in eqs:
        out |= term_variables(eq.left) | term_variables(eq.right)
    return out


def _lookups(signature: Signature, t: Term, name, partial: bool = False) -> str:
    """The one translator from terms to lookups: `t` as a single Python
    expression of table lookups on flat row-major indices (last argument
    fastest, as in `FiniteAlgebra.tables`), where `T[i]` is the table of
    `signature.symbols[i]`, `n` the universe size and `name[v]` the
    expression that reads variable v.  Unbound variables and symbol or arity
    mismatches raise here, at compile time.

    The partial form is guarded: it reads tables whose unassigned cells hold
    negative ints.  Each lookup that is an argument of another is bound to a
    name and tested before anything indexes with it; a negative one is the
    value of the whole expression.  So the expression gives the term's value
    or the content of the first unassigned cell it reads, in evaluation
    order: arguments left to right, each before the lookup it indexes."""
    slot = {sym: i for i, (sym, _) in enumerate(signature.symbols)}
    bound: list[str] = []

    def source(u: Term) -> str:
        if isinstance(u, Var):
            if u.name not in name:
                raise UnboundVariableError(f"unbound variable {u.name!r}")
            return name[u.name]
        k = signature.arity(u.symbol)
        if k != len(u.args):
            raise SignatureError(f"{u.symbol}/{k} applied to {len(u.args)} arguments")
        index, guards = "0", ""
        for i, child in enumerate(u.args):
            arg = source(child)
            if partial and isinstance(child, App):
                r = f"r{len(bound)}"
                bound.append(r)
                guards += f"{r} if ({r} := {arg}) < 0 else "
                arg = r
            index = arg if i == 0 else f"({index})*n+{arg}"
        return f"{guards}T[{slot[u.symbol]}][{index}]"

    return source(t)


def compile_term(signature: Signature, t: Term, variables, partial: bool = False) -> Callable:
    """The one term evaluator.  Compiles `t` into `f(tables, n, values)`, the
    expression of `_lookups` with `values[i]` the value of `variables[i]`.

    With `partial` the tables may have unassigned cells, each holding a
    negative int of the caller's choosing, its marker, and `f` is the
    guarded expression.  It returns the value of `t` when every cell it
    reads is assigned, and otherwise the marker of the first unassigned cell
    it reads.  That cell stays on the evaluation path while the cells read
    before it keep their values: the value of `t` waits on it."""
    name = {v: f"v[{i}]" for i, v in enumerate(variables)}
    return _define(f"def f(T, n, v):\n    return {_lookups(signature, t, name, partial)}\n")


# A table slot `T[k]` or a variable index `v[i]` of a generated source.
_INDEX = re.compile(r"(?<=[Tv]\[)(\d+)")
# The first placeholder.  Placeholders are large, so the compiler loads each
# one from `co_consts`, where `_define` can put the source's own int.
_HOLE = 1 << 40


@lru_cache(maxsize=4096)
def _define(source: str) -> Callable:
    """The function `f` that `source` defines, one per distinct source, built
    from the one compile of its shape: the source with its j-th `T[k]` or
    `v[i]` index replaced by the placeholder `_HOLE + j`, so that sources
    that differ only in those indices share it.

    The function has the code of a direct compile of `source`.  That keeps
    one constant per distinct value, so the placeholders are replaced by the
    source's ints, equal constants are merged in order of first use, and
    each instruction that loads a constant reads its value's slot.  The
    indices must lie in `f`'s own code, not in a nested function.  A shape
    with more than 256 constants would need `EXTENDED_ARG` prefixes, so
    such a source, and one without indices, such as a product kernel, is
    compiled as it is."""
    pieces = _INDEX.split(source)
    ints = [int(k) for k in pieces[1::2]]
    pieces[1::2] = map(str, range(_HOLE, _HOLE + len(ints)))
    f = _shape("".join(pieces))
    code = f.__code__
    if not ints or len(code.co_consts) > 256:
        return _shape(source)
    first: dict = {}
    slot = bytes(
        first.setdefault((type(c), c), len(first))
        for c in (ints[c - _HOLE] if type(c) is int and c >= _HOLE else c for c in code.co_consts)
    )
    raw = bytearray(code.co_code)
    for at in range(0, len(raw), 2):
        if raw[at] in opcode.hasconst:
            raw[at + 1] = slot[raw[at + 1]]
    code = code.replace(co_code=bytes(raw), co_consts=tuple(c for _, c in first))
    return FunctionType(code, f.__globals__)


@lru_cache(maxsize=4096)
def _shape(shape: str) -> Callable:
    """The function `f` that `shape` defines: the one compile per shape."""
    scope: dict = {}
    exec(shape, scope)
    return scope["f"]


def _compile_equation(signature: Signature, eq: Equation, variables) -> tuple[Callable, Callable]:
    return compile_term(signature, eq.left, variables), compile_term(signature, eq.right, variables)


def compile_pp(signature: Signature, phi: PpFormula, free) -> Callable:
    """Compile the body of `phi` for the assigned variables `free`.  Returns
    `witnesses(tables, n, values)`: a generator, in lexicographic order, of the
    witness tuples that satisfy the body on total tables when `free` take
    `values`.

    The generator is one generated function with a nested loop per bound
    variable, in the order of `phi.bound_vars`.  Each equation is tested in
    the loop of its last bound variable, so a failing partial witness prunes
    every extension of it; an equation over assigned variables alone is
    tested once, before any loop."""
    name = {v: f"a{i}" for i, v in enumerate(free)}
    name.update((v, f"w{j}") for j, v in enumerate(phi.bound_vars))
    depth = {v: j + 1 for j, v in enumerate(phi.bound_vars)}
    tests: list[list[str]] = [[] for _ in range(len(phi.bound_vars) + 1)]
    for eq in phi.body:
        d = max((depth.get(v, 0) for v in equations_variables([eq])), default=0)
        left, right = (_lookups(signature, side, name) for side in (eq.left, eq.right))
        tests[d].append(f"{left} != {right}")
    lines = ["def f(T, n, v):"]
    if free:
        lines.append(f"    {''.join(f'a{i}, ' for i in range(len(free)))}= v")
    for d, conditions in enumerate(tests):
        pad = "    " * (d + 1)
        if d:
            lines.append(f"{pad[4:]}for w{d - 1} in range(n):")
        if conditions:
            lines.append(f"{pad}if {' or '.join(conditions)}:")
            lines.append(f"{pad}    {'continue' if d else 'return'}")
    witness = "".join(f"w{j}, " for j in range(len(phi.bound_vars)))
    lines.append(f"{pad}yield ({witness})")
    return _define("\n".join(lines) + "\n")


def satisfies_pp(
    A: FiniteAlgebra, phi: PpFormula, assignment: dict[str, int]
) -> tuple[bool, dict[str, int] | None]:
    """Existential search with the `compile_pp` kernel; returns the first
    witness in lexicographic order when satisfied."""
    witnesses = compile_pp(A.signature, phi, list(assignment))
    witness = next(witnesses(A.tables, A.size, list(assignment.values())), None)
    if witness is None:
        return False, None
    return True, dict(zip(phi.bound_vars, witness))


def check_quasiequation(
    A: FiniteAlgebra, q: Quasiequation
) -> tuple[bool, dict[str, int] | None]:
    """Full enumeration over assignments to the occurring variables; a failure
    reports the lexicographically least violating assignment (variables sorted
    by name): every premise evaluates to equal values and the conclusion to
    two different ones."""
    names = sorted(equations_variables((*q.premises, q.conclusion)))
    premises = [_compile_equation(A.signature, p, names) for p in q.premises]
    left, right = _compile_equation(A.signature, q.conclusion, names)
    T, n = A.tables, A.size
    for values in iproduct(range(n), repeat=len(names)):
        if left(T, n, values) != right(T, n, values) and all(
            p_left(T, n, values) == p_right(T, n, values) for p_left, p_right in premises
        ):
            return False, dict(zip(names, values))
    return True, None
