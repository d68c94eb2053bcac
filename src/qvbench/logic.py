"""Terms, equations, quasiequations, and primitive positive formulas, with
evaluation on finite algebras.

Every evaluation goes through `compile_term`, which turns a term into one
function of flat table lookups; the checks here compile once per call and
then enumerate assignments.

Conjunctions are flat lists: satisfaction does not depend on bracketing or
order.  Existential witnesses are reported lexicographically least, so every
search result is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable

from .core import FiniteAlgebra, Signature, SignatureError


class LogicError(ValueError):
    pass


class UnboundVariableError(LogicError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple = ()


Term = Var | App


@dataclass(frozen=True)
class Equation:
    left: Term
    right: Term


@dataclass(frozen=True)
class Quasiequation:
    premises: tuple[Equation, ...]
    conclusion: Equation


@dataclass(frozen=True)
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


def rename_term(t: Term, renaming: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(renaming.get(t.name, t.name))
    return App(t.symbol, tuple(rename_term(a, renaming) for a in t.args))


def rename_equation(eq: Equation, renaming: dict[str, str]) -> Equation:
    return Equation(rename_term(eq.left, renaming), rename_term(eq.right, renaming))


def compile_term(signature: Signature, t: Term, variables) -> Callable:
    """The one term evaluator.  Compiles `t` into `f(tables, n, values)`, a
    single expression of table lookups on flat row-major indices (last
    argument fastest, as in `FiniteAlgebra.tables`): `tables` follow
    `signature.symbols`, `n` is the universe size and `values[i]` is the value
    of `variables[i]`.  `f` returns None when it reads an unassigned (None)
    cell.  Unbound variables and symbol or arity mismatches raise here, at
    compile time."""
    position = {v: i for i, v in enumerate(variables)}
    slot = {sym: i for i, (sym, _) in enumerate(signature.symbols)}

    def source(u: Term) -> str:
        if isinstance(u, Var):
            if u.name not in position:
                raise UnboundVariableError(f"unbound variable {u.name!r}")
            return f"v[{position[u.name]}]"
        k = signature.arity(u.symbol)
        if k != len(u.args):
            raise SignatureError(f"{u.symbol}/{k} applied to {len(u.args)} arguments")
        index = "0"
        for i, child in enumerate(u.args):
            index = source(child) if i == 0 else f"({index})*n+{source(child)}"
        return f"T[{slot[u.symbol]}][{index}]"

    return _function(source(t))


@lru_cache(maxsize=4096)
def _function(expression: str) -> Callable:
    """One function per distinct expression.  The expression holds only
    integers and fixed names, so equal terms at equal table slots and variable
    positions share it.  A None read surfaces as the TypeError of using None
    as an index or in the index arithmetic."""
    scope: dict = {}
    exec(
        "def f(T, n, v):\n"
        "    try:\n"
        f"        return {expression}\n"
        "    except TypeError:\n"
        "        return None\n",
        scope,
    )
    return scope["f"]


def _compile_equation(signature: Signature, eq: Equation, variables) -> tuple[Callable, Callable]:
    return compile_term(signature, eq.left, variables), compile_term(signature, eq.right, variables)


def eval_term(A: FiniteAlgebra, t: Term, assignment: dict[str, int]) -> int:
    f = compile_term(A.signature, t, list(assignment))
    return f(A.tables, A.size, list(assignment.values()))


def holds(A: FiniteAlgebra, eq: Equation, assignment: dict[str, int]) -> bool:
    return eval_term(A, eq.left, assignment) == eval_term(A, eq.right, assignment)


def compile_pp(signature: Signature, phi: PpFormula, free) -> Callable:
    """Compile the body of `phi` for the assigned variables `free`.  Returns
    `witnesses(tables, n, values)`: a generator, in lexicographic order, of the
    witness tuples that satisfy the body on total tables when `free` take
    `values`."""
    body = [_compile_equation(signature, eq, [*free, *phi.bound_vars]) for eq in phi.body]
    width = len(phi.bound_vars)

    def witnesses(tables, n: int, values):
        values = tuple(values)
        for witness in iproduct(range(n), repeat=width):
            env = values + witness
            for left, right in body:
                if left(tables, n, env) != right(tables, n, env):
                    break
            else:
                yield witness

    return witnesses


def satisfies_pp(
    A: FiniteAlgebra, phi: PpFormula, assignment: dict[str, int]
) -> tuple[bool, dict[str, int] | None]:
    """Existential search over all witness tuples; returns the first witness in
    lexicographic order when satisfied."""
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
