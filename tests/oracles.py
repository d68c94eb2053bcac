"""Brute-force oracles shared by the tests.  None of them calls the code it
checks: each recomputes its answer from the definitions, by exhaustive search
or direct recursion over the operation tables.

The end of the file keeps the helpers that only tests use and that no command
reaches: the workspace printer, the unique-witness harness, the parser's
fragment entry points and a few algebra helpers."""
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iproduct
from typing import NamedTuple

from qvbench.adjunction import ExpansionSpec, PpExpansionSpec, free_extension
from qvbench.beth import TermTranslation, Verdict, check_beth_companion, check_simple
from qvbench.core import (
    Congruence, FiniteAlgebra, Homomorphism, Signature, SignatureError, _permuted_tables,
    find_isomorphism, fingerprint, record, reduct, trivial_algebra,
)
from qvbench.implicit import (
    RESULT_VAR, FunctionalityViolation, ImplicitOpSpec, arg_var, check_totalizable,
    check_unique_witnesses, induced_partial_op, witness_var,
)
from qvbench.logic import (
    App, Equation, LogicError, PpFormula, Quasiequation, Term, UnboundVariableError, Var,
    _compile_equation, _lookups, equations_variables,
)
from qvbench.parser import DECL_KEYWORDS, ParseError, UnknownName, Workspace, _Parser
from qvbench.quasivariety import (
    CapExceeded, GenResult, Quasivariety, members_up_to, membership,
)


def build_algebra(name: str, signature: Signature, size: int, ops: dict) -> FiniteAlgebra:
    """Build an algebra from per-symbol specs: an int (nullary), a callable on
    argument tuples, or a nested row-major list (last argument innermost)."""
    tables = []
    for sym, k in signature.symbols:
        if sym not in ops:
            raise SignatureError(f"missing table for {sym!r}")
        spec = ops[sym]
        if callable(spec):
            table = tuple(spec(*args) for args in iproduct(range(size), repeat=k))
        elif isinstance(spec, int):
            if k != 0:
                raise SignatureError(f"bare element given for non-nullary {sym!r}")
            table = (spec,)
        else:
            table = tuple(_flatten_table(spec, k, size, sym))
        tables.append(table)
    extra = set(ops) - {sym for sym, _ in signature.symbols}
    if extra:
        raise SignatureError(f"tables for symbols not in signature: {sorted(extra)}")
    return FiniteAlgebra(name, signature, size, tuple(tables))


def table_error(name: str, signature: Signature, size: int, tables):
    """The exception that `FiniteAlgebra(name, signature, size, tables)`
    raises, or None: the per-table rule, each table's length and then the
    types, `min` and `max` of its cells, in signature order."""
    if size < 1:
        return ValueError("algebras must have at least one element")
    if len(tables) != len(signature.symbols):
        return SignatureError(
            f"{name!r}: expected {len(signature.symbols)} tables, got {len(tables)}"
        )
    for (sym, k), table in zip(signature.symbols, tables):
        if len(table) != size**k:
            return SignatureError(f"{name!r}: table for {sym}/{k} has wrong length")
        if set(map(type, table)) != {int} or min(table) < 0 or max(table) >= size:
            return ValueError(f"{name!r}: table for {sym} has out-of-universe entries")
    return None


def _flatten_table(nested, k: int, size: int, sym: str) -> list[int]:
    if k == 0:
        if isinstance(nested, list):
            (v,) = nested
            return [v]
        return [nested]
    if not isinstance(nested, (list, tuple)) or len(nested) != size:
        raise SignatureError(f"table for {sym!r} is not {size}-deep at level {k}")
    out: list[int] = []
    for row in nested:
        if k == 1:
            out.append(row)
        else:
            out.extend(_flatten_table(row, k - 1, size, sym))
    return out


@dataclass(frozen=True)
class PartialTables:
    """Operation tables in which some cells are unassigned (None), laid out
    like `FiniteAlgebra.tables`."""
    signature: Signature
    size: int
    tables: tuple

    def apply(self, sym, args):
        i = [s for s, _ in self.signature.symbols].index(sym)
        flat = 0
        for a in args:
            flat = flat * self.size + a
        return self.tables[i][flat]


@dataclass(frozen=True)
class Unassigned:
    """The unassigned cell `symbol(args)` of a PartialTables."""
    symbol: str
    args: tuple


def eval_term(A, t, assignment):
    """Structural recursion over the operation tables of a FiniteAlgebra or
    PartialTables, arguments left to right.  On partial tables it stops at
    the first unassigned cell it reads and returns that cell as Unassigned."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {t.name!r}") from None
    k = A.signature.arity(t.symbol)
    if k != len(t.args):
        raise SignatureError(f"{t.symbol}/{k} applied to {len(t.args)} arguments")
    args = []
    for a in t.args:
        value = eval_term(A, a, assignment)
        if isinstance(value, Unassigned):
            return value
        args.append(value)
    value = A.apply(t.symbol, tuple(args))
    return Unassigned(t.symbol, tuple(args)) if value is None else value


def pp_witnesses(signature, phi, free):
    """Reference for `logic.compile_pp`: every witness tuple in lexicographic
    order, each checked against the equations in body order, evaluated by
    `compile_term` (which `eval_term` checks) on the assigned values followed
    by the witness."""
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


def brute_homs(A, B, language, injective=False):
    """Every language-homomorphism A -> B, or with `injective` every
    one-to-one one, by testing each map in lexicographic order."""
    out = []
    maps = permutations(range(B.size), A.size) if injective else iproduct(range(B.size), repeat=A.size)
    for mapping in maps:
        ok = True
        for sym, k in language.symbols:
            for args in iproduct(range(A.size), repeat=k):
                if mapping[A.apply(sym, args)] != B.apply(sym, tuple(mapping[a] for a in args)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def canonical_form(A):
    """(size, lexicographically least tables over every relabelling of A),
    trying all permutations: two algebras over one signature are isomorphic
    iff their forms are equal."""
    n = A.size
    best = None
    for perm in permutations(range(n)):
        tables = []
        for (_, k), table in zip(A.signature.symbols, A.tables):
            relabelled = [0] * len(table)
            for flat, args in enumerate(iproduct(range(n), repeat=k)):
                image = 0
                for a in args:
                    image = image * n + perm[a]
                relabelled[image] = perm[table[flat]]
            tables.append(tuple(relabelled))
        if best is None or tuple(tables) < best:
            best = tuple(tables)
    return n, best


def _variables(t):
    if isinstance(t, Var):
        return {t.name}
    return set().union(*map(_variables, t.args))


def axiomatic_models(signature, axioms, n):
    """Canonical forms of the size-n models of the quasiequations `axioms`:
    every assignment of every table cell, kept when each quasiequation holds
    under every assignment of elements to its variables, as evaluated by
    `eval_term`."""
    def holds(A, eq, env):
        return eval_term(A, eq.left, env) == eval_term(A, eq.right, env)

    def satisfies(A, q, names):
        for values in iproduct(range(n), repeat=len(names)):
            env = dict(zip(names, values))
            if all(holds(A, p, env) for p in q.premises) and not holds(A, q.conclusion, env):
                return False
        return True

    algebras = _every_algebra(signature, n)
    kept = range(len(algebras))
    for q in axioms:
        if q.conclusion.left == q.conclusion.right:
            continue  # holds under every assignment; tests draw many such
        equations = (*q.premises, q.conclusion)
        names = sorted(set().union(*(_variables(e.left) | _variables(e.right) for e in equations)))
        kept = [i for i in kept if satisfies(algebras[i], q, names)]
    return {_form(signature, n, i) for i in kept}


@lru_cache(maxsize=4096)
def define(source: str):
    """Reference for `logic._define`: the function `f` that `source`
    defines, by one `exec` of the source itself, cached per source."""
    scope: dict = {}
    exec(source, scope)
    return scope["f"]


def _compile_or_none(signature, t, variables):
    """A term evaluator on tables whose unassigned cells are None: the
    unguarded expression of `_lookups`, with None when it reads one, which
    surfaces as the TypeError of indexing or computing with None."""
    expression = _lookups(signature, t, {v: f"v[{i}]" for i, v in enumerate(variables)})
    return define(
        "def f(T, n, v):\n"
        "    try:\n"
        f"        return {expression}\n"
        "    except TypeError:\n"
        "        return None\n"
    )


def axiomatic_search(signature, axioms, size):
    """Reference for `quasivariety._axiomatic_models`: the same cell order,
    least-number heuristic and leaves, but every node evaluates every
    instance still undecided on its branch on the partial tables, whichever
    cells it reads.  An instance whose premises all hold and whose
    conclusion fails prunes the branch; one with a false premise or a
    holding conclusion is dropped."""
    n = size
    cells = sorted(
        (max(args, default=-1), i, flat)
        for i, (_, k) in enumerate(signature.symbols)
        for flat, args in enumerate(iproduct(range(n), repeat=k))
    )
    instances = []
    for q in axioms:
        names = sorted(equations_variables((*q.premises, q.conclusion)))
        premises = tuple(
            (_compile_or_none(signature, p.left, names), _compile_or_none(signature, p.right, names))
            for p in q.premises
        )
        left = _compile_or_none(signature, q.conclusion.left, names)
        right = _compile_or_none(signature, q.conclusion.right, names)
        instances += [
            (left, right, premises, values)
            for values in iproduct(range(n), repeat=len(names))
        ]
    tables = [[None] * n**k for _, k in signature.symbols]

    def undecided(pending):
        """The pending instances still undecided, or None if one is violated."""
        rest = []
        for instance in pending:
            left, right, premises, values = instance
            a, b = left(tables, n, values), right(tables, n, values)
            if a is not None and a == b:
                continue
            unknown = a is None or b is None
            for p_left, p_right in premises:
                c, d = p_left(tables, n, values), p_right(tables, n, values)
                if c is None or d is None:
                    unknown = True
                elif c != d:
                    break
            else:
                if not unknown:
                    return None
                rest.append(instance)
        return rest

    found = []

    def rec(ci, pending, mx):
        if ci == len(cells):
            found.append(FiniteAlgebra(f"model{n}", signature, n, tuple(map(tuple, tables))))
            return
        top, i, flat = cells[ci]
        mx = max(mx, top)
        for v in range(min(n, mx + 2)):
            tables[i][flat] = v
            rest = undecided(pending)
            if rest is not None:
                rec(ci + 1, rest, max(mx, v))
        tables[i][flat] = None

    pending = undecided(instances)
    if pending is not None:
        rec(0, pending, -1)
    return found


@lru_cache(maxsize=None)
def _every_algebra(signature, n):
    """Every algebra on 0..n-1 over `signature`, one per table assignment."""
    shapes = [n**k for _, k in signature.symbols]
    out = []
    for cells in iproduct(range(n), repeat=sum(shapes)):
        tables, start = [], 0
        for width in shapes:
            tables.append(cells[start:start + width])
            start += width
        out.append(FiniteAlgebra("M", signature, n, tuple(tables)))
    return tuple(out)


@lru_cache(maxsize=None)
def _form(signature, n, i):
    """`canonical_form` of the i-th of `_every_algebra(signature, n)`."""
    return canonical_form(_every_algebra(signature, n)[i])


def direct_product(factors):
    """Reference for `core.direct_product`: every argument tuple over the
    product decoded into coordinates, and every coordinate of every value
    computed by `FiniteAlgebra.apply`."""
    if not factors:
        raise ValueError("direct_product needs at least one factor")
    sig = factors[0].signature
    for f in factors[1:]:
        if f.signature != sig:
            raise SignatureError("product factors must share a signature")
    sizes = [f.size for f in factors]
    total = 1
    for n in sizes:
        total *= n

    def decode(e):
        coords = []
        for n in reversed(sizes):
            coords.append(e % n)
            e //= n
        return tuple(reversed(coords))

    tables = []
    for sym, k in sig.symbols:
        table = []
        for args in iproduct(range(total), repeat=k):
            decoded = [decode(a) for a in args]
            value = 0
            for i, f in enumerate(factors):
                value = value * sizes[i] + f.apply(sym, tuple(d[i] for d in decoded))
            table.append(value)
        tables.append(tuple(table))
    return FiniteAlgebra("x".join(f.name for f in factors), sig, total, tuple(tables))


def naive_tuple_closure(factors, seeds, signature):
    """Closure of seed tuples under componentwise operations, by repeated full
    scans (independent of the production generation code)."""
    current = set(seeds)
    for sym, k in signature.symbols:
        if k == 0:
            current.add(tuple(f.apply(sym, ()) for f in factors))
    changed = True
    while changed:
        changed = False
        for sym, k in signature.symbols:
            if k == 0:
                continue
            for args in iproduct(sorted(current), repeat=k):
                value = tuple(
                    f.apply(sym, tuple(a[i] for a in args)) for i, f in enumerate(factors)
                )
                if value not in current:
                    current.add(value)
                    changed = True
    return current


def _componentwise(factors, sym, args):
    return tuple(f.apply(sym, tuple(a[i] for a in args)) for i, f in enumerate(factors))


def discovery(factors, seeds, signature):
    """The tuples that generation reaches, each with its first producer
    (("seed", j), or the symbol and its argument tuples), in the order of
    discovery of `quasivariety.generate_in_product`."""
    reached = {}
    queue = []

    def add(t, origin):
        if t not in reached:
            reached[t] = origin
            queue.append(t)

    for sym, k in signature.symbols:
        if k == 0:
            add(_componentwise(factors, sym, []), (sym,))
    for j, s in enumerate(seeds):
        add(s, ("seed", j))
    pos_ops = [(sym, k) for sym, k in signature.symbols if k > 0]
    done = []
    while queue:
        x = queue.pop()
        for sym, k in pos_ops:
            pool = done + [x]
            for i in range(k):
                for rest in iproduct(pool, repeat=k - 1):
                    args = rest[:i] + (x,) + rest[i:]
                    add(_componentwise(factors, sym, args), (sym,) + args)
        done.append(x)
    return reached


def generate_in_product(factors, seeds, signature, product_cap, name="gen"):
    """Reference for `quasivariety.generate_in_product`: the same visiting
    order, with every coordinate of every product computed by
    `FiniteAlgebra.apply`, and the tables filled by applying each operation
    again to every argument tuple over the finished universe."""
    potential = 1
    for f in factors:
        potential *= f.size
    if potential > product_cap:
        raise CapExceeded(potential, product_cap)

    def apply(sym, args):
        return _componentwise(factors, sym, args)

    reached = discovery(factors, seeds, signature)
    elements = sorted(reached)
    index = {t: i for i, t in enumerate(elements)}
    tables = []
    for sym, k in signature.symbols:
        table = []
        for args in iproduct(elements, repeat=k):
            table.append(index[apply(sym, list(args))])
        tables.append(tuple(table))
    algebra = FiniteAlgebra(name, signature, len(elements), tuple(tables))
    trace = []
    for t in elements:
        origin = reached[t]
        if origin[0] == "seed":
            trace.append(origin)
        else:
            trace.append((origin[0],) + tuple(index[a] for a in origin[1:]))
    seed_index = tuple(index[s] for s in seeds)
    return GenResult(algebra, tuple(elements), seed_index, tuple(trace))


def free_extension_map(E, h, fe_source, fe_target):
    """The reflection's action on a base homomorphism h: each element's
    producing term over the source generators, evaluated in the target
    reflection at the unit images of their h-images.  Asserts that the
    result is an expanded-language homomorphism."""
    F, T = fe_source.algebra, fe_target.algebra
    out = {}

    def value(i):
        if i not in out:
            origin = fe_source.gen.trace[i]
            if origin[0] == "seed":
                out[i] = fe_target.unit(h(origin[1]))
            else:
                out[i] = T.apply(origin[0], tuple(value(j) for j in origin[1:]))
        return out[i]

    mapping = tuple(value(i) for i in range(F.size))
    for sym, k in E.expanded.signature.symbols:
        for args in iproduct(range(F.size), repeat=k):
            assert mapping[F.apply(sym, args)] == T.apply(sym, tuple(mapping[a] for a in args))
    return Homomorphism(F, T, E.expanded.signature, mapping)


def reflection_units(E, bound):
    """Reference for `adjunction.check_unit_mono`: each base member up to the
    bound with the unit of its full reflection, or None where the product is
    over the cap."""
    out = []
    for A in members_up_to(E.base, bound):
        try:
            out.append((A, free_extension(A, E).unit))
        except CapExceeded:
            out.append((A, None))
    return out


def all_partitions(n):
    out = []

    def rec(i, labels, blocks):
        if i == n:
            out.append(tuple(labels))
            return
        for b in range(blocks + 1):
            labels.append(b)
            rec(i + 1, labels, max(blocks, b + 1))
            labels.pop()

    rec(0, [], 0)
    return out


def least_congruence(A, pairs):
    """Least congruence of A relating every pair, as the canonical array of
    `core.Congruence.partition` (each element labelled by the least element
    of its block): the meet of every partition from `all_partitions` that
    relates the pairs and that every operation respects, the compatibility
    checked here over all argument tuples."""
    n = A.size

    def compatible(labels):
        for (_, k), table in zip(A.signature.symbols, A.tables):
            values = {}
            for flat, args in enumerate(iproduct(range(n), repeat=k)):
                key = tuple(labels[a] for a in args)
                if values.setdefault(key, labels[table[flat]]) != labels[table[flat]]:
                    return False
        return True

    related = [[True] * n for _ in range(n)]
    for labels in all_partitions(n):
        if all(labels[a] == labels[b] for a, b in pairs) and compatible(labels):
            for a in range(n):
                for b in range(n):
                    related[a][b] = related[a][b] and labels[a] == labels[b]
    return tuple(next(b for b in range(n) if related[a][b]) for a in range(n))


def closure_fixpoint(A, seed):
    """Least superset of `seed` closed under every table of A, by full scans
    until a scan adds nothing.  Reads only A's size, arities and tables."""
    n = A.size
    current = set(seed)
    changed = True
    while changed:
        changed = False
        for (_, k), table in zip(A.signature.symbols, A.tables):
            for args in iproduct(sorted(current), repeat=k):
                flat = 0
                for a in args:
                    flat = flat * n + a
                if table[flat] not in current:
                    current.add(table[flat])
                    changed = True
    return current


def _set_closure(A, done, queue, members, limit):
    """Set-based closure loop: combine each queued element x with the
    processed elements `done` and itself, over every argument tuple that
    mentions x.  Stops once `members` grows past `limit` and returns that
    unfinished set."""
    n = A.size
    while queue:
        x = queue.pop()
        pool = done + [x]
        reached = set()
        for (_, k), table in zip(A.signature.symbols, A.tables):
            for i in range(k):
                for rest in iproduct(pool, repeat=k - 1):
                    flat = 0
                    for a in rest[:i] + (x,) + rest[i:]:
                        flat = flat * n + a
                    reached.add(table[flat])
        fresh = reached - members
        if fresh:
            members |= fresh
            if len(members) > limit:
                return members
            queue.extend(fresh)
        done.append(x)
    return members


def fcbo_subuniverses(A, max_size=None, first_factor=None):
    """The set-based FCbO search that `core.all_subuniverses` replaced with
    its bitmask search: the same tree, with frozensets for sets, each
    candidate closed before its least size is tested, and the least size
    recounted from the first coordinates of the whole set.  The same
    contract: nonempty subuniverses of size <= max_size, only the subdirect
    ones with `first_factor`, sorted by (size, elements)."""
    limit = A.size if max_size is None else max_size
    if first_factor is None:
        def least_size(S):
            return len(S)
    else:
        width = A.size // first_factor

        def least_size(S):
            return len(S) + first_factor - len({e // width for e in S})

    constants = {table[0] for (_, k), table in zip(A.signature.symbols, A.tables) if k == 0}
    base = frozenset(_set_closure(A, [], sorted(constants), set(constants), A.size))
    if least_size(base) > limit:
        return []
    found = [base]
    stack = [(base, 0, {})]
    while stack:
        S, y, inherited = stack.pop()
        failed = dict(inherited)
        for x in range(y, A.size):
            if x in S:
                continue
            if x in failed:
                below = failed[x]
                if below is None or not below <= S:
                    continue
            T = frozenset(_set_closure(A, list(S), [x], set(S) | {x}, limit))
            added = T - S
            if least_size(T) > limit:
                failed[x] = None
            elif min(added) < x:
                failed[x] = frozenset(e for e in added if e < x)
            else:
                failed.pop(x, None)
                found.append(T)
                stack.append((T, x + 1, failed))
    if first_factor is None:
        out = [S for S in found if S]
    else:
        out = [S for S in found if least_size(S) == len(S)]
    return sorted(out, key=lambda S: (len(S), sorted(S)))


def subalgebra_tables(A, subset):
    """Tables of A on `subset`, re-indexed by sorted order, each cell read
    through `FiniteAlgebra.apply` in signature and lexicographic order.
    Raises the ValueError of `core.subalgebra` at the first cell whose value
    leaves the subset."""
    elems = sorted(subset)
    index = {e: i for i, e in enumerate(elems)}
    tables = []
    for sym, k in A.signature.symbols:
        table = []
        for args in iproduct(elems, repeat=k):
            v = A.apply(sym, args)
            if v not in index:
                raise ValueError(f"subset not closed under {sym} at {args}")
            table.append(index[v])
        tables.append(tuple(table))
    return tuple(tables)


class IsoRegistry:
    """Reference for `core.IsoRegistry`, without its lookup of exact copies:
    a candidate is kept iff no kept member of its fingerprint bucket is
    isomorphic to it, and otherwise that member is its answer."""

    def __init__(self):
        self._buckets = {}
        self.members = []

    def add(self, A):
        key = fingerprint(A)[0]
        for rep in self._buckets.get(key, []):
            if find_isomorphism(A, rep) is not None:
                return rep, False
        self._buckets.setdefault(key, []).append(A)
        self.members.append(A)
        return A, True


def member_classes(K, max_size):
    """Reference for `quasivariety._member_classes` on a generated K: the
    same FIFO worklist and the reference `IsoRegistry` above, but every
    class C is expanded, including those of max_size elements, and every
    subdirect subuniverse of C x G is built and offered to the registry,
    graphs of C -> G too."""
    registry = IsoRegistry()
    worklist = [registry.add(trivial_algebra(K.signature))[0]]
    while worklist:
        C = worklist.pop(0)
        for G in K.generators:
            P = direct_product([C, G])
            for sub in fcbo_subuniverses(P, max_size=max_size, first_factor=C.size):
                S = FiniteAlgebra("S", K.signature, len(sub), subalgebra_tables(P, sub))
                rep, added = registry.add(S)
                if added:
                    worklist.append(rep)
    members = [A for A in registry.members if A.size <= max_size]
    return tuple(sorted(members, key=lambda A: (A.size, A.tables)))


def layered_term_values(A, seed, depth):
    """Oracle for generated subuniverses: iterate value layers, evaluating all
    operations on everything reached so far, `depth` times."""
    current = set(seed)
    for sym, k in A.signature.symbols:
        if k == 0:
            current.add(A.apply(sym, ()))
    for _ in range(depth):
        layer = set(current)
        for sym, k in A.signature.symbols:
            if k == 0:
                continue
            for args in iproduct(sorted(current), repeat=k):
                layer.add(A.apply(sym, args))
        current = layer
    return current


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>:=|=>|->|[{}()\[\],;/=&:.+])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def tokenize(text):
    """Reference tokenizer: anchored matches one after another, with line
    and column advanced over every character, comments and whitespace
    included."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        value = m.group(0)
        kind = m.lastgroup
        if kind == "ident":
            tokens.append(Token("ident", value, line, col))
        elif kind == "int":
            tokens.append(Token("int", value, line, col))
        elif kind == "punct":
            tokens.append(Token(value, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def parse_workspace(text):
    """Reference workspace parser."""
    return ReferenceParser(text).parse_workspace()


class ReferenceParser:
    """The workspace parser on a list of `Token`s: recursive descent with a
    token object per step, each carrying its own line and column."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, token: Token | None = None):
        t = token or self.peek()
        raise ParseError(message, t.line, t.col)

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            what = t.value or "end of input"
            self.fail(f"expected {kind!r}, found {what!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}, found {t.value or 'end of input'!r}")
        return self.next()

    def expect_int(self) -> int:
        return int(self.expect("int").value)

    def accept(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.next()
            return True
        return False

    # -- workspace

    def parse_workspace(self) -> Workspace:
        ws = Workspace()
        defined: dict[str, int] = {}
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident" or t.value not in DECL_KEYWORDS:
                self.fail("expected a declaration keyword")
            keyword = self.next().value
            name_tok = self.expect_ident("name")
            name = name_tok.value
            if name in defined:
                self.fail(
                    f"duplicate name {name!r}: first defined at line {defined[name]}",
                    name_tok,
                )
            defined[name] = name_tok.line
            if keyword == "signature":
                ws.signatures[name] = self.parse_signature_body(name)
            elif keyword == "algebra":
                ws.algebras[name] = self.parse_algebra_body(name, ws)
            elif keyword == "quasivariety":
                ws.quasivarieties[name] = self.parse_quasivariety_body(name, ws)
            elif keyword == "ppop":
                ws.ppops[name] = self.parse_ppop_body(name, ws)
            elif keyword == "expansion":
                ws.expansions[name] = self.parse_expansion_body(name, ws)
            else:
                ws.translations[name] = self.parse_translation_body(name, ws)
        return ws

    def parse_signature_body(self, name: str) -> Signature:
        self.expect("{")
        symbols = []
        while not self.accept("}"):
            sym = self.expect_ident("symbol").value
            self.expect("/")
            arity = self.expect_int()
            symbols.append((sym, arity))
            if self.peek().kind != "}":
                self.expect(";")
        try:
            return Signature(name, tuple(symbols))
        except SignatureError as exc:
            self.fail(str(exc))

    def _ref(self, ws: Workspace, kind: str, what: str):
        tok = self.expect_ident(what)
        try:
            return ws.lookup(kind, tok.value)
        except UnknownName as exc:
            self.fail(str(exc), tok)

    def parse_algebra_body(self, name: str, ws: Workspace) -> FiniteAlgebra:
        self.expect(":")
        sig = self._ref(ws, "signatures", "signature name")
        self.expect("{")
        kw = self.expect_ident()
        if kw.value != "universe":
            self.fail("expected 'universe'", kw)
        size = self.expect_int()
        ops: dict[str, object] = {}
        while not self.accept("}"):
            kw = self.expect_ident()
            if kw.value != "op":
                self.fail("expected 'op' or '}'", kw)
            sym_tok = self.expect_ident("operation symbol")
            sym = sym_tok.value
            if sym not in sig.arities:
                self.fail(f"symbol {sym!r} is not in signature {sig.name!r}", sym_tok)
            self.expect("=")
            ops[sym] = self.parse_table(sig.arity(sym), size, sym_tok)
        missing = [s for s, _ in sig.symbols if s not in ops]
        if missing:
            self.fail(f"missing tables for {missing} in algebra {name!r}")
        try:
            return build_algebra(name, sig, size, ops)
        except (SignatureError, ValueError) as exc:
            self.fail(f"in algebra {name!r}: {exc}")

    def parse_table(self, arity: int, size: int, at: Token):
        if arity == 0:
            return self.expect_int()
        tok = self.expect("[")
        rows = []
        while not self.accept("]"):
            if arity == 1:
                rows.append(self.expect_int())
            else:
                rows.append(self.parse_table(arity - 1, size, at))
            if self.peek().kind != "]":
                self.expect(",")
        if len(rows) != size:
            self.fail(f"table for {at.value!r} has {len(rows)} rows, expected {size}", tok)
        return rows

    def parse_quasivariety_body(self, name: str, ws: Workspace) -> Quasivariety:
        self.expect(":")
        sig = self._ref(ws, "signatures", "signature name")
        self.expect("=")
        kw = self.expect_ident()
        if kw.value == "generated":
            self.expect("(")
            gens = []
            while not self.accept(")"):
                tok = self.expect_ident("algebra name")
                try:
                    gens.append(ws.lookup("algebras", tok.value))
                except UnknownName as exc:
                    self.fail(str(exc), tok)
                if self.peek().kind != ")":
                    self.expect(",")
            try:
                return Quasivariety(name, sig, generators=tuple(gens))
            except (SignatureError, ValueError) as exc:
                self.fail(f"in quasivariety {name!r}: {exc}", kw)
        if kw.value == "axioms":
            self.expect("{")
            axioms = []
            while not self.accept("}"):
                axioms.append(self.parse_quasiequation(sig))
                if self.peek().kind != "}":
                    self.expect(";")
            return Quasivariety(name, sig, axioms=tuple(axioms))
        self.fail("expected 'generated' or 'axioms'", kw)

    def parse_quasiequation(self, sig: Signature) -> Quasiequation:
        premises: list[Equation] = []
        if self.peek().kind != "=>":
            premises.append(self.parse_equation(sig))
            while self.accept("&"):
                premises.append(self.parse_equation(sig))
        self.expect("=>")
        conclusion = self.parse_equation(sig)
        return Quasiequation(tuple(premises), conclusion)

    def parse_ppop_body(self, name: str, ws: Workspace) -> ImplicitOpSpec:
        self.expect("/")
        arity = self.expect_int()
        kw = self.expect_ident()
        if kw.value != "over":
            self.fail("expected 'over'", kw)
        sig = self._ref(ws, "signatures", "signature name")
        self.expect(":=")
        at = self.peek()
        try:
            formula = self.parse_pp(sig)
            return ImplicitOpSpec(name, sig, arity, len(formula.bound_vars), formula)
        except LogicError as exc:
            self.fail(f"in ppop {name!r}: {exc}", at)

    def parse_expansion_body(self, name: str, ws: Workspace):
        self.expect(":=")
        base = self._ref(ws, "quasivarieties", "quasivariety name")
        t = self.peek()
        if t.kind == "->":
            self.next()
            expanded = self._ref(ws, "quasivarieties", "quasivariety name")
            try:
                return ExpansionSpec(base, expanded)
            except SignatureError as exc:
                self.fail(f"in expansion {name!r}: {exc}", t)
        if t.kind == "+":
            self.next()
            self.expect("{")
            ops = []
            while not self.accept("}"):
                sym = self.expect_ident("new operation symbol").value
                self.expect(":=")
                spec = self._ref(ws, "ppops", "ppop name")
                ops.append((sym, spec))
                if self.peek().kind != "}":
                    self.expect(";")
            try:
                return PpExpansionSpec(base, tuple(ops))
            except SignatureError as exc:
                self.fail(f"in expansion {name!r}: {exc}", t)
        self.fail("expected '->' or '+'", t)

    def parse_translation_body(self, name: str, ws: Workspace) -> TermTranslation:
        self.expect(":")
        source = self._ref(ws, "signatures", "signature name")
        self.expect("->")
        target = self._ref(ws, "signatures", "signature name")
        self.expect("{")
        mapping = []
        while not self.accept("}"):
            sym_tok = self.expect_ident("symbol")
            if sym_tok.value not in source.arities:
                self.fail(f"symbol {sym_tok.value!r} is not in {source.name!r}", sym_tok)
            self.expect(":=")
            term = self.parse_term(target)
            mapping.append((sym_tok.value, term))
            if self.peek().kind != "}":
                self.expect(";")
        try:
            return TermTranslation(source, target, tuple(mapping))
        except SignatureError as exc:
            self.fail(f"in translation {name!r}: {exc}")

    # -- terms and formulas

    def parse_term(self, sig: Signature) -> Term:
        tok = self.expect_ident("term")
        name = tok.value
        if name in sig.arities:
            arity = sig.arities[name]
            if arity == 0:
                return App(name)
            self.expect("(")
            args = [self.parse_term(sig)]
            while self.accept(","):
                args.append(self.parse_term(sig))
            self.expect(")")
            if len(args) != arity:
                self.fail(f"{name}/{arity} applied to {len(args)} arguments", tok)
            return App(name, tuple(args))
        if self.peek().kind == "(":
            self.fail(f"unknown symbol {name!r} in signature {sig.name!r}", tok)
        return Var(name)

    def parse_equation(self, sig: Signature) -> Equation:
        left = self.parse_term(sig)
        self.expect("=")
        right = self.parse_term(sig)
        return Equation(left, right)

    def parse_pp(self, sig: Signature) -> PpFormula:
        kw = self.expect_ident()
        if kw.value != "exists":
            self.fail("expected 'exists'", kw)
        self.expect("[")
        bound = []
        while not self.accept("]"):
            bound.append(self.expect_ident("witness variable").value)
            if self.peek().kind != "]":
                self.expect(",")
        self.expect(".")
        body = [self.parse_equation(sig)]
        while self.accept("&"):
            body.append(self.parse_equation(sig))
        return PpFormula(tuple(bound), tuple(body))

    def at_end(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            self.fail(f"unexpected trailing input {t.value!r}")


# ---------------------------------------------------------------------------
# the workspace printer, whose output the parser reads back: parse . format
# is the identity on every workspace object


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(format_term(a) for a in t.args)})"


def format_equation(eq: Equation) -> str:
    return f"{format_term(eq.left)} = {format_term(eq.right)}"


def format_pp_formula(phi: PpFormula) -> str:
    bound = ",".join(phi.bound_vars)
    body = " & ".join(format_equation(eq) for eq in phi.body)
    return f"exists [{bound}] . {body}"


def format_quasiequation(q: Quasiequation) -> str:
    prem = " & ".join(format_equation(p) for p in q.premises)
    return f"{prem} => {format_equation(q.conclusion)}".lstrip()


def format_signature(sig: Signature) -> str:
    inner = "; ".join(f"{sym}/{k}" for sym, k in sig.symbols)
    return f"signature {sig.name} {{ {inner} }}"


def _format_table(table: tuple[int, ...], arity: int, size: int) -> str:
    if arity == 0:
        return str(table[0])

    def nest(flat, k):
        if k == 1:
            return "[" + ",".join(str(v) for v in flat) + "]"
        step = len(flat) // size
        return "[" + ",".join(nest(flat[i * step:(i + 1) * step], k - 1) for i in range(size)) + "]"

    return nest(list(table), arity)


def format_algebra(A: FiniteAlgebra) -> str:
    parts = [f"universe {A.size}"]
    for (sym, k), table in zip(A.signature.symbols, A.tables):
        parts.append(f"op {sym} = {_format_table(table, k, A.size)}")
    return f"algebra {A.name} : {A.signature.name} {{ {'  '.join(parts)} }}"


def format_quasivariety(K: Quasivariety) -> str:
    if K.is_generated:
        gens = ", ".join(g.name for g in K.generators)
        return f"quasivariety {K.name} : {K.signature.name} = generated({gens})"
    inner = " ; ".join(format_quasiequation(q) for q in K.axioms)
    return f"quasivariety {K.name} : {K.signature.name} = axioms {{ {inner} }}"


def format_ppop(s: ImplicitOpSpec) -> str:
    return (
        f"ppop {s.name}/{s.arity} over {s.signature.name} := {format_pp_formula(s.formula)}"
    )


def format_expansion(name: str, spec: ExpansionSpec | PpExpansionSpec) -> str:
    if isinstance(spec, ExpansionSpec):
        return f"expansion {name} := {spec.base.name} -> {spec.expanded.name}"
    inner = "; ".join(f"{sym} := {op.name}" for sym, op in spec.ops)
    return f"expansion {name} := {spec.base.name} + {{ {inner} }}"


def format_translation(name: str, tr: TermTranslation) -> str:
    inner = "; ".join(f"{sym} := {format_term(t)}" for sym, t in tr.mapping)
    return f"translation {name} : {tr.source.name} -> {tr.target.name} {{ {inner} }}"


def format_workspace(ws: Workspace) -> str:
    lines: list[str] = []
    for sig in ws.signatures.values():
        lines.append(format_signature(sig))
    for A in ws.algebras.values():
        lines.append(format_algebra(A))
    for K in ws.quasivarieties.values():
        lines.append(format_quasivariety(K))
    for s in ws.ppops.values():
        lines.append(format_ppop(s))
    for name, spec in ws.expansions.items():
        lines.append(format_expansion(name, spec))
    for name, tr in ws.translations.items():
        lines.append(format_translation(name, tr))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the membership test of `check_simple` before it reused `expand_algebra`: base
# reduct in the base class, every induced operation functional and total, and
# every added table reproduced


def in_class(B: FiniteAlgebra, P: PpExpansionSpec):
    """Is B literally an expanded member: base reduct in the base class and
    every added table reproduced by its induced operation?  Returns None or a
    certificate."""
    red = reduct(B, P.base.signature)
    base_membership = membership(red, P.base)
    if not base_membership.holds:
        return ("base-reduct", base_membership)
    for sym, spec in P.ops:
        op = induced_partial_op(red, spec)
        if isinstance(op, FunctionalityViolation):
            return ("functionality", op)
        if not op.is_total:
            missing = next(
                args
                for args in iproduct(range(B.size), repeat=spec.arity)
                if not op.defined_at(args)
            )
            return ("undefined-at", sym, missing)
        for args, value in op.graph:
            if B.apply(sym, args) != value:
                return ("mismatch", sym, args, B.apply(sym, args), value)
    return None


# ---------------------------------------------------------------------------
# the unique-witness consistency harness, which no command runs


def witness_projection_specs(s: ImplicitOpSpec) -> tuple[ImplicitOpSpec, ...]:
    """For each witness variable z_k, the operation sending (arguments, value)
    to that witness.  When the witnesses of `s` are unique these are partial
    functions, and they are pp-defined by construction."""
    out = []
    for k in range(s.witness_count):
        renaming = {RESULT_VAR: arg_var(s.arity), witness_var(k): RESULT_VAR}
        remaining = []
        for j in range(s.witness_count):
            if j == k:
                continue
            renaming[witness_var(j)] = witness_var(len(remaining))
            remaining.append(j)
        body = tuple(rename_equation(eq, renaming) for eq in s.formula.body)
        out.append(
            ImplicitOpSpec(
                f"{s.name}.w{k + 1}",
                s.signature,
                s.arity + 1,
                s.witness_count - 1,
                PpFormula(tuple(witness_var(i) for i in range(s.witness_count - 1)), body),
            )
        )
    return tuple(out)


def rename_term(t: Term, renaming: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(renaming.get(t.name, t.name))
    return App(t.symbol, tuple(rename_term(a, renaming) for a in t.args))


def rename_equation(eq: Equation, renaming: dict[str, str]) -> Equation:
    return Equation(rename_term(eq.left, renaming), rename_term(eq.right, renaming))


@record
class HarnessReport:
    premises_established: bool
    premise_details: tuple[tuple[str, str], ...]
    simple: Verdict | None
    consistent: bool


def harness_unique_witness_expansions(
    P: PpExpansionSpec,
    bound: int,
    ext_bound: int | None = None,
) -> HarnessReport:
    """Consistency harness: when every operation has unique witnesses, every
    member up to the bound totalizes within the extension bound, the witness
    projections are functional, and the interpolation criterion holds for the
    operations together with their witness projections, then the simplicity
    check must also pass at the bound.

    The witness projections are included in the interpolation family because
    the implication is family-relative without them and can genuinely fail.
    """
    ext_bound = ext_bound if ext_bound is not None else bound
    details: list[tuple[str, str]] = []
    established = True
    specs = tuple(spec for _, spec in P.ops)
    projections: list[ImplicitOpSpec] = []
    for spec in specs:
        uw = check_unique_witnesses(spec, P.base, bound)
        details.append((f"unique-witnesses[{spec.name}]", uw.status))
        established = established and uw.holds
        for A in members_up_to(P.base, bound):
            t = check_totalizable(spec, P.base, A, ext_bound)
            if not t.holds:
                details.append((f"totalizable[{spec.name}] at {A.name}", t.status))
                established = False
        projections.extend(witness_projection_specs(spec))
    for proj in projections:
        for A in members_up_to(P.base, bound):
            if isinstance(induced_partial_op(A, proj), FunctionalityViolation):
                details.append((f"projection-functional[{proj.name}] at {A.name}", "fails"))
                established = False
    beth = check_beth_companion(P, specs + tuple(projections), bound)
    details.append(("beth-companion[family+projections]", beth.status))
    if not beth.holds:
        established = False
    if not established:
        return HarnessReport(False, tuple(details), None, True)
    simple = check_simple(P, bound)
    return HarnessReport(True, tuple(details), simple, simple.holds)


# ---------------------------------------------------------------------------
# algebra helpers that only tests use


def permuted(A: FiniteAlgebra, perm: tuple[int, ...]) -> FiniteAlgebra:
    """The isomorphic copy along perm (perm[old] = new)."""
    return FiniteAlgebra(A.name, A.signature, A.size, _permuted_tables(A, perm))


def is_congruence(A: FiniteAlgebra, partition: tuple[int, ...]) -> bool:
    """Compatibility check: related argument tuples give related values."""
    for sym, k in A.signature.symbols:
        if k == 0:
            continue
        buckets: dict[tuple[int, ...], int] = {}
        for args in iproduct(range(A.size), repeat=k):
            key = tuple(partition[a] for a in args)
            v = A.apply(sym, args)
            if key in buckets:
                if partition[buckets[key]] != partition[v]:
                    return False
            else:
                buckets[key] = v
    return True


def identity_congruence(A: FiniteAlgebra) -> Congruence:
    return Congruence(A, tuple(range(A.size)))


def related(theta: Congruence, a: int, b: int) -> bool:
    return theta.partition[a] == theta.partition[b]


def finer_or_equal(theta: Congruence, other: Congruence) -> bool:
    """Every pair that theta relates, other relates too."""
    n = len(theta.partition)
    return all(related(other, i, j) for i in range(n) for j in range(n) if related(theta, i, j))


# ---------------------------------------------------------------------------
# fragment entry points of the parser, which only tests use: each parses one
# rule of `parser._Parser` from the whole text


def _whole(p: _Parser, rule: str, sig: Signature):
    """Parse `rule` from the whole text: no token may follow it."""
    result = getattr(p, rule)(sig)
    if p.kinds[p.pos] != "eof":
        p.fail(f"unexpected trailing input {p.values[p.pos]!r}")
    return result


def parse_term(text: str, sig: Signature) -> Term:
    return _whole(_Parser(text), "parse_term", sig)


def parse_equation(text: str, sig: Signature) -> Equation:
    return _whole(_Parser(text), "parse_equation", sig)


def parse_pp_formula(text: str, sig: Signature) -> PpFormula:
    return _whole(_Parser(text), "parse_pp", sig)


def parse_quasiequation(text: str, sig: Signature) -> Quasiequation:
    return _whole(_Parser(text), "parse_quasiequation", sig)


def parse(text: str, sig: Signature | None = None):
    """Polymorphic entry, classified by the first token: a full workspace
    when it is a declaration keyword, otherwise a pp formula when it is
    `exists`, a quasiequation when a `=>` token follows, or an equation
    list, over the given signature."""
    p = _Parser(text)
    if p.values[0] in DECL_KEYWORDS:
        return p.parse_workspace()
    if sig is None:
        raise ValueError("parsing a formula fragment needs a signature")
    if p.values[0] == "exists":
        return _whole(p, "parse_pp", sig)
    return _whole(p, "parse_quasiequation" if "=>" in p.kinds else "parse_equations", sig)
