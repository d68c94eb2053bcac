"""Quasivariety presentations and the operations parameterized by them:
membership, relative congruence generation, free algebras, bounded member
enumeration, and bounded amalgamation.

Generated presentations are used with finite-scale semantics throughout:
membership in the generated class is decided as membership in ISP of the
generators, which is exact for finite algebras over finitely many finite
generators.

`Verdict`, the one result of every check in the package, lives here, below
`implicit`, `adjunction` and `beth`, which all return it.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, product as iproduct, zip_longest
from operator import itemgetter
from typing import Callable

from .core import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    IsoRegistry,
    Signature,
    SignatureError,
    _subalgebra_tables,
    all_subuniverses,
    congruence_closure,
    direct_product,
    enumerate_embeddings,
    enumerate_homomorphisms,
    is_embedding,
    quotient,
    record,
    replace,
    trivial_algebra,
)
from .logic import (
    Quasiequation,
    _define,
    check_quasiequation,
    compile_term,
    equations_variables,
    eval_term,
)

DEFAULT_PRODUCT_CAP = 10**6


class CapExceeded(ValueError):
    """A product of `size` elements, over the cap of `cap`."""

    def __init__(self, size: int, cap: int) -> None:
        super().__init__(f"product of size {size} exceeds cap {cap}")
        self.size, self.cap = size, cap


class GenerationStopped(Exception):
    """Generation was about to intern one element more than its
    `stop_after`.  `elements` holds the reached tuples, that one included,
    and `trace` their first producers, both in the order of discovery; a
    producer's arguments are discovery numbers, so every element's producer
    comes before it."""

    def __init__(self, elements: tuple, trace: tuple) -> None:
        super().__init__(f"generation stopped at {len(elements)} elements")
        self.elements, self.trace = elements, trace


@record
class NotFoundWithinBound:
    """Bound-relative negative: the search space up to `bound` was exhausted;
    never a global claim."""
    bound: int


@record
class Verdict:
    """What every check returns: its claim, whether it holds, fails or is
    unknown within the bound, and a replayable certificate.  Notes of None
    are not reported; a tuple is, even an empty one."""
    claim: str
    status: str  # "holds" | "fails" | "unknown-within-bound"
    certificate: object = None
    notes: tuple[str, ...] | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


@record(uncompared=("name",))
class Quasivariety:
    name: str
    signature: Signature = Signature("empty")
    generators: tuple[FiniteAlgebra, ...] | None = None
    axioms: tuple[Quasiequation, ...] | None = None

    def __post_init__(self) -> None:
        if (self.generators is None) == (self.axioms is None):
            raise ValueError("exactly one of generators/axioms must be given")
        if self.generators is not None:
            if not self.generators:
                raise ValueError("a generated presentation needs at least one generator")
            for g in self.generators:
                if g.signature != self.signature:
                    raise SignatureError(f"generator {g.name!r} is not over {self.signature.name!r}")

    @property
    def is_generated(self) -> bool:
        return self.generators is not None


@record
class MembershipResult:
    holds: bool
    # Generated presentations: a jointly injective separating family on
    # success, an inseparable pair on failure.
    separating: tuple[Homomorphism, ...] | None = None
    inseparable: tuple[int, int] | None = None
    # Axiomatic presentations: the first failing quasiequation with its
    # lexicographically least violating assignment.
    failed_axiom: Quasiequation | None = None
    assignment: tuple[tuple[str, int], ...] | None = None


def membership(A: FiniteAlgebra, K: Quasivariety) -> MembershipResult:
    """Decide membership of A in K with a replayable certificate."""
    if A.signature != K.signature:
        raise SignatureError(f"{A.name!r} is not over {K.signature.name!r}")
    if K.axioms is not None:
        for q in K.axioms:
            ok, cex = check_quasiequation(A, q)
            if not ok:
                return MembershipResult(
                    False, failed_axiom=q, assignment=tuple(sorted(cex.items()))
                )
        return MembershipResult(True)
    homs = [h for G in K.generators for h in enumerate_homomorphisms(A, G, K.signature)]
    chosen: list[Homomorphism] = []
    for a in range(A.size):
        for b in range(a + 1, A.size):
            for h in homs:
                if h(a) != h(b):
                    if h not in chosen:
                        chosen.append(h)
                    break
            else:
                return MembershipResult(False, inseparable=(a, b))
    return MembershipResult(True, separating=tuple(chosen))


class NotAMember(ValueError):
    """An algebra outside the class a command or check needs."""


def require_member(A: FiniteAlgebra, K: Quasivariety) -> None:
    """The usage error of a command given an algebra outside its class: no
    bound changes that answer, since K is closed under subalgebras."""
    if not membership(A, K).holds:
        raise NotAMember(f"{A.name!r} is not a member of {K.name!r}")


def relative_congruence(A: FiniteAlgebra, pairs, K: Quasivariety) -> Congruence:
    """Least congruence theta containing `pairs` with A/theta in K.

    Axiomatic route: close the pairs, then while the quotient falsifies some
    axiom (first axiom in list order, least violating assignment) merge the
    offending conclusion values and re-close.  Generated route: intersect the
    kernels of all homomorphisms into generators whose kernel contains the
    pairs; the empty intersection is the total congruence.
    """
    pairs = list(pairs)
    if K.axioms is not None:
        collected = list(pairs)
        theta = congruence_closure(A, collected)
        while True:
            Q, proj = quotient(A, theta)
            for q in K.axioms:
                ok, cex = check_quasiequation(Q, q)
                if not ok:
                    c = eval_term(Q, q.conclusion.left, cex)
                    d = eval_term(Q, q.conclusion.right, cex)
                    rep_c = min(a for a in range(A.size) if proj(a) == c)
                    rep_d = min(a for a in range(A.size) if proj(a) == d)
                    collected.append((rep_c, rep_d))
                    theta = congruence_closure(A, collected)
                    break
            else:
                return theta
    selected = []
    for G in K.generators:
        for h in enumerate_homomorphisms(A, G, K.signature):
            if all(h(a) == h(b) for a, b in pairs):
                selected.append(h)
    if not selected:
        return Congruence.total(A)
    labels = [tuple(h(a) for h in selected) for a in range(A.size)]
    return Congruence.from_labels(A, labels)


@record
class GenResult:
    """A subalgebra of a product, generated from seed tuples, together with the
    data needed to chase elements back to their producing terms."""
    algebra: FiniteAlgebra
    elements: tuple[tuple[int, ...], ...]  # product tuples, in universe order
    seed_index: tuple[int, ...]            # universe index of each seed tuple
    # trace[i] is ("seed", j) or (symbol, arg universe indices)
    trace: tuple[tuple, ...]


def _literal(values, s: int, planes) -> str:
    """The indicator of `values`, a set of elements of a factor of size s, at
    one argument whose plane v >= 1 is read as `planes[v]`: "" when it holds
    for every value, else an OR of planes, or the complement of one when the
    set holds 0."""
    if len(values) == s:
        return ""
    if 0 in values:
        return "~" + _any(planes[v] for v in range(1, s) if v not in values)
    return _any(planes[v] for v in sorted(values))


def _any(names) -> str:
    names = list(names)
    return names[0] if len(names) == 1 else f"({'|'.join(names)})"


def _cover(points, s: int, planes) -> str | None:
    """The indicator of a set of argument tuples over a factor of size s as
    an `&`/`|` expression over the arguments' planes, `planes[j][v]` for
    argument j: None for the empty set, "" for every tuple.  Each distinct
    set B of tails that follows some first argument gives one term: the
    first arguments whose tails include B, and the cover of B.  The terms
    hold only on `points`, and each point lies in the term of its own
    tails."""
    if not points:
        return None
    if not planes:
        return ""
    if len(planes) == 1:
        return _literal({p[0] for p in points}, s, planes[0])
    tails: dict[int, frozenset] = {}
    for p in sorted(points):
        tails[p[0]] = tails.get(p[0], frozenset()) | {p[1:]}
    terms = []
    for B in dict.fromkeys(tails.values()):
        heads = {a for a, tail in tails.items() if B <= tail}
        x, y = _literal(heads, s, planes[0]), _cover(B, s, planes[1:])
        if not (x or y):
            return ""
        terms.append(f"{x}&({y})" if x and y else x or y)
    return "|".join(terms)


def _plane_expressions(tables, k: int, planes, width: int) -> str:
    """The result of a k-ary symbol as one expression: its planes 1..width,
    a bare int when width is 1 and a tuple otherwise.  `tables` holds
    (size, table) per group of coordinates, whose mask is `G{g}`; a group's
    part is and-ed with its mask unless it is the only group and its part
    has no complement, which then stays inside the arguments' bits."""
    out = []
    for v in range(1, width + 1):
        parts = []
        for g, (s, t) in enumerate(tables):
            points = [args for args, value in zip(iproduct(range(s), repeat=k), t) if value == v]
            e = _cover(points, s, planes)
            if e == "":
                parts.append(f"G{g}")
            elif e is not None:
                parts.append(e if len(tables) == 1 and "~" not in e else f"G{g}&({e})")
        out.append("|".join(parts) or "0")
    return out[0] if width == 1 else f"({', '.join(out)},)"


def _plane_names(arg: str, width: int) -> dict[int, str]:
    return {1: arg} if width == 1 else {v: f"{arg}_{v}" for v in range(1, width + 1)}


@lru_cache(maxsize=4096)
def _kernel(tables: tuple, k: int, width: int) -> tuple[Callable, bool]:
    """The generated kernel of a symbol of arity k, through the package's one
    code cache, and whether it computes half rows; cached on its arguments
    too, so a repeated call builds no source.  A binary kernel is
    `f(x, pool, *masks)`: the row of f(x, y) for each y in `pool`, then, for
    a symbol that is not commutative, of f(y, x) for each y in `pool`.  A
    commutative symbol's kernel stops after the first half, which
    determines the second.  Any other kernel is `f(*args, *masks)`,
    one result.  Elements are their plane tuples (bare ints when width is
    1); masks are arguments, so one kernel serves every factor count of the
    same factor tables."""
    # The symbol's expression is built once, with argument j as the format
    # field {j}, and named per use.
    fields = [_plane_names(f"{{{j}}}", width) for j in range(k)]
    expression = _plane_expressions(tables, k, fields, width)
    args = ["x", "y"] if k == 2 else [f"a{j}" for j in range(k)]
    masks = [f"G{g}" for g in range(len(tables))]
    planes = {a: ", ".join(_plane_names(a, width).values()) + "," * (width > 1) for a in args}
    # A binary symbol is commutative on the whole product when each group's
    # table equals its transpose, whose row a is the column t[a::s].
    half = k == 2 and all(t == sum((t[a::s] for a in range(s)), ()) for s, t in tables)
    if k == 2:
        lines = [f"def f({', '.join(['x', 'pool'] + masks)}):"]
        each = f"for {planes['y']} in pool"
        body = f"[{expression.format('x', 'y')} {each}]"
        if not half:
            body += f" + [{expression.format('y', 'x')} {each}]"
    else:
        lines = [f"def f({', '.join(args + masks)}):"]
        body = expression.format(*args)
    if width > 1:
        lines += [f"    {planes[a]} = {a}" for a in args if a != "y"]
    lines.append(f"    return {body}")
    return _define("\n".join(lines) + "\n"), half


def generate_in_product(
    factors: list[FiniteAlgebra],
    seeds: list[tuple[int, ...]],
    signature: Signature,
    product_cap: int = DEFAULT_PRODUCT_CAP,
    name: str = "gen",
    stop_after: int | None = None,
) -> GenResult:
    """Close seed tuples under the componentwise operations of the factors,
    without materializing the full product.  The resulting universe is the set
    of reached tuples in lexicographic order.  With `stop_after`, generation
    raises `GenerationStopped` as soon as a (stop_after + 1)-th element would
    be interned; a closure of at most `stop_after` elements is returned as
    without it.

    Reached tuples are visited in a fixed order.  The constants come first, in
    signature order, then the seeds in their given order.  Each reached tuple
    is queued when first reached, and the work loop pops the queue last in,
    first out.  A popped x is combined with the pool of x and every element
    popped before it: for each symbol of positive arity in signature order,
    every argument tuple over the pool that has x in some position.  A binary
    symbol takes (x, y) for each y in the pool, x last, then (y, x) for each
    earlier y.  trace[i] is the first producer of element i in this order,
    ("seed", j) for seed j, so the trace is a function of the arguments alone.

    Tuples are bit-sliced.  Coordinate i of the product is bit i, and a
    reached tuple is stored as its value planes: for each value v >= 1 of
    the largest factor, the int whose bit i is set when coordinate i holds v
    (a bare int when every factor has at most 2 elements).  Plane 0 is the
    complement of the others.  Coordinates whose factors have equal tables
    form a group with one mask, and each symbol is one `&`/`|` expression
    per group over the planes of its arguments, so one application computes
    every coordinate at once.  A binary symbol computes a popped x's whole
    row, (x, y) over the pool, then (y, x) over the pool (its last entry
    repeats (x, x)), in one generated comprehension; the results are looked
    up in one pass and the misses interned in row order.  A binary symbol
    whose table is symmetric in every group is commutative on the whole
    product, and its row is the first half alone: each (y, x) entry equals
    the (x, y) entry at the same position of the first half, which was
    interned just before it, so the second half can never hold a first
    producer and leaving it out changes no trace.  Other symbols take one
    kernel call per argument tuple.  The planes determine the
    tuple, so the elements reached, the order they are queued and popped in
    and their first producers are those of the tuple-at-a-time loop; only
    the representation changed.  Tuples are decoded once, at the end, for
    the lexicographic order.

    The loop meets every argument tuple over the final universe, so the
    tables are the results it recorded, renumbered to lexicographic order;
    no operation is applied twice to the same arguments.  A commutative
    symbol's f(x_a, x_b) for b popped after a is read from the half row of
    x_b, transposed."""
    potential = math.prod(f.size for f in factors) if factors else 1
    if potential > product_cap:
        raise CapExceeded(potential, product_cap)
    for f in factors:
        if not f.signature.includes(signature):
            raise SignatureError(f"factor {f.name!r} is not over {signature.name!r}")
    m = len(factors)
    sizes = tuple(f.size for f in factors)
    width = max(max(sizes, default=1), 2) - 1
    # Coordinates are grouped by their factor's size and tables.
    groups: dict[tuple, int] = {}
    for i, f in enumerate(factors):
        own = f._ops
        key = (f.size, tuple(own[sym][1] for sym, _ in signature.symbols))
        groups[key] = groups.get(key, 0) | 1 << i
    masks = tuple(groups.values())
    top = 1 << m
    digits = [bytes.maketrans(b"01", bytes((0, v))) for v in range(1, width + 1)]

    def decode(key) -> tuple[int, ...]:
        bits = [bin(plane | top)[:2:-1].encode().translate(d)
                for plane, d in zip([key] if width == 1 else key, digits)]
        return tuple(bits[0]) if width == 1 else tuple(map(max, *bits))

    # Reached elements are numbered in order of discovery; per id: its
    # planes and its first producer.  No product holds more than
    # `potential` elements, so without `stop_after` the limit never binds.
    keys: list = []
    origins: list[tuple] = []
    ids: dict = {}
    queue: list[int] = []
    limit = potential if stop_after is None else stop_after

    def intern(key, origin: tuple) -> int:
        i = ids.get(key)
        if i is None:
            if len(keys) == limit:
                raise GenerationStopped(
                    tuple(map(decode, keys + [key])), tuple(origins) + (origin,)
                )
            i = ids[key] = len(keys)
            keys.append(key)
            origins.append(origin)
            queue.append(i)
        return i

    # Per symbol: its arity, its kernel, whether that computes half rows, and
    # the results recorded: for a binary symbol the row of each pop,
    # otherwise argument ids to value id.
    ops = []
    for slot, (sym, k) in enumerate(signature.symbols):
        tables = tuple((size, tabs[slot]) for size, tabs in groups)
        ops.append((sym, k, *_kernel(tables, k, width), [] if k == 2 else {}))
    for sym, k, apply, _, results in ops:
        if k == 0:
            results[()] = intern(apply(*masks), (sym,))
    seed_ids = []
    for j, t in enumerate(seeds):
        if len(t) != m or not all(0 <= v < size for v, size in zip(t, sizes)):
            raise ValueError(f"seed {t!r} is not an element of the product")
        planes = [0] * width
        for i, v in enumerate(t):
            if v:
                planes[v - 1] |= 1 << i
        seed_ids.append(intern(planes[0] if width == 1 else tuple(planes), ("seed", j)))

    done: list[int] = []  # ids in the order popped
    pool: list = []       # their planes
    while queue:
        x = queue.pop()
        kx = keys[x]
        done.append(x)
        pool.append(kx)
        p = len(done) - 1
        for sym, k, apply, _, results in ops:
            if k == 2:
                row = apply(kx, pool, *masks)
                got = list(map(ids.get, row))
                if None in got:
                    for j, i in enumerate(got):
                        if i is None:
                            args = (x, done[j]) if j <= p else (done[j - p - 1], x)
                            got[j] = intern(row[j], (sym,) + args)
                results.append(got)
            elif k:
                for i in range(k):
                    for rest in iproduct(done, repeat=k - 1):
                        args = rest[:i] + (x,) + rest[i:]
                        value = apply(*map(keys.__getitem__, args), *masks)
                        results[args] = intern(value, (sym,) + args)

    tuples = list(map(decode, keys))
    order = sorted(range(len(keys)), key=tuples.__getitem__)
    n = len(order)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    position = [0] * n
    for a, i in enumerate(done):
        position[i] = a
    popped = [position[i] for i in order]  # pop position of each rank
    # Picks a pop-ordered row's entries in rank order; `itemgetter` of one
    # index would return a bare value.
    pick = itemgetter(*popped) if n > 1 else lambda row: [row[a] for a in popped]
    tables = []
    for _, k, _, half, results in ops:
        if k == 2:
            # Row a holds f(x_a, x_b) for b <= a, then, unless the symbol is
            # commutative, f(x_b, x_a) for b <= a; those second halves, or
            # for a commutative symbol the first, transposed, give
            # f(x_a, x_b) for b > a, and each row is completed in place.
            rows = [list(map(rank.__getitem__, row)) for row in results]
            seconds = rows if half else [row[a + 1:] for a, row in enumerate(rows)]
            columns = list(zip_longest(*seconds))
            for a, row in enumerate(rows):
                del row[a + 1:]
                row += columns[a][a + 1:]
            tables.append(tuple(chain.from_iterable(map(pick, map(rows.__getitem__, popped)))))
        else:
            tables.append(tuple(
                map(rank.__getitem__, map(results.__getitem__, iproduct(order, repeat=k)))
            ))
    algebra = FiniteAlgebra(name, signature, n, tuple(tables))
    trace = tuple(
        origins[i] if origins[i][0] == "seed"
        else (origins[i][0],) + tuple(map(rank.__getitem__, origins[i][1:]))
        for i in order
    )
    seed_index = tuple(map(rank.__getitem__, seed_ids))
    return GenResult(algebra, tuple(map(tuples.__getitem__, order)), seed_index, trace)


def free_algebra(
    K: Quasivariety,
    names,
    product_cap: int = DEFAULT_PRODUCT_CAP,
) -> tuple[FiniteAlgebra, dict[str, int]]:
    """Free algebra of K on the given generator names, computed as the
    subalgebra of the product over all name assignments into generators,
    generated by the coordinate tuples of the names."""
    if not K.is_generated:
        raise ValueError("free algebras are only computed for generated presentations")
    names = list(names)
    if not names:
        raise ValueError("free algebras are taken over nonempty generator sets")
    if len(set(names)) != len(names):
        raise ValueError("generator names must be distinct")
    factors: list[FiniteAlgebra] = []
    columns: list[tuple[int, ...]] = []
    for G in K.generators:
        for assignment in iproduct(range(G.size), repeat=len(names)):
            factors.append(G)
            columns.append(assignment)
    seeds = [tuple(col[j] for col in columns) for j in range(len(names))]
    gen = generate_in_product(
        factors, seeds, K.signature, product_cap, name=f"T_{K.name}({len(names)})"
    )
    return gen.algebra, {nm: gen.seed_index[j] for j, nm in enumerate(names)}


# ---------------------------------------------------------------------------
# Member enumeration


def _axiom_sides(signature: Signature, axioms) -> list[tuple[int, tuple[Callable, ...]]]:
    """Each axiom's variable count and its sides, compiled by `compile_term`'s
    partial form over its variables in sorted order: premise left and right,
    in order, then the conclusion's."""
    out = []
    for q in axioms:
        names = sorted(equations_variables((*q.premises, q.conclusion)))
        sides = tuple(
            compile_term(signature, side, names, partial=True)
            for eq in (*q.premises, q.conclusion)
            for side in (eq.left, eq.right)
        )
        out.append((len(names), sides))
    return out


def _axiomatic_models(signature: Signature, axioms, size: int, sides=None) -> list[FiniteAlgebra]:
    """Size-`size` models of the axioms, at least one per isomorphism class,
    by cell-wise backtracking over the operation tables.

    Cells are filled in order of their largest argument: the constants
    first, then the cells whose largest argument is 0, then 1, and so on;
    ties go by symbol, then by flat index.  Let mx be the largest element
    among the arguments of the current cell and the arguments and values of
    the cells already filled.  The cell tries only the values up to mx+1
    (the least-number heuristic).  This loses no class.  No element above mx
    occurs in the filled cells or in the current cell, so swapping two such
    elements maps every model that extends the filled cells to an
    isomorphic model that extends them too, and the current cell keeps its
    arguments.  A model whose current cell holds some v > mx+1 is therefore
    isomorphic, by swapping v and mx+1, to one that the search reaches
    through the value mx+1; by induction on the cells left, every model
    has an isomorphic copy among the leaves.  `IsoRegistry` removes the
    copies that remain.

    Each axiom is compiled once into its sides by `_axiom_sides`, unless the
    caller passes them in `sides`: `_member_classes` compiles them once per
    class and passes them to the search at every size.  An axiom's ground
    instances are the assignments of elements to its variables.  An
    unfilled cell holds ~c, for c its place in the cell order, so evaluating
    a side gives its value or ~c for the first unfilled cell c it reads.  An
    instance is evaluated side by side and stops at such a cell: it waits in
    the watch bucket of c, with the sides evaluated so far.  Filling cell c
    evaluates bucket c alone, from the side each instance stopped at.  A
    false premise or a holding conclusion drops the instance: filled cells
    keep their values below the node, so it holds in every model the branch
    reaches.  True premises with a failing conclusion violate it, and the
    value is pruned.  Otherwise the instance moves to the bucket of the
    next unfilled cell it reads; every cell before c is filled, so that cell
    comes after c.  The moves of a value are undone before the next value.

    Invariant: every instance still undecided on the branch waits in the
    bucket of an unfilled cell that its evaluation reads, given the filled
    cells.  So an instance is decided no later than the node that fills the
    last cell it reads, and the search prunes exactly where a search that
    evaluated every undecided instance at every node would: a violated
    instance is found at the node that fills its last-read cell, its watched
    cell.  The leaves, and their order, are the same.  At a leaf every cell
    is filled, no instance waits, and the tables satisfy every axiom."""
    n = size
    cells = sorted(
        (max(args, default=-1), i, flat)
        for i, (_, k) in enumerate(signature.symbols)
        for flat, args in enumerate(iproduct(range(n), repeat=k))
    )
    tables = [[0] * n**k for _, k in signature.symbols]
    for c, (_, i, flat) in enumerate(cells):
        tables[i][flat] = ~c
    watch: list[list] = [[] for _ in cells]

    def wake(bucket: list, moved: list) -> bool:
        """Resume each instance of `bucket` at the side it stopped at, and
        move each that stops at an unfilled cell to that cell's bucket,
        noting the cell in `moved`; False if one is violated."""
        for sides, values, k, left in bucket:
            while True:
                x = sides[k](tables, n, values)
                if x < 0:
                    c = ~x
                    watch[c].append((sides, values, k, left))
                    moved.append(c)
                    break
                if not k & 1:  # a left side
                    left = x
                elif k == len(sides) - 1:  # the conclusion
                    if x != left:
                        return False
                    break
                elif x != left:  # a false premise
                    break
                k += 1
        return True

    found: list[FiniteAlgebra] = []

    def rec(ci: int, mx: int) -> None:
        if ci == len(cells):
            found.append(
                FiniteAlgebra(f"model{n}", signature, n, tuple(map(tuple, tables)))
            )
            return
        top, i, flat = cells[ci]
        mx = max(mx, top)
        for v in range(min(n, mx + 2)):
            tables[i][flat] = v
            moved: list[int] = []
            if wake(watch[ci], moved):
                rec(ci + 1, max(mx, v))
            for c in moved:
                watch[c].pop()
        tables[i][flat] = ~ci

    instances = [
        (compiled, values, 0, None)
        for arity, compiled in (_axiom_sides(signature, axioms) if sides is None else sides)
        for values in iproduct(range(n), repeat=arity)
    ]
    if wake(instances, []):
        rec(0, -1)
    return found


@lru_cache(maxsize=None)
def _member_classes(K: Quasivariety, max_size: int) -> tuple[FiniteAlgebra, ...]:
    """All members of K of size <= max_size, up to isomorphism, sorted by
    (size, tables).  The cache key compares presentations by structure, so
    the names here are placeholders: `members_up_to` applies K's.

    Generated presentations start from the trivial algebra and add, for each
    class C found and each generator G, the subdirect subalgebras of C x G:
    those whose first projection is all of C.  This is complete at every
    bound.  A member A of ISP(gens) embeds in a product G_1 x ... x G_k, and
    its projections A_i onto the first i factors are homomorphic images of
    A, so |A_i| <= |A|.  Each A_i is a subdirect subalgebra of A_(i-1) x G_i,
    and A_k is isomorphic to A.  By induction on i every A_i is isomorphic to
    a class found, from A_0 the trivial algebra up to A_k.  A subalgebra of
    C x G that projects onto a proper subalgebra of C is a member too, and
    the induction reaches it through a smaller class, so the search never
    builds one.

    A subdirect subuniverse S with |S| = |C| is neither built nor looked up.
    Its first projection is onto C and one-to-one, so S is the graph of a
    homomorphism C -> G, and that projection is an isomorphism S -> C.  C is
    already a class of the registry, so adding S would change nothing.  A
    class C with max_size elements is therefore not searched at all: every
    subdirect S has |S| >= |C|, so within the bound |S| = |C|.

    Any other S is looked up before it is built: its tables, relabelled as
    `subalgebra` relabels them, go to the registry's exact-copy lookup, and
    only a candidate with new tables becomes a `FiniteAlgebra` and is added.
    At DL 8, 84 of the 143 candidates are such copies."""
    registry = IsoRegistry()
    if K.is_generated:
        worklist = [registry.add(trivial_algebra(K.signature))[0]]
        while worklist:
            C = worklist.pop(0)
            if C.size >= max_size:
                continue
            for G in K.generators:
                P = direct_product([C, G])
                for sub in all_subuniverses(P, max_size=max_size, first_factor=C.size):
                    if len(sub) == C.size:
                        continue
                    tables = _subalgebra_tables(P, sorted(sub))
                    if registry.copy_of(P.signature, len(sub), tables) is None:
                        S = FiniteAlgebra(f"{P.name}|{len(sub)}", P.signature, len(sub), tables)
                        if registry.add(S)[1]:
                            worklist.append(S)
    else:
        sides = _axiom_sides(K.signature, K.axioms)
        for size in range(1, max_size + 1):
            for model in _axiomatic_models(K.signature, K.axioms, size, sides):
                registry.add(model)
    members = [A for A in registry.members if A.size <= max_size]
    return tuple(sorted(members, key=lambda A: (A.size, A.tables)))


def label_classes(members, prefix: str, signature: Signature) -> list[FiniteAlgebra]:
    """Name classes `{prefix}/n{size}#{index}` over the caller's signature
    object, so names never depend on which equal key filled a cache first."""
    return [
        replace(A, name=f"{prefix}/n{A.size}#{i}", signature=signature)
        for i, A in enumerate(members)
    ]


def members_up_to(K: Quasivariety, max_size: int) -> list[FiniteAlgebra]:
    return label_classes(_member_classes(K, max_size), K.name, K.signature)


def enumerate_members(K: Quasivariety, n: int) -> list[FiniteAlgebra]:
    """All size-n members of K up to isomorphism, deterministically ordered."""
    return [A for A in members_up_to(K, n) if A.size == n]


@record
class Amalgam:
    apex: FiniteAlgebra
    left_leg: Homomorphism
    right_leg: Homomorphism


def bounded_amalgamation(
    A: FiniteAlgebra,
    B: FiniteAlgebra,
    C: FiniteAlgebra,
    f: Homomorphism,
    g: Homomorphism,
    K: Quasivariety,
    size_bound: int,
) -> Verdict:
    """Search for D in K (|D| <= size_bound) with embeddings completing the
    span: an `Amalgam` holds, and the negative answer is bound-relative
    only.  Both legs must be members, which makes the apex one too."""
    if not (is_embedding(f) and is_embedding(g)):
        raise ValueError("both legs of the span must be embeddings")
    if f.source != A or g.source != A or f.target != B or g.target != C:
        raise ValueError("span legs do not match the given algebras")
    require_member(B, K)
    require_member(C, K)
    for D in members_up_to(K, size_bound):
        if D.size < max(B.size, C.size):
            continue
        for f2 in enumerate_embeddings(B, D, K.signature):
            pinned = {g(a): f2(f(a)) for a in range(A.size)}
            found = enumerate_embeddings(C, D, K.signature, pinned=pinned, limit=1)
            if found:
                return Verdict("amalgamation", "holds", Amalgam(D, f2, found[0]))
    return Verdict("amalgamation", "unknown-within-bound", NotFoundWithinBound(size_bound))
