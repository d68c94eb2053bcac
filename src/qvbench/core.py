"""Finite algebras with total operation tables and the basic constructions on them.

Universes are always 0..n-1.  Product elements are encoded lexicographically
with the last factor varying fastest, so every construction here is
bit-reproducible.  Every operation is a pure function, and every type is
immutable after construction: the `record` decorator, which builds the
package's record classes, makes assigning or deleting a field raise
`FrozenRecordError`.
"""
from __future__ import annotations

from functools import cached_property, reduce
from itertools import islice, permutations, product as iproduct
from operator import eq, or_


class FrozenRecordError(AttributeError):
    """A field of a record was assigned or deleted."""


class Fresh:
    """The default of a record field that each record gets anew, as `make()`."""

    def __init__(self, make):
        self.make = make


def _assign(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls=None, /, *, uncompared=()):
    """Give `cls` the `__init__`, `__repr__`, `__eq__` and `__hash__` of a
    dataclass with the annotated fields, in order, and the class attributes
    of the same names as their defaults; `Fresh(make)` is a default made
    anew per record.  `__init__` calls `__post_init__` when the class has
    one.  `__eq__` and `__hash__` read every field not in `uncompared`, and
    the hash is that of their tuple.  A record refuses assignment and
    deletion of any attribute.  `_fields` lists the fields.

    It replaces `dataclasses`, whose processing of the package's 37 classes
    took 32–43 ms of each cold import on Python 3.10 and 3.11 (216 `exec`
    calls) and still about 47 ms on 3.13, which execs once per class.  Here
    each class takes one `exec`, of `__init__`, `__eq__` and `__hash__`,
    which read and set each field by its own expression; `__repr__`, which
    no pass calls, is a closure over the field names.
    The records have no `__slots__`, since `cached_property` stores in the
    instance `__dict__`, and no `__dataclass_fields__`, since tools that find
    one (hypothesis's pretty printer) then read it as a real dataclass's."""
    if cls is None:
        return lambda cls: record(cls, uncompared=uncompared)
    fields = tuple(cls.__annotations__)
    compared = [f for f in fields if f not in uncompared]
    namespace = {"_set": object.__setattr__}
    params, body = [], []
    for f in fields:
        value = f
        if f in cls.__dict__:
            default = namespace[f"_d_{f}"] = cls.__dict__[f]
            params.append(f"{f}=_d_{f}")
            if isinstance(default, Fresh):
                delattr(cls, f)
                value = f"_d_{f}.make() if {f} is _d_{f} else {f}"
        else:
            params.append(f)
        body.append(f"_set(self, {f!r}, {value})")
    if "__post_init__" in cls.__dict__:
        body.append("self.__post_init__()")
    mine = ", ".join(f"self.{f}" for f in compared)
    theirs = ", ".join(f"other.{f}" for f in compared)
    source = (
        f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body) + "\n"
        "def __eq__(self, other):\n"
        "    if self is other:\n"
        "        return True\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine},) == ({theirs},)\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine},))\n"
    )
    exec(source, namespace)

    def __repr__(self):
        items = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({items})"

    for method in (namespace["__init__"], namespace["__eq__"], namespace["__hash__"], __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    cls._fields = fields
    return cls


def replace(obj, /, **changes):
    """A new record of `obj`'s class with `obj`'s fields, except `changes`."""
    return obj.__class__(**{f: getattr(obj, f) for f in obj._fields} | changes)


class SignatureError(ValueError):
    """Symbols, arities, or signature inclusions do not line up."""


@record(uncompared=("name",))
class Signature:
    name: str
    symbols: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for sym, arity in self.symbols:
            if sym in seen:
                raise SignatureError(f"duplicate symbol {sym!r} in signature {self.name!r}")
            if arity < 0:
                raise SignatureError(f"symbol {sym!r} has negative arity")
            seen.add(sym)

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.symbols)

    def arity(self, sym: str) -> int:
        try:
            return self.arities[sym]
        except KeyError:
            raise SignatureError(f"unknown symbol {sym!r} in signature {self.name!r}") from None

    def includes(self, other: Signature) -> bool:
        """True when every symbol of `other` occurs here with the same arity."""
        return all(self.arities.get(sym) == k for sym, k in other.symbols)


@record(uncompared=("name",))
class FiniteAlgebra:
    """A finite algebra on 0..size-1.  Its cells are ints in range(size):
    construction checks their types and range once, on the distinct cells
    of all tables, and the report emitter relies on this and writes a table
    with no second scan.  A cell equal in value to an int cell, such as
    True beside 1, is not among the distinct cells and slips through; the
    parser and every construction in the package give int cells."""

    name: str
    signature: Signature = Signature("empty")
    size: int = 1
    # tables[i] is the flat table for signature.symbols[i], row-major with the
    # last argument varying fastest; a nullary table is a 1-tuple.
    tables: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("algebras must have at least one element")
        if len(self.tables) != len(self.signature.symbols):
            raise SignatureError(
                f"{self.name!r}: expected {len(self.signature.symbols)} tables, got {len(self.tables)}"
            )
        # Types and range are tested on the distinct cells of all tables;
        # only when that fails are the tables scanned one by one, for the
        # first error.
        try:
            cells = set().union(*self.tables)
            in_range = not cells or (
                {int}.issuperset(map(type, cells)) and min(cells) >= 0 and max(cells) < self.size
            )
        except TypeError:
            in_range = False
        for (sym, k), table in zip(self.signature.symbols, self.tables):
            if len(table) != self.size**k:
                raise SignatureError(f"{self.name!r}: table for {sym}/{k} has wrong length")
            if not in_range and (
                set(map(type, table)) != {int} or min(table) < 0 or max(table) >= self.size
            ):
                raise ValueError(f"{self.name!r}: table for {sym} has out-of-universe entries")

    @cached_property
    def _ops(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        return {
            sym: (k, self.tables[i])
            for i, (sym, k) in enumerate(self.signature.symbols)
        }

    def apply(self, sym: str, args: tuple[int, ...]) -> int:
        try:
            k, table = self._ops[sym]
        except KeyError:
            raise SignatureError(f"unknown symbol {sym!r} on algebra {self.name!r}") from None
        if len(args) != k:
            raise SignatureError(f"{sym}/{k} applied to {len(args)} arguments")
        i = 0
        for a in args:
            i = i * self.size + a
        return table[i]

    def constants(self) -> list[int]:
        return [self.apply(sym, ()) for sym, k in self.signature.symbols if k == 0]

    def renamed(self, name: str) -> FiniteAlgebra:
        return replace(self, name=name)


def trivial_algebra(signature: Signature) -> FiniteAlgebra:
    tables = tuple((0,) * (1**k) for _, k in signature.symbols)
    return FiniteAlgebra("triv", signature, 1, tables)


@record
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    language: Signature
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def apply_tuple(self, args: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.mapping[a] for a in args)


def is_homomorphism(h: Homomorphism) -> bool:
    """Exhaustive preservation check of h over its language."""
    if len(h.mapping) != h.source.size:
        return False
    if any(not (0 <= v < h.target.size) for v in h.mapping):
        return False
    for sym, k in h.language.symbols:
        for args in iproduct(range(h.source.size), repeat=k):
            if h.mapping[h.source.apply(sym, args)] != h.target.apply(sym, h.apply_tuple(args)):
                return False
    return True


def is_embedding(h: Homomorphism) -> bool:
    return len(set(h.mapping)) == len(h.mapping)


def identity_homomorphism(A: FiniteAlgebra, language: Signature) -> Homomorphism:
    return Homomorphism(A, A, language, tuple(range(A.size)))


def _hom_plan(A: FiniteAlgebra, language: Signature, pinned=()) -> tuple:
    """The plan of a `_hom_search` from A: the positions the sweep assigns,
    in increasing order, and the operation instances each step tests, in
    one list per arity: unary (i, a, r), binary (i, a, b, r) and higher
    (i, args, r) for f(args) = r in A, with i the index of f in the
    language.  Step p + 1 tests the instances whose last position not
    pre-assigned is p, step 0 those whose positions are all pre-assigned:
    A's constants in the language and the keys of `pinned`.  Nothing here
    depends on the target, so a caller that searches from A into many
    targets builds the plan once and passes it to each search."""
    n = A.size
    fixed = {A._ops[sym][1][0] for sym, k in language.symbols if k == 0}.union(pinned)
    rank = [-1 if p in fixed else p for p in range(n)]
    unary: list[list] = [[] for _ in range(n + 1)]
    binary: list[list] = [[] for _ in range(n + 1)]
    higher: list[list] = [[] for _ in range(n + 1)]
    for i, (sym, k) in enumerate(language.symbols):
        ta = A._ops[sym][1]
        if k == 1:
            for a, r in enumerate(ta):
                unary[max(rank[a], rank[r]) + 1].append((i, a, r))
        elif k == 2:
            for flat, r in enumerate(ta):
                a, b = divmod(flat, n)
                binary[max(rank[a], rank[b], rank[r]) + 1].append((i, a, b, r))
        elif k > 2:
            for args, r in zip(iproduct(range(n), repeat=k), ta):
                higher[max(rank[r], *map(rank.__getitem__, args)) + 1].append((i, args, r))
    return [p for p in range(n) if p not in fixed], unary, binary, higher


def _hom_search(
    A: FiniteAlgebra,
    B: FiniteAlgebra,
    language: Signature,
    injective: bool = False,
    pinned: dict[int, int] | None = None,
    limit: int | None = None,
    domains: list | None = None,
    plan: tuple | None = None,
) -> list[tuple[int, ...]]:
    """Backtracking search for language-homomorphisms A -> B, in lexicographic
    order of the map arrays.  Nullary symbols and `pinned` pre-assign values;
    the sweep assigns the other positions in increasing order.

    Each operation instance f(args) = res of A is tested exactly once: in
    the sweep step of the last position among args and res that is not
    pre-assigned, when all of them have values, or before the sweep when
    every one of them is pre-assigned.  A test reads B's flat table at the
    row-major index of the images of args.  `_hom_plan` lists the tests of
    each step; `plan`, when given, is its plan for A, the language and the
    keys of `pinned`, which a caller reuses across targets.

    With `domains`, the sweep tries at position p only the values of
    domains[p], which must be in increasing order, so the search returns,
    in the same order, the maps of the full search whose free positions
    take values in their domains."""
    n, m = A.size, B.size
    mapping = [-1] * n
    for sym, k in language.symbols:
        if k == 0:
            a, b = A._ops[sym][1][0], B._ops[sym][1][0]
            if mapping[a] not in (-1, b):
                return []
            mapping[a] = b
    for a, b in (pinned or {}).items():
        if mapping[a] not in (-1, b):
            return []
        mapping[a] = b
    used = {v for v in mapping if v != -1}
    if injective and len(used) != n - mapping.count(-1):
        return []
    free, unary, binary, higher = plan or _hom_plan(A, language, pinned or ())
    tables = [B._ops[sym][1] for sym, _ in language.symbols]

    def consistent(step: int) -> bool:
        for i, a, r in unary[step]:
            if tables[i][mapping[a]] != mapping[r]:
                return False
        for i, a, b, r in binary[step]:
            if tables[i][mapping[a] * m + mapping[b]] != mapping[r]:
                return False
        for i, args, r in higher[step]:
            flat = 0
            for a in args:
                flat = flat * m + mapping[a]
            if tables[i][flat] != mapping[r]:
                return False
        return True

    if not consistent(0):
        return []
    values = domains or [range(m)] * n
    results: list[tuple[int, ...]] = []

    # Assigns free[i] onwards.  A test reads only pre-assigned positions and
    # those the sweep set at or before its step, so a backtracked position
    # needs no reset.  `used` is read only when injective.  Returns True
    # once the limit is hit.
    def rec(i: int) -> bool:
        if i == len(free):
            results.append(tuple(mapping))
            return limit is not None and len(results) >= limit
        p = free[i]
        for v in values[p]:
            if injective and v in used:
                continue
            mapping[p] = v
            if consistent(p + 1):
                used.add(v)
                done = rec(i + 1)
                used.discard(v)
                if done:
                    return True
        return False

    rec(0)
    return results


def enumerate_homomorphisms(A: FiniteAlgebra, B: FiniteAlgebra, language: Signature) -> list[Homomorphism]:
    """All language-homomorphisms A -> B, duplicate-free, in lexicographic
    order of the map arrays."""
    if not A.signature.includes(language) or not B.signature.includes(language):
        raise SignatureError("language is not a reduct of both signatures")
    return [Homomorphism(A, B, language, m) for m in _hom_search(A, B, language)]


def enumerate_embeddings(
    A: FiniteAlgebra,
    B: FiniteAlgebra,
    language: Signature,
    pinned: dict[int, int] | None = None,
    limit: int | None = None,
) -> list[Homomorphism]:
    """Language-embeddings A -> B that agree with `pinned`, in lexicographic
    order of the map arrays; with `limit`, only the first `limit` of them."""
    if not A.signature.includes(language) or not B.signature.includes(language):
        raise SignatureError("language is not a reduct of both signatures")
    return [
        Homomorphism(A, B, language, m)
        for m in _hom_search(A, B, language, injective=True, pinned=pinned, limit=limit)
    ]


def direct_product(factors: list[FiniteAlgebra]) -> FiniteAlgebra:
    """Componentwise product; element (a_0,..,a_k) is encoded lexicographically
    with the last factor fastest."""
    if not factors:
        raise ValueError("direct_product needs at least one factor")
    sig = factors[0].signature
    for f in factors[1:]:
        if f.signature != sig:
            raise SignatureError("product factors must share a signature")
    size, tables = factors[0].size, factors[0].tables
    for f in factors[1:]:
        tables = _pair_tables(sig, size, tables, f.size, f.tables)
        size *= f.size
    return FiniteAlgebra("x".join(f.name for f in factors), sig, size, tables)


def _pair_tables(sig: Signature, a: int, left, b: int, right) -> tuple[tuple[int, ...], ...]:
    """Tables of the product of two algebras of sizes a and b, given by their
    flat tables; (i, j) is encoded as i * b + j.  Folding this over the
    factors gives the lexicographic encoding of `direct_product`."""
    coords = [divmod(p, b) for p in range(a * b)]
    rows = [(i * a, j * b) for i, j in coords]
    tables = []
    for (_, k), tl, tr in zip(sig.symbols, left, right):
        if k == 2:
            table = [tl[ri + i] * b + tr[rj + j] for ri, rj in rows for i, j in coords]
        else:
            table = []
            for args in iproduct(coords, repeat=k):
                fl = fr = 0
                for i, j in args:
                    fl = fl * a + i
                    fr = fr * b + j
                table.append(tl[fl] * b + tr[fr])
        tables.append(tuple(table))
    return tuple(tables)


def reduct(A: FiniteAlgebra, language: Signature) -> FiniteAlgebra:
    """Same universe, tables restricted to the given language."""
    if not A.signature.includes(language):
        raise SignatureError(f"{language.name!r} is not a reduct of {A.signature.name!r}")
    tables = tuple(A._ops[sym][1] for sym, _ in language.symbols)
    return FiniteAlgebra(A.name, language, A.size, tables)


def _mask_tables(A: FiniteAlgebra) -> tuple:
    """The tables `_close` reads, over int bitmasks: bit e of a mask stands
    for element e.  Returns (rows, higher, n): rows[x][y] is the mask of
    f(x, y) and f(y, x) for every binary f, rows[x][x] adds u(x) for every
    unary u, higher lists (arity, table) for each symbol of arity >= 3, and
    n is |A|.  Nothing is cached on A: a row holds n masks of n bits."""
    n = A.size
    unary, binary, higher = [], [], []
    for (_, k), table in zip(A.signature.symbols, A.tables):
        if k == 1:
            unary.append(table)
        elif k == 2:
            binary.append(table)
        elif k > 2:
            higher.append((k, table))

    def row(x: int) -> list[int]:
        masks = [0] * n
        for t in binary:
            masks = [m | 1 << a | 1 << b for m, a, b in zip(masks, t[x * n:x * n + n], t[x::n])]
        for t in unary:
            masks[x] |= 1 << t[x]
        return masks

    return [row(x) for x in range(n)], tuple(higher), n


def _close(tables: tuple, members: int, done: list[int], queue: list[int], limit: int) -> int:
    """The one closure loop of `closure`, `closure_extend` and
    `all_subuniverses`, over the bitmask `members` with the tables of
    `_mask_tables`.  Each queued element x is combined with the processed
    elements `done` and itself: the masks of rows[x] at them, and for higher
    arities every tuple over them with x in some position.  The closed set
    does not depend on the order of the queue.  `done` ends as the list of
    the closure's elements, in the order processed.  Stops once the set
    grows past `limit` and returns that unfinished set."""
    rows, higher, n = tables
    size = members.bit_count()
    while queue:
        x = queue.pop()
        masks = rows[x]
        reached = reduce(or_, map(masks.__getitem__, done), masks[x])
        for k, table in higher:
            pool = done + [x]
            for i in range(k):
                for rest in iproduct(pool, repeat=k - 1):
                    flat = 0
                    for a in rest[:i] + (x,) + rest[i:]:
                        flat = flat * n + a
                    reached |= 1 << table[flat]
        fresh = reached & ~members
        if fresh:
            members |= fresh
            size += fresh.bit_count()
            if size > limit:
                return members
            queue.extend(_elements(fresh))
        done.append(x)
    return members


def _elements(mask: int) -> list[int]:
    """The elements of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(elements) -> int:
    return reduce(or_, (1 << e for e in elements), 0)


def closure(A: FiniteAlgebra, seed) -> set[int]:
    """Least subset of the universe containing `seed` and all constants, closed
    under all operations."""
    members: set[int] = set()
    for x in seed:
        if not (0 <= x < A.size):
            raise ValueError(f"seed element {x} outside universe")
        members.add(x)
    members.update(A.constants())
    closed = _close(_mask_tables(A), _mask(members), [], sorted(members), A.size)
    return set(_elements(closed))


def closure_extend(A: FiniteAlgebra, closed, x: int, max_size: int | None = None) -> set[int]:
    """Closure of closed | {x} where `closed` is already a closed set (or
    empty); skips recombining the old elements with each other.  With
    `max_size`, stops as soon as the set has more than `max_size` elements and
    returns that unfinished set, for callers that drop such sets anyway."""
    members = set(closed)
    if x in members:
        return members
    members.add(x)
    limit = A.size if max_size is None else max_size
    grown = _close(_mask_tables(A), _mask(members), list(closed), [x], limit)
    return set(_elements(grown))


def generated_subalgebra(A: FiniteAlgebra, seed) -> frozenset[int]:
    """Subuniverse generated by `seed` (fixpoint iteration); monotone in seed
    and idempotent."""
    return frozenset(closure(A, seed))


def subalgebra(A: FiniteAlgebra, subset) -> tuple[FiniteAlgebra, Homomorphism]:
    """The algebra on a closed subset (re-indexed by its sorted order) together
    with the inclusion embedding."""
    elems = sorted(set(subset))
    S = FiniteAlgebra(f"{A.name}|{len(elems)}", A.signature, len(elems), _subalgebra_tables(A, elems))
    return S, Homomorphism(S, A, A.signature, tuple(elems))


def _subalgebra_tables(A: FiniteAlgebra, elems: list[int]) -> tuple[tuple[int, ...], ...]:
    """The tables of `subalgebra` on the sorted elements `elems`, element
    elems[i] numbered i; a ValueError when they are not closed."""
    n = A.size
    index = [-1] * n
    for i, e in enumerate(elems):
        index[e] = i
    tables = []
    for (sym, k), table in zip(A.signature.symbols, A.tables):
        if k == 2:
            values = [index[table[row + y]] for row in [x * n for x in elems] for y in elems]
        else:
            values = []
            for args in iproduct(elems, repeat=k):
                flat = 0
                for a in args:
                    flat = flat * n + a
                values.append(index[table[flat]])
        if -1 in values:
            args = next(islice(iproduct(elems, repeat=k), values.index(-1), None))
            raise ValueError(f"subset not closed under {sym} at {args}")
        tables.append(tuple(values))
    return tuple(tables)


def all_subuniverses(
    A: FiniteAlgebra, max_size: int | None = None, first_factor: int | None = None
) -> list[frozenset[int]]:
    """All nonempty subuniverses of size <= max_size, sorted by (size,
    elements).  With `first_factor` = |C|, A is read as a product C x G
    (element e has first coordinate e // (|A| / |C|)) and only the subdirect
    subuniverses, those whose first projection is all of C, are returned.
    Without it A is read as 1 x A, whose subdirect subuniverses are the
    nonempty ones.

    The search is Close-by-One (Kuznetsov, 1993), which lists every closed
    set exactly once.  A node is a closed set S with a start y; the root is
    the closure of the empty set with y = 0.  For each x >= y outside S the
    child T = closure(S | {x}) is kept, with start x + 1, when it is
    canonical: every element T adds to S is >= x.  Every closed T other than
    the root is the canonical child of exactly one node, and that node's set
    is a closed proper subset of T, so following parents from T reaches the
    root through closed subsets of T.

    Sets are int bitmasks (bit e for element e), closed by `_close` over
    the rows of `_mask_tables`, built once per call.  A node carries its
    elements in a list and the mask of the first coordinates it covers.

    The prunes drop a node only when no set at or below it is returned.
    The least size of a returned set containing S is ls(S) = |S| + (|C| -
    |pi_1(S)|): a subdirect T containing S holds S and at least one more
    element for each first coordinate S misses.  It never falls when an
    element is added, so every ancestor of a returned set is within
    max_size, and no pruned node is the ancestor of a returned set.  Before
    closing S | {x}, the search tests ls(S | {x}) = ls(S) + [x's first
    coordinate is covered by S] against max_size: closure(S | {x}) contains
    S | {x}, so a child that fails this test would be beyond the bound too.
    Closures stop once they outgrow max_size, since such a child is dropped
    anyway.

    A node's loop stops at the end of the fibre of the least first
    coordinate c that S misses.  `direct_product` numbers (c, g) as
    c * w + g with w = |G|, so that fibre is c * w .. c * w + w - 1.  For x
    >= (c + 1) * w the child closure(S | {x}) either covers c, through an
    element below x that S lacks, and is not canonical; or it misses c, and
    so does every set below it, since canonical descendants add only
    elements > x: none of them is subdirect.  Without `first_factor` the
    one fibre is all of A and the loop runs to |A|."""
    n = A.size
    limit = n if max_size is None else max_size
    parts = first_factor or 1
    width = n // parts
    coordinate = [1 << (e // width) for e in range(n)]
    tables = _mask_tables(A)
    # The root is the closure of the constants, under the same test before
    # closing as every other node.  A closure cut at the bound leaves its
    # element list unfinished, but then its size alone is beyond the bound.
    constants = sorted(set(A.constants()))
    covered = reduce(or_, map(coordinate.__getitem__, constants), 0)
    if len(constants) + parts - covered.bit_count() > limit:
        return []
    elements: list[int] = []
    base = _close(tables, _mask(constants), elements, constants, limit)
    covered = reduce(or_, map(coordinate.__getitem__, elements), 0)
    if base.bit_count() + parts - covered.bit_count() > limit:
        return []
    found = [elements] if covered.bit_count() == parts else []
    # A node is (S, its elements, the first coordinates it covers, y).
    stack = [(base, elements, covered, 0)]
    while stack:
        S, elements, covered, y = stack.pop()
        least = len(elements) + parts - covered.bit_count()
        gap = ~covered & (covered + 1)
        for x in range(y, min(n, gap.bit_length() * width)):
            bit = 1 << x
            if S & bit or least + (covered & coordinate[x] != 0) > limit:
                continue
            grown = elements.copy()
            T = _close(tables, S | bit, grown, [x], limit)
            reached = covered | reduce(or_, map(coordinate.__getitem__, grown[len(elements):]), 0)
            if T.bit_count() + parts - reached.bit_count() <= limit and not (T ^ S) & (bit - 1):
                if reached.bit_count() == parts:
                    found.append(grown)
                stack.append((T, grown, reached, x + 1))
    out = sorted(map(sorted, found), key=lambda S: (len(S), S))
    return [frozenset(S) for S in out]


@record
class Congruence:
    """Partition given by its canonical block-index array: partition[i] is the
    least element of i's block."""
    algebra: FiniteAlgebra
    partition: tuple[int, ...]

    @classmethod
    def from_labels(cls, A: FiniteAlgebra, labels) -> Congruence:
        least: dict[int, int] = {}
        for i, lab in enumerate(labels):
            least.setdefault(lab, i)
        return cls(A, tuple(least[lab] for lab in labels))

    def blocks(self) -> list[list[int]]:
        by_rep: dict[int, list[int]] = {}
        for i, rep in enumerate(self.partition):
            by_rep.setdefault(rep, []).append(i)
        return [by_rep[r] for r in sorted(by_rep)]


def _permuted_tables(A: FiniteAlgebra, perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = A.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    tables = []
    for (sym, k), table in zip(A.signature.symbols, A.tables):
        out = []
        for args in iproduct(range(n), repeat=k):
            flat = 0
            for a in args:
                flat = flat * n + inv[a]
            out.append(perm[table[flat]])
        tables.append(tuple(out))
    return tuple(tables)


def canonical_tables(A: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least table tuple over all permuted copies."""
    best = None
    for perm in permutations(range(A.size)):
        t = _permuted_tables(A, perm)
        if best is None or t < best:
            best = t
    return best


def fingerprint(A: FiniteAlgebra) -> tuple[tuple, list]:
    """An isomorphism invariant of A, by which candidates are bucketed
    before the search, and the element profiles it is made of: (the sorted
    profiles, the profile of each element in order).  The profile of e
    lists, for each symbol f, how often e occurs as a value in f's table
    and whether f(e, ..., e) = e.  An isomorphism h: A -> B maps e to an
    element of B with e's profile: h(f(x)) = f(h(x)) for every argument
    tuple x and h is one-to-one on tuples, so the cells of f's table in A
    that hold e correspond one to one with those in B that hold h(e), and
    f(e, ..., e) = e exactly when f(h(e), ..., h(e)) = h(e)."""
    n = A.size
    columns = []
    for (_, k), table in zip(A.signature.symbols, A.tables):
        counts = [0] * n
        for v in table:
            counts[v] += 1
        # f(e, ..., e) sits at flat index e * (n**(k-1) + ... + n + 1).
        step = sum(n**i for i in range(k))
        diagonal = table[::step] if step else table * n
        columns.append(zip(counts, map(eq, diagonal, range(n))))
    profiles = list(zip(*columns)) if columns else [()] * n
    return tuple(sorted(profiles)), profiles


def _by_profile(profiles) -> dict:
    """The elements of each profile, in increasing order."""
    out: dict = {}
    for e, p in enumerate(profiles):
        out.setdefault(p, []).append(e)
    return out


def find_isomorphism(
    A: FiniteAlgebra, B: FiniteAlgebra, plan: tuple | None = None, domains: list | None = None
) -> tuple[int, ...] | None:
    """The first isomorphism A -> B in lexicographic order of the map
    arrays, or None.  The search maps each element of A only to the
    elements of B with its profile (`fingerprint`); every isomorphism does,
    so the restriction loses none.  A caller that already has the profiles
    passes the domains, domains[e] the elements of B with e's profile in
    increasing order, and may pass A's `_hom_plan` over its signature."""
    if A.signature != B.signature or A.size != B.size:
        return None
    if domains is None:
        (invariant, profiles), (other, targets) = fingerprint(A), fingerprint(B)
        if invariant != other:
            return None
        targets = _by_profile(targets)
        domains = [targets[p] for p in profiles]
    maps = _hom_search(A, B, A.signature, injective=True, limit=1, domains=domains, plan=plan)
    return maps[0] if maps else None


def are_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    return find_isomorphism(A, B) is not None


class IsoRegistry:
    """Deduplicates algebras up to isomorphism: a candidate is kept iff no
    kept member of its fingerprint bucket is isomorphic to it, so the
    representative of a class is the first copy added, at every size.

    `_answers` maps the key (signature, size, tables) of each candidate
    added so far to its representative.  An exact copy, with the key of an
    earlier candidate and perhaps another name, gets that answer from one
    lookup, with no fingerprint or search; `copy_of` asks it with the key
    alone, so that a caller looks a candidate up before it builds one.  It
    is the answer the search would give: the representatives are pairwise
    non-isomorphic, so a copy of A is isomorphic to A's representative and
    to no other.

    Any other candidate is tested against the members of its bucket, each
    by a search from the member to the candidate that maps every element
    only to the candidate's elements of its profile.  A bucket holds
    [member, profiles, plan] lists: a member keeps its profiles for the
    registry's lifetime, and its `_hom_plan` from its first test on, so
    each later test from it plans nothing."""

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._answers: dict = {}
        self.members: list[FiniteAlgebra] = []

    def copy_of(self, signature: Signature, size: int, tables: tuple) -> FiniteAlgebra | None:
        """The representative of an earlier candidate with these tables."""
        return self._answers.get((signature, size, tables))

    def add(self, A: FiniteAlgebra) -> tuple[FiniteAlgebra, bool]:
        key = (A.signature, A.size, A.tables)
        rep = self._answers.get(key)
        if rep is not None:
            return rep, False
        invariant, profiles = fingerprint(A)
        bucket = self._buckets.setdefault(invariant, [])
        rep = A
        if bucket:
            targets = _by_profile(profiles)
            for entry in bucket:
                B, kept, plan = entry
                if plan is None:
                    plan = entry[2] = _hom_plan(B, B.signature)
                if find_isomorphism(B, A, plan, [targets[p] for p in kept]) is not None:
                    rep = B
                    break
        if rep is A:
            bucket.append([A, profiles, None])
            self.members.append(A)
        self._answers[key] = rep
        return rep, rep is A
