"""Finite algebras with total operation tables and the basic constructions on them.

Universes are always 0..n-1.  Product elements are encoded lexicographically
with the last factor varying fastest, so every construction here is
bit-reproducible.  All types are immutable after construction and every
operation is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import islice, permutations, product as iproduct
from operator import or_


class SignatureError(ValueError):
    """Symbols, arities, or signature inclusions do not line up."""


@dataclass(frozen=True)
class Signature:
    name: str = field(compare=False)
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


@dataclass(frozen=True)
class FiniteAlgebra:
    name: str = field(compare=False)
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
        for (sym, k), table in zip(self.signature.symbols, self.tables):
            if len(table) != self.size**k:
                raise SignatureError(f"{self.name!r}: table for {sym}/{k} has wrong length")
            if min(table) < 0 or max(table) >= self.size:
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


def trivial_algebra(signature: Signature, name: str = "triv") -> FiniteAlgebra:
    tables = tuple((0,) * (1**k) for _, k in signature.symbols)
    return FiniteAlgebra(name, signature, 1, tables)


@dataclass(frozen=True)
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


def identity_homomorphism(A: FiniteAlgebra, language: Signature | None = None) -> Homomorphism:
    return Homomorphism(A, A, language or A.signature, tuple(range(A.size)))


def compose(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    """g after f; languages must agree."""
    if g.language != f.language:
        raise SignatureError("composing homomorphisms over different languages")
    return Homomorphism(f.source, g.target, f.language, tuple(g.mapping[v] for v in f.mapping))


def _hom_search(
    A: FiniteAlgebra,
    B: FiniteAlgebra,
    language: Signature,
    injective: bool = False,
    pinned: dict[int, int] | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """Backtracking search for language-homomorphisms A -> B, in lexicographic
    order of the map arrays.  Nullary symbols and `pinned` pre-assign values;
    the sweep assigns the other positions in increasing order.

    Each operation instance f(args) = res of A is tested exactly once: in
    the sweep step of the last position among args and res that is not
    pre-assigned, when all of them have values, or before the sweep when
    every one of them is pre-assigned.  A test reads B's flat table at the
    row-major index of the images of args."""
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

    # Step p + 1 tests the instances whose last position is p, step 0 those
    # tested before the sweep, as (B's table, arguments, result) in one list
    # per arity: unary, binary (arguments a, b) and higher (an args tuple).
    # rank[p] is p, or -1 when p is pre-assigned.
    rank = [p if v == -1 else -1 for p, v in enumerate(mapping)]
    unary: list[list] = [[] for _ in range(n + 1)]
    binary: list[list] = [[] for _ in range(n + 1)]
    higher: list[list] = [[] for _ in range(n + 1)]
    for sym, k in language.symbols:
        ta, tb = A._ops[sym][1], B._ops[sym][1]
        if k == 1:
            for a, r in enumerate(ta):
                unary[max(rank[a], rank[r]) + 1].append((tb, a, r))
        elif k == 2:
            for flat, r in enumerate(ta):
                a, b = divmod(flat, n)
                binary[max(rank[a], rank[b], rank[r]) + 1].append((tb, a, b, r))
        elif k > 2:
            for args, r in zip(iproduct(range(n), repeat=k), ta):
                higher[max(rank[r], *map(rank.__getitem__, args)) + 1].append((tb, args, r))

    def consistent(step: int) -> bool:
        for tb, a, r in unary[step]:
            if tb[mapping[a]] != mapping[r]:
                return False
        for tb, a, b, r in binary[step]:
            if tb[mapping[a] * m + mapping[b]] != mapping[r]:
                return False
        for tb, args, r in higher[step]:
            flat = 0
            for a in args:
                flat = flat * m + mapping[a]
            if tb[flat] != mapping[r]:
                return False
        return True

    if not consistent(0):
        return []
    free = [p for p in range(n) if rank[p] != -1]
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
        for v in range(m):
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


def direct_product(factors: list[FiniteAlgebra], name: str | None = None) -> FiniteAlgebra:
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
    name = name or "x".join(f.name for f in factors)
    return FiniteAlgebra(name, sig, size, tables)


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


def decode_product_element(sizes: list[int], e: int) -> tuple[int, ...]:
    coords = []
    for n in reversed(sizes):
        coords.append(e % n)
        e //= n
    return tuple(reversed(coords))


def product_projection(product: FiniteAlgebra, factors: list[FiniteAlgebra], i: int) -> Homomorphism:
    sizes = [f.size for f in factors]
    mapping = tuple(decode_product_element(sizes, e)[i] for e in range(product.size))
    return Homomorphism(product, factors[i], product.signature, mapping)


def reduct(A: FiniteAlgebra, language: Signature) -> FiniteAlgebra:
    """Same universe, tables restricted to the given language."""
    if not A.signature.includes(language):
        raise SignatureError(f"{language.name!r} is not a reduct of {A.signature.name!r}")
    tables = tuple(A._ops[sym][1] for sym, _ in language.symbols)
    return FiniteAlgebra(A.name, language, A.size, tables)


def _mask_tables(A: FiniteAlgebra, keep: bool) -> tuple:
    """The tables `_close` reads, over int bitmasks: bit e of a mask stands
    for element e.  Returns (rows, reach, higher, n); higher lists (arity,
    table) for each symbol of arity >= 3, and n is |A|.  With `keep`, for
    searches that close many sets, rows[x][y] is the mask of f(x, y) and
    f(y, x) for every binary f, rows[x][x] adds u(x) for every unary u, and
    reach is None.  Otherwise rows is None and reach(x, done) is the union
    of rows[x] over `done` and x itself, read from the cells at x and `done`
    alone, since one closure meets each pair once.  Nothing is cached on A:
    a row holds n masks of n bits."""
    n = A.size
    unary, binary, higher = [], [], []
    for (_, k), table in zip(A.signature.symbols, A.tables):
        if k == 1:
            unary.append(table)
        elif k == 2:
            binary.append(table)
        elif k > 2:
            higher.append((k, table))

    if keep:
        def row(x: int) -> list[int]:
            masks = [0] * n
            for t in binary:
                masks = [m | 1 << a | 1 << b for m, a, b in zip(masks, t[x * n:x * n + n], t[x::n])]
            for t in unary:
                masks[x] |= 1 << t[x]
            return masks

        return [row(x) for x in range(n)], None, tuple(higher), n

    def reach(x: int, done: list[int]) -> int:
        xn = x * n
        mask = 0
        for t in binary:
            mask |= reduce(or_, [1 << t[xn + y] | 1 << t[y * n + x] for y in done], 1 << t[xn + x])
        for t in unary:
            mask |= 1 << t[x]
        return mask

    return None, reach, tuple(higher), n


def _close(tables: tuple, members: int, done: list[int], queue: list[int], limit: int) -> int:
    """The closure loop of `closure`, `closure_extend` and `all_subuniverses`,
    over the bitmask `members` with the tables of `_mask_tables`.  Each
    queued element x is combined with the processed elements `done` and
    itself: the masks of rows[x] at them, or reach(x, done), and for higher
    arities every tuple over them with x in some position.  The closed set
    does not depend on the order of the queue.  `done` ends as the list of
    the closure's elements, in the order processed.  Stops once the set
    grows past `limit` and returns that unfinished set."""
    rows, reach, higher, n = tables
    size = members.bit_count()
    while queue:
        x = queue.pop()
        if rows is None:
            reached = reach(x, done)
        else:
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
    closed = _close(_mask_tables(A, False), _mask(members), [], sorted(members), A.size)
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
    grown = _close(_mask_tables(A, False), _mask(members), list(closed), [x], limit)
    return set(_elements(grown))


def generated_subalgebra(A: FiniteAlgebra, seed) -> frozenset[int]:
    """Subuniverse generated by `seed` (fixpoint iteration); monotone in seed
    and idempotent."""
    return frozenset(closure(A, seed))


def subalgebra(A: FiniteAlgebra, subset, name: str | None = None) -> tuple[FiniteAlgebra, Homomorphism]:
    """The algebra on a closed subset (re-indexed by its sorted order) together
    with the inclusion embedding."""
    elems = sorted(set(subset))
    index = {e: i for i, e in enumerate(elems)}
    n = A.size
    tables = []
    for (sym, k), table in zip(A.signature.symbols, A.tables):
        if k == 2:
            rows = [x * n for x in elems]
            values = [table[row + y] for row in rows for y in elems]
        else:
            values = []
            for args in iproduct(elems, repeat=k):
                flat = 0
                for a in args:
                    flat = flat * n + a
                values.append(table[flat])
        try:
            tables.append(tuple(map(index.__getitem__, values)))
        except KeyError:
            i = next(i for i, v in enumerate(values) if v not in index)
            args = next(islice(iproduct(elems, repeat=k), i, None))
            raise ValueError(f"subset not closed under {sym} at {args}") from None
    S = FiniteAlgebra(name or f"{A.name}|{len(elems)}", A.signature, len(elems), tuple(tables))
    return S, Homomorphism(S, A, A.signature, tuple(elems))


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

    Failed extensions are inherited as in FCbO (Krajca, Outrata and
    Vychodil, 2010).  When a node's try of x fails, the set D_x it reached
    (the closure of S | {x}, or the part of it built before the closure
    outgrew max_size, or S | {x} when the test before closing failed) is
    recorded, and the node's children receive every failure recorded at it
    or inherited by it, but never one recorded at a sibling.  A descendant T
    of S tries x again only when D_x has no element below x outside T and
    its least size is within max_size.  The skip is sound: closure is
    monotone, so closure(T | {x}) contains D_x; an element of D_x below x
    and outside T makes that child non-canonical, and since the least size
    never falls as a set grows, a D_x beyond the bound puts the child beyond
    it too.  So a skipped try would have failed, and the search still
    reaches every returned set."""
    n = A.size
    limit = n if max_size is None else max_size
    parts = first_factor or 1
    width = n // parts
    coordinate = [1 << (e // width) for e in range(n)]
    tables = _mask_tables(A, True)
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
    # A node is (S, its elements, the first coordinates it covers, y,
    # failed): failed[x] is None when a recorded D_x is beyond the bound,
    # and otherwise the mask of the elements of D_x below x outside the set
    # of the node that recorded it.  Children hold their parent's dict,
    # which its loop completes before any child is popped, and copy it
    # before they record.
    stack = [(base, elements, covered, 0, {})]
    while stack:
        S, elements, covered, y, inherited = stack.pop()
        failed = dict(inherited)
        least = len(elements) + parts - covered.bit_count()
        for x in range(y, n):
            bit = 1 << x
            if S & bit:
                continue
            if x in failed:
                below = failed[x]
                if below is None or below & ~S:
                    continue
            if least + (covered & coordinate[x] != 0) > limit:
                failed[x] = None
                continue
            grown = elements.copy()
            T = _close(tables, S | bit, grown, [x], limit)
            reached = covered | reduce(or_, map(coordinate.__getitem__, grown[len(elements):]), 0)
            below = (T ^ S) & (bit - 1)
            if T.bit_count() + parts - reached.bit_count() > limit:
                failed[x] = None
            elif below:
                failed[x] = below
            else:
                failed.pop(x, None)
                if reached.bit_count() == parts:
                    found.append(grown)
                stack.append((T, grown, reached, x + 1, failed))
    out = sorted(map(sorted, found), key=lambda S: (len(S), S))
    return [frozenset(S) for S in out]


@dataclass(frozen=True)
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

    @classmethod
    def identity(cls, A: FiniteAlgebra) -> Congruence:
        return cls(A, tuple(range(A.size)))

    @classmethod
    def total(cls, A: FiniteAlgebra) -> Congruence:
        return cls(A, (0,) * A.size)

    def related(self, a: int, b: int) -> bool:
        return self.partition[a] == self.partition[b]

    def blocks(self) -> list[list[int]]:
        by_rep: dict[int, list[int]] = {}
        for i, rep in enumerate(self.partition):
            by_rep.setdefault(rep, []).append(i)
        return [by_rep[r] for r in sorted(by_rep)]

    def finer_or_equal(self, other: Congruence) -> bool:
        return all(
            other.related(i, j)
            for i in range(len(self.partition))
            for j in range(len(self.partition))
            if self.related(i, j)
        )


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


def congruence_closure(A: FiniteAlgebra, pairs) -> Congruence:
    """Least congruence containing the given pairs: union-find plus
    compatibility re-propagation until fixpoint."""
    parent = list(range(A.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        return True

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        for sym, k in A.signature.symbols:
            if k == 0:
                continue
            buckets: dict[tuple[int, ...], int] = {}
            for args in iproduct(range(A.size), repeat=k):
                key = tuple(find(a) for a in args)
                v = A.apply(sym, args)
                if key in buckets:
                    if union(v, buckets[key]):
                        changed = True
                else:
                    buckets[key] = v
    return Congruence.from_labels(A, [find(i) for i in range(A.size)])


def quotient(A: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, Homomorphism]:
    """Block algebra plus canonical projection; blocks are numbered in order of
    least representatives."""
    if theta.algebra != A:
        raise ValueError("congruence does not belong to this algebra")
    reps = sorted(set(theta.partition))
    index = {r: i for i, r in enumerate(reps)}
    proj = tuple(index[theta.partition[a]] for a in range(A.size))
    tables = []
    for sym, k in A.signature.symbols:
        table = []
        for args in iproduct(reps, repeat=k):
            table.append(proj[A.apply(sym, args)])
        tables.append(tuple(table))
    Q = FiniteAlgebra(f"{A.name}/~", A.signature, len(reps), tuple(tables))
    return Q, Homomorphism(A, Q, A.signature, proj)


def kernel(h: Homomorphism) -> Congruence:
    return Congruence.from_labels(h.source, h.mapping)


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


def permuted(A: FiniteAlgebra, perm: tuple[int, ...]) -> FiniteAlgebra:
    """The isomorphic copy along perm (perm[old] = new)."""
    return FiniteAlgebra(A.name, A.signature, A.size, _permuted_tables(A, perm))


# Above this size, lex-min canonization over all permutations is replaced by
# fingerprint bucketing plus backtracking isomorphism rejection.
CANONIZE_LIMIT = 4


def canonical_tables(A: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least table tuple over all permuted copies."""
    best = None
    for perm in permutations(range(A.size)):
        t = _permuted_tables(A, perm)
        if best is None or t < best:
            best = t
    return best


def fingerprint(A: FiniteAlgebra):
    """Cheap isomorphism invariant used to bucket candidates before the
    backtracking check."""
    per_symbol = []
    n = A.size
    profiles = [[] for _ in range(n)]
    for (_, k), table in zip(A.signature.symbols, A.tables):
        counts = [0] * n
        for v in table:
            counts[v] += 1
        per_symbol.append(tuple(sorted(counts)))
        # f(e, ..., e) sits at flat index e * (n**(k-1) + ... + n + 1).
        step = sum(n**i for i in range(k))
        for e in range(n):
            profiles[e].append((counts[e], table[e * step] == e))
    return (A.size, tuple(per_symbol), tuple(sorted(tuple(p) for p in profiles)))


def find_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> tuple[int, ...] | None:
    if A.signature != B.signature or A.size != B.size:
        return None
    maps = _hom_search(A, B, A.signature, injective=True, limit=1)
    return maps[0] if maps else None


def are_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    if A.size != B.size or A.signature != B.signature:
        return False
    if fingerprint(A) != fingerprint(B):
        return False
    return find_isomorphism(A, B) is not None


class IsoRegistry:
    """Deduplicates algebras up to isomorphism.  At size <= CANONIZE_LIMIT a
    candidate is kept iff no lexicographically smaller permuted copy was kept
    before (canonical forms); above that, fingerprint buckets plus
    backtracking."""

    def __init__(self) -> None:
        self._canonical: dict = {}
        self._buckets: dict = {}
        self.members: list[FiniteAlgebra] = []

    def add(self, A: FiniteAlgebra) -> tuple[FiniteAlgebra, bool]:
        if A.size <= CANONIZE_LIMIT:
            key = (A.size, canonical_tables(A))
            if key in self._canonical:
                return self._canonical[key], False
            rep = FiniteAlgebra(A.name, A.signature, A.size, key[1])
            self._canonical[key] = rep
            self.members.append(rep)
            return rep, True
        key = fingerprint(A)
        for rep in self._buckets.get(key, []):
            if find_isomorphism(A, rep) is not None:
                return rep, False
        self._buckets.setdefault(key, []).append(A)
        self.members.append(A)
        return A, True
