import sys
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

import fx
import oracles
from qvbench import core
from qvbench.core import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    IsoRegistry,
    Signature,
    SignatureError,
    all_subuniverses,
    are_isomorphic,
    canonical_tables,
    direct_product,
    enumerate_embeddings,
    enumerate_homomorphisms,
    generated_subalgebra,
    is_embedding,
    is_homomorphism,
    reduct,
    subalgebra,
    trivial_algebra,
)
from oracles import finer_or_equal, identity_congruence, is_congruence, permuted, related
from qvbench.quasivariety import Quasivariety, members_up_to, relative_congruence


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


@st.composite
def algebras(draw, signature=fx.BDL, max_size=3, min_size=1):
    """Arbitrary total tables over the signature; no axioms assumed."""
    n = draw(st.integers(min_size, max_size))
    tables = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n**k))
        for _, k in signature.symbols
    )
    return FiniteAlgebra("H", signature, n, tables)


# A nullary symbol pins values before the hom search.  Random unary algebras
# of size 5 or 6 often share a fingerprint without being isomorphic.
BIN_CONST = Signature("bin_const", (("f", 2), ("c", 0)))
UNARY = Signature("unary", (("g", 1),))
# Symbols of arities 0-3, two of them constants, for hom searches over a
# language that is part of the signature.
WIDE = Signature("wide", (("c", 0), ("u", 1), ("f", 2), ("d", 0), ("t", 3)))


# Symbols of every arity from 0 to 3, for algebras that are not products.
CLOSURE_SIG = Signature("closure", (("c", 0), ("u", 1), ("f", 2), ("t", 3)))


@st.composite
def closure_signatures(draw):
    return Signature("closure", tuple(s for s in CLOSURE_SIG.symbols if draw(st.booleans())))


@st.composite
def closure_algebras(draw):
    """A random algebra of size 1-5 over a drawn sub-signature of
    CLOSURE_SIG."""
    return draw(algebras(draw(closure_signatures()), max_size=5))


@st.composite
def closure_inputs(draw):
    """A random algebra from `closure_algebras` and a random seed set."""
    A = draw(closure_algebras())
    return A, draw(st.sets(st.integers(0, A.size - 1), max_size=3))


@st.composite
def product_factors(draw):
    """1-3 random algebras of sizes 1-4 over one drawn sub-signature of
    CLOSURE_SIG, each with its own name."""
    signature = draw(closure_signatures())
    factors = draw(st.lists(algebras(signature, max_size=4), min_size=1, max_size=3))
    return [A.renamed(f"F{i}") for i, A in enumerate(factors)]


@st.composite
def registry_batches(draw):
    """Random algebras, relabelled copies of them and exact copies (the same
    tables under another name), in random order: sizes 1-5 with a binary and
    a nullary symbol, 1-6 with one unary symbol, and often many unary
    algebras of size 5 or 6, where fingerprints collide."""
    signature, smallest, largest, most = draw(st.sampled_from([
        (BIN_CONST, 1, 5, 5), (UNARY, 1, 6, 5), (UNARY, 5, 6, 8),
    ]))
    batch = []
    for A in draw(st.lists(algebras(signature, largest, smallest), min_size=1, max_size=most)):
        copies = [A] + [
            permuted(A, draw(st.permutations(range(A.size))))
            for _ in range(draw(st.integers(0, 2)))
        ]
        for B in copies:
            batch += [B] + [B.renamed(f"{B.name}'") for _ in range(draw(st.integers(0, 1)))]
    return draw(st.permutations(batch))


# One fingerprint, not isomorphic: 4 -> 2 -> 0 against 4 -> 3 -> 1 -> 0.
SAME_FINGERPRINT = [
    FiniteAlgebra("H", UNARY, 5, ((0, 0, 0, 1, 2),)),
    FiniteAlgebra("H", UNARY, 5, ((0, 0, 0, 1, 3),)),
]


@st.composite
def isomorphism_batches(draw):
    """1-3 random algebras of sizes 1-6 over one drawn sub-signature of
    CLOSURE_SIG, symbols of arities 0-3, each with up to two relabelled
    copies, in random order."""
    signature = draw(closure_signatures())
    batch = []
    for A in draw(st.lists(algebras(signature, max_size=6), min_size=1, max_size=3)):
        batch += [A] + [
            permuted(A, draw(st.permutations(range(A.size))))
            for _ in range(draw(st.integers(0, 2)))
        ]
    return draw(st.permutations(batch))


class TestSignature:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(SignatureError):
            Signature("bad", (("f", 1), ("f", 2)))

    def test_includes(self):
        assert fx.BA.includes(fx.BDL)
        assert not fx.BDL.includes(fx.BA)
        assert fx.BDL.includes(fx.MSL)


@st.composite
def table_inputs(draw):
    """A size of 1-9, symbols of arities 0-3 and their tables, with up to
    two spoilt: a cell set to a value in -2..size+2, which may still be in
    range, or a cell added or removed."""
    n = draw(st.integers(1, 9))
    arities = draw(st.lists(st.integers(0, 3), max_size=3))
    signature = Signature("s", tuple((f"f{i}", k) for i, k in enumerate(arities)))
    rng = draw(st.randoms(use_true_random=False))
    tables = [[rng.randrange(n) for _ in range(n**k)] for k in arities]
    for _ in range(draw(st.integers(0, 2)) if tables else 0):
        table = tables[draw(st.integers(0, len(tables) - 1))]
        spoil = draw(st.sampled_from(["cell", "cell", "longer", "shorter"]))
        if spoil == "cell" and table:
            table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(-2, n + 2))
        elif spoil == "shorter" and table:
            table.pop()
        else:
            table.append(rng.randrange(n))
    return n, signature, tuple(map(tuple, tables))


SIG_FG = Signature("s", (("f", 2), ("g", 1)))


class TestAlgebra:
    @pytest.mark.parametrize("table", [(0, 1, 2, 1), (0, -1, 1, 1)])
    def test_out_of_universe_entries_rejected(self, table):
        """An entry above the universe or below 0, in a table of the right
        length, is refused with the message naming the algebra and symbol."""
        with pytest.raises(ValueError, match=r"^'H': table for f has out-of-universe entries$"):
            FiniteAlgebra("H", Signature("s", (("f", 2),)), 2, (table,))

    @pytest.mark.parametrize("table", [(True, False), (1.0, 0), (0, "1")])
    def test_non_int_entries_rejected(self, table):
        """A bool, float or str cell is outside the universe, although the
        first two compare equal to an element; the emitter would write them
        as digits."""
        with pytest.raises(ValueError, match=r"^'H': table for f has out-of-universe entries$"):
            FiniteAlgebra("H", Signature("s", (("f", 1),)), 2, (table,))

    def test_range_checked_once(self):
        """Building the four-table Diamond calls `min` and `max` once each,
        over its distinct cells, not once per table."""
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and arg in (max, min):
                calls.append(arg.__name__)

        D = fx.DIAMOND
        sys.setprofile(profile)
        try:
            FiniteAlgebra(D.name, D.signature, D.size, D.tables)
        finally:
            sys.setprofile(None)
        assert sorted(calls) == ["max", "min"]

    @settings(max_examples=300, deadline=None)
    @given(inputs=table_inputs())
    # The first bad table decides the error, whether its length or its
    # range is wrong.
    @example(inputs=(2, SIG_FG, ((0, 1, 1), (0, 2))))
    @example(inputs=(2, SIG_FG, ((0, 1, 1, 2), (0,))))
    @example(inputs=(3, SIG_FG, ((0,) * 9, (0, 1, -1))))
    # Cells of another type, equal in value to elements; they are caught
    # when no int cell has the same value.
    @example(inputs=(2, SIG_FG, ((True,) * 4, (False, True))))
    @example(inputs=(3, SIG_FG, ((0,) * 9, (0, 1, 2.0))))
    def test_range_check_matches_oracle(self, inputs):
        """Construction raises the exception of `oracles.table_error`, the
        per-table length, `min` and `max` rule, with the same type and
        message, or none when the oracle gives none."""
        n, signature, tables = inputs
        expected = oracles.table_error("H", signature, n, tables)
        if expected is None:
            assert FiniteAlgebra("H", signature, n, tables).tables == tables
        else:
            with pytest.raises(Exception) as raised:
                FiniteAlgebra("H", signature, n, tables)
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)


class TestDirectProduct:
    def test_unary_product_isomorphic_to_factor(self):
        P = direct_product([fx.CHAIN2])
        assert P.size == 2
        assert are_isomorphic(P, fx.CHAIN2)

    def test_square_of_chain2_is_diamond(self):
        P = direct_product([fx.CHAIN2, fx.CHAIN2])
        assert P.size == 4
        # oracle: brute-force lattice axiom check on the product tables
        for a, b in iproduct(range(4), repeat=2):
            assert P.apply("meet", (a, b)) == P.apply("meet", (b, a))
            assert P.apply("join", (a, P.apply("meet", (a, b)))) == a
        assert P == fx.DIAMOND

    def test_mixed_product_cardinality(self):
        assert direct_product([fx.CHAIN2, fx.CHAIN3]).size == 6

    def test_signature_mismatch(self):
        with pytest.raises(SignatureError):
            direct_product([fx.CHAIN2, fx.CHAIN2_MS])

    @pytest.mark.parametrize("factors, error", [
        ([], ValueError),
        ([fx.CHAIN2, fx.CHAIN2_MS], SignatureError),
        ([fx.CHAIN2, fx.CHAIN3, fx.CHAIN2_MS], SignatureError),
    ])
    def test_errors_match_oracle(self, factors, error):
        for product in (direct_product, oracles.direct_product):
            with pytest.raises(error) as raised:
                product(factors)
            assert raised.type is error

    @settings(max_examples=40, deadline=None)
    @given(factors=product_factors())
    def test_matches_coordinatewise_oracle(self, factors):
        """The whole algebra and its name, against every coordinate computed
        by `FiniteAlgebra.apply`, for symbols of arities 0-3."""
        got = direct_product(factors)
        expected = oracles.direct_product(factors)
        assert got == expected
        assert got.name == expected.name

    def test_projections_are_homomorphisms(self):
        factors = [fx.CHAIN2, fx.CHAIN3]
        P = direct_product(factors)
        for i in range(2):
            assert is_homomorphism(product_projection(P, factors, i))


class TestHomomorphisms:
    def test_chain3_to_chain2_exactly_two(self):
        homs = enumerate_homomorphisms(fx.CHAIN3, fx.CHAIN2, fx.BDL)
        assert [h.mapping for h in homs] == oracles.brute_homs(fx.CHAIN3, fx.CHAIN2, fx.BDL)
        assert [h.mapping for h in homs] == [(0, 0, 1), (0, 1, 1)]

    def test_identity_included(self):
        homs = enumerate_homomorphisms(fx.DIAMOND, fx.DIAMOND, fx.BDL)
        assert (0, 1, 2, 3) in [h.mapping for h in homs]

    def test_diamond_to_chain2_exactly_two(self):
        homs = enumerate_homomorphisms(fx.DIAMOND, fx.CHAIN2, fx.BDL)
        assert [h.mapping for h in homs] == oracles.brute_homs(fx.DIAMOND, fx.CHAIN2, fx.BDL)
        assert [h.mapping for h in homs] == [(0, 0, 1, 1), (0, 1, 0, 1)]

    @settings(max_examples=40, deadline=None)
    @given(A=algebras(max_size=3), B=algebras(max_size=3))
    def test_matches_naive_filter(self, A, B):
        got = [h.mapping for h in enumerate_homomorphisms(A, B, fx.BDL)]
        assert got == oracles.brute_homs(A, B, fx.BDL)

    @staticmethod
    def check_search_options(A, language, max_size, data):
        """`injective`, `pinned` and `limit` against every homomorphism,
        filtered and truncated the same way.  B is sometimes a relabelled
        copy of A, so that injective maps exist."""
        B = data.draw(st.one_of(
            algebras(A.signature, max_size=max_size),
            st.permutations(range(A.size)).map(lambda perm: permuted(A, perm)),
        ))
        injective = data.draw(st.booleans())
        pinned = data.draw(st.dictionaries(
            st.integers(0, A.size - 1), st.integers(0, B.size - 1), max_size=2
        ))
        limit = data.draw(st.none() | st.integers(1, 3))
        expected = [
            m
            for m in oracles.brute_homs(A, B, language)
            if (not injective or len(set(m)) == A.size)
            and all(m[a] == b for a, b in pinned.items())
        ]
        got = core._hom_search(A, B, language, injective=injective, pinned=pinned, limit=limit)
        assert got == expected[:limit]

    @settings(max_examples=80, deadline=None)
    @given(A=algebras(BIN_CONST, max_size=4), data=st.data())
    def test_search_options_match_filtered_brute_force(self, A, data):
        self.check_search_options(A, BIN_CONST, 4, data)

    @settings(max_examples=150, deadline=None)
    @given(A=algebras(WIDE, max_size=3), data=st.data())
    def test_search_options_over_sub_signatures(self, A, data):
        """The same over symbols of arities 0-3 with two constants, in a
        language that is all of A's signature or a part of it, in any order,
        as when `enumerate_homomorphisms(A, G, fx.BDL)` maps a Boolean
        algebra.  With pins and constants, some instances have every
        position pre-assigned."""
        language = Signature("part", tuple(data.draw(
            st.lists(st.sampled_from(WIDE.symbols), unique=True)
        )))
        self.check_search_options(A, language, 3, data)

    def test_reduct_homs_across_signatures(self):
        homs = enumerate_homomorphisms(fx.FOUR_BA, fx.CHAIN2, fx.BDL)
        assert len(homs) == 2


class TestEmbeddings:
    def test_identity_is_embedding(self):
        assert is_embedding(Homomorphism(fx.CHAIN2, fx.CHAIN2, fx.BDL, (0, 1)))

    def test_collapse_is_not(self):
        assert not is_embedding(Homomorphism(fx.CHAIN3, fx.CHAIN2, fx.BDL, (0, 0, 1)))

    def test_chain3_into_diamond(self):
        h = Homomorphism(fx.CHAIN3, fx.DIAMOND, fx.BDL, (0, 1, 3))
        assert is_homomorphism(h) and is_embedding(h)

    def test_limit_keeps_the_least_maps(self):
        every = [h.mapping for h in enumerate_embeddings(fx.DIAMOND, fx.DIAMOND, fx.BDL)]
        assert every == [(0, 1, 2, 3), (0, 2, 1, 3)]
        for limit in (1, 2, 3):
            found = enumerate_embeddings(fx.DIAMOND, fx.DIAMOND, fx.BDL, limit=limit)
            assert [h.mapping for h in found] == every[:limit]


class TestGeneratedSubalgebra:
    def test_diamond_single_atom(self):
        assert generated_subalgebra(fx.DIAMOND, {1}) == frozenset({0, 1, 3})

    def test_fourba_single_atom(self):
        assert generated_subalgebra(fx.FOUR_BA, {1}) == frozenset({0, 1, 2, 3})

    def test_full_seed(self):
        assert generated_subalgebra(fx.CHAIN4, range(4)) == frozenset(range(4))

    @settings(max_examples=40, deadline=None)
    @given(A=algebras(max_size=4), data=st.data())
    def test_monotone_and_idempotent(self, A, data):
        seed1 = data.draw(st.sets(st.integers(0, A.size - 1)))
        seed2 = data.draw(st.sets(st.integers(0, A.size - 1)))
        g1 = generated_subalgebra(A, seed1)
        assert g1 <= generated_subalgebra(A, seed1 | seed2)
        assert generated_subalgebra(A, g1) == g1


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(inputs=closure_inputs(), data=st.data())
    def test_matches_fixpoint(self, inputs, data):
        """closure, and closure_extend from a closed set (possibly empty),
        against a naive fixpoint.  With max_size, closure_extend returns the
        full closure when it has at most max_size elements, and otherwise a
        set of the closure with more than max_size."""
        A, seed = inputs
        assert core.closure(A, seed) == oracles.closure_fixpoint(A, seed)
        closed = oracles.closure_fixpoint(A, seed)
        x = data.draw(st.integers(0, A.size - 1))
        full = oracles.closure_fixpoint(A, closed | {x})
        assert core.closure_extend(A, closed, x) == full
        max_size = data.draw(st.integers(1, A.size))
        bounded = core.closure_extend(A, closed, x, max_size)
        assert bounded <= full
        if len(full) <= max_size:
            assert bounded == full
        else:
            assert len(bounded) > max_size


class TestSubalgebra:
    @settings(max_examples=100, deadline=None)
    @given(A=closure_algebras(), data=st.data())
    def test_matches_apply_oracle(self, A, data):
        """Tables, inclusion and the error for a subset that is not closed,
        against cells read through `FiniteAlgebra.apply`, for symbols of
        arities 0-3 on closed and on arbitrary subsets."""
        subset = data.draw(st.sets(st.integers(0, A.size - 1), min_size=1))
        if data.draw(st.booleans()):
            subset = oracles.closure_fixpoint(A, subset)
        try:
            expected = oracles.subalgebra_tables(A, subset)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                subalgebra(A, subset)
            assert str(raised.value) == str(error)
            return
        S, inclusion = subalgebra(A, subset)
        assert (S.name, S.tables) == (f"{A.name}|{len(subset)}", expected)
        assert inclusion.mapping == tuple(sorted(subset))
        assert is_homomorphism(inclusion)


class TestSubuniverses:
    def test_subuniverses_are_closed_and_complete(self):
        subs = all_subuniverses(fx.DIAMOND)
        naive = []
        for mask in range(1, 2**4):
            s = frozenset(i for i in range(4) if mask >> i & 1)
            if generated_subalgebra(fx.DIAMOND, s) == s:
                naive.append(s)
        assert sorted(subs, key=sorted) == sorted(naive, key=sorted)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_product_search_matches_brute_force(self, data):
        """Against every subset closed under the naive tuple closure, with no
        bound and with a drawn one.  Every set the search closes must also
        pass its size prune, or with `first_factor` its least-size prune."""
        sig = Signature("F", (("f", data.draw(st.sampled_from([1, 2]))),))
        C = data.draw(algebras(sig, max_size=3))
        G = data.draw(algebras(sig, max_size=3))
        P = direct_product([C, G])

        def first(e):
            return e // G.size

        closed = []
        for mask in range(1, 2**P.size):
            S = frozenset(e for e in range(P.size) if mask >> e & 1)
            tuples = {(first(e), e % G.size) for e in S}
            if oracles.naive_tuple_closure([C, G], tuples, sig) == tuples:
                closed.append(S)
        closed.sort(key=lambda S: (len(S), sorted(S)))

        extended = []
        original = core._close

        def recording(tables, members, *args):
            extended.append(frozenset(e for e in range(P.size) if members >> e & 1))
            return original(tables, members, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_close", recording)
            for max_size in (None, data.draw(st.integers(1, P.size))):
                limit = P.size if max_size is None else max_size
                small = [S for S in closed if len(S) <= limit]
                subdirect = [S for S in small if {first(e) for e in S} == set(range(C.size))]
                extended.clear()
                assert all_subuniverses(P, max_size) == small
                assert all(len(S) <= limit for S in extended)
                extended.clear()
                assert all_subuniverses(P, max_size, first_factor=C.size) == subdirect
                for S in extended:
                    assert len(S) + C.size - len({first(e) for e in S}) <= limit

    @settings(max_examples=100, deadline=None)
    @given(factors=product_factors(), data=st.data())
    def test_bitmask_search_matches_set_search(self, factors, data):
        """Against the set-based FCbO search it replaced, on one factor of
        size 1-4 or the product of two, over a drawn sub-signature of
        CLOSURE_SIG (a constant and symbols of arity 1, 2 and 3): with and
        without `first_factor`, with no bound and with a drawn one."""
        C = factors[0]
        P = direct_product(factors[:2])
        max_size = data.draw(st.one_of(st.none(), st.integers(1, P.size)))
        first_factor = data.draw(st.sampled_from([None, C.size]))
        expected = oracles.fcbo_subuniverses(P, max_size, first_factor)
        assert all_subuniverses(P, max_size, first_factor) == expected

    @pytest.mark.parametrize("K, count", [(fx.DL, 16), (fx.MSLQ, 73), (fx.MONQ, 73)],
                             ids=lambda v: getattr(v, "name", v))
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_member_products_match_set_search(self, K, count, data):
        """Where the coordinate stop bites: C x G for every class C of 5-7
        elements (A006982 and A006966) and each generator G, with
        `first_factor` and a drawn bound, against the set-based FCbO
        search, which tries every extension.  The drawn factors of the
        other tests have at most 4 elements."""
        classes = [C for C in members_up_to(K, 7) if C.size >= 5]
        assert len(classes) == count
        for C in classes:
            for G in K.generators:
                P = direct_product([C, G])
                max_size = data.draw(st.integers(C.size, P.size))
                expected = oracles.fcbo_subuniverses(P, max_size, C.size)
                assert all_subuniverses(P, max_size, C.size) == expected

    @settings(max_examples=100, deadline=None)
    @given(A=closure_algebras(), data=st.data())
    def test_search_without_product_matches_fixpoint(self, A, data):
        """The path `beth.expansion_members` takes: no `first_factor`, on
        algebras that are not products, against every nonempty subset closed
        under the fixpoint, with no bound and with a drawn one.  A constant
        makes the closure of the empty set nonempty, so the search then
        starts above the empty set."""
        closed = []
        for mask in range(1, 2**A.size):
            S = frozenset(e for e in range(A.size) if mask >> e & 1)
            if oracles.closure_fixpoint(A, S) == S:
                closed.append(S)
        closed.sort(key=lambda S: (len(S), sorted(S)))
        for max_size in (None, data.draw(st.integers(1, A.size))):
            limit = A.size if max_size is None else max_size
            assert all_subuniverses(A, max_size) == [S for S in closed if len(S) <= limit]


def congruence_closure(A, pairs):
    """The least congruence of A containing the pairs: its least relative
    congruence for the class with no axioms."""
    return relative_congruence(A, pairs, Quasivariety("ALL", A.signature, axioms=()))


class TestCongruences:
    def test_empty_pairs_identity(self):
        assert congruence_closure(fx.CHAIN3, []) == identity_congruence(fx.CHAIN3)

    def test_chain3_collapse_bottom(self):
        theta = congruence_closure(fx.CHAIN3, [(0, 1)])
        assert theta.partition == (0, 0, 2)

    def test_chain3_collapse_ends_forces_total(self):
        theta = congruence_closure(fx.CHAIN3, [(0, 2)])
        assert theta.partition == (0, 0, 0)

    @settings(max_examples=30, deadline=None)
    @given(A=algebras(max_size=4), data=st.data())
    def test_least_compatible_partition(self, A, data):
        pair = (
            data.draw(st.integers(0, A.size - 1)),
            data.draw(st.integers(0, A.size - 1)),
        )
        theta = congruence_closure(A, [pair])
        assert is_congruence(A, theta.partition)
        assert related(theta, *pair)
        # oracle: intersection of all compatible partitions containing the pair
        candidates = [
            labels
            for labels in oracles.all_partitions(A.size)
            if labels[pair[0]] == labels[pair[1]] and is_congruence(A, labels)
        ]
        for labels in candidates:
            other = Congruence.from_labels(A, labels)
            assert finer_or_equal(theta, other)

    @settings(max_examples=100, deadline=None)
    @given(A=closure_algebras(), data=st.data())
    def test_matches_meet_of_compatible_partitions(self, A, data):
        """Exactly the meet of every compatible partition relating 1-3 drawn
        pairs, on algebras with symbols of arities 0-3."""
        element = st.integers(0, A.size - 1)
        pairs = data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
        assert congruence_closure(A, pairs).partition == oracles.least_congruence(A, pairs)


class TestReduct:
    def test_fourba_to_diamond(self):
        assert reduct(fx.FOUR_BA, fx.BDL) == fx.DIAMOND

    def test_identity_reduct(self):
        assert reduct(fx.DIAMOND, fx.BDL) == fx.DIAMOND

    def test_twoba_to_chain2(self):
        assert reduct(fx.TWO_BA, fx.BDL) == fx.CHAIN2

    def test_missing_symbol(self):
        with pytest.raises(SignatureError):
            reduct(fx.CHAIN2, fx.BA)


class TestIsomorphism:
    def test_permuted_copy_isomorphic(self):
        B = permuted(fx.DIAMOND, (0, 2, 1, 3))
        assert are_isomorphic(fx.DIAMOND, B)
        assert canonical_tables(B) == canonical_tables(fx.DIAMOND)

    def test_chain4_not_diamond(self):
        assert not are_isomorphic(fx.CHAIN4, fx.DIAMOND)

    def test_subalgebra_embedding(self):
        S, incl = subalgebra(fx.DIAMOND, {0, 1, 3})
        assert S.size == 3
        assert is_homomorphism(incl) and is_embedding(incl)
        assert are_isomorphic(S, fx.CHAIN3)

    def test_trivial_algebra(self):
        t = trivial_algebra(fx.BDL)
        assert t.size == 1 and t.apply("meet", (0, 0)) == 0

    @settings(max_examples=60, deadline=None)
    @given(A=closure_algebras())
    def test_fingerprint_diagonal_matches_apply(self, A):
        """The fingerprint reads f(e, ..., e) from the flat table at symbols
        of arity 0 to 3; each element's profile is that of `apply`, and the
        invariant is the sorted profiles."""
        profiles = [
            tuple((table.count(e), A.apply(sym, (e,) * k) == e)
                  for (sym, k), table in zip(A.signature.symbols, A.tables))
            for e in range(A.size)
        ]
        assert core.fingerprint(A) == (tuple(sorted(profiles)), profiles)

    @settings(max_examples=60, deadline=None)
    @example(batch=SAME_FINGERPRINT)
    @given(batch=registry_batches())
    def test_registry_matches_brute_force_canonical_form(self, batch):
        """An algebra is added iff no earlier one has its canonical form; it
        is then kept as it is, and later copies, relabelled or exact, return
        that object, not an equal one."""
        registry = IsoRegistry()
        kept = {}
        for A in batch:
            form = oracles.canonical_form(A)
            rep, added = registry.add(A)
            assert added == (form not in kept)
            if added:
                assert rep is A
                kept[form] = rep
            assert rep is kept[form]
        assert registry.members == list(kept.values())

    @settings(max_examples=60, deadline=None)
    @example(batch=[
        *SAME_FINGERPRINT,
        permuted(SAME_FINGERPRINT[1], (4, 3, 2, 1, 0)),
        permuted(SAME_FINGERPRINT[0], (1, 2, 3, 4, 0)),
    ])
    @given(batch=isomorphism_batches())
    def test_profile_restricted_search_matches_brute_force(self, batch):
        """`find_isomorphism` maps each element only to the elements of its
        profile.  For every ordered pair of the batch it returns the first
        one-to-one homomorphism that the brute-force search finds, or None
        when there is none.  The registry, which keeps each member's plan
        and tests from the member to the candidate, keeps an algebra iff no
        kept one is isomorphic to it by that search, and otherwise answers
        with that kept one."""
        isos = {}
        for i, A in enumerate(batch):
            for j, B in enumerate(batch):
                same = A.signature == B.signature and A.size == B.size
                maps = oracles.brute_homs(A, B, A.signature, injective=True) if same else []
                isos[i, j] = bool(maps)
                assert core.find_isomorphism(A, B) == (maps[0] if maps else None)
        registry = IsoRegistry()
        kept = []
        for j, A in enumerate(batch):
            rep, added = registry.add(A)
            matches = [i for i in kept if isos[i, j]]
            assert added == (not matches)
            if added:
                kept.append(j)
            assert rep is batch[j if added else matches[0]]
