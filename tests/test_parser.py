import pytest
from hypothesis import given, settings, strategies as st

import fx
import oracles
from oracles import (
    format_algebra,
    format_equation,
    format_pp_formula,
    format_quasiequation,
    format_quasivariety,
    format_signature,
    format_term,
    format_workspace,
    parse,
    parse_equation,
    parse_pp_formula,
    parse_quasiequation,
    parse_term,
)
from qvbench import parser
from qvbench.core import Signature
from qvbench.logic import App, Equation, PpFormula, Quasiequation, Var
from qvbench.parser import ParseError, _Parser, _position, parse_workspace

FIXTURES_PATH = "workspaces/fixtures.qvw"
BENCH_WORKSPACE_PATH = "bench/workspace.qvw"


def load_fixture_workspace():
    with open(FIXTURES_PATH, encoding="utf-8") as fh:
        return parse_workspace(fh.read())


class TestFragmentParsing:
    def test_pp_formula_compl(self):
        phi = parse("exists [] . meet(x1,y) = bot & join(x1,y) = top", fx.BDL)
        assert phi == fx.COMPL.formula

    def test_equation_list_inv_body(self):
        eqs = parse("mul(x,y) = e & mul(y,x) = e", fx.MON)
        assert eqs == [
            Equation(App("mul", (Var("x"), Var("y"))), App("e")),
            Equation(App("mul", (Var("y"), Var("x"))), App("e")),
        ]

    def test_malformed_term_column(self):
        with pytest.raises(ParseError) as err:
            parse_term("meet(x", fx.BDL)
        assert err.value.line == 1
        assert err.value.col == 7

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="applied to"):
            parse_term("meet(x)", fx.BDL)

    def test_unknown_symbol_applied(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse_term("xor(x,y)", fx.BDL)

    def test_quasiequation(self):
        q = parse_quasiequation("meet(x,y) = x & meet(y,x) = y => x = y", fx.BDL)
        assert len(q.premises) == 2

    def test_fragment_needs_signature(self):
        with pytest.raises(ValueError, match="signature"):
            parse("x = y")


MIXED = Signature("Mixed", (("c", 0), ("u", 1), ("f", 2), ("t", 3)))

# Any identifier that is not a symbol of MIXED parses as a variable.
variables = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
    lambda name: name not in MIXED.arities
)
terms = st.recursive(
    st.one_of(variables.map(Var), st.just(App("c"))),
    lambda sub: st.one_of(
        sub.map(lambda a: App("u", (a,))),
        st.tuples(sub, sub).map(lambda args: App("f", args)),
        st.tuples(sub, sub, sub).map(lambda args: App("t", args)),
    ),
    max_leaves=8,
)
equations = st.builds(Equation, terms, terms)


class TestRoundTrips:
    """parse . format is the identity on every printable object."""

    @settings(max_examples=200, deadline=None)
    @given(t=terms)
    def test_random_term_round_trip(self, t):
        assert parse_term(format_term(t), MIXED) == t

    @settings(max_examples=100, deadline=None)
    @given(eq=equations)
    def test_random_equation_round_trip(self, eq):
        assert parse_equation(format_equation(eq), MIXED) == eq

    @settings(max_examples=100, deadline=None)
    @given(
        bound=st.lists(variables, max_size=3, unique=True),
        body=st.lists(equations, min_size=1, max_size=3),
    )
    def test_random_pp_round_trip(self, bound, body):
        """Including `exists [] . ...` when nothing is bound."""
        phi = PpFormula(tuple(bound), tuple(body))
        assert parse_pp_formula(format_pp_formula(phi), MIXED) == phi

    @settings(max_examples=100, deadline=None)
    @given(premises=st.lists(equations, max_size=3), conclusion=equations)
    def test_random_quasiequation_round_trip(self, premises, conclusion):
        """Including no premises, printed as `=> s = t`."""
        q = Quasiequation(tuple(premises), conclusion)
        text = format_quasiequation(q)
        assert text.startswith("=> ") == (not premises)
        assert parse_quasiequation(text, MIXED) == q

    def test_term_round_trip(self):
        t = App("meet", (Var("x1"), App("join", (App("bot"), Var("y")))))
        assert parse_term(format_term(t), fx.BDL) == t

    def test_pp_round_trip(self):
        for spec in (fx.COMPL, fx.COMPL_PADDED, fx.JOIN_WITH_COMPL):
            phi = spec.formula
            assert parse_pp_formula(format_pp_formula(phi), fx.BDL) == phi

    def test_quasiequation_round_trip(self):
        for q in fx.DL_AXIOMS:
            assert parse_quasiequation(format_quasiequation(q), fx.BDL) == q

    def test_workspace_round_trip(self):
        self.check_workspace(FIXTURES_PATH)

    def test_bench_workspace_round_trip(self):
        self.check_workspace(BENCH_WORKSPACE_PATH)

    @staticmethod
    def check_workspace(path):
        with open(path, encoding="utf-8") as fh:
            ws = parse_workspace(fh.read())
        reparsed = parse_workspace(format_workspace(ws))
        assert reparsed.signatures == ws.signatures
        assert reparsed.algebras == ws.algebras
        assert reparsed.quasivarieties == ws.quasivarieties
        assert reparsed.ppops == ws.ppops
        assert reparsed.expansions == ws.expansions
        assert reparsed.translations == ws.translations


class TestWorkspace:
    def test_fixture_algebras_match_their_closed_forms(self):
        """Every algebra of the fixtures has the tables of its closed form:
        a chain of n elements meets by min and joins by max, with bot 0 and
        top n - 1; the four-element lattices and the four-element Boolean
        algebra work on bitmasks, with not a = 3 ^ a."""
        ws = load_fixture_workspace()
        sig = ws.signatures

        def chain(n):
            return {"meet": min, "join": max, "bot": 0, "top": n - 1}

        bits = {"meet": lambda a, b: a & b, "join": lambda a, b: a | b, "bot": 0, "top": 3}
        closed = {
            "Chain2": (sig["BDL"], 2, chain(2)),
            "Chain3": (sig["BDL"], 3, chain(3)),
            "Chain4": (sig["BDL"], 4, chain(4)),
            "Diamond": (sig["BDL"], 4, bits),
            "TwoBA": (sig["BA"], 2, {**chain(2), "not": lambda a: 1 - a}),
            "FourBA": (sig["BA"], 4, {**bits, "not": lambda a: 3 ^ a}),
            "Chain2MS": (sig["MSL"], 2, {"meet": min, "bot": 0, "top": 1}),
            "DiamondMS": (sig["MSL"], 4, {"meet": bits["meet"], "bot": 0, "top": 3}),
            "MinMon": (sig["MON"], 2, {"mul": min, "e": 1}),
            "TwoImp": (sig["BIMP"], 2, {**chain(2), "imp": lambda a, b: max(1 - a, b)}),
        }
        assert sorted(ws.algebras) == sorted(closed)
        for name, (signature, size, ops) in closed.items():
            assert ws.algebras[name] == oracles.build_algebra(name, signature, size, ops), name

    def test_duplicate_name_reports_both_sites(self):
        text = "signature A { f/1 }\nsignature A { g/1 }\n"
        with pytest.raises(ParseError, match="first defined at line 1"):
            parse_workspace(text)

    def test_wrong_table_length(self):
        text = (
            "signature S { f/1 }\n"
            "algebra A : S { universe 2 op f = [0] }\n"
        )
        with pytest.raises(ParseError, match="rows"):
            parse_workspace(text)

    def test_table_symbol_not_in_signature(self):
        text = (
            "signature S { f/1 }\n"
            "algebra A : S { universe 2 op g = [0,1] }\n"
        )
        with pytest.raises(ParseError, match="not in signature"):
            parse_workspace(text)

    def test_unresolved_reference(self):
        with pytest.raises(ParseError, match="no signature"):
            parse_workspace("algebra A : NoSuch { universe 1 op f = 0 }")

    @pytest.mark.parametrize("parse", [parse_workspace, oracles.parse_workspace],
                             ids=["parser", "reference"])
    def test_unresolved_reference_message(self, parse):
        """The message names the kind in the singular, unquoted, at the
        unresolved token."""
        with pytest.raises(ParseError) as info:
            parse("signature S { f/0 }\nexpansion E := Q -> Q")
        assert str(info.value) == "line 2, column 16: no quasivariety named 'Q'"
        with pytest.raises(ParseError) as info:
            parse("signature S { f/0 }\nquasivariety Q : S = generated(A)")
        assert str(info.value) == "line 2, column 32: no algebra named 'A'"

    def test_ppop_variable_convention_enforced(self):
        text = (
            "signature S { f/2 }\n"
            "ppop p/1 over S := exists [w] . f(x1,w) = y\n"
        )
        with pytest.raises(ParseError, match="bound variables"):
            parse_workspace(text)

    def test_formatting_declarations(self):
        assert format_signature(fx.BDL).startswith("signature BDL {")
        assert "universe 2" in format_algebra(fx.CHAIN2)
        assert format_quasivariety(fx.DL) == "quasivariety DL : BDL = generated(Chain2)"


def _scans(text, step=1):
    """The parser's scan of `text` and the reference tokenizer's, each as
    its kinds, its values and the (index, line, column) of eof and of every
    `step`-th token before it, or as the error of a bad character.  The
    parser's lines and columns come from `_position`."""
    def outcome(scan):
        try:
            kinds, values, position = scan()
        except ParseError as exc:
            return ("error", str(exc), exc.line, exc.col)
        return kinds, values, [(i, *position(i)) for i in range(len(values) - 1, -1, -step)]

    def parser_scan():
        p = _Parser(text)
        return p.kinds, p.values, lambda i: _position(text, i)

    def reference_scan():
        tokens = oracles.tokenize(text)
        return ([t.kind for t in tokens], [t.value for t in tokens],
                lambda i: (tokens[i].line, tokens[i].col))

    return outcome(parser_scan), outcome(reference_scan)


# Pieces of workspace text, plus characters that end a token early or start
# none: an unterminated comment, carriage returns, non-ASCII whitespace and
# digits, and characters outside the grammar.  The whitespace includes the
# control characters that `str.split` and `\s` both take as spaces, and
# U+FEFF, which neither does.
_FRAGMENTS = (
    "signature", "algebra", "x1", "_f", "12", "0", ":=", "=>", "->", ":", "=", "-", ">",
    "{", "}", "[", "]", "(", ")", ",", ";", "/", "&", ".", "+", " ", "  ", "\t", "\n",
    "\n\n", "\r\n", "# note", "#", "@", "$", "\0", "\u00a0", "\u2028", "\u0663", "\u00e9",
    "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u3000", "\ufeff",
)


class TestTokenizer:
    @pytest.mark.parametrize("path", [FIXTURES_PATH, BENCH_WORKSPACE_PATH])
    def test_matches_reference_on_workspaces(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        got, expected = _scans(text)
        assert got == expected
        # The same text cut at every seventh line, bare or with a stray tail.
        # A cut keeps the positions of the tokens before it, so each is
        # located at eof and every 97th token.
        for cut in [i for i, c in enumerate(text) if c == "\n"][::7]:
            for tail in ("", "@", "# x"):
                got, expected = _scans(text[:cut] + tail, 97)
                assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=30))
    def test_matches_reference_on_random_text(self, parts):
        got, expected = _scans("".join(parts))
        assert got == expected

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            _Parser("signature S {\n  f/1; @ }\n")
        assert (info.value.line, info.value.col) == (2, 8)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _outcome(parse_text, text):
    """The printed workspace, or the error with its position."""
    try:
        return format_workspace(parse_text(text))
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


def _spans(text):
    """(start, end) in `text` of each token but eof, from the reference
    tokenizer's lines and columns."""
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    return [
        (starts[t.line - 1] + t.col - 1, starts[t.line - 1] + t.col - 1 + len(t.value))
        for t in oracles.tokenize(text)[:-1]
    ]


def _mutate(text, op, i, j, n):
    """`text` with one token-level edit: delete, duplicate or prefix with a
    bad character the run of n tokens from token i, swap tokens i and j, or
    overwrite token j with the text of token i.  Indices wrap around."""
    spans = _spans(text)
    i, j = i % len(spans), j % len(spans)
    (a, b), d = spans[i], spans[min(i + n, len(spans)) - 1][1]
    if op == "delete":
        return text[:a] + text[d:]
    if op == "duplicate":
        return text[:d] + " " + text[a:d] + text[d:]
    if op == "bad":
        return text[:a] + "@" + text[a:]
    if op == "copy":
        c, e = spans[j]
        return text[:c] + text[a:b] + text[e:]
    (a, b), (c, e) = sorted((spans[i], spans[j]))
    return text[:a] + text[c:e] + text[b:c] + text[a:b] + text[e:] if a < c else text


_OPS = ("delete", "duplicate", "bad", "swap", "copy")


def _compact(text):
    """`text` without its comments and without every space that can go: each
    token follows the one before it directly, unless the reference
    tokenizer would then scan the two as other tokens, and after one space
    if so."""
    values = [t.value for t in oracles.tokenize(text)[:-1]]
    out = values[:1]
    for before, token in zip(values, values[1:]):
        apart = [t.value for t in oracles.tokenize(before + token)[:-1]] == [before, token]
        out.append(token if apart else " " + token)
    compact = "".join(out)
    assert [t.value for t in oracles.tokenize(compact)] == values + [""]
    return compact


@pytest.fixture
def grammar_calls(monkeypatch):
    """The name of each attribute read off `parser._TOKEN_RE`, which is
    replaced by a stand-in that records it and hands on the grammar's own."""
    grammar, calls = parser._TOKEN_RE, []

    class Recorded:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(grammar, name)

    monkeypatch.setattr(parser, "_TOKEN_RE", Recorded())
    return calls


class TestReferenceParser:
    """The parser against the reference parser in `oracles`, which runs on a
    list of `Token` objects: on edited workspaces, both give the same
    workspace or the same error at the same line and column."""

    @pytest.mark.parametrize("path", [FIXTURES_PATH, BENCH_WORKSPACE_PATH])
    def test_clean_workspaces(self, path):
        text = _read(path)
        assert _outcome(parse_workspace, text) == _outcome(oracles.parse_workspace, text)
        assert not isinstance(_outcome(parse_workspace, text), tuple)

    @pytest.mark.parametrize("path", [FIXTURES_PATH, BENCH_WORKSPACE_PATH])
    def test_workspaces_without_spaces(self, path, grammar_calls):
        """Valid input whose words hold several tokens (`op meet=[[0,0],...`,
        `2op`, `x=y&`): both parsers give the formatted text's workspace,
        and the parser's scan splits such words with the token grammar."""
        formatted = _outcome(parse_workspace, _read(path))
        compact = _compact(_read(path))
        assert _outcome(parse_workspace, compact) == formatted
        assert "findall" in grammar_calls
        assert _outcome(oracles.parse_workspace, compact) == formatted

    @pytest.mark.parametrize("text, error", [
        ("signature S { f/1 }\nalgebra A : S { universe 2 op f = [BIG, 1] }", "ValueError"),
        ("signature S { f/1 } @ BIG", "ParseError"),
    ], ids=["read", "unread"])
    def test_int_too_long_for_int(self, text, error):
        """An int of more digits than `int` converts raises `int`'s error
        where it is read, and none when a parse error comes first."""
        text = text.replace("BIG", "9" * 5000)
        got = _outcome(parse_workspace, text)
        assert got == _outcome(oracles.parse_workspace, text)
        assert got[0] == error

    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from([FIXTURES_PATH, BENCH_WORKSPACE_PATH]),
        op=st.sampled_from(_OPS),
        i=st.integers(0, 2000),
        j=st.integers(0, 2000),
        n=st.integers(1, 3),
        cut=st.none() | st.floats(0, 1),
    )
    def test_edited_workspaces(self, path, op, i, j, n, cut):
        text = _mutate(_read(path), op, i, j, n)
        if cut is not None:
            text = text[: int(cut * len(text))]
        assert _outcome(parse_workspace, text) == _outcome(oracles.parse_workspace, text)

    # Tokens are named by their text and, optionally, the token before them:
    # the first token that matches is edited.
    @pytest.mark.parametrize("op, i, j, n, message", [
        # `signature MSL` renamed to BDL
        ("copy", ("BDL", None), ("MSL", None), 1, "duplicate name 'BDL'"),
        # Chain2's first meet row loses its first cell
        ("delete", ("0", "["), None, 2, "has 1 rows, expected 2"),
        # `=> meet(x,x) = x` becomes `=> x(x,x) = x`
        ("copy", ("x", "("), ("meet", "=>"), 1, "unknown symbol"),
        ("bad", ("universe", None), None, 1, "unexpected character '@'"),
        ("delete", ("[", None), None, 1, "expected '['"),
        ("swap", ("universe", None), ("op", None), 1, "expected 'universe'"),
    ], ids=["duplicate-name", "table-rows", "unknown-symbol", "bad-character", "table-open", "swap"])
    def test_error_paths(self, op, i, j, n, message):
        """Each error path, reached by one edit of the fixtures."""
        text = _read(FIXTURES_PATH)
        values = [t.value for t in oracles.tokenize(text)]

        def index(name):
            if name is None:
                return 0
            value, before = name
            return next(
                k for k, v in enumerate(values)
                if v == value and (before is None or values[k - 1] == before)
            )

        text = _mutate(text, op, index(i), index(j), n)
        got = _outcome(parse_workspace, text)
        assert got == _outcome(oracles.parse_workspace, text)
        assert message in got[1]


class TestParseWork:
    """A clean parse locates no token: `_position` runs only for a failure,
    once per position the error reports."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted_position(text, i):
            calls.append(i)
            return _position(text, i)

        monkeypatch.setattr(parser, "_position", counted_position)
        return calls

    def test_clean_parse_locates_no_token(self, calls):
        parse_workspace(_read(FIXTURES_PATH))
        parse_term("meet(x, join(y, bot))", fx.BDL)
        assert calls == []

    @pytest.mark.parametrize("path", [FIXTURES_PATH, BENCH_WORKSPACE_PATH])
    def test_clean_parse_splits_no_word(self, path, grammar_calls):
        """Each word of a formatted workspace is one token, so the scan
        never runs the token grammar."""
        parse_workspace(_read(path))
        assert grammar_calls == []

    @pytest.mark.parametrize("tail, located", [
        ("signature BDL { f/1 }\n", 2),            # duplicate name: its first line and the error
        ("algebra A : BDL { universe 1 }\n", 1),   # missing tables
        ("signature S { f/1 } @\n", 1),            # bad character
    ])
    def test_failed_parse_locates_each_reported_position(self, calls, tail, located):
        with pytest.raises(ParseError):
            parse_workspace(_read(FIXTURES_PATH) + tail)
        assert len(calls) == located


class TestParseEntry:
    def test_workspace_with_leading_comment(self):
        """`fixtures.qvw` opens with a comment; `parse` classifies it by its
        first token, a declaration keyword."""
        text = _read(FIXTURES_PATH)
        assert text.startswith("#")
        assert parse(text) == parse_workspace(text)
        assert parse(text, fx.BDL) == parse_workspace(text)

    def test_fragments_with_leading_comment(self):
        assert parse("# note\nexists [] . meet(x1,y) = bot & join(x1,y) = top", fx.BDL) == (
            fx.COMPL.formula
        )
        assert parse("# a => b\nmeet(x,y) = x", fx.BDL) == [
            Equation(App("meet", (Var("x"), Var("y"))), Var("x"))
        ]
