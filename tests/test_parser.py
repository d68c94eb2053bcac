import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qvbench import fixtures as fx
from qvbench.core import Signature
from qvbench.logic import App, Equation, PpFormula, Quasiequation, Var
from qvbench.parser import (
    ParseError,
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
    parse_equations,
    parse_pp_formula,
    parse_quasiequation,
    parse_term,
    parse_workspace,
    tokenize,
)

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
    def test_fixture_objects_match_programmatic_ones(self):
        ws = load_fixture_workspace()
        assert ws.signatures["BDL"] == fx.BDL
        assert ws.algebras["Chain2"] == fx.CHAIN2
        assert ws.algebras["Chain3"] == fx.CHAIN3
        assert ws.algebras["Diamond"] == fx.DIAMOND
        assert ws.algebras["FourBA"] == fx.FOUR_BA
        assert ws.algebras["MinMon"] == fx.MIN_MON
        assert ws.quasivarieties["DL"] == fx.DL
        assert ws.quasivarieties["DLAX"] == fx.DLAX
        assert ws.ppops["compl"] == fx.COMPL
        assert ws.ppops["joincompl"] == fx.JOIN_WITH_COMPL
        assert ws.expansions["DLtoBOOL"] == fx.DL_TO_BOOL
        assert ws.expansions["DLcompl"] == fx.PP_COMPL
        assert ws.translations["notToImp"] == fx.NOT_TO_IMP

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


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


# Pieces of workspace text, plus characters that end a token early or start
# none: an unterminated comment, carriage returns, non-ASCII whitespace and
# digits, and characters outside the grammar.
_FRAGMENTS = (
    "signature", "algebra", "x1", "_f", "12", "0", ":=", "=>", "->", ":", "=", "-", ">",
    "{", "}", "[", "]", "(", ")", ",", ";", "/", "&", ".", "+", " ", "  ", "\t", "\n",
    "\n\n", "\r\n", "# note", "#", "@", "$", "\0", "\u00a0", "\u2028", "\u0663", "\u00e9",
)


class TestTokenizer:
    @pytest.mark.parametrize("path", [FIXTURES_PATH, BENCH_WORKSPACE_PATH])
    def test_matches_reference_on_workspaces(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert tokenize(text) == oracles.tokenize(text)
        # The same text cut at every seventh line, bare or with a stray tail.
        for cut in [i for i, c in enumerate(text) if c == "\n"][::7]:
            for tail in ("", "@", "# x"):
                broken = text[:cut] + tail
                assert _tokens_or_error(tokenize, broken) == _tokens_or_error(
                    oracles.tokenize, broken
                )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=30))
    def test_matches_reference_on_random_text(self, parts):
        text = "".join(parts)
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(oracles.tokenize, text)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            tokenize("signature S {\n  f/1; @ }\n")
        assert (info.value.line, info.value.col) == (2, 8)
