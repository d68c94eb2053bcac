"""Parser for the textual workspace format.

Grammar (whitespace-insensitive, `#` comments to end of line):

    signature NAME { sym/arity; ... }
    algebra NAME : SIG { universe N  op sym = table-or-element ... }
    quasivariety NAME : SIG = generated(A1, A2, ...)
    quasivariety NAME : SIG = axioms { eq & ... => eq ; ... }
    ppop NAME/n over SIG := exists [z1,...,zm] . eq & eq & ...
    expansion NAME := QV + { newsym := ppopname; ... }
    expansion NAME := QV -> QV2
    translation NAME : SIG1 -> SIG2 { sym := term; ... }

Tables are nested bracket lists, row-major with the last argument innermost;
nullary symbols take a bare element.  pp operation formulas follow the fixed
variable convention (arguments x1..xn, result y, witnesses z1..zm), which the
parser enforces.  The tests' printer, in `tests/oracles.py`, writes every
workspace object in a form that parses back to it.

A parse scans the text once, with `findall` of the one token grammar, into
two parallel lists, the tokens' values and kinds, and builds no object per
token.  Lines and columns are worked out only to be reported, for an error
or the first line of a duplicate name: `_position` finds the token's start
by scanning again up to its index.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice
from operator import itemgetter

from .core import FiniteAlgebra, Fresh, Signature, SignatureError, record
from .logic import App, Equation, LogicError, PpFormula, Quasiequation, Term, Var
from .adjunction import ExpansionSpec, PpExpansionSpec
from .beth import TermTranslation
from .implicit import ImplicitOpSpec
from .quasivariety import Quasivariety


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownName(ValueError):
    """A reference to a name that the workspace does not define."""


# The one token grammar.  Group 1 is a token: an identifier, an int, a
# punctuation mark or, failing those, one character other than `#` and
# whitespace, which is bad.  A comment matches with group 1 empty, and
# whitespace matches nothing, so a search steps over it.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|\d+|:=|=>|->|[^\s#])|\#[^\n]*")
# A token's kind from its first character: "ident", "int", or else the
# token itself, which is punctuation unless it is a bad character or digits
# beyond ASCII.
_KIND = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident")
_KIND.update(dict.fromkeys("0123456789", "int"))
_KINDS = frozenset(["ident", "int", "eof", ":=", "=>", "->", *"{}()[],;/=&:.+"])

# Each declaration keyword and the `Workspace` field it fills.
DECL_KEYWORDS = {
    "signature": "signatures", "algebra": "algebras", "quasivariety": "quasivarieties",
    "ppop": "ppops", "expansion": "expansions", "translation": "translations",
}
# Each `Workspace` field and the kind of object it holds.
_KIND_OF_FIELD = {f: keyword for keyword, f in DECL_KEYWORDS.items()}


def _kinds(values: list[str]) -> tuple[list[str], bool]:
    """The kind of each token, and whether none is a bad character, which
    keeps itself as its kind."""
    kinds = list(map(_KIND.get, map(itemgetter(0), values), values))
    if _KINDS.issuperset(kinds):
        return kinds, True
    kinds = ["int" if k.isdecimal() else k for k in kinds]  # digits beyond ASCII
    return kinds, _KINDS.issuperset(kinds)


@lru_cache(maxsize=256)
def _table_kinds(arity: int, size: int) -> list[str]:
    """The kinds of a table of arity >= 1 over a universe of size >= 1:
    `[`, then `size` rows of one arity less, or ints, separated by `,`, then
    `]`.  Callers share the list and only compare with it."""
    row = _table_kinds(arity - 1, size) if arity > 1 else ["int"]
    return ["["] + (row + [","]) * (size - 1) + row + ["]"]


def _position(text: str, i: int) -> tuple[int, int]:
    """The 1-based line and column of token i of the parser's scan of
    `text`, or of the end of the text when the scan has i tokens.  Only
    newlines break lines."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m.group(1))
    at = next(islice(starts, i, None), len(text))
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


@record
class Workspace:
    """Named, cross-referenced objects parsed from one workspace file."""
    signatures: dict[str, Signature] = Fresh(dict)
    algebras: dict[str, FiniteAlgebra] = Fresh(dict)
    quasivarieties: dict[str, Quasivariety] = Fresh(dict)
    ppops: dict[str, ImplicitOpSpec] = Fresh(dict)
    expansions: dict[str, ExpansionSpec | PpExpansionSpec] = Fresh(dict)
    translations: dict[str, TermTranslation] = Fresh(dict)

    def lookup(self, kind: str, name: str):
        table = getattr(self, kind)
        if name not in table:
            raise UnknownName(f"no {_KIND_OF_FIELD[kind]} named {name!r}")
        return table[name]


class _Parser:
    """Recursive descent over two parallel lists from one `findall` of the
    token grammar: `values`, the tokens' text, and `kinds`, each "ident",
    "int" or the punctuation itself, then "eof" with value "".  A token is
    its index in them, and `pos` is the index of the next one.  A token's
    line and column come from its index through `_position`, only to report
    an error or the first line of a duplicate name.  A bad character is a
    token whose kind is itself, and the first one fails at its own index."""

    def __init__(self, text: str):
        self.text = text
        self.values = list(filter(None, _TOKEN_RE.findall(text)))
        self.kinds, clean = _kinds(self.values)
        self.values.append("")
        self.kinds.append("eof")
        self.pos = 0
        if not clean:
            bad = next(i for i, k in enumerate(self.kinds) if k not in _KINDS)
            self.fail(f"unexpected character {self.values[bad]!r}", bad)

    # -- token plumbing

    def fail(self, message: str, at: int | None = None):
        raise ParseError(message, *_position(self.text, self.pos if at is None else at))

    def expect(self, kind: str, what: str = "") -> int:
        """Consume the next token, which must be of `kind`; its index."""
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(f"expected {what or repr(kind)}, found {self.values[i] or 'end of input'!r}")
        self.pos = i + 1
        return i

    def word(self, what: str = "identifier") -> str:
        return self.values[self.expect("ident", what)]

    def keyword(self, word: str, message: str = "") -> None:
        i = self.expect("ident", "identifier")
        if self.values[i] != word:
            self.fail(message or f"expected {word!r}", i)

    def expect_int(self) -> int:
        return int(self.values[self.expect("int")])

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def items(self, close: str, sep: str):
        """Yield once per item of a list that ends at `close`; an item not
        followed by `close` must be followed by `sep`."""
        while not self.accept(close):
            yield
            if self.kinds[self.pos] != close:
                self.expect(sep)

    # -- workspace

    def parse_workspace(self) -> Workspace:
        ws = Workspace()
        defined: dict[str, int] = {}  # name to the index of its first definition
        while self.kinds[self.pos] != "eof":
            keyword = self.values[self.pos]
            if self.kinds[self.pos] != "ident" or keyword not in DECL_KEYWORDS:
                self.fail("expected a declaration keyword")
            self.pos += 1
            at = self.expect("ident", "name")
            name = self.values[at]
            if name in defined:
                first = _position(self.text, defined[name])[0]
                self.fail(f"duplicate name {name!r}: first defined at line {first}", at)
            defined[name] = at
            body = getattr(self, f"parse_{keyword}_body")(name, ws)
            getattr(ws, DECL_KEYWORDS[keyword])[name] = body
        return ws

    def parse_signature_body(self, name: str, ws: Workspace) -> Signature:
        self.expect("{")
        symbols = []
        for _ in self.items("}", ";"):
            sym = self.word("symbol")
            self.expect("/")
            symbols.append((sym, self.expect_int()))
        try:
            return Signature(name, tuple(symbols))
        except SignatureError as exc:
            self.fail(str(exc))

    def _ref(self, ws: Workspace, kind: str, what: str):
        i = self.expect("ident", what)
        try:
            return ws.lookup(kind, self.values[i])
        except UnknownName as exc:
            self.fail(str(exc), i)

    def parse_algebra_body(self, name: str, ws: Workspace) -> FiniteAlgebra:
        self.expect(":")
        sig = self._ref(ws, "signatures", "signature name")
        self.expect("{")
        self.keyword("universe")
        size = self.expect_int()
        tables: dict[str, tuple[int, ...]] = {}
        while not self.accept("}"):
            self.keyword("op", "expected 'op' or '}'")
            at = self.expect("ident", "operation symbol")
            sym = self.values[at]
            if sym not in sig.arities:
                self.fail(f"symbol {sym!r} is not in signature {sig.name!r}", at)
            self.expect("=")
            tables[sym] = tuple(self.parse_table(sig.arity(sym), size, sym))
        missing = [s for s, _ in sig.symbols if s not in tables]
        if missing:
            self.fail(f"missing tables for {missing} in algebra {name!r}")
        try:
            return FiniteAlgebra(name, sig, size, tuple(tables[s] for s, _ in sig.symbols))
        except (SignatureError, ValueError) as exc:
            self.fail(f"in algebra {name!r}: {exc}")

    def parse_table(self, arity: int, size: int, sym: str) -> list[int]:
        """The table's cells, flat and row-major.  A well-formed table is
        read off the lists in one step; any other input takes the loop."""
        if arity == 0:
            return [self.expect_int()]
        start = self.pos
        shape = _table_kinds(arity, size)
        if size and self.kinds[start:start + len(shape)] == shape:
            self.pos = start + len(shape)
            return list(map(int, filter(str.isdecimal, self.values[start:self.pos])))
        at = self.expect("[")
        cells, rows = [], 0
        for rows, _ in enumerate(self.items("]", ","), 1):
            cells += [self.expect_int()] if arity == 1 else self.parse_table(arity - 1, size, sym)
        if rows != size:
            self.fail(f"table for {sym!r} has {rows} rows, expected {size}", at)
        return cells

    def parse_quasivariety_body(self, name: str, ws: Workspace) -> Quasivariety:
        self.expect(":")
        sig = self._ref(ws, "signatures", "signature name")
        self.expect("=")
        at = self.expect("ident", "identifier")
        if self.values[at] == "generated":
            self.expect("(")
            gens = []
            for _ in self.items(")", ","):
                gens.append(self._ref(ws, "algebras", "algebra name"))
            try:
                return Quasivariety(name, sig, generators=tuple(gens))
            except (SignatureError, ValueError) as exc:
                self.fail(f"in quasivariety {name!r}: {exc}", at)
        if self.values[at] == "axioms":
            self.expect("{")
            axioms = []
            for _ in self.items("}", ";"):
                axioms.append(self.parse_quasiequation(sig))
            return Quasivariety(name, sig, axioms=tuple(axioms))
        self.fail("expected 'generated' or 'axioms'", at)

    def parse_quasiequation(self, sig: Signature) -> Quasiequation:
        premises = [] if self.kinds[self.pos] == "=>" else self.parse_equations(sig)
        self.expect("=>")
        return Quasiequation(tuple(premises), self.parse_equation(sig))

    def parse_ppop_body(self, name: str, ws: Workspace) -> ImplicitOpSpec:
        self.expect("/")
        arity = self.expect_int()
        self.keyword("over")
        sig = self._ref(ws, "signatures", "signature name")
        self.expect(":=")
        at = self.pos
        try:
            formula = self.parse_pp(sig)
            return ImplicitOpSpec(name, sig, arity, len(formula.bound_vars), formula)
        except LogicError as exc:
            self.fail(f"in ppop {name!r}: {exc}", at)

    def parse_expansion_body(self, name: str, ws: Workspace):
        self.expect(":=")
        base = self._ref(ws, "quasivarieties", "quasivariety name")
        at = self.pos
        if self.accept("->"):
            expanded = self._ref(ws, "quasivarieties", "quasivariety name")
            try:
                return ExpansionSpec(base, expanded)
            except SignatureError as exc:
                self.fail(f"in expansion {name!r}: {exc}", at)
        if self.accept("+"):
            self.expect("{")
            ops = []
            for _ in self.items("}", ";"):
                sym = self.word("new operation symbol")
                self.expect(":=")
                ops.append((sym, self._ref(ws, "ppops", "ppop name")))
            try:
                return PpExpansionSpec(base, tuple(ops))
            except SignatureError as exc:
                self.fail(f"in expansion {name!r}: {exc}", at)
        self.fail("expected '->' or '+'", at)

    def parse_translation_body(self, name: str, ws: Workspace) -> TermTranslation:
        self.expect(":")
        source = self._ref(ws, "signatures", "signature name")
        self.expect("->")
        target = self._ref(ws, "signatures", "signature name")
        self.expect("{")
        mapping = []
        for _ in self.items("}", ";"):
            at = self.expect("ident", "symbol")
            sym = self.values[at]
            if sym not in source.arities:
                self.fail(f"symbol {sym!r} is not in {source.name!r}", at)
            self.expect(":=")
            mapping.append((sym, self.parse_term(target)))
        try:
            return TermTranslation(source, target, tuple(mapping))
        except SignatureError as exc:
            self.fail(f"in translation {name!r}: {exc}")

    # -- terms and formulas

    def parse_term(self, sig: Signature) -> Term:
        at = self.expect("ident", "term")
        name = self.values[at]
        arity = sig.arities.get(name)
        if arity is None:
            if self.kinds[self.pos] == "(":
                self.fail(f"unknown symbol {name!r} in signature {sig.name!r}", at)
            return Var(name)
        if arity == 0:
            return App(name)
        self.expect("(")
        args = [self.parse_term(sig)]
        while self.accept(","):
            args.append(self.parse_term(sig))
        self.expect(")")
        if len(args) != arity:
            self.fail(f"{name}/{arity} applied to {len(args)} arguments", at)
        return App(name, tuple(args))

    def parse_equation(self, sig: Signature) -> Equation:
        left = self.parse_term(sig)
        self.expect("=")
        return Equation(left, self.parse_term(sig))

    def parse_equations(self, sig: Signature) -> list[Equation]:
        eqs = [self.parse_equation(sig)]
        while self.accept("&"):
            eqs.append(self.parse_equation(sig))
        return eqs

    def parse_pp(self, sig: Signature) -> PpFormula:
        self.keyword("exists")
        self.expect("[")
        bound = []
        for _ in self.items("]", ","):
            bound.append(self.word("witness variable"))
        self.expect(".")
        return PpFormula(tuple(bound), tuple(self.parse_equations(sig)))


# ---------------------------------------------------------------------------
# public entry point


def parse_workspace(text: str) -> Workspace:
    return _Parser(text).parse_workspace()
