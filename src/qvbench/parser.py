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

A parse scans the text once into two parallel lists, the tokens' values
and kinds, and builds no object per token.  The scan drops the comments,
puts spaces around the marks that are tokens on their own and splits the
text at whitespace; only a word that holds several tokens, such as `x=y`,
is split by the one token grammar, and each distinct word is classified
once.  A well-formed table's cells are read at fixed offsets.  Lines and
columns are worked out only to be reported, for an error or the first line
of a duplicate name: `_position` finds the token's start by scanning again,
with the token grammar, up to its index.
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
# A comment, as the grammar matches it: `#` to the end of its line.
_COMMENT_RE = re.compile(r"#[^\n]*")
# The punctuation tokens, each its own kind, and all the kinds of good tokens.
_PUNCT = frozenset([":=", "=>", "->", *"{}()[],;/=&:.+"])
_KINDS = _PUNCT | {"ident", "int", "eof"}
# The marks that are never part of a longer token, each with the spaces that
# the scan puts around it.
_PADDED = [(mark, f" {mark} ") for mark in "{}()[],;/&.+"]

# Each declaration keyword and the `Workspace` field it fills.
DECL_KEYWORDS = {
    "signature": "signatures", "algebra": "algebras", "quasivariety": "quasivarieties",
    "ppop": "ppops", "expansion": "expansions", "translation": "translations",
}
# Each `Workspace` field and the kind of object it holds.
_KIND_OF_FIELD = {f: keyword for keyword, f in DECL_KEYWORDS.items()}


def _kinds(words: set[str]) -> dict[str, str | None]:
    """The kind of each word that is one token: "int" (`\\d+`, digits beyond
    ASCII included), "ident", or else the word itself, which is punctuation
    unless it is a bad character.  None for a word of several tokens."""
    return {
        w: "int" if w.isdecimal() else "ident" if w.isascii() and w.isidentifier()
        else w if w in _PUNCT or len(w) == 1 else None
        for w in words
    }


def _scan(text: str) -> tuple[list[str], dict[str, str]]:
    """The tokens of `text`, and the kind of each distinct one.  The text
    loses its comments and gains spaces around the marks in `_PADDED`,
    which changes no token, so its whitespace split gives words that are
    each one token or, where tokens touch (`x=y`, `12ab`), several, which
    the token grammar splits."""
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    for mark, padded in _PADDED:
        text = text.replace(mark, padded)
    words = text.split()
    kinds = _kinds(set(words))
    if None in kinds.values():
        words = [t for w in words for t in ((w,) if kinds[w] else _TOKEN_RE.findall(w))]
        kinds = _kinds(set(words))
    return words, kinds


class _Ints(dict):
    """Each int token's value, converted once, on first use, so that an int
    too long for `int` fails only where it is read."""

    def __missing__(self, word: str) -> int:
        value = self[word] = int(word)
        return value


@lru_cache(maxsize=256)
def _table_kinds(arity: int, size: int) -> list[str]:
    """The kinds of a table of arity >= 1 over a universe of size >= 1:
    `[`, then `size` rows of one arity less, or ints, separated by `,`, then
    `]`.  Callers share the list and only compare with it."""
    row = _table_kinds(arity - 1, size) if arity > 1 else ["int"]
    return ["["] + (row + [","]) * (size - 1) + row + ["]"]


@lru_cache(maxsize=256)
def _table_cells(arity: int, size: int) -> itemgetter:
    """The getter of the cells, the ints, from the tokens of a table of
    `_table_kinds(arity, size)`.  For a size >= 2 the table has two cells
    or more, so the getter returns a tuple."""
    return itemgetter(*[i for i, k in enumerate(_table_kinds(arity, size)) if k == "int"])


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
    """Recursive descent over two parallel lists from `_scan`: `values`,
    the tokens' text, and `kinds`, each "ident", "int" or the punctuation
    itself, then "eof" with value "".  A token is its index in them, and
    `pos` is the index of the next one.  `ints` gives an int token's value
    from its text.  A token's line and column come from its index through
    `_position`, only to report an error or the first line of a duplicate
    name.  A bad character is a token whose kind is itself, and the first
    one fails at its own index."""

    def __init__(self, text: str):
        self.text = text
        self.values, kind_of = _scan(text)
        self.kinds = list(map(kind_of.__getitem__, self.values))
        self.ints = _Ints()
        self.values.append("")
        self.kinds.append("eof")
        self.pos = 0
        if not _KINDS.issuperset(kind_of.values()):
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
        return self.ints[self.values[self.expect("int")]]

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
        values, kinds = self.values, self.kinds
        while not self.accept("}"):
            at = self.pos + 1  # the symbol of a line `op sym = ...`
            if values[at - 1] != "op" or kinds[at] != "ident":
                self.keyword("op", "expected 'op' or '}'")
                self.expect("ident", "operation symbol")
            sym = values[at]
            if sym not in sig.arities:
                self.fail(f"symbol {sym!r} is not in signature {sig.name!r}", at)
            self.pos = at + 1
            if kinds[at + 1] != "=":
                self.expect("=")
            self.pos = at + 2
            tables[sym] = self.parse_table(sig.arity(sym), size, sym)
        missing = [s for s, _ in sig.symbols if s not in tables]
        if missing:
            self.fail(f"missing tables for {missing} in algebra {name!r}")
        try:
            return FiniteAlgebra(name, sig, size, tuple(tables[s] for s, _ in sig.symbols))
        except (SignatureError, ValueError) as exc:
            self.fail(f"in algebra {name!r}: {exc}")

    def parse_table(self, arity: int, size: int, sym: str) -> tuple[int, ...]:
        """The table's cells, flat and row-major.  A well-formed table of
        two cells or more is read at the cells' offsets in its shape; any
        other input takes the row loop."""
        if arity == 0:
            return (self.expect_int(),)
        start = self.pos
        shape = _table_kinds(arity, size)
        end = start + len(shape)
        if size > 1 and self.kinds[start:end] == shape:
            self.pos = end
            return tuple(map(self.ints.__getitem__, _table_cells(arity, size)(self.values[start:end])))
        at = self.expect("[")
        cells, rows = [], 0
        for rows, _ in enumerate(self.items("]", ","), 1):
            cells += (self.expect_int(),) if arity == 1 else self.parse_table(arity - 1, size, sym)
        if rows != size:
            self.fail(f"table for {sym!r} has {rows} rows, expected {size}", at)
        return tuple(cells)

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
        at, kinds = self.pos, self.kinds
        if kinds[at] != "ident":
            self.expect("ident", "term")
        name = self.values[at]
        self.pos = at + 1
        arity = sig.arities.get(name)
        if arity is None:
            if kinds[at + 1] == "(":
                self.fail(f"unknown symbol {name!r} in signature {sig.name!r}", at)
            return Var(name)
        if arity == 0:
            return App(name)
        if kinds[at + 1] != "(":
            self.expect("(")
        self.pos = at + 2
        args = [self.parse_term(sig)]
        while kinds[self.pos] == ",":
            self.pos += 1
            args.append(self.parse_term(sig))
        if kinds[self.pos] != ")":
            self.expect(")")
        self.pos += 1
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
