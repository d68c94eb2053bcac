"""Parser and printer for the textual workspace format.

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
parser enforces.  Printing followed by parsing is the identity on every
workspace object.

A parse scans the text once, with `findall` of the one token grammar, into
two parallel lists, the tokens' values and kinds, and builds no object per
token.  Lines and columns are worked out only to be reported: an error, or
the first line of a duplicate name, re-scans the text with `tokenize`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .core import FiniteAlgebra, Signature, SignatureError
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


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


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


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column, from the matches of the token
    grammar and their starts; comments and whitespace are dropped.  Newlines
    are counted only in the text between two tokens."""
    matches = [m for m in _TOKEN_RE.finditer(text) if m.group(1)]
    values = [m.group(1) for m in matches]
    tokens: list[Token] = []
    line, line_start, last = 1, 0, 0
    for m, value, kind in zip(matches, values, _kinds(values)[0]):
        pos = m.start()
        newlines = text.count("\n", last, pos)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, pos) + 1
        last = pos
        if kind not in _KINDS:
            raise ParseError(f"unexpected character {value!r}", line, pos - line_start + 1)
        tokens.append(Token(kind, value, line, pos - line_start + 1))
    newlines = text.count("\n", last)
    if newlines:
        line += newlines
        line_start = text.rfind("\n") + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


@dataclass
class Workspace:
    """Named, cross-referenced objects parsed from one workspace file."""
    signatures: dict[str, Signature] = dc_field(default_factory=dict)
    algebras: dict[str, FiniteAlgebra] = dc_field(default_factory=dict)
    quasivarieties: dict[str, Quasivariety] = dc_field(default_factory=dict)
    ppops: dict[str, ImplicitOpSpec] = dc_field(default_factory=dict)
    expansions: dict[str, ExpansionSpec | PpExpansionSpec] = dc_field(default_factory=dict)
    translations: dict[str, TermTranslation] = dc_field(default_factory=dict)

    def lookup(self, kind: str, name: str):
        table = getattr(self, kind)
        if name not in table:
            raise UnknownName(f"no {_KIND_OF_FIELD[kind]} named {name!r}")
        return table[name]


class _Parser:
    """Recursive descent over two parallel lists from one `findall` of the
    token grammar: `values`, the tokens' text, and `kinds`, each "ident",
    "int" or the punctuation itself, then "eof" with value "".  A token is
    its index in them, and `pos` is the index of the next one.  Positions
    are lazy: the `Token` at an index, with its line and column, comes from
    re-scanning the text with `tokenize`, at most once per parse and only to
    report an error or the first line of a duplicate name."""

    def __init__(self, text: str):
        self.text = text
        self.values = list(filter(None, _TOKEN_RE.findall(text)))
        self.kinds, clean = _kinds(self.values)
        if not clean:
            tokenize(text)  # raises at the first bad character
        self.values.append("")
        self.kinds.append("eof")
        self.pos = 0
        self.tokens: list[Token] | None = None

    # -- token plumbing

    def token(self, i: int) -> Token:
        if self.tokens is None:
            self.tokens = tokenize(self.text)
        return self.tokens[i]

    def fail(self, message: str, at: int | None = None):
        t = self.token(self.pos if at is None else at)
        raise ParseError(message, t.line, t.col)

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

    def whole(self, rule: str, sig: Signature):
        """Parse `rule` from the whole text: no token may follow it."""
        result = getattr(self, rule)(sig)
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected trailing input {self.values[self.pos]!r}")
        return result

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
                first = self.token(defined[name]).line
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
# public entry points


def parse_workspace(text: str) -> Workspace:
    return _Parser(text).parse_workspace()


def parse_term(text: str, sig: Signature) -> Term:
    return _Parser(text).whole("parse_term", sig)


def parse_equation(text: str, sig: Signature) -> Equation:
    return _Parser(text).whole("parse_equation", sig)


def parse_equations(text: str, sig: Signature) -> list[Equation]:
    return _Parser(text).whole("parse_equations", sig)


def parse_pp_formula(text: str, sig: Signature) -> PpFormula:
    return _Parser(text).whole("parse_pp", sig)


def parse_quasiequation(text: str, sig: Signature) -> Quasiequation:
    return _Parser(text).whole("parse_quasiequation", sig)


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
        return p.whole("parse_pp", sig)
    return p.whole("parse_quasiequation" if "=>" in p.kinds else "parse_equations", sig)


# ---------------------------------------------------------------------------
# printers (parse . format == identity)


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
