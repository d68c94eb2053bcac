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
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .core import FiniteAlgebra, Signature, SignatureError, build_algebra
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


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


# `bad` takes any character the other alternatives cannot start with, so
# `finditer` covers the text without gaps.
_TOKEN_RE = re.compile(
    r"""
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>:=|=>|->|[{}()\[\],;/=&:.+])
  | (?P<skip>\#[^\n]*|\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

DECL_KEYWORDS = {"signature", "algebra", "quasivariety", "ppop", "expansion", "translation"}


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column; comments and whitespace are
    dropped.  Newlines are counted only in the text between two tokens."""
    tokens: list[Token] = []
    line, line_start, last = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        pos = m.start()
        newlines = text.count("\n", last, pos)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, pos) + 1
        last = pos
        value = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, pos - line_start + 1)
        tokens.append(Token(value if kind == "punct" else kind, value, line, pos - line_start + 1))
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
            raise KeyError(f"no {kind[:-1]} named {name!r}")
        return table[name]


class _Parser:
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
        except KeyError as exc:
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
                except KeyError as exc:
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
# public entry points


def parse_workspace(text: str) -> Workspace:
    p = _Parser(text)
    ws = p.parse_workspace()
    return ws


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text)
    t = p.parse_term(sig)
    p.at_end()
    return t


def parse_equation(text: str, sig: Signature) -> Equation:
    p = _Parser(text)
    eq = p.parse_equation(sig)
    p.at_end()
    return eq


def parse_equations(text: str, sig: Signature) -> list[Equation]:
    p = _Parser(text)
    eqs = [p.parse_equation(sig)]
    while p.accept("&"):
        eqs.append(p.parse_equation(sig))
    p.at_end()
    return eqs


def parse_pp_formula(text: str, sig: Signature) -> PpFormula:
    p = _Parser(text)
    phi = p.parse_pp(sig)
    p.at_end()
    return phi


def parse_quasiequation(text: str, sig: Signature) -> Quasiequation:
    p = _Parser(text)
    q = p.parse_quasiequation(sig)
    p.at_end()
    return q


def parse(text: str, sig: Signature | None = None):
    """Polymorphic entry: a full workspace when the text starts with a
    declaration keyword, otherwise a pp formula, quasiequation, or equation
    list over the given signature."""
    stripped = text.lstrip()
    first = stripped.split(None, 1)[0] if stripped else ""
    if first in DECL_KEYWORDS:
        return parse_workspace(text)
    if sig is None:
        raise ValueError("parsing a formula fragment needs a signature")
    if first == "exists":
        return parse_pp_formula(text, sig)
    if "=>" in text:
        return parse_quasiequation(text, sig)
    return parse_equations(text, sig)


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
