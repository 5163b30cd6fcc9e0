"""Lexer and recursive-descent parser for ``.cell`` files.

``parse_spec`` returns a validated tree: references resolve to ports or
earlier bindings (no forward references), names are singly assigned, every
state port gets exactly one next-state assignment, and affine operand lists
satisfy their kind's arity (non-general kinds take exactly one operand; a
literal ``1`` may close any operand list to request a bias column). Scalar
names inside ``scale[...]`` are parameters, not bindings, and are resolved at
interpretation time. No expression nests deeper than ``MAX_DEPTH``, so every
walk over a parsed tree stays far inside Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .nodes import (
    Affine,
    Binary,
    CellSpec,
    Const,
    Expr,
    Factor,
    Gate,
    ParseError,
    PortDecl,
    Ref,
    Span,
    Stmt,
    Unary,
    children,
)
from .typesys import MatrixKind

MAX_DEPTH = 100  # the builtins nest about 6 deep
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH}"

# One alternative per token class; ``bad`` catches any other character.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)|(?P<newline>\n)"
    r"|(?P<IDENT>[^\W\d]\w*)|(?P<NUMBER>[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<punct>\(\*\)|[{}()\[\],;=+\-':])|(?P<bad>.)"
)

_UNARY_FNS = ("sigmoid", "tanh", "relu")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, NUMBER, EOF, or a punctuation token's own text
    text: str
    span: Span


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, span = m.lastgroup, Span(line, m.start() - line_start + 1)
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", span)
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            tokens.append(_Token(m.group() if kind == "punct" else kind, m.group(), span))
    tokens.append(_Token("EOF", "", Span(line, len(text) - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # expressions open around the current token
        self.affine_count = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.peek().kind != kind:
            return False
        self.next()
        return True

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected {what or repr(kind)}, found {shown!r}", tok.span)
        return self.next()

    # --- grammar -----------------------------------------------------------

    def cell(self) -> CellSpec:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text != "cell":
            raise ParseError(f"expected 'cell', found {tok.text!r}", tok.span)
        name = self.expect("IDENT", "cell name").text
        self.expect("{")
        ports: list[PortDecl] = []
        while self.peek().text in ("state", "input"):
            ports.append(self.port())
        stmts: list[Stmt] = []
        while self.peek().kind == "IDENT":
            stmts.append(self.stmt())
        self.expect("}", "binding name")  # a binding may stand here too
        self.expect("EOF", "end of input")
        return CellSpec(name, ports, stmts)

    def port(self) -> PortDecl:
        kw = self.next()
        name = self.expect("IDENT", "port name")
        type_name = self.expect("IDENT", "type name").text if self.accept(":") else None
        self.expect(";")
        return PortDecl(name.text, kw.text == "state", type_name, name.span)

    def stmt(self) -> Stmt:
        name = self.expect("IDENT", "binding name")
        primed = self.accept("'")
        self.expect("=")
        expr = self.expr()
        self.expect(";")
        return Stmt(name.text + "'" * primed, primed, expr, name.span)

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, self.peek().span)
        left = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            left = Binary(op.text, left, self.term(), op.span)
        self.depth -= 1
        return left

    def term(self) -> Expr:
        left = self.atom()
        while self.peek().kind == "(*)":
            op = self.next()
            left = Gate(left, self.atom(), op.span)
        return left

    def call(self, n: int) -> list[Expr]:
        """``"(" expr ("," expr)* ")"`` holding exactly ``n`` expressions."""
        self.expect("(")
        args = [self.expr()]
        while len(args) < n:
            self.expect(",")
            args.append(self.expr())
        self.expect(")")
        return args

    def number(self) -> float:
        """The next token, a NUMBER, as a finite float."""
        tok = self.next()
        value = float(tok.text)
        if value == float("inf"):
            raise ParseError("number out of range", tok.span)
        return value

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            return self.call(1)[0]
        if tok.kind == "NUMBER":
            return Const(self.number(), tok.span)
        self.expect("IDENT", "expression")
        if tok.text in _UNARY_FNS:
            return Unary(tok.text, *self.call(1), tok.span)
        if tok.text in ("max", "min"):
            return Binary(tok.text, *self.call(2), tok.span)
        if tok.text == "scale":
            self.expect("[")
            factor = self.scale_factor()
            self.expect("]")
            return Unary("scale", *self.call(1), tok.span, factor=factor)
        if tok.text == "affine":
            return self.affine(tok)
        return Ref(tok.text + "'" * self.accept("'"), tok.span)

    def scale_factor(self) -> Factor:
        tok = self.peek()
        if tok.kind != "NUMBER":
            return Factor(param=self.expect("IDENT", "scalar factor").text)
        value = self.number()
        if not self.accept("-"):
            return Factor(literal=value)
        if value != 1.0:
            raise ParseError("complement factor must be written 1 - base", tok.span)
        if self.peek().kind == "NUMBER":
            return Factor(literal=self.number(), complemented=True)
        return Factor(param=self.expect("IDENT", "scalar name").text, complemented=True)

    def affine(self, tok: _Token) -> Expr:
        self.expect("[")
        kind_tok = self.expect("IDENT", "matrix kind")
        try:
            kind = MatrixKind(kind_tok.text)
        except ValueError:
            raise ParseError(f"unknown matrix kind {kind_tok.text!r}", kind_tok.span) from None
        self.expect("]")
        self.expect("(")
        raw: list[Expr] = [self.expr()]
        while self.accept(","):
            raw.append(self.expr())
        self.expect(")")
        for idx, op in enumerate(raw):
            if isinstance(op, Const) and op.value != 1.0:
                raise ParseError(
                    "only the bias marker 1 may appear as an affine operand", op.span
                )
            if isinstance(op, Const) and idx != len(raw) - 1:
                raise ParseError("bias marker 1 must be last", op.span)
        has_bias = isinstance(raw[-1], Const)
        operands = raw[:-1] if has_bias else raw
        if not operands:
            raise ParseError("affine needs at least one operand", tok.span)
        if kind != MatrixKind.GENERAL and len(operands) != 1:
            raise ParseError(f"affine[{kind.value}] takes exactly one operand", tok.span)
        self.affine_count += 1
        return Affine(kind, operands, has_bias, self.affine_count, tok.span)


def _validate(spec: CellSpec) -> None:
    defined: set[str] = set()
    for p in spec.ports:
        if p.name in defined:
            raise ParseError(f"duplicate port {p.name!r}", p.span)
        defined.add(p.name)
    state_names = {p.name for p in spec.states()}

    def check_refs(e: Expr, depth: int = 1) -> None:
        if depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, e.span)
        if isinstance(e, Ref) and e.name not in defined:
            raise ParseError(f"unknown identifier {e.name!r}", e.span)
        for child in children(e):
            check_refs(child, depth + 1)

    for s in spec.stmts:
        check_refs(s.expr)
        if s.is_next_state and s.target not in state_names:
            raise ParseError(f"{s.target!r} is not a state port", s.span)
        if s.lhs in defined:  # a primed name is defined by its first assignment
            what = "next-state assignment for" if s.is_next_state else "binding"
            raise ParseError(f"duplicate {what} {s.target!r}", s.span)
        defined.add(s.lhs)

    for p in spec.states():
        if p.name + "'" not in defined:
            raise ParseError(f"state {p.name!r} has no next-state assignment", p.span)


def parse_spec(text: str) -> CellSpec:
    """Parse one cell description; raises ParseError with line:col on error."""
    spec = _Parser(_lex(text)).cell()
    _validate(spec)
    return spec
