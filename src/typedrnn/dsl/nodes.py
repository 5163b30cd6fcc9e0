"""Syntax tree for the cell-description language, plus the pretty-printer.

Grammar (one cell per file; ``#`` starts a comment running to end of line):

    cell      := "cell" IDENT "{" decl* stmt* "}"
    decl      := ("state" | "input") IDENT (":" IDENT)? ";"
    stmt      := IDENT "'"? "=" expr ";"          (prime = next-state write)
    expr      := term (("+" | "-") term)*
    term      := atom ("(*)" atom)*               (gating product, binds tighter)
    atom      := ("sigmoid" | "tanh" | "relu") "(" expr ")"
               | ("max" | "min") "(" expr "," expr ")"
               | "scale" "[" factor "]" "(" expr ")"
               | "affine" "[" kind "]" "(" expr ("," expr)* ")"
               | "(" expr ")" | NUMBER | IDENT "'"?
    factor    := NUMBER | IDENT | "1" "-" (NUMBER | IDENT)
    kind      := "general" | "orthogonal" | "diagonal" | "symmetric" | "scalar"
    NUMBER    := [0-9]+ ("." [0-9]+)?             (ASCII digits only)
    IDENT     := a word character that is not a decimal digit, then word
                 characters (Python's \\w: letters, digits, "_")

A literal ``1`` inside an affine operand list requests a bias column. In a
gating product ``a (*) b`` the left operand is the gate and the right the
gated value. Affine nodes are numbered 1.. in source order; that number keys
both their parameters and their dimensional types. No expression nests deeper
than ``parser.MAX_DEPTH`` (100) levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .typesys import MatrixKind


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ParseError(Exception):
    """Syntax or well-formedness error, carrying a source position."""

    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


@dataclass
class Ref:
    name: str
    span: Span


@dataclass
class Const:
    value: float
    span: Span


@dataclass(frozen=True)
class Factor:
    """Scalar factor of a ``scale[...]`` node: a literal, a named scalar
    parameter, or the complement ``1 - base`` of either."""

    literal: float | None = None
    param: str | None = None
    complemented: bool = False

    def render(self) -> str:
        base = self.param if self.param is not None else _fmt(self.literal)
        return f"1 - {base}" if self.complemented else base


@dataclass
class Unary:
    op: str  # sigmoid | tanh | relu | scale
    operand: "Expr"
    span: Span
    factor: Factor | None = None


@dataclass
class Binary:
    op: str  # + | - | max | min
    left: "Expr"
    right: "Expr"
    span: Span


@dataclass
class Gate:
    left: "Expr"  # the gate
    right: "Expr"  # the gated value; carries the result type
    span: Span


@dataclass
class Affine:
    kind: MatrixKind
    operands: list["Expr"]
    has_bias: bool
    node_id: int
    span: Span

    @property
    def name(self) -> str:
        return f"affine#{self.node_id}"


Expr = Ref | Const | Unary | Binary | Gate | Affine


@dataclass
class PortDecl:
    name: str
    is_state: bool
    type_name: str | None
    span: Span


@dataclass
class Stmt:
    lhs: str  # display name; next-state statements use the primed form
    is_next_state: bool
    expr: Expr
    span: Span

    @property
    def target(self) -> str:
        """State port written by a next-state statement (lhs minus prime)."""
        return self.lhs[:-1] if self.is_next_state else self.lhs


@dataclass
class CellSpec:
    name: str
    ports: list[PortDecl]
    stmts: list[Stmt]

    def states(self) -> list[PortDecl]:
        return [p for p in self.ports if p.is_state]

    def inputs(self) -> list[PortDecl]:
        return [p for p in self.ports if not p.is_state]


def children(e: Expr) -> tuple[Expr, ...]:
    """Operand subexpressions of a node, in source order."""
    if isinstance(e, Unary):
        return (e.operand,)
    if isinstance(e, (Binary, Gate)):
        return (e.left, e.right)
    if isinstance(e, Affine):
        return tuple(e.operands)
    return ()


def _fmt(v: float) -> str:
    """The shortest decimal that reads back as ``v``, without an exponent."""
    return format(Decimal(repr(v)).normalize(), "f")


def _render(e: Expr, need: int = 0) -> str:
    """``e`` as text, in parentheses if it binds looser than ``need``:
    1 for a sum or difference, 2 for a gating product, 3 for anything else."""
    if isinstance(e, Binary) and e.op in ("+", "-"):
        text = f"{_render(e.left, 1)} {e.op} {_render(e.right, 2)}"
        return f"({text})" if need > 1 else text
    if isinstance(e, Gate):
        text = f"{_render(e.left, 2)} (*) {_render(e.right, 3)}"
        return f"({text})" if need > 2 else text
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Const):
        return _fmt(e.value)
    if isinstance(e, Unary):
        if e.op == "scale":
            return f"scale[{e.factor.render()}]({_render(e.operand)})"
        return f"{e.op}({_render(e.operand)})"
    if isinstance(e, Binary):
        return f"{e.op}({_render(e.left)}, {_render(e.right)})"  # max or min
    parts = [_render(op) for op in e.operands]  # e is an Affine
    if e.has_bias:
        parts.append("1")
    return f"affine[{e.kind.value}]({', '.join(parts)})"


def pretty(spec: CellSpec) -> str:
    """Canonical text for a spec; parsing it back yields an equal tree."""
    lines = [f"cell {spec.name} {{"]
    for p in spec.ports:
        kw = "state" if p.is_state else "input"
        ann = f" : {p.type_name}" if p.type_name else ""
        lines.append(f"  {kw} {p.name}{ann};")
    if spec.ports and spec.stmts:
        lines.append("")
    for s in spec.stmts:
        lines.append(f"  {s.lhs} = {_render(s.expr)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
