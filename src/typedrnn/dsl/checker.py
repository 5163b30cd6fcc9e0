"""Dimensional type checking of cell specs, with recurrence-cycle analysis.

Rules, per matrix kind and op:

  * a general affine node mints one fresh rigid type for its output (one per
    node: several operands act as a single concatenated map), regardless of
    operand types;
  * diagonal / symmetric / scalar affines preserve their operand's type;
  * orthogonal affines wrap the operand type in a node-tagged transform;
  * coordinatewise unaries (sigmoid, tanh, relu, scale, 1 - x) preserve type;
  * coordinatewise binaries (+, -, max, min) unify their operand types;
  * the gating product a (*) b takes the type of b, the gated value;
  * each next-state expression must unify with its state port's type.

Independently of unification, any dataflow cycle from a state port back to a
state port that passes through a general or orthogonal affine node is
rejected: unrolled over time, such a recurrence keeps re-entering a type-
mixing map, which is exactly the inadmissible pattern. The shortest offending
cycle (by edge count, ties by earliest affine span) is reported per distinct
cycle, rendered through ports and affine nodes only.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from .nodes import Affine, Binary, CellSpec, Const, Expr, Gate, Ref, Span, Unary, children
from .typesys import MatrixKind, Named, Rigid, Transformed, TypeTerm, Unifier, Var

_BAD_KINDS = (MatrixKind.GENERAL, MatrixKind.ORTHOGONAL)


@dataclass
class Diagnostic:
    message: str
    span: Span


@dataclass
class Verdict:
    cell_name: str
    well_typed: bool
    assignments: list[tuple[str, str]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def lines(self) -> list[str]:
        if self.well_typed:
            out = [f"WELL-TYPED: {self.cell_name}"]
            out.extend(f"  {name}: {ty}" for name, ty in self.assignments)
            return out
        return [f"ILL-TYPED: {d.message}" for d in self.diagnostics]

    def render(self) -> str:
        return "\n".join(self.lines())


class _Renderer:
    """Stable display names: rigid types by their affine node, free variables
    as ?a, ?b, ... in order of first appearance."""

    def __init__(self, uni: Unifier):
        self.uni = uni
        self.var_names: dict[int, str] = {}

    def render(self, t: TypeTerm) -> str:
        t = self.uni.resolve(t)
        if isinstance(t, Var):
            if t.id not in self.var_names:
                n = len(self.var_names)
                name = chr(ord("a") + n) if n < 26 else f"t{n}"
                self.var_names[t.id] = f"?{name}"
            return self.var_names[t.id]
        if isinstance(t, Named):
            return t.label
        if isinstance(t, Rigid):
            return f"T(affine#{t.node_id})"
        return f"T(affine#{t.node_id}, {self.render(t.inner)})"  # Transformed


def typecheck(spec: CellSpec) -> Verdict:
    """Assign types to every binding and scan recurrence cycles; total on
    valid parsed specs, never raises on type errors."""
    uni = Unifier()
    renderer = _Renderer(uni)
    clashes: list[Diagnostic] = []

    port_types: dict[str, TypeTerm] = {}
    for p in spec.ports:
        port_types[p.name] = Named(p.type_name) if p.type_name else uni.fresh()
    env: dict[str, TypeTerm] = dict(port_types)

    def clash(span: Span, a: TypeTerm, b: TypeTerm) -> None:
        clashes.append(
            Diagnostic(
                f"type clash at {span}: {renderer.render(a)} vs {renderer.render(b)}",
                span,
            )
        )

    def infer(e: Expr) -> TypeTerm:
        if isinstance(e, Ref):
            return env[e.name]
        if isinstance(e, Const):
            return uni.fresh()
        if isinstance(e, Unary):
            return infer(e.operand)
        if isinstance(e, Binary):
            lt = infer(e.left)
            rt = infer(e.right)
            fail = uni.unify(lt, rt)
            if fail is not None:
                clash(e.span, *fail)
                return uni.fresh()
            return lt
        if isinstance(e, Gate):
            infer(e.left)
            return infer(e.right)
        op_types = [infer(op) for op in e.operands]  # e is an Affine
        if e.kind == MatrixKind.GENERAL:
            return Rigid(e.node_id)
        if e.kind == MatrixKind.ORTHOGONAL:
            return Transformed(e.node_id, op_types[0])
        return op_types[0]

    bindings: list[tuple[str, TypeTerm]] = []
    for s in spec.stmts:
        t = infer(s.expr)
        if s.is_next_state:
            fail = uni.unify(t, env[s.target])
            if fail is not None:
                clash(s.span, *fail)
        env[s.lhs] = t
        bindings.append((s.lhs, t))

    cycles = _find_cycles(spec)
    diagnostics = clashes + cycles
    assignments = [(name, renderer.render(t)) for name, t in bindings]
    return Verdict(spec.name, not diagnostics, assignments, diagnostics)


# --- recurrence-cycle scan ---------------------------------------------------


def _find_cycles(spec: CellSpec) -> list[Diagnostic]:
    # Vertices: each port by its name and each expression node by its id().
    # Edges follow dataflow: child -> parent within a tree, definition ->
    # reference for names, next-state root -> its state port.
    nodes: dict[int, Expr] = {}
    adj: dict[object, list[object]] = defaultdict(list)
    def_vertex: dict[str, object] = {p.name: p.name for p in spec.ports}

    def wire(e: Expr) -> int:
        nodes[id(e)] = e
        if isinstance(e, Ref):
            adj[def_vertex[e.name]].append(id(e))
        for child in children(e):
            adj[wire(child)].append(id(e))
        return id(e)

    for s in spec.stmts:
        root = wire(s.expr)
        if s.is_next_state:
            adj[root].append(s.target)
        def_vertex[s.lhs] = root
    bad = {v for v, n in nodes.items() if isinstance(n, Affine) and n.kind in _BAD_KINDS}

    found: list[tuple[int, int, int, Diagnostic]] = []
    seen: set[frozenset] = set()
    for p in spec.states():
        path = _shortest_bad_cycle(p.name, adj, bad)
        if path is None or frozenset(path[:-1]) in seen:
            continue
        seen.add(frozenset(path[:-1]))
        shown = [v if isinstance(v, str) else nodes[v] for v in path]
        shown = [v for v in shown if isinstance(v, (str, Affine))]
        first = next(v for v in shown if isinstance(v, Affine))
        text = " → ".join(v if isinstance(v, str) else f"{v.name}[{v.kind.value}]" for v in shown)
        diag = Diagnostic(f"cycle {text}", first.span)
        found.append((len(path) - 1, first.span.line, first.span.col, diag))
    found.sort(key=lambda item: item[:3])
    return [diag for *_, diag in found]


def _shortest_bad_cycle(start: str, adj: dict, bad: set[int]) -> list | None:
    """BFS over (vertex, crossed-a-bad-affine) states; returns the vertex path
    of the shortest cycle start -> ... -> start that crosses a bad affine."""
    init = (start, False)
    parent: dict[tuple, tuple | None] = {init: None}
    queue = deque([init])
    while queue:
        v, flag = queue.popleft()
        for w in adj[v]:
            state = (w, flag or w in bad)
            if state == (start, True):
                path = [w]
                cur = (v, flag)
                while cur is not None:
                    path.append(cur[0])
                    cur = parent[cur]
                path.reverse()
                return path
            if state not in parent:
                parent[state] = (v, flag)
                queue.append(state)
    return None
