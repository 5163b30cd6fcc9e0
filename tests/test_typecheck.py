"""Type checking of cell descriptions: verdicts, clashes, cycle reports."""

import random
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import spec_tree

from typedrnn.dsl.builtin import BUILTIN_CELLS, builtin_spec
from typedrnn.dsl.checker import typecheck
from typedrnn.dsl.interp import InterpError, interpret_step
from typedrnn.dsl.nodes import Affine, ParseError, Ref, children, pretty
from typedrnn.dsl.parser import parse_spec

GOLDEN = Path(__file__).parent / "golden"

WELL_TYPED = ("t_rnn", "t_lstm", "t_gru", "t_mr", "scrn_state", "rnn_symmetric")
ILL_TYPED = ("rnn", "lstm", "gru")


@pytest.mark.parametrize("name", BUILTIN_CELLS)
def test_builtin_verdicts_match_goldens(name):
    verdict = typecheck(builtin_spec(name))
    assert verdict.well_typed == (name in WELL_TYPED)
    golden = (GOLDEN / f"verdict_{name}.txt").read_text()
    assert verdict.render() + "\n" == golden


def test_verdict_is_stable_under_renaming():
    original = builtin_spec("t_rnn")
    renamed = parse_spec(
        "cell anything {\n"
        "  state memory;\n"
        "  input signal;\n"
        "  feature = affine[general](signal);\n"
        "  keep = sigmoid(affine[general](signal, 1));\n"
        "  memory' = keep (*) memory + (1 - keep) (*) feature;\n"
        "}\n"
    )
    verdict = typecheck(renamed)
    assert verdict.well_typed
    base = typecheck(original)
    assert [t for _, t in verdict.assignments] == [t for _, t in base.assignments]


def test_general_matrix_on_state_is_rejected():
    spec = parse_spec(
        "cell loop { state h; input x;\n"
        "h' = tanh(affine[general](h, x, 1)); }"
    )
    verdict = typecheck(spec)
    assert not verdict.well_typed
    assert any("cycle" in d.message for d in verdict.diagnostics)
    assert "ILL-TYPED" in verdict.render()


def test_diagonal_and_symmetric_state_maps_are_accepted():
    for kind in ("diagonal", "symmetric"):
        spec = parse_spec(
            f"cell ok {{ state h; input x;\n"
            f"h' = relu(affine[{kind}](h) + affine[general](x)); }}"
        )
        assert typecheck(spec).well_typed, kind


def test_orthogonal_state_map_is_rejected():
    spec = parse_spec(
        "cell rot { state h; input x;\n"
        "h' = affine[orthogonal](h) + affine[general](x); }"
    )
    verdict = typecheck(spec)
    assert not verdict.well_typed


def test_orthogonal_transform_off_the_recurrence_is_accepted():
    spec = parse_spec(
        "cell mix { state h; input x;\n"
        "z = affine[orthogonal](affine[general](x));\n"
        "f = sigmoid(affine[general](x, 1));\n"
        "h' = f (*) h + (1 - f) (*) affine[orthogonal](z); }"
    )
    verdict = typecheck(spec)
    # h unifies with a transformed type through the gate; the cycle scan sees
    # no state-to-state path through a type-mixing node.
    assert verdict.well_typed


def test_addition_across_distinct_rigid_types_clashes():
    spec = parse_spec(
        "cell clash { state h; input x;\n"
        "a = affine[general](x);\n"
        "b = affine[general](x);\n"
        "h' = a + b; }"
    )
    verdict = typecheck(spec)
    assert not verdict.well_typed
    msgs = [d.message for d in verdict.diagnostics]
    assert any(m.startswith("type clash at ") for m in msgs)
    assert any("T(affine#1) vs T(affine#2)" in m for m in msgs)


def test_gate_takes_the_gated_operands_type():
    spec = parse_spec(
        "cell gated { state h; input x;\n"
        "f = sigmoid(affine[general](x, 1));\n"
        "z = affine[general](x);\n"
        "h' = f (*) z; }"
    )
    verdict = typecheck(spec)
    assert verdict.well_typed
    types = dict(verdict.assignments)
    assert types["f"] == "T(affine#1)"
    assert types["z"] == "T(affine#2)"
    assert types["h'"] == "T(affine#2)"


def test_named_port_types_participate():
    spec = parse_spec(
        "cell named { state h : Alpha; input x : Beta;\n"
        "h' = h + x; }"
    )
    verdict = typecheck(spec)
    assert not verdict.well_typed
    assert any("Alpha vs Beta" in d.message for d in verdict.diagnostics)

    ok = parse_spec(
        "cell named { state h : Alpha; input x : Alpha;\n"
        "h' = h + x; }"
    )
    assert typecheck(ok).well_typed


def test_max_min_unify_like_addition():
    spec = parse_spec(
        "cell extremes { state h; input x;\n"
        "a = affine[general](x);\n"
        "h' = max(a, min(h, a)); }"
    )
    verdict = typecheck(spec)
    assert verdict.well_typed
    bad = parse_spec(
        "cell extremes { state h; input x;\n"
        "a = affine[general](x);\n"
        "b = affine[general](x);\n"
        "h' = max(a, b); }"
    )
    assert not typecheck(bad).well_typed


def test_shortest_cycle_is_reported_for_two_state_cells():
    verdict = typecheck(builtin_spec("lstm"))
    assert not verdict.well_typed
    assert len(verdict.diagnostics) == 2
    first, second = (d.message for d in verdict.diagnostics)
    assert "cycle h" in first
    assert "cycle c" in second


# ---------------------------------------------------------------------------
# Soundness: a well-typed cell moves each state coordinate only by itself
# ---------------------------------------------------------------------------

_WIDTH = 4
_OPS = ("sigmoid", "tanh", "relu", "max", "min", "scale", "affine", "+", "-", "(*)")
_KINDS = ("general", "orthogonal", "diagonal", "symmetric", "scalar")
_FACTORS = ("0.5", "alpha", "1 - alpha", "1 - 0.25")


def _random_expr(rng, names: list[str], depth: int) -> str:
    """A random expression over ``names`` from the grammar in ``dsl.nodes``."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names) if rng.random() < 0.9 else rng.choice(("1", "0.5"))
    op = rng.choice(_OPS)
    sub = [_random_expr(rng, names, depth - 1) for _ in range(2)]
    if op in ("sigmoid", "tanh", "relu"):
        return f"{op}({sub[0]})"
    if op in ("max", "min"):
        return f"{op}({sub[0]}, {sub[1]})"
    if op == "scale":
        return f"scale[{rng.choice(_FACTORS)}]({sub[0]})"
    if op == "affine":
        kind = rng.choice(_KINDS)
        operands = sub[: rng.randint(1, 2) if kind == "general" else 1]
        bias = ["1"] if rng.random() < 0.5 else []
        return f"affine[{kind}]({', '.join(operands + bias)})"
    return f"({sub[0]} {op} {sub[1]})"


def _random_cell(rng) -> str:
    """A one-state cell with up to two bindings before its next-state write."""
    names, lines = ["h", "x"], ["cell g {", "state h;", "input x;"]
    for i in range(rng.randint(0, 2)):
        lines.append(f"b{i} = {_random_expr(rng, names, 3)};")
        names.append(f"b{i}")
    lines.append(f"h' = {_random_expr(rng, names, 3)};")
    return "\n".join(lines + ["}"])


def _random_params(text: str, rng) -> dict:
    """Every tensor any affine of ``text`` might read, and the scale factor."""
    params = {"alpha": rng.normal()}
    for i in range(1, text.count("affine[") + 1):
        params |= {f"affine#{i}.W{j}": rng.normal(size=(_WIDTH, _WIDTH)) for j in (0, 1)}
        params |= {f"affine#{i}.d": rng.normal(size=_WIDTH), f"affine#{i}.a": rng.normal()}
        params[f"affine#{i}.b"] = rng.normal(size=_WIDTH)
    return params


def test_a_well_typed_cell_never_lets_one_state_coordinate_move_another():
    rng, values = random.Random(0), np.random.default_rng(0)
    checked = 0
    for _ in range(1500):
        text = _random_cell(rng)
        try:
            spec = parse_spec(text)
        except ParseError:
            continue
        if not typecheck(spec).well_typed or "symmetric" in text or "orthogonal" in text:
            continue
        params = _random_params(text, values)
        h, inputs = values.normal(size=_WIDTH), {"x": values.normal(size=_WIDTH)}

        def step(h):
            with np.errstate(all="ignore"):
                out = interpret_step(spec, params, {"h": h}, inputs)[0]["h"]
            return np.broadcast_to(out, (_WIDTH,))

        try:
            base = step(h)
        except InterpError:
            continue  # e.g. a gate over a constant: no shape to check
        for i in range(_WIDTH):
            moved = step(h + np.eye(_WIDTH)[i] * values.normal())
            others = np.arange(_WIDTH) != i
            assert moved[others].tobytes() == base[others].tobytes(), (text, i)
        checked += 1
    assert checked >= 500, checked


def test_a_verdict_survives_a_round_trip_and_a_renaming():
    position = re.compile(r"\d+:\d+")

    def masked(verdict):  # pretty re-lays the text out, so positions move
        return [position.sub("?", d.message) for d in verdict.diagnostics]

    def swap(text):  # b0 <-> b1: same lengths, so every span is kept
        return re.sub(r"\bb[01]\b", lambda m: {"b0": "b1", "b1": "b0"}[m[0]], text)

    rng = random.Random(0)
    checked = 0
    for _ in range(1500):
        text = _random_cell(rng)
        try:
            spec = parse_spec(text)
        except ParseError:
            continue
        verdict = typecheck(spec)
        again = parse_spec(pretty(spec))
        assert spec_tree(again) == spec_tree(spec), text
        printed = typecheck(again)
        assert printed.well_typed == verdict.well_typed, text
        assert printed.assignments == verdict.assignments, text
        assert masked(printed) == masked(verdict), text
        assert swap(typecheck(parse_spec(swap(text))).render()) == verdict.render(), text
        checked += 1
    assert checked >= 500, checked


def _reads(e, u, defs) -> bool:
    """Whether ``e`` reads ``u`` (a port name or an ``Affine``) through
    references, bindings and non-affine nodes only."""
    if e is u:
        return True
    if isinstance(e, Affine):
        return False
    if isinstance(e, Ref):
        return e.name == u if e.name not in defs else _reads(defs[e.name], u, defs)
    return any(_reads(c, u, defs) for c in children(e))


def test_a_cycle_verdict_names_a_cycle_in_the_dataflow():
    rng = random.Random(0)
    checked = 0
    for _ in range(1500):
        text = _random_cell(rng)
        try:
            spec = parse_spec(text)
        except ParseError:
            continue
        defs = {s.lhs: s.expr for s in spec.stmts}
        affines, stack = {}, [s.expr for s in spec.stmts]
        while stack:
            e = stack.pop()
            if isinstance(e, Affine):
                affines[f"{e.name}[{e.kind.value}]"] = e
            stack.extend(children(e))
        states = {p.name for p in spec.states()}
        for d in typecheck(spec).diagnostics:
            if not d.message.startswith("cycle "):
                continue
            path = d.message.removeprefix("cycle ").split(" → ")
            assert path[0] == path[-1] and path[0] in states, (text, d.message)
            shown = [affines[v] if "[" in v else v for v in path]  # KeyError: no such affine
            assert any(isinstance(v, Affine) and v.kind.value in ("general", "orthogonal")
                       for v in shown), (text, d.message)
            for u, v in zip(shown, shown[1:]):
                # an affine reads through its operands, a state port through
                # its next-state expression
                operands = v.operands if isinstance(v, Affine) else [defs[f"{v}'"]]
                assert any(_reads(e, u, defs) for e in operands), (text, d.message, u, v)
            checked += 1
    assert checked >= 100, checked
