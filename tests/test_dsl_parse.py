"""Cell-description parsing: grammar, validation, and pretty-printing."""

import numpy as np
import pytest
from conftest import spec_tree

from typedrnn.dsl.builtin import BUILTIN_CELLS, builtin_spec, builtin_text
from typedrnn.dsl.checker import typecheck
from typedrnn.dsl.interp import interpret_step
from typedrnn.dsl.nodes import Affine, ParseError, children, pretty
from typedrnn.dsl.parser import MAX_DEPTH, parse_spec
from typedrnn.dsl.typesys import MatrixKind


def test_builtin_specs_parse():
    for name in BUILTIN_CELLS:
        spec = builtin_spec(name)
        assert spec.name == name
        assert spec.states() and spec.inputs()


def test_builtin_port_layout():
    t_lstm = builtin_spec("t_lstm")
    assert [p.name for p in t_lstm.states()] == ["c"]
    assert [p.name for p in t_lstm.inputs()] == ["xp", "x"]
    lstm = builtin_spec("lstm")
    assert [p.name for p in lstm.states()] == ["h", "c"]
    rnn = builtin_spec("rnn")
    assert [p.name for p in rnn.states()] == ["h"]
    assert [p.name for p in rnn.inputs()] == ["x"]


def test_pretty_round_trips():
    for name in BUILTIN_CELLS:
        text = pretty(builtin_spec(name))
        again = parse_spec(text)
        assert pretty(again) == text, name


def test_affine_nodes_numbered_in_source_order():
    spec = builtin_spec("t_lstm")
    ids = []

    def walk(e):
        if isinstance(e, Affine):
            ids.append(e.node_id)
        for child in children(e):
            walk(child)

    for s in spec.stmts:
        walk(s.expr)
    assert ids == [1, 2, 3]


def test_parse_error_positions():
    with pytest.raises(ParseError, match="unexpected character '%'") as e:
        parse_spec("cell x {\n  state h;\n  input x;\n  h' = tanh(%);\n}")
    assert "4:" in str(e.value)

    with pytest.raises(ParseError, match="^1:33: expected expression, found ';'$"):
        parse_spec("cell x { state h; input x; h' = ; }")

    with pytest.raises(ParseError, match="^3:1: expected ';', found '}'$"):
        parse_spec("cell x {\n  state h\n}")

    # a trailing comment ends at the end of input, which is where EOF sits
    with pytest.raises(ParseError, match="^1:13: expected binding name, found 'end of input'$"):
        parse_spec("cell x { # c")

    with pytest.raises(ParseError, match="expected 'cell'"):
        parse_spec("module x {}")

    with pytest.raises(ParseError, match="unknown matrix kind"):
        parse_spec(
            "cell x { state h; input x; h' = affine[dense](x); }"
        )

    with pytest.raises(ParseError, match="unknown identifier"):
        parse_spec("cell x { state h; input x; h' = tanh(y); }")

    # a literal that overflows float64 would print back as a parameter name
    huge = "9" * 400
    for expr in (huge, f"scale[{huge}](h)", f"scale[{huge} - a](h)", f"scale[1 - {huge}](h)"):
        col = 33 + expr.index(huge)
        with pytest.raises(ParseError, match=f"^1:{col}: number out of range$"):
            parse_spec(f"cell x {{ state h; input x; h' = {expr}; }}")


def test_parse_rejects_structural_mistakes():
    # a state with no next-state assignment
    with pytest.raises(ParseError, match="no next-state assignment"):
        parse_spec("cell x { state h; input x; z = affine[general](x); }")
    # double assignment of the same state
    with pytest.raises(ParseError, match="duplicate next-state"):
        parse_spec(
            "cell x { state h; input x;\n"
            "h' = affine[general](x);\nh' = affine[general](x); }"
        )
    # rebinding an intermediate name
    with pytest.raises(ParseError, match="duplicate binding"):
        parse_spec(
            "cell x { state h; input x;\n"
            "z = affine[general](x);\nz = affine[general](x);\n"
            "h' = z; }"
        )
    # duplicate port
    with pytest.raises(ParseError, match="duplicate port"):
        parse_spec("cell x { state h; state h; input x; h' = tanh(x); }")
    # priming something that is not a state port
    with pytest.raises(ParseError, match="not a state port"):
        parse_spec("cell x { state h; input x; y' = tanh(x); h' = tanh(x); }")


def test_affine_operand_rules():
    # bias marker must be last
    with pytest.raises(ParseError, match="bias marker 1 must be last"):
        parse_spec("cell x { state h; input x; h' = affine[general](1, x); }")
    # only the literal 1 may appear
    with pytest.raises(ParseError, match="bias marker"):
        parse_spec("cell x { state h; input x; h' = affine[general](x, 2); }")
    # non-general kinds take exactly one operand
    with pytest.raises(ParseError, match="exactly one operand"):
        parse_spec("cell x { state h; input x; h' = affine[diagonal](x, h); }")
    # at least one non-bias operand
    with pytest.raises(ParseError, match="at least one operand"):
        parse_spec("cell x { state h; input x; h' = affine[general](1); }")
    # bias flag is recorded
    spec = parse_spec("cell x { state h; input x; h' = affine[general](x, 1); }")
    aff = spec.stmts[0].expr
    assert isinstance(aff, Affine)
    assert aff.has_bias and aff.kind == MatrixKind.GENERAL and len(aff.operands) == 1


def test_scale_factor_forms():
    spec = parse_spec(
        "cell x { state s; input x;\n"
        "s' = scale[alpha](s) + scale[1 - alpha](affine[general](x))\n"
        "   + scale[0.5](x) + scale[1 - 0.25](x); }"
    )
    assert pretty(spec)  # renders without error
    with pytest.raises(ParseError, match="complement factor"):
        parse_spec("cell x { state s; input x; s' = scale[2 - alpha](s); }")


def test_parse_error_renders_line_and_column():
    try:
        parse_spec("cell x {\n  state h\n}")
    except ParseError as e:
        assert str(e).split(":")[0].isdigit()
    else:
        raise AssertionError("expected a ParseError")


def test_builtin_text_unknown_name():
    with pytest.raises(KeyError, match="no builtin cell named 'transformer'"):
        builtin_text("transformer")


def test_pretty_keeps_grouping_and_every_number():
    for expr in ("x - (h + x)", "x (*) (h (*) x)", "(x - h) (*) x + x (*) (x - h)",
                 "scale[1234567.5](h) + scale[0.00001](x) + scale[1 - 1000000](x)"):
        spec = parse_spec(f"cell c {{ state h; input x; h' = {expr}; }}")
        assert pretty(spec).splitlines()[-2] == f"  h' = {expr};"
        assert spec_tree(parse_spec(pretty(spec))) == spec_tree(spec)


def test_nesting_deeper_than_the_bound_is_a_parse_error():
    def cell(expr):
        return f"cell c {{ state h; h' = {expr}; }}"

    sums = " + ".join(["h"] * MAX_DEPTH)  # MAX_DEPTH - 1 additions nest MAX_DEPTH deep
    parens = "(" * (MAX_DEPTH - 1) + "h" + ")" * (MAX_DEPTH - 1)
    for expr, value in ((sums, MAX_DEPTH), (parens, 1)):
        spec = parse_spec(cell(expr))
        assert spec_tree(parse_spec(pretty(spec))) == spec_tree(spec)
        assert typecheck(spec).well_typed
        state, _ = interpret_step(spec, {}, {"h": np.ones(2)}, {})
        assert np.array_equal(state["h"], np.full(2, float(value)))
    for expr in (sums + " + h", "(" + parens + ")",
                 " + ".join(["h"] * 3000), "(" * 5000 + "h" + ")" * 5000):
        with pytest.raises(ParseError, match=f"expression nested deeper than {MAX_DEPTH}"):
            parse_spec(cell(expr))


def test_every_mutated_builtin_parses_and_round_trips_or_is_a_parse_error():
    """Seeded edits of the shipped texts: each result is either a ParseError
    or a spec whose pretty text parses back to the same tree."""
    rng = np.random.default_rng(24)
    alphabet = list("ahx01_ (*)[]{},;='+-:#\n.%") + ["²", "٣", "é", "1 - ", "tanh("]
    texts = [builtin_text(name) for name in BUILTIN_CELLS]
    parsed = 0
    for _ in range(2000):
        text = texts[rng.integers(len(texts))]
        for _ in range(rng.integers(1, 4)):
            at = rng.integers(len(text) + 1)
            piece = alphabet[rng.integers(len(alphabet))]
            edit = rng.integers(3)  # insert the piece, delete a character, or replace one
            text = text[:at] + ("" if edit == 1 else piece) + text[at + (edit != 0):]
        try:
            spec = parse_spec(text)
        except ParseError:
            continue
        parsed += 1
        assert spec_tree(parse_spec(pretty(spec))) == spec_tree(spec), text
    assert 200 < parsed < 1800
