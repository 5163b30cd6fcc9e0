"""Reference interpreter against the native cell implementations."""

import numpy as np
import pytest
from conftest import TRAIN_KINDS, rand_params, rand_scrn

from typedrnn.cells import CellKind, scrn_state_step, sequence_forward
from typedrnn.dsl.builtin import builtin_spec, interp_params, port_names
from typedrnn.dsl.checker import typecheck
from typedrnn.dsl.interp import InterpError, interpret_step
from typedrnn.dsl.parser import parse_spec


def interp_rollout(spec, params, X, state_names, input_names, out_name):
    """Iterate interpret_step over X (T, d); returns outputs (T, h)."""
    T, d = X.shape
    h = _state_dim(params)
    state = {name: np.zeros(h) for name in state_names}
    outs = []
    for t in range(T):
        inputs = {}
        if len(input_names) == 2:
            inputs[input_names[0]] = X[t - 1] if t > 0 else np.zeros(d)
            inputs[input_names[1]] = X[t]
        else:
            inputs[input_names[0]] = X[t]
        state, bindings = interpret_step(spec, params, state, inputs)
        outs.append(bindings[out_name])
    return np.stack(outs)


def _state_dim(params):
    for key, val in params.items():
        arr = np.asarray(val)
        if arr.ndim == 2:
            return arr.shape[0]
    raise AssertionError("no matrix parameter found")


@pytest.mark.parametrize("kind", TRAIN_KINDS)
def test_interpreter_matches_native_cells(kind):
    """The interpreter is the per-step reference for every native cell."""
    rng = np.random.default_rng(0)
    spec = builtin_spec(kind.value)
    states, inputs = port_names(kind)
    out_name = "h" if kind == CellKind.T_LSTM else states[0] + "'"
    for _ in range(11):
        h = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        T = int(rng.integers(1, 9))
        params = rand_params(kind, d, h, rng)
        X = rng.uniform(-1.0, 1.0, size=(T, d))
        native, _ = sequence_forward(params, X[:, None, :])
        got = interp_rollout(
            spec, interp_params(params), X, states, inputs, out_name
        )
        assert np.max(np.abs(got - native[:, 0])) < 1e-13


def test_interpreter_matches_scrn_state_step():
    rng = np.random.default_rng(1)
    spec = builtin_spec("scrn_state")
    for _ in range(6):
        h = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        T = int(rng.integers(1, 8))
        alpha, W_s = rand_scrn(d, h, rng)
        tensors = {"affine#1.W0": W_s, "alpha": alpha}
        X = rng.uniform(-1.0, 1.0, size=(T, d))
        s = np.zeros(h)
        state = {"s": np.zeros(h)}
        for t in range(T):
            s = scrn_state_step(alpha, W_s, s, X[t])
            state, _ = interpret_step(spec, tensors, state, {"x": X[t]})
            assert np.max(np.abs(state["s"] - s)) < 1e-12


def test_interpreter_matches_symmetric_recurrence_oracle():
    rng = np.random.default_rng(2)
    spec = builtin_spec("rnn_symmetric")
    for _ in range(6):
        h = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        T = int(rng.integers(1, 8))
        M = rng.uniform(-0.6, 0.6, size=(h, h))
        S = 0.5 * (M + M.T)
        W = rng.uniform(-0.6, 0.6, size=(h, d))
        b = rng.uniform(-0.6, 0.6, size=h)
        params = {"affine#1.W0": S, "affine#2.W0": W, "affine#2.b": b}
        hv = np.zeros(h)
        state = {"h": np.zeros(h)}
        for t in range(T):
            x = rng.uniform(-1.0, 1.0, size=d)
            hv = np.tanh(S @ hv + W @ x + b)
            state, _ = interpret_step(spec, params, state, {"x": x})
            assert np.max(np.abs(state["h"] - hv)) < 1e-12


def test_interpreter_runs_scalar_affines_and_max_min():
    spec = parse_spec(
        "cell s { state h; input x; h' = max(affine[scalar](h), min(x, h)); }"
    )
    assert typecheck(spec).render().startswith("WELL-TYPED")
    rng = np.random.default_rng(6)
    for _ in range(5):
        h, x = rng.uniform(-1.0, 1.0, size=(2, 6))
        state, _ = interpret_step(spec, {"affine#1.a": 0.5}, {"h": h}, {"x": x})
        assert np.array_equal(state["h"], np.maximum(0.5 * h, np.minimum(x, h)))


def test_interpreter_enforces_matrix_kind_contracts():
    spec = builtin_spec("rnn_symmetric")
    M = np.array([[0.0, 1.0], [0.5, 0.0]])  # not symmetric
    params = {
        "affine#1.W0": M,
        "affine#2.W0": np.zeros((2, 2)),
        "affine#2.b": np.zeros(2),
    }
    with pytest.raises(InterpError, match="symmetric"):
        interpret_step(spec, params, {"h": np.zeros(2)}, {"x": np.zeros(2)})

    rot = parse_spec(
        "cell rot { state h; input x;\n"
        "f = sigmoid(affine[general](x, 1));\n"
        "h' = f (*) h + (1 - f) (*) affine[orthogonal](affine[general](x)); }"
    )
    bad = {
        "affine#1.W0": np.zeros((2, 2)),
        "affine#1.b": np.zeros(2),
        "affine#2.W0": np.eye(2),
        "affine#3.W0": np.full((2, 2), 0.7),
    }
    with pytest.raises(InterpError, match="orthogonal"):
        interpret_step(rot, bad, {"h": np.zeros(2)}, {"x": np.zeros(2)})
    good = dict(bad)
    good["affine#3.W0"] = np.array([[0.0, -1.0], [1.0, 0.0]])
    state, _ = interpret_step(rot, good, {"h": np.zeros(2)}, {"x": np.zeros(2)})
    assert state["h"].shape == (2,)


def test_interpreter_reports_missing_pieces():
    spec = builtin_spec("t_rnn")
    rng = np.random.default_rng(3)
    params = interp_params(rand_params(CellKind.T_RNN, 3, 4, rng))
    with pytest.raises(InterpError, match="missing state"):
        interpret_step(spec, params, {}, {"x": np.zeros(3)})
    with pytest.raises(InterpError, match="missing input"):
        interpret_step(spec, params, {"h": np.zeros(4)}, {})
    incomplete = dict(params)
    del incomplete["affine#1.W0"]
    with pytest.raises(InterpError, match="affine#1.W0"):
        interpret_step(spec, incomplete, {"h": np.zeros(4)}, {"x": np.zeros(3)})
    wrong = dict(params)
    wrong["affine#2.b"] = np.zeros(7)
    with pytest.raises(InterpError, match=r"affine#2\.b has shape \(7,\), output \(4,\)"):
        interpret_step(spec, wrong, {"h": np.zeros(4)}, {"x": np.zeros(3)})


SCALAR_MAX = "cell s { state h; input x; h' = max(affine[scalar](h), min(x, h)); }"


@pytest.mark.parametrize("text, params, x, message", [
    ("cell g { state h; input x; h' = affine[general](x); }",
     {"affine#1.W0": np.zeros((2, 5))}, np.zeros(3),
     r"affine#1\.W0 has shape \(2, 5\), operand has length 3"),
    ("cell d { state h; input x; h' = affine[diagonal](h); }",
     {"affine#1.d": np.zeros(5)}, np.zeros(2),
     r"affine#1\.d has shape \(5,\), operand \(2,\)"),
    (SCALAR_MAX, {"affine#1.a": np.zeros(2)}, np.zeros(2), r"affine#1\.a must be a scalar"),
    (SCALAR_MAX, {"affine#1.a": 0.5}, np.zeros(3), r"operand shapes differ: \(3,\) vs \(2,\)"),
    ("cell s { state h; input x; h' = scale[alpha](h); }", {"alpha": np.ones(3)}, np.zeros(2),
     r"^1:33: alpha must be a scalar$"),
    ("cell g { state h; input x; h' = x (*) h; }", {}, np.zeros(3),
     r"gate shapes differ: \(3,\) vs \(2,\)"),
    ("cell g { state h; input x; h' = affine[general](x); }",
     {"affine#1.W0": np.zeros((2, 2))}, np.zeros((2, 2)), "affine operand 0 is not a vector"),
])
def test_interpreter_rejects_misshapen_values(text, params, x, message):
    with pytest.raises(InterpError, match=message):
        interpret_step(parse_spec(text), params, {"h": np.zeros(2)}, {"x": x})
