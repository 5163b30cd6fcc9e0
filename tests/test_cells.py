"""Cell parameters, batched sequence runs, stacks, and carries."""

import numpy as np
import pytest
from conftest import TRAIN_KINDS, rand_params

from typedrnn.cells import (
    CellKind,
    LayerCarry,
    init_params,
    param_shapes,
    scrn_state_step,
    sequence_forward,
    stack_carry_out,
    stack_forward,
    stacked_learnware,
)
from typedrnn.linalg import ShapeError


def test_param_shapes():
    assert param_shapes(CellKind.T_RNN, 3, 5) == {
        "W": (5, 3), "V": (5, 3), "b": (5,),
    }
    assert param_shapes(CellKind.RNN, 3, 5) == {
        "V": (5, 5), "W": (5, 3), "b": (5,),
    }
    tl = param_shapes(CellKind.T_LSTM, 3, 5)
    assert set(tl) == {"V_z", "W_z", "b_z", "V_f", "W_f", "b_f", "V_o", "W_o", "b_o"}
    assert tl["V_z"] == (5, 3) and tl["b_o"] == (5,)
    lt = param_shapes(CellKind.LSTM, 3, 5)
    assert lt["V_z"] == (5, 5) and lt["W_z"] == (5, 3)
    assert param_shapes(CellKind.T_MR, 3, 5) == {"W": (5, 3), "b": (5,), "c": (5,)}
    assert param_shapes(CellKind.SCRN_STATE, 3, 5) == {"alpha": (), "W_s": (5, 3)}


def test_init_params_uniform008():
    rng = np.random.default_rng(0)
    p = init_params(CellKind.T_LSTM, 4, 6, rng)
    for name, arr in p.tensors.items():
        if arr.ndim == 2:
            assert np.all(np.abs(arr) <= 0.08)
            assert np.std(arr) > 0.0
        else:
            assert np.all(arr == 0.0)
    q = init_params(CellKind.T_MR, 4, 6, rng)
    assert np.all(q["b"] == 1.0) and np.all(q["c"] == 0.0)
    s = init_params(CellKind.SCRN_STATE, 4, 6, rng)
    assert float(s["alpha"]) == 0.95


def test_init_params_identity_scheme():
    rng = np.random.default_rng(1)
    p = init_params(CellKind.RNN, 4, 6, rng, scheme="identity")
    assert np.array_equal(p["V"], np.eye(6))
    with pytest.raises(ValueError):
        init_params(CellKind.T_RNN, 4, 6, rng, scheme="identity")
    with pytest.raises(ValueError):
        init_params(CellKind.RNN, 4, 6, rng, scheme="xavier")


def test_sequence_forward_batch_matches_per_example():
    rng = np.random.default_rng(3)
    for kind in TRAIN_KINDS:
        h, d, T, B = 5, 3, 6, 4
        params = rand_params(kind, d, h, rng)
        X = rng.uniform(-1.0, 1.0, size=(T, B, d))
        out, _ = sequence_forward(params, X)
        for b in range(B):
            single, _ = sequence_forward(params, X[:, b : b + 1])
            assert np.max(np.abs(out[:, b] - single[:, 0])) < 1e-13, kind


def test_window_split_with_carry_matches_full_run():
    rng = np.random.default_rng(4)
    for kind in TRAIN_KINDS:
        h, d, T, B = 4, 3, 8, 2
        params = rand_params(kind, d, h, rng)
        X = rng.uniform(-1.0, 1.0, size=(T, B, d))
        full, _ = sequence_forward(params, X)

        cut = 5
        out1, tape1 = sequence_forward(params, X[:cut])
        h0 = None if tape1.H is None else tape1.H[-1]
        c0 = None if tape1.C is None else tape1.C[-1]
        xp0 = tape1.xp_last
        out2, _ = sequence_forward(params, X[cut:], h0=h0, c0=c0, xp0=xp0)
        glued = np.concatenate([out1, out2], axis=0)
        assert np.max(np.abs(glued - full)) < 1e-13, kind


def test_scrn_state_step_is_a_leaky_average():
    rng = np.random.default_rng(5)
    params = rand_params(CellKind.SCRN_STATE, 3, 4, rng)
    alpha = float(params["alpha"])
    X = rng.uniform(-1.0, 1.0, size=(6, 3))
    s = np.zeros(4)
    for t in range(6):
        s = scrn_state_step(params, s, X[t])
    ref = sum(
        (1.0 - alpha) * alpha ** (5 - t) * (params["W_s"] @ X[t]) for t in range(6)
    )
    assert np.max(np.abs(s - ref)) < 1e-12
    params.tensors["alpha"] = np.array(1.0)
    with pytest.raises(ValueError):
        scrn_state_step(params, s, X[0])


def test_stacked_learnware_matches_split_matrices():
    rng = np.random.default_rng(6)
    p = rand_params(CellKind.T_LSTM, 3, 4, rng)
    U, bias = stacked_learnware(p)
    assert U.shape == (12, 6) and bias.shape == (12,)
    xp = rng.uniform(-1, 1, size=3)
    x = rng.uniform(-1, 1, size=3)
    stacked = U @ np.concatenate([xp, x]) + bias
    for i, g in enumerate(("z", "f", "o")):
        ref = p[f"V_{g}"] @ xp + p[f"W_{g}"] @ x + p[f"b_{g}"]
        assert np.max(np.abs(stacked[4 * i : 4 * (i + 1)] - ref)) < 1e-14

    q = rand_params(CellKind.T_RNN, 3, 4, rng)
    U, bias = stacked_learnware(q)
    assert U.shape == (8, 3)
    stacked = U @ x + bias
    assert np.max(np.abs(stacked[:4] - q["W"] @ x)) < 1e-14
    assert np.max(np.abs(stacked[4:] - (q["V"] @ x + q["b"]))) < 1e-14

    with pytest.raises(ValueError):
        stacked_learnware(rand_params(CellKind.LSTM, 3, 4, rng))


def test_stack_forward_without_dropout_chains_layers():
    rng = np.random.default_rng(7)
    layers = [
        rand_params(CellKind.T_LSTM, 3, 5, rng),
        rand_params(CellKind.T_GRU, 5, 5, rng),
    ]
    X = rng.uniform(-1.0, 1.0, size=(6, 2, 3))
    outs, tape = stack_forward(layers, X)
    ref0, _ = sequence_forward(layers[0], X)
    ref1, _ = sequence_forward(layers[1], ref0)
    assert np.max(np.abs(outs[0] - ref0)) < 1e-13
    assert np.max(np.abs(outs[1] - ref1)) < 1e-13
    assert tape.masks == [None, None]


def test_stack_forward_dropout_masks_only_the_learnware_input():
    rng = np.random.default_rng(8)
    layers = [
        rand_params(CellKind.T_LSTM, 3, 5, rng),
        rand_params(CellKind.T_LSTM, 5, 5, rng),
    ]
    X = rng.uniform(-1.0, 1.0, size=(7, 2, 3))
    outs, tape = stack_forward(layers, X, dropout=0.5, rng=np.random.default_rng(9))
    assert tape.masks[0] is None and tape.masks[1] is not None
    ref0, _ = sequence_forward(layers[0], X)
    assert np.max(np.abs(outs[0] - ref0)) < 1e-13
    masked = ref0 * tape.masks[1]
    ref1, _ = sequence_forward(layers[1], masked, x_prev_src=ref0)
    assert np.max(np.abs(outs[1] - ref1)) < 1e-13
    seen = np.unique(tape.masks[1])
    assert set(seen).issubset({0.0, 2.0})


def test_stack_carry_out_glues_windows():
    rng = np.random.default_rng(10)
    for kinds in ((CellKind.RNN, CellKind.T_LSTM), (CellKind.T_GRU, CellKind.T_MR)):
        layers = [
            rand_params(kinds[0], 3, 4, rng),
            rand_params(kinds[1], 4, 4, rng),
        ]
        X = rng.uniform(-1.0, 1.0, size=(9, 2, 3))
        full, _ = stack_forward(layers, X)
        out1, tape1 = stack_forward(layers, X[:4])
        carry = stack_carry_out(layers, tape1)
        out2, _ = stack_forward(layers, X[4:], carry=carry)
        glued = np.concatenate([out1[-1], out2[-1]], axis=0)
        assert np.max(np.abs(glued - full[-1])) < 1e-12


def test_sequence_forward_rejects_bad_shapes_and_kinds():
    rng = np.random.default_rng(11)
    p = rand_params(CellKind.T_RNN, 3, 4, rng)
    with pytest.raises(ShapeError):
        sequence_forward(p, np.ones((5, 3)))  # missing batch axis is 2-D
    with pytest.raises(ShapeError):
        sequence_forward(p, np.ones((5, 2, 7)))
    s = rand_params(CellKind.SCRN_STATE, 3, 4, rng)
    with pytest.raises(ValueError):
        sequence_forward(s, np.ones((5, 2, 3)))
    with pytest.raises(ValueError):
        stack_forward([s], np.ones((5, 2, 3)))
    with pytest.raises(ValueError):
        stack_forward([p], np.ones((5, 2, 3)), dropout=0.5)  # rng required
    with pytest.raises(ValueError):
        stack_forward([], np.ones((5, 2, 3)))


def test_layer_carry_defaults():
    c = LayerCarry()
    assert c.h is None and c.c is None and c.x_prev is None
