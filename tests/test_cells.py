"""Cell parameters, batched sequence runs, stacks, and carried state."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from conftest import TRAIN_KINDS, rand_params, rand_scrn

from typedrnn.autodiff import bptt, sequence_backward, stack_backward
from typedrnn.cells import (
    CellKind,
    CellParams,
    LayerState,
    Workspace,
    init_params,
    param_shapes,
    scrn_state_step,
    sequence_forward,
    stack_forward,
)
from typedrnn.linalg import ShapeError


def test_param_shapes():
    """Names and shapes in canonical order: ``init_params`` draws in it and
    checkpoints are written in it, and a ``CellParams`` keeps it whatever
    order it is given."""

    def gated(v_shape):
        return [
            item
            for g in "zfo"
            for item in ((f"V_{g}", v_shape), (f"W_{g}", (5, 3)), (f"b_{g}", (5,)))
        ]

    want = {
        CellKind.RNN: [("V", (5, 5)), ("W", (5, 3)), ("b", (5,))],
        CellKind.LSTM: gated((5, 5)),
        CellKind.GRU: gated((5, 5)),
        CellKind.T_RNN: [("W", (5, 3)), ("V", (5, 3)), ("b", (5,))],
        CellKind.T_LSTM: gated((5, 3)),
        CellKind.T_GRU: gated((5, 3)),
        CellKind.T_MR: [("W", (5, 3)), ("b", (5,)), ("c", (5,))],
    }
    assert set(want) == set(CellKind)
    rng = np.random.default_rng(0)
    for kind, items in want.items():
        assert list(param_shapes(kind, 3, 5).items()) == items, kind
        given = rand_params(kind, 3, 5, rng).tensors
        p = CellParams(kind, 3, 5, dict(reversed(given.items())))
        assert list(p.tensors) == list(param_shapes(kind, 3, 5)), kind


def test_param_shapes_allocate_nothing():
    # an LSTM at d = h = 10**5 would hold 240 GB of learnware and firmware
    tracemalloc.start()
    try:
        shapes = param_shapes(CellKind.LSTM, 10**5, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes["V_o"] == (10**5, 10**5) and shapes["b_z"] == (10**5,)
    assert peak < 2**20


def test_new_params_write_every_block_entry(monkeypatch):
    """A new ``CellParams`` fills blocks made uninitialized: every entry is a
    given tensor's, or T-RNN's zero z bias, which no tensor views."""
    empty = np.empty

    def nan_filled(shape, *args, **kwargs):
        out = empty(shape, *args, **kwargs)
        out.fill(np.nan)
        return out

    rng = np.random.default_rng(5)
    for kind in CellKind:
        given = rand_params(kind, 3, 4, rng).tensors
        monkeypatch.setattr(np, "empty", nan_filled)
        p = CellParams(kind, 3, 4, given)
        monkeypatch.setattr(np, "empty", empty)
        blocks = [p.U, p.bias, p.V] if p.U is not None else list(p.tensors.values())
        assert not any(np.isnan(b).any() for b in blocks if b is not None), kind
        assert all(np.array_equal(p[n], t) for n, t in given.items()), kind
        if kind == CellKind.T_RNN:
            assert np.all(p.bias[:4] == 0.0)


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


def test_init_params_identity_scheme():
    rng = np.random.default_rng(1)
    p = init_params(CellKind.RNN, 4, 6, rng, scheme="identity")
    assert np.array_equal(p["V"], np.eye(6))
    with pytest.raises(ValueError, match="unknown init scheme 'xavier'"):
        init_params(CellKind.RNN, 4, 6, rng, scheme="xavier")


@pytest.mark.parametrize("kind", [k for k in TRAIN_KINDS if k != CellKind.RNN])
def test_identity_init_rejects_every_kind_but_rnn(kind):
    with pytest.raises(ValueError, match="identity init only applies"):
        init_params(kind, 4, 6, np.random.default_rng(1), scheme="identity")


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
        state = LayerState(params, B)
        out1, _ = sequence_forward(params, X[:cut], state)
        out2, _ = sequence_forward(params, X[cut:], state)
        glued = np.concatenate([out1, out2], axis=0)
        assert np.max(np.abs(glued - full)) < 1e-13, kind


def test_scrn_state_step_is_a_leaky_average():
    rng = np.random.default_rng(5)
    alpha, W_s = rand_scrn(3, 4, rng)
    X = rng.uniform(-1.0, 1.0, size=(6, 3))
    s = np.zeros(4)
    for t in range(6):
        s = scrn_state_step(alpha, W_s, s, X[t])
    ref = sum((1.0 - alpha) * alpha ** (5 - t) * (W_s @ X[t]) for t in range(6))
    assert np.max(np.abs(s - ref)) < 1e-12
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match="alpha must lie in"):
            scrn_state_step(bad, W_s, s, X[0])
    with pytest.raises(ShapeError, match="affine input has dim 4, matrix expects 3"):
        scrn_state_step(alpha, W_s, s, np.ones(4))


def test_scrn_state_is_no_cell_kind():
    with pytest.raises(ValueError, match="is not a valid CellKind"):
        CellParams("scrn_state", 3, 4, {})


#: The state-side tensors of each kind: the firmware block V, laid out as
#: these names in this row order (the typed scan kinds have none).
STATE_SIDE = {
    CellKind.RNN: ("V",),
    CellKind.LSTM: ("V_z", "V_f", "V_o"),
    CellKind.GRU: ("V_z", "V_f", "V_o"),
    CellKind.T_MR: ("b",),
}


def _input_side(p, kind, xp, x):
    """Per-gate input-side products, in the block's row order."""
    if kind == CellKind.RNN:
        return [p["W"] @ x + p["b"]]
    if kind == CellKind.T_MR:
        return [p["W"] @ x + p["c"]]
    if kind == CellKind.T_RNN:
        return [p["W"] @ x, p["V"] @ x + p["b"]]
    if kind in (CellKind.LSTM, CellKind.GRU):
        return [p[f"W_{g}"] @ x + p[f"b_{g}"] for g in "zfo"]
    return [p[f"V_{g}"] @ xp + p[f"W_{g}"] @ x + p[f"b_{g}"] for g in "zfo"]


@pytest.mark.parametrize("kind", TRAIN_KINDS, ids=lambda k: k.value)
def test_learnware_block(kind):
    rng = np.random.default_rng(6)
    d, h = 3, 4
    p = rand_params(kind, d, h, rng)
    xp = rng.uniform(-1, 1, size=d)
    x = rng.uniform(-1, 1, size=d)
    t_cell = kind in (CellKind.T_LSTM, CellKind.T_GRU)
    stacked = p.U @ (np.concatenate([xp, x]) if t_cell else x) + p.bias
    ref = np.concatenate(_input_side(p, kind, xp, x))
    assert stacked.shape == ref.shape
    assert np.max(np.abs(stacked - ref)) < 1e-14

    # every input-side tensor is a view of the learnware block, every
    # state-side tensor one of the firmware block, in its row order
    state_side = STATE_SIDE.get(kind, ())
    for name, t in p.tensors.items():
        in_block = np.shares_memory(t, p.U) or np.shares_memory(t, p.bias)
        in_firmware = p.V is not None and np.shares_memory(t, p.V)
        assert in_firmware == (name in state_side), name
        assert in_block != in_firmware, name
    if state_side:
        assert np.array_equal(p.V, np.concatenate([p[n] for n in state_side]))
    else:
        assert p.V is None
    # a named view edits its block in place
    name = "W_f" if "W_f" in p.tensors else "W"
    p[name][1, 2] += 1.0
    assert np.max(np.abs(p.U @ (np.concatenate([xp, x]) if t_cell else x) + p.bias
                         - np.concatenate(_input_side(p, kind, xp, x)))) < 1e-14
    if state_side:
        name = "V_f" if "V_f" in state_side else state_side[0]
        before = p.V.copy()
        p[name][1] += 1.0
        assert np.array_equal(p.V, np.concatenate([p[n] for n in state_side]))
        assert np.count_nonzero(p.V != before) == np.size(p[name][1])
    # the constructor copies what it is given, and a copy owns its tensors
    given = {k: v.copy() for k, v in p.tensors.items()}
    q = CellParams(kind, d, h, given)
    for k in given:
        given[k][...] += 1.0
        assert np.array_equal(q[k], p[k]), k
    c = p.copy()
    for k, t in c.tensors.items():
        assert not np.shares_memory(t, p[k]), k
        assert np.array_equal(t, p[k]), k
    assert not np.shares_memory(c.U, p.U) and not np.shares_memory(c.bias, p.bias)
    assert c.V is None or not np.shares_memory(c.V, p.V)


@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
def test_cell_params_check_every_tensor(kind):
    rng = np.random.default_rng(12)
    good = rand_params(kind, 3, 4, rng).tensors
    for name, t in good.items():
        with pytest.raises(ShapeError, match=name):
            CellParams(kind, 3, 4, {**good, name: np.zeros(t.shape + (1,))})
        if t.ndim:
            with pytest.raises(ShapeError, match=name):
                CellParams(kind, 3, 4, {**good, name: np.zeros((1,) * t.ndim)})
        with pytest.raises(ShapeError, match=name):
            CellParams(kind, 3, 4, {k: v for k, v in good.items() if k != name})
    with pytest.raises(ShapeError, match="extra"):
        CellParams(kind, 3, 4, {**good, "extra": np.zeros(4)})


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
    ref1, _ = sequence_forward(layers[1], ref0, mask=tape.masks[1])
    assert np.max(np.abs(outs[1] - ref1)) < 1e-13
    seen = np.unique(tape.masks[1])
    assert set(seen).issubset({0.0, 2.0})


def test_layer_state_glues_windows():
    rng = np.random.default_rng(10)
    # every kind runs as layer 0 and, under the next kind, as layer 1
    for kinds in zip(TRAIN_KINDS, TRAIN_KINDS[1:] + TRAIN_KINDS[:1]):
        layers = [
            rand_params(kinds[0], 3, 4, rng),
            rand_params(kinds[1], 4, 4, rng),
        ]
        X = rng.uniform(-1.0, 1.0, size=(9, 2, 3))
        full, _ = stack_forward(layers, X)
        state = [LayerState(p, 2) for p in layers]
        out1, _ = stack_forward(layers, X[:4], state=state)
        out2, _ = stack_forward(layers, X[4:], state=state)
        for l in range(2):
            glued = np.concatenate([out1[l], out2[l]], axis=0)
            assert np.max(np.abs(glued - full[l])) < 1e-12, kinds


def test_sequence_forward_rejects_bad_shapes_and_kinds():
    rng = np.random.default_rng(11)
    p = rand_params(CellKind.T_RNN, 3, 4, rng)
    with pytest.raises(ShapeError, match=re.escape("must be (T, B, d), got (5, 3)")):
        sequence_forward(p, np.ones((5, 3)))  # missing batch axis is 2-D
    with pytest.raises(ShapeError, match="input has dim 7, cell expects 3"):
        sequence_forward(p, np.ones((5, 2, 7)))
    with pytest.raises(ValueError, match="dropout > 0 requires an rng"):
        stack_forward([p], np.ones((5, 2, 3)), dropout=0.5)
    with pytest.raises(ValueError, match="at least one layer"):
        stack_forward([], np.ones((5, 2, 3)))
    X = np.ones((5, 2, 3))
    layers = [p, rand_params(CellKind.T_RNN, 4, 4, rng)]
    for dropout in (1.0, 1.5, -0.25):
        with pytest.raises(ValueError, match="dropout must lie in"):
            stack_forward(layers, X, dropout=dropout, rng=rng)
    for n in (1, 3):
        with pytest.raises(ValueError, match="one entry per layer"):
            stack_forward(layers, X, state=[LayerState(p, 2)] * n)
    for kind in (CellKind.T_RNN, CellKind.T_LSTM, CellKind.T_GRU, CellKind.LSTM):
        cell = rand_params(kind, 3, 4, rng)
        for shape in [(4, 2, 3), (5, 2, 4), (5, 1, 3)]:
            named = re.escape(f"mask has shape {shape}, input has {X.shape}")
            with pytest.raises(ShapeError, match=named):
                sequence_forward(cell, X, mask=np.ones(shape))


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3)], ids=["T0", "B0"])
@pytest.mark.parametrize("kind", TRAIN_KINDS, ids=lambda k: k.value)
def test_empty_windows_raise_shape_error(kind, shape):
    p = rand_params(kind, 3, 4, np.random.default_rng(16))
    X = np.zeros(shape)
    named = re.escape(str(shape))
    with pytest.raises(ShapeError, match=named):
        sequence_forward(p, X)
    with pytest.raises(ShapeError, match=named):
        stack_forward([p], X)
    with pytest.raises(ShapeError, match=named):
        bptt(p, X, np.zeros((shape[1], 4)))


def test_new_layer_state_is_the_zero_state():
    rng = np.random.default_rng(12)
    for kind in TRAIN_KINDS:
        st = LayerState(rand_params(kind, 3, 4, rng), batch=2)
        assert st.h.shape == (2, 4) and not st.h.any()
        assert (st.c is None) == (kind not in (CellKind.LSTM, CellKind.T_LSTM))
        assert st.c is None or (st.c.shape == (2, 4) and not st.c.any())
        assert (st.xx is None) == (kind not in (CellKind.T_LSTM, CellKind.T_GRU))
        assert st.xx is None or (st.xx.shape == (2, 6) and not st.xx.any())
        # the rows a step overwrites come with the state
        assert st.p.shape[1:] == (2, 4) and st.a.shape == (2, 4)
        assert all(g is None or np.shares_memory(g, st.p) for g in st.gates)


# A state that does not fit a (d=3, h=4, B=2) layer: the layer's kind, then
# the kind, input width, hidden width and batch the state was made for, and
# the array of it that does not fit.
_MISFITS = {
    "wrong-batch": (CellKind.T_LSTM, CellKind.T_LSTM, 3, 4, 3, "h"),
    "wrong-hidden": (CellKind.GRU, CellKind.GRU, 3, 5, 2, "h"),
    "wrong-input": (CellKind.T_GRU, CellKind.T_GRU, 5, 4, 2, "xx"),
    "lstm-missing-c": (CellKind.LSTM, CellKind.RNN, 3, 4, 2, "c"),
    "t_lstm-missing-c": (CellKind.T_LSTM, CellKind.T_GRU, 3, 4, 2, "c"),
    "t_lstm-missing-xx": (CellKind.T_LSTM, CellKind.LSTM, 3, 4, 2, "xx"),
    "t_gru-missing-xx": (CellKind.T_GRU, CellKind.T_RNN, 3, 4, 2, "xx"),
    "rnn-extra-c": (CellKind.RNN, CellKind.LSTM, 3, 4, 2, "c"),
    "t_gru-extra-c": (CellKind.T_GRU, CellKind.T_LSTM, 3, 4, 2, "c"),
}


@pytest.mark.parametrize("case", list(_MISFITS))
def test_a_state_that_does_not_fit_its_layer_raises(case):
    kind, state_kind, d, h, batch, name = _MISFITS[case]
    rng = np.random.default_rng(18)
    params = rand_params(kind, 3, 4, rng)
    X = rng.uniform(-1.0, 1.0, size=(5, 2, 3))
    misfit = LayerState(rand_params(state_kind, d, h, rng), batch)
    want, got = (
        getattr(getattr(st, name), "shape", None) for st in (LayerState(params, 2), misfit)
    )
    assert got != want
    named = re.escape(f"carried state {name} has shape {got}, expected {want}")
    with pytest.raises(ShapeError, match=named):
        sequence_forward(params, X, misfit)
    with pytest.raises(ShapeError, match=named):
        stack_forward([params], X, state=[misfit])
    # nothing of the state was written before the check
    assert not any(a.any() for a in (misfit.h, misfit.c, misfit.xx) if a is not None)


def test_workspace_grows_and_scopes_buffers():
    ws = Workspace()
    a = ws.get("x", (2, 3))
    assert a.shape == (2, 3) and a.flags.c_contiguous
    a[...] = 7.0
    # a smaller request reuses the same memory; a larger one grows the buffer
    b = ws.get("x", (5,))
    assert np.shares_memory(a, b) and np.all(b == 7.0)
    c = ws.get("x", (4, 4))
    assert not np.shares_memory(a, c)
    assert np.shares_memory(c, ws.get("x", (2, 3)))
    # own keys are private to a layer; get keys are shared by every layer
    l0, l1 = ws.layer(0), ws.layer(1)
    assert (l0.index, l1.index) == (0, 1)
    assert not np.shares_memory(l0.own("S", (3,)), l1.own("S", (3,)))
    assert np.shares_memory(l0.get("G", (3,)), l1.get("G", (3,)))
    assert ws.get("M", (2,), bool).dtype == bool


def _arrays(*objs):
    """Every array in nested lists, dicts and tapes."""
    for obj in objs:
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            yield from _arrays(*obj)
        elif isinstance(obj, dict):
            yield from _arrays(*obj.values())
        elif dataclasses.is_dataclass(obj):
            yield from _arrays(*vars(obj).values())


def test_calls_without_a_workspace_share_no_memory():
    """Each call given no workspace makes its own, so the results of one such
    call survive the next (``state_jacobian`` and the gradient checks keep a
    tape across calls)."""
    rng = np.random.default_rng(13)
    for kind in TRAIN_KINDS:
        layers = [rand_params(kind, 3, 4, rng), rand_params(kind, 4, 4, rng)]
        runs = []
        for _ in range(2):
            X = rng.uniform(-1.0, 1.0, size=(5, 2, 3))
            outs, tape = stack_forward(layers, X, dropout=0.5, rng=rng)
            grads, dX = stack_backward(layers, tape, rng.uniform(size=(5, 2, 4)))
            runs.append(list(_arrays(outs, tape, grads, dX)))
        for a in runs[0]:
            assert not any(np.shares_memory(a, b) for b in runs[1]), kind


@pytest.mark.parametrize("kind", TRAIN_KINDS, ids=lambda k: k.value)
def test_gate_arrays_are_contiguous(kind):
    """Every kind's taped gates are its gate-major input-side product: one
    block for RNN and T-MR (their pre-activation), two for T-RNN, three
    otherwise, each a C-contiguous (T, B, h) view of the layer's own "P"
    buffer, never a strided column view or a copy."""
    rng = np.random.default_rng(14)
    params = rand_params(kind, 5, 4, rng)
    ws = Workspace()
    _, tape = sequence_forward(
        params, rng.uniform(-1.0, 1.0, size=(6, 3, 5)), ws=ws.layer(0)
    )
    gates = [a for a in (tape.Z, tape.F, tape.O) if a is not None]
    want = {CellKind.RNN: 1, CellKind.T_MR: 1, CellKind.T_RNN: 2}.get(kind, 3)
    assert len(gates) == want
    P = ws.layer(0).own("P", (want, 6 * 3, 4))
    for a in gates:
        assert a.shape == (6, 3, 4) and a.flags.c_contiguous
        assert np.shares_memory(a, P) and a.base is P.base


def test_a_second_window_allocates_no_working_memory():
    """Through one workspace, a layer's second window of forward and backward
    passes adds no buffer and grows none, and allocates less than one
    (T, B, h) array outside it: all its scratch comes from the workspace."""
    rng = np.random.default_rng(15)
    T, B, d, h = 50, 16, 6, 32
    for kind in TRAIN_KINDS:
        params = rand_params(kind, d, h, rng)
        ws = Workspace()
        for window in range(2):
            X = rng.uniform(-1.0, 1.0, size=(T, B, d))
            dH = rng.uniform(-1.0, 1.0, size=(T, B, h))
            tracemalloc.start()
            _, tape = sequence_forward(params, X, ws=ws.layer(0))
            sequence_backward(params, tape, dH, ws=ws.layer(0))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            if window == 0:
                bufs = dict(ws._bufs)
        assert ws._bufs.keys() == bufs.keys(), kind
        assert all(ws._bufs[k] is buf for k, buf in bufs.items()), kind
        assert peak < T * B * h * 8, (kind, peak)
