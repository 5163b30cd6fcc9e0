"""Hand-written backward passes against finite differences."""

import tracemalloc

import numpy as np
import pytest
from conftest import TRAIN_KINDS, draw_instance, rand_params

from typedrnn.autodiff import (
    bptt,
    clip_global_norm,
    finite_diff,
    global_norm,
    sequence_backward,
    stack_backward,
    state_jacobian,
)
from typedrnn.cells import CellKind, Workspace, sequence_forward, stack_forward


def _rel_gap(grads, fd):
    gaps = {}
    for name in fd:
        num = np.max(np.abs(grads[name] - fd[name]))
        den = max(np.max(np.abs(fd[name])), 1e-8)
        gaps[name] = num / den
    return gaps


def test_bptt_matches_finite_differences_per_kind():
    rng = np.random.default_rng(0)
    for kind in TRAIN_KINDS:
        for _ in range(4):
            params, X = draw_instance(kind, rng, h_max=4, t_max=6, d_max=4)
            u = rng.uniform(-1.0, 1.0, size=(1, params.hidden_dim))

            def loss(p):
                out, _ = sequence_forward(p, X)
                return float(np.sum(u * out[-1]))

            res = bptt(params, X, u)
            # canonical order: the clipping norm sums the gradients in it
            assert list(res.params) == list(params.tensors), kind
            fd = finite_diff(params, loss)
            gaps = _rel_gap(res.params, fd)
            assert max(gaps.values()) < 1e-5, (kind, gaps)


def test_bptt_with_per_step_upstream():
    rng = np.random.default_rng(1)
    kinds = (CellKind.T_LSTM, CellKind.GRU, CellKind.RNN, CellKind.T_RNN, CellKind.T_GRU)
    for kind in kinds:
        params, X = draw_instance(kind, rng, h_max=4, t_max=6, d_max=4)
        dH = rng.uniform(-1.0, 1.0, size=(X.shape[0], 1, params.hidden_dim))

        def loss(p):
            out, _ = sequence_forward(p, X)
            return float(np.sum(dH * out))

        res = bptt(params, X, dH)
        fd = finite_diff(params, loss)
        gaps = _rel_gap(res.params, fd)
        assert max(gaps.values()) < 1e-5, (kind, gaps)


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for kind in TRAIN_KINDS:
        params, X = draw_instance(kind, rng, h_max=4, t_max=5, d_max=3)
        u = rng.uniform(-1.0, 1.0, size=(1, params.hidden_dim))
        dH = np.zeros((X.shape[0], 1, params.hidden_dim))
        dH[-1] = u
        _, tape = stack_forward([params], X)
        _, dX = stack_backward([params], tape, dH)

        eps = 1e-6
        idx = [(int(a), int(b)) for a, b in zip(
            rng.integers(0, X.shape[0], size=6), rng.integers(0, X.shape[2], size=6)
        )]
        for t, j in idx:
            Xp = X.copy()
            Xp[t, 0, j] += eps
            op, _ = sequence_forward(params, Xp)
            Xm = X.copy()
            Xm[t, 0, j] -= eps
            om, _ = sequence_forward(params, Xm)
            fd = float(np.sum(u * (op[-1] - om[-1]))) / (2 * eps)
            assert abs(dX[t, 0, j] - fd) < 1e-6 * max(1.0, abs(fd)), kind


def test_initial_state_gradients():
    rng = np.random.default_rng(3)
    kinds = (CellKind.T_RNN, CellKind.T_LSTM, CellKind.RNN, CellKind.LSTM, CellKind.T_GRU)
    for kind in kinds:
        params, X = draw_instance(kind, rng, h_max=4, t_max=5, d_max=3)
        h = params.hidden_dim
        h0 = rng.uniform(-0.5, 0.5, size=(1, h))
        c0 = rng.uniform(-0.5, 0.5, size=(1, h))
        u = rng.uniform(-1.0, 1.0, size=(1, h))

        out, tape = sequence_forward(params, X, h0=h0, c0=c0)
        dH = np.zeros_like(out)
        dH[-1] = u
        res = sequence_backward(params, tape, dH)

        eps = 1e-6
        carries = {"dh0": h0} if res.dc0 is None else {"dh0": h0, "dc0": c0}
        if res.dh0 is None:
            carries.pop("dh0")
        for grad_name, base in carries.items():
            got = getattr(res, grad_name)
            for j in range(h):
                bp = base.copy()
                bp[0, j] += eps
                bm = base.copy()
                bm[0, j] -= eps
                kw_p = {"h0": h0, "c0": c0}
                kw_m = {"h0": h0, "c0": c0}
                kw_p["h0" if grad_name == "dh0" else "c0"] = bp
                kw_m["h0" if grad_name == "dh0" else "c0"] = bm
                op, _ = sequence_forward(params, X, **kw_p)
                om, _ = sequence_forward(params, X, **kw_m)
                fd = float(np.sum(u * (op[-1] - om[-1]))) / (2 * eps)
                assert abs(got[0, j] - fd) < 1e-6 * max(1.0, abs(fd)), (kind, grad_name)


def test_stack_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    layers = [
        rand_params(CellKind.T_LSTM, 3, 4, rng, lo=-0.4, hi=0.4),
        rand_params(CellKind.T_GRU, 4, 4, rng, lo=-0.4, hi=0.4),
    ]
    X = rng.uniform(-1.0, 1.0, size=(5, 2, 3))
    u = rng.uniform(-1.0, 1.0, size=(5, 2, 4))

    outs, tape = stack_forward(layers, X)
    per_layer, dX = stack_backward(layers, tape, u)

    eps = 1e-6
    for li, params in enumerate(layers):
        for name, arr in params.tensors.items():
            flat = arr.flat  # writes through to the cell's learnware block
            for k in map(int, np.random.default_rng(li).integers(0, arr.size, 4)):
                orig = flat[k]
                flat[k] = orig + eps
                op, _ = stack_forward(layers, X)
                flat[k] = orig - eps
                om, _ = stack_forward(layers, X)
                flat[k] = orig
                fd = float(np.sum(u * (op[-1] - om[-1]))) / (2 * eps)
                got = per_layer[li][name].reshape(-1)[k]
                assert abs(got - fd) < 1e-5 * max(1.0, abs(fd)), (li, name)

    for t, j in ((0, 0), (2, 1), (4, 2)):
        Xp = X.copy()
        Xp[t, 0, j] += eps
        op, _ = stack_forward(layers, Xp)
        Xm = X.copy()
        Xm[t, 0, j] -= eps
        om, _ = stack_forward(layers, Xm)
        fd = float(np.sum(u * (op[-1] - om[-1]))) / (2 * eps)
        assert abs(dX[t, 0, j] - fd) < 1e-6 * max(1.0, abs(fd))


def test_stack_backward_respects_dropout_masks():
    rng = np.random.default_rng(5)
    for kind in (CellKind.T_RNN, CellKind.T_LSTM):
        layers = [
            rand_params(kind, 3, 4, rng, lo=-0.4, hi=0.4),
            rand_params(kind, 4, 4, rng, lo=-0.4, hi=0.4),
        ]
        X = rng.uniform(-1.0, 1.0, size=(5, 2, 3))
        u = rng.uniform(-1.0, 1.0, size=(5, 2, 4))
        outs, tape = stack_forward(layers, X, dropout=0.4, rng=np.random.default_rng(6))
        per_layer, _ = stack_backward(layers, tape, u)

        # With the recorded masks frozen, the pass is a fixed deterministic
        # function; finite differences through a mask-replaying forward agree.
        # For T-LSTM, layer 0's gradients reach it through both the masked
        # W-side input of layer 1 and its unmasked previous-input stream.
        mask = tape.masks[1]

        def replay(ls):
            o0, _ = sequence_forward(ls[0], X)
            o1, _ = sequence_forward(ls[1], o0 * mask, x_prev_src=o0)
            return o1

        eps = 1e-6
        for li in (0, 1):
            for name, arr in layers[li].tensors.items():
                for k in (0, arr.size - 1):
                    flat = arr.flat
                    orig = flat[k]
                    flat[k] = orig + eps
                    op = replay(layers)
                    flat[k] = orig - eps
                    om = replay(layers)
                    flat[k] = orig
                    fd = float(np.sum(u * (op - om))) / (2 * eps)
                    got = per_layer[li][name].reshape(-1)[k]
                    assert abs(got - fd) < 1e-5 * max(1.0, abs(fd)), (kind, li, name)


def test_global_norm_and_clip():
    def fresh():
        return {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}

    assert global_norm(fresh()) == pytest.approx(5.0)
    clipped, norm = clip_global_norm(fresh(), 2.5)
    assert norm == pytest.approx(5.0)
    assert global_norm(clipped) == pytest.approx(2.5)
    assert np.allclose(clipped["a"], [1.5, 0.0])

    small = {"a": np.array([0.3])}
    same, norm = clip_global_norm(small, 2.5)
    assert norm == pytest.approx(0.3)
    assert np.array_equal(same["a"], [0.3])

    passthrough, norm = clip_global_norm(fresh(), None)
    assert norm == pytest.approx(5.0)
    assert np.array_equal(passthrough["a"], [3.0, 0.0])

    with pytest.raises(ValueError):
        clip_global_norm(fresh(), 0.0)


def test_state_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for kind in (CellKind.T_RNN, CellKind.T_LSTM, CellKind.RNN, CellKind.T_GRU):
        params, X3 = draw_instance(kind, rng, h_max=4, t_max=5, d_max=3)
        X = X3[:, 0, :]
        h = params.hidden_dim
        J = state_jacobian(params, X)
        assert J.shape == (h, h)

        eps = 1e-6
        for j in range(h):
            s = np.zeros((1, h))
            sp = s.copy()
            sp[0, j] += eps
            sm = s.copy()
            sm[0, j] -= eps
            if kind == CellKind.T_LSTM:
                op, tp = sequence_forward(params, X3, c0=sp)
                om, tm = sequence_forward(params, X3, c0=sm)
                fp, fm = tp.C[-1][0], tm.C[-1][0]
            else:
                op, _ = sequence_forward(params, X3, h0=sp)
                om, _ = sequence_forward(params, X3, h0=sm)
                fp, fm = op[-1][0], om[-1][0]
            fd = (fp - fm) / (2 * eps)
            assert np.max(np.abs(J[:, j] - fd)) < 1e-6, kind


def test_stack_through_a_workspace_is_bitwise_fresh():
    """Two windows of a three-layer stack through one workspace (so the
    passed-down gradient uses both of its buffers) give the same bits as
    fresh allocation, and skipping the input gradient changes no parameter
    gradient."""
    rng = np.random.default_rng(11)
    for kind in TRAIN_KINDS:
        layers = [rand_params(kind, 3, 5, rng, lo=-0.4, hi=0.4)]
        layers += [rand_params(kind, 5, 5, rng, lo=-0.4, hi=0.4) for _ in range(2)]
        ws = Workspace()
        for T, B in ((6, 2), (4, 3)):
            X = rng.uniform(-1.0, 1.0, size=(T, B, 3))
            u = rng.uniform(-1.0, 1.0, size=(T, B, 5))
            runs = []
            for w, input_grad in ((None, True), (ws, True), (ws, False)):
                outs, tape = stack_forward(
                    layers, X, dropout=0.3, rng=np.random.default_rng(T), ws=w
                )
                outs = [o.copy() for o in outs]
                grads, dX = stack_backward(layers, tape, u, ws=w, input_grad=input_grad)
                grads = [{n: g.copy() for n, g in lg.items()} for lg in grads]
                runs.append((outs, grads, None if dX is None else dX.copy()))
            (o_ref, g_ref, dX_ref), (o_ws, g_ws, dX_ws), (_, g_skip, dX_skip) = runs
            assert all(np.array_equal(a, b) for a, b in zip(o_ref, o_ws)), kind
            for ref, got, skip in zip(g_ref, g_ws, g_skip):
                for name in ref:
                    assert np.array_equal(ref[name], got[name]), (kind, name)
                    assert np.array_equal(ref[name], skip[name]), (kind, name)
            assert np.array_equal(dX_ref, dX_ws), kind
            assert dX_skip is None


def test_stack_backward_passes_the_input_gradient_down_without_a_copy():
    """A second window of a 2-layer stack through one workspace: the backward
    pass, which adds a T-LSTM / T-GRU layer's shifted ``dX_prev`` into its
    ``dX`` (interleaved halves of one buffer), allocates less than half of
    one (T-1, B, h) array for every kind."""
    rng = np.random.default_rng(16)
    T, B, h = 50, 16, 32
    for kind in TRAIN_KINDS:
        layers = [rand_params(kind, h, h, rng) for _ in range(2)]
        ws = Workspace()
        for window in range(2):
            X = rng.uniform(-1.0, 1.0, size=(T, B, h))
            dH = rng.uniform(-1.0, 1.0, size=(T, B, h))
            _, tape = stack_forward(layers, X, ws=ws)
            tracemalloc.start()
            stack_backward(layers, tape, dH, ws=ws)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < (T - 1) * B * h * 8 // 2, (kind, peak)
