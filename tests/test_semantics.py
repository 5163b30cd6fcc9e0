"""Pooling view of the typed cells: weights, forward sums, closed-form grads."""

import numpy as np
import pytest
from conftest import T_KINDS, rand_params

from typedrnn.autodiff import bptt
from typedrnn.cells import CellKind, sequence_forward
from typedrnn.semantics import POOLED_FORWARD, closed_form_gradients, pooling_weights


def test_pooling_weights_hand_case():
    F = np.full((3, 1), 0.5)
    P, residual = pooling_weights(F)
    assert np.allclose(P[:, 0], [0.125, 0.25, 0.5], atol=1e-15)
    assert residual[0] == pytest.approx(0.125, abs=1e-15)


def test_pooling_weights_geometric_for_constant_gate():
    for f in (0.1, 0.37, 0.9):
        t = 7
        F = np.full((t, 2), f)
        P, residual = pooling_weights(F)
        expect = [(1.0 - f) * f ** (t - 1 - s) for s in range(t)]
        assert np.max(np.abs(P[:, 0] - expect)) < 1e-14
        assert abs(residual[0] - f**t) < 1e-14


def test_pooling_weights_conserve_mass():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(1, 30))
        d = int(rng.integers(1, 9))
        F = rng.uniform(1e-4, 1.0 - 1e-4, size=(t, d))
        P, residual = pooling_weights(F)
        mass = P.sum(axis=0) + residual
        assert np.max(np.abs(mass - 1.0)) < 1e-12
        assert np.all(P > 0.0) and np.all(residual > 0.0)


def test_pooling_weights_reject_bad_gates():
    with pytest.raises(ValueError, match="strictly inside"):
        pooling_weights(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError, match="strictly inside"):
        pooling_weights(np.array([[0.0]]))
    with pytest.raises(ValueError, match="gates must be"):
        pooling_weights(np.full(3, 0.5))  # in range, but not (t, d)


def test_pooled_forward_matches_recurrence():
    rng = np.random.default_rng(1)
    for kind in T_KINDS:
        worst = 0.0
        for _ in range(10):
            h = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            t = int(rng.integers(1, 21))
            params = rand_params(kind, d, h, rng)
            X = rng.uniform(-1.0, 1.0, size=(t, d))
            pooled = POOLED_FORWARD[kind](params, X)
            out, _ = sequence_forward(params, X[:, None, :])
            worst = max(worst, float(np.max(np.abs(pooled - out[-1, 0]))))
        assert worst < 1e-10, kind


def test_closed_form_gradients_match_bptt():
    rng = np.random.default_rng(2)
    for kind in T_KINDS:
        worst = 0.0
        for _ in range(8):
            h = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            t = int(rng.integers(1, 9))
            params = rand_params(kind, d, h, rng)
            X = rng.uniform(-1.0, 1.0, size=(t, d))
            u = rng.uniform(-1.0, 1.0, size=h)
            cf = closed_form_gradients(params, X, u)
            res = bptt(params, X[:, None, :], u[None, :])
            assert set(cf) == set(res.params)
            for name in cf:
                worst = max(worst, float(np.max(np.abs(cf[name] - res.params[name]))))
        assert worst < 1e-8, kind


def test_closed_form_gradients_reject_other_kinds():
    rng = np.random.default_rng(3)
    params = rand_params(CellKind.LSTM, 3, 4, rng)
    with pytest.raises(ValueError, match="no closed-form gradients for kind"):
        closed_form_gradients(params, np.zeros((2, 3)), np.zeros(4))
