"""Elementwise maps, reductions, and shape guards."""

import numpy as np
import pytest

from typedrnn.linalg import ShapeError, sigmoid, softmax, spectral_norm


def test_sigmoid_matches_logistic_on_moderate_inputs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-20.0, 20.0, size=17)
        ref = 1.0 / (1.0 + np.exp(-x))
        assert np.max(np.abs(sigmoid(x) - ref)) < 1e-15


def test_sigmoid_saturates_without_overflow():
    with np.errstate(over="raise"):
        big = sigmoid(np.array([-1e6, -800.0, 800.0, 1e6]))
    assert np.array_equal(big, [0.0, 0.0, 1.0, 1.0])


def test_sigmoid_in_place_on_a_strided_view_is_bitwise_equal():
    rng = np.random.default_rng(4)
    block = rng.uniform(-30.0, 30.0, size=(5, 3, 12))
    ref = sigmoid(block[..., 4:8])
    view = block[..., 4:8]
    assert sigmoid(view, out=view) is view
    assert np.array_equal(block[..., 4:8], ref)


def test_sigmoid_symmetry_within_one_ulp():
    rng = np.random.default_rng(1)
    x = rng.uniform(-30.0, 30.0, size=200)
    gap = np.abs(sigmoid(-x) - (1.0 - sigmoid(x)))
    assert gap.max() <= np.finfo(np.float64).eps / 2


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5.0, 5.0, size=(4, 9))
    p = softmax(x)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12
    q = softmax(x + 123.0)
    assert np.max(np.abs(p - q)) < 1e-12
    assert np.all(softmax(np.array([0.0, 1000.0])) == [0.0, 1.0])
    # bit for bit the three-step expression softmax replaced
    wide = rng.uniform(-40.0, 40.0, size=26)
    for v in (x, x[0], wide, rng.normal(size=(3, 4000))):
        for axis in range(-v.ndim, v.ndim):
            e = np.exp(v - np.max(v, axis=axis, keepdims=True))
            old = e / np.sum(e, axis=axis, keepdims=True)
            assert np.array_equal(softmax(v, axis), old)


def test_softmax_into_out_is_bitwise_equal():
    rng = np.random.default_rng(5)
    for v in (rng.uniform(-40.0, 40.0, size=26), rng.normal(size=(3, 400))):
        for axis in range(-v.ndim, v.ndim):
            want = softmax(v, axis)
            buf = np.empty_like(v)
            assert softmax(v, axis, out=buf) is buf
            assert np.array_equal(buf, want)
            x = v.copy()
            assert softmax(x, axis, out=x) is x
            assert np.array_equal(x, want)


def test_spectral_norm_against_svd():
    assert spectral_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.standard_normal((6, 4))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m)[1][0])
    with pytest.raises(ShapeError, match="matrix must be 2-d"):
        spectral_norm(np.ones(3))
