"""Shared test helpers: random cell instances, and cell-description trees
without their source positions."""

import re

import numpy as np

from typedrnn.cells import (
    SCAN_KINDS,
    TRAINABLE_KINDS,
    CellKind,
    CellParams,
    param_shapes,
    sequence_forward,
)

TRAIN_KINDS = TRAINABLE_KINDS
T_KINDS = SCAN_KINDS  # the typed kinds with a pooled closed form


def rand_params(kind, input_dim, hidden, rng, lo=-0.6, hi=0.6):
    """Dense random parameters."""
    kind = CellKind(kind)
    tensors = {
        name: rng.uniform(lo, hi, size=shape)
        for name, shape in param_shapes(kind, input_dim, hidden).items()
    }
    return CellParams(kind, input_dim, hidden, tensors)


def rand_scrn(input_dim, hidden, rng, lo=-0.6, hi=0.6):
    """SCRN context-step parameters ``(alpha, W_s)``: alpha drawn strictly
    inside (0, 1), then the (hidden, input_dim) matrix W_s."""
    alpha = rng.uniform(0.2, 0.8)
    return alpha, rng.uniform(lo, hi, size=(hidden, input_dim))


def tmr_margin(params, X):
    """Smallest |pre-activation| seen on a T-MR run (distance to the relu
    kink, where finite differences are not trustworthy)."""
    _, tape = sequence_forward(params, X)
    return float(np.min(np.abs(tape.Z)))  # Z is T-MR's pre-activation


def draw_instance(kind, rng, h_max=8, t_max=20, d_max=6, margin=1e-3):
    """Random (params, X) with X of shape (T, 1, d). T-MR draws are rejected
    until every pre-activation sits at least ``margin`` from the relu kink,
    so finite differences stay on one side of it."""
    kind = CellKind(kind)
    for _ in range(64):
        h = int(rng.integers(2, h_max + 1))
        d = int(rng.integers(2, d_max + 1))
        T = int(rng.integers(2, t_max + 1))
        params = rand_params(kind, d, h, rng)
        X = rng.uniform(-1.0, 1.0, size=(T, 1, d))
        if kind != CellKind.T_MR or tmr_margin(params, X) > margin:
            return params, X
    raise RuntimeError("could not draw a T-MR instance away from the kink")


def spec_tree(spec):
    """The spec's tree without its source positions."""
    return re.sub(r"span=Span\(line=\d+, col=\d+\)", "", repr(spec))
