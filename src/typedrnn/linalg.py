"""Dense float64 primitives shared by every other module.

Everything runs in 64-bit floats. ``spectral_norm`` refuses anything but a
matrix with a ShapeError, the error the cells also raise when operand
dimensions disagree: silent broadcasting across mismatched dimensions is the
classic source of untraceable bugs in recurrent code.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand dimensions do not agree."""


def sigmoid(x, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function via its tanh identity, which never overflows.

    With ``out`` (which may be ``x`` itself) the result is written there.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(x, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax with max-subtraction; rows sum to 1 within float64 rounding.

    With ``out`` (which may be ``x`` itself) the result is written there.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def spectral_norm(m) -> float:
    """Largest singular value of a matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"matrix must be 2-d, got shape {m.shape}")
    return float(np.linalg.norm(m, 2))
