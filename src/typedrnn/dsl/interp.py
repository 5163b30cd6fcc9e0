"""Numeric reference interpreter for cell specs.

Executes one step of a spec with explicit parameter tensors, independent of
the native cell implementations, so the two can be cross-checked. Parameters
are keyed by affine node: ``affine#3.W0``, ``affine#3.W1``, ... for the
per-operand matrices of a general node, ``affine#3.d`` for a diagonal
vector, ``affine#3.a`` for a scalar kind, ``affine#3.b`` for a bias; scale
factors written ``scale[alpha]`` look up ``alpha`` directly.

Symmetric and orthogonal matrices are validated numerically at use (a
symmetric kind must equal its transpose; an orthogonal kind must satisfy
W^T W = I within 1e-8), since the type checker can only trust the
declaration.
"""

from __future__ import annotations

import numpy as np

from .nodes import Affine, Binary, CellSpec, Const, Expr, Gate, Ref, Unary
from .typesys import MatrixKind


class InterpError(Exception):
    """Shape mismatch, missing parameter, or invalid matrix at evaluation."""


def _sigmoid(v: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


_UNARY = {"sigmoid": _sigmoid, "tanh": np.tanh, "relu": lambda v: np.maximum(v, 0.0)}
_BINARY = {"+": np.add, "-": np.subtract, "max": np.maximum, "min": np.minimum}


def _param(params: dict, key: str, span) -> np.ndarray:
    try:
        return np.asarray(params[key], dtype=np.float64)
    except KeyError:
        raise InterpError(f"{span}: missing parameter {key!r}") from None


def _eval_affine(e: Affine, params: dict, values: list[np.ndarray]) -> np.ndarray:
    key = e.name
    if e.kind in (MatrixKind.GENERAL, MatrixKind.SYMMETRIC, MatrixKind.ORTHOGONAL):
        out = None
        for j, v in enumerate(values):
            w = _param(params, f"{key}.W{j}", e.span)
            if w.ndim != 2 or w.shape[1] != v.shape[0]:
                raise InterpError(
                    f"{e.span}: {key}.W{j} has shape {w.shape}, operand has "
                    f"length {v.shape[0]}"
                )
            if e.kind == MatrixKind.SYMMETRIC and not np.array_equal(w, w.T):
                raise InterpError(f"{e.span}: {key} declared symmetric but W != W^T")
            if e.kind == MatrixKind.ORTHOGONAL:
                if w.shape[0] != w.shape[1] or not np.allclose(
                    w.T @ w, np.eye(w.shape[0]), atol=1e-8
                ):
                    raise InterpError(
                        f"{e.span}: {key} declared orthogonal but W^T W != I"
                    )
            term = w @ v
            out = term if out is None else out + term
    elif e.kind == MatrixKind.DIAGONAL:
        d = _param(params, f"{key}.d", e.span)
        v = values[0]
        if d.shape != v.shape:
            raise InterpError(
                f"{e.span}: {key}.d has shape {d.shape}, operand {v.shape}"
            )
        out = d * v
    else:  # scalar
        a = _param(params, f"{key}.a", e.span)
        if a.ndim != 0:
            raise InterpError(f"{e.span}: {key}.a must be a scalar")
        out = float(a) * values[0]
    if e.has_bias:
        b = _param(params, f"{key}.b", e.span)
        if b.shape != out.shape:
            raise InterpError(
                f"{e.span}: {key}.b has shape {b.shape}, output {out.shape}"
            )
        out = out + b
    return out


def interpret_step(
    spec: CellSpec,
    params: dict,
    state: dict[str, np.ndarray],
    inputs: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Evaluate one step. Returns (next_state, bindings): next_state maps each
    state port to its primed value; bindings maps every statement lhs
    (including primed names) to its value."""
    env: dict[str, np.ndarray] = {}
    for p in spec.states():
        if p.name not in state:
            raise InterpError(f"missing state value for {p.name!r}")
        env[p.name] = np.asarray(state[p.name], dtype=np.float64)
    for p in spec.inputs():
        if p.name not in inputs:
            raise InterpError(f"missing input value for {p.name!r}")
        env[p.name] = np.asarray(inputs[p.name], dtype=np.float64)

    def ev(e: Expr) -> np.ndarray:
        if isinstance(e, Ref):
            return env[e.name]  # parse_spec resolved every name
        if isinstance(e, Const):
            return np.float64(e.value)
        if isinstance(e, Unary):
            v = ev(e.operand)
            if e.op != "scale":
                return _UNARY[e.op](v)
            f = e.factor
            a = f.literal if f.param is None else _param(params, f.param, e.span)
            if np.ndim(a) != 0:
                raise InterpError(f"{e.span}: {f.param} must be a scalar")
            return (1.0 - a if f.complemented else a) * v
        if isinstance(e, Binary):
            l, r = ev(e.left), ev(e.right)
            if l.ndim and r.ndim and l.shape != r.shape:
                raise InterpError(
                    f"{e.span}: operand shapes differ: {l.shape} vs {r.shape}"
                )
            return _BINARY[e.op](l, r)
        if isinstance(e, Gate):
            l, r = ev(e.left), ev(e.right)
            if l.shape != r.shape:
                raise InterpError(
                    f"{e.span}: gate shapes differ: {l.shape} vs {r.shape}"
                )
            return l * r
        values = [ev(op) for op in e.operands]  # e is an Affine
        for j, v in enumerate(values):
            if v.ndim != 1:
                raise InterpError(f"{e.span}: affine operand {j} is not a vector")
        return _eval_affine(e, params, values)

    bindings: dict[str, np.ndarray] = {}
    for s in spec.stmts:
        val = ev(s.expr)
        env[s.lhs] = val
        bindings[s.lhs] = val
    next_state = {p.name: bindings[p.name + "'"] for p in spec.states()}
    return next_state, bindings
