"""Closed-form (non-recurrent) semantics of the typed cells, plus their
analytic gradients. Everything here is oracle code: written independently of
the step/scan implementations in ``cells`` and ``autodiff`` so the two routes
can be compared in tests, and kept unbatched and loop-explicit for clarity.

The typed state is a dynamic average pool. With gates f_1..f_t in (0,1)^d and
zero initial state, the T-RNN state unrolls to

    h_t = sum_s P(s) (*) z_s,      P(s) = (1 - f_s) (*) prod_{r=s+1..t} f_r,

with residual mass prod_{r=1..t} f_r left on the initial state; the weights
and residual sum to exactly 1 in every coordinate. Writing x~_s for the
stacked input [x_{s-1}; x_s; 1] and U_g = [V_g | W_g | b_g]:

    T-LSTM   h_t = tau(U_o x~_t) (*) sum_s P(s) (*) (U_z x~_s)
    T-GRU    h_t = sum_s (prod_{r=s+1..t} f_r) (*) tau(U_o x~_s) (*) (U_z x~_s)

(The T-GRU coefficient is the direct unroll of h' = f (*) h + z (*) o; the
empty product at s = t equals 1. Tests pin this against the recurrence.)

Gate gradients expand the product rule through P(s) analytically with
prefix/suffix exclusion products; no division by P(s) is ever performed, so
saturated gates cause no instability. Cost is O(t^2 d) per sequence.
"""

from __future__ import annotations

import numpy as np

from .cells import CellKind, CellParams
from .linalg import sigmoid


def pooling_weights(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step pooling weights P(s) and residual mass for gates F (t, d).

    Every gate must lie strictly inside (0, 1). Returns (P, residual) with
    P.shape == F.shape and residual.shape == (d,); P.sum(0) + residual == 1
    coordinatewise, exactly up to float64 rounding.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError(f"gates must be (t, d), got shape {F.shape}")
    if not np.all((F > 0.0) & (F < 1.0)):
        raise ValueError("pooling gates must lie strictly inside (0, 1)")
    t = F.shape[0]
    suffix = _suffix_products(F)
    P = np.empty_like(F)
    for s in range(t):
        P[s] = (1.0 - F[s]) * suffix[s + 1]
    return P, suffix[0]


def _suffix_products(F: np.ndarray) -> np.ndarray:
    """suffix[r] = prod_{r' >= r} F[r'], with suffix[t] = 1. Shape (t+1, d)."""
    t, d = F.shape
    suffix = np.empty((t + 1, d))
    suffix[t] = 1.0
    for r in range(t - 1, -1, -1):
        suffix[r] = F[r] * suffix[r + 1]
    return suffix


def _stacked_inputs(X: np.ndarray) -> np.ndarray:
    """x~_s = [x_{s-1}; x_s; 1] rows, with x_{-1} = 0. (t, 2d+1)."""
    t, d = X.shape
    Xt = np.zeros((t, 2 * d + 1))
    Xt[1:, :d] = X[:-1]
    Xt[:, d : 2 * d] = X
    Xt[:, 2 * d] = 1.0
    return Xt


def _stacked_matrix(params: CellParams, gate: str) -> np.ndarray:
    """U_g = [V_g | W_g | b_g] as one (h, 2d+1) matrix."""
    return np.concatenate(
        [
            params[f"V_{gate}"],
            params[f"W_{gate}"],
            params[f"b_{gate}"][:, None],
        ],
        axis=1,
    )


def trnn_forward_pooled(params: CellParams, X: np.ndarray) -> np.ndarray:
    """T-RNN state after t steps from zero init, as an explicit pooled sum."""
    X = np.asarray(X, dtype=np.float64)
    F = sigmoid(X @ params["V"].T + params["b"])
    Z = X @ params["W"].T
    P, _ = pooling_weights(F)
    return (P * Z).sum(axis=0)


def tlstm_forward_pooled(params: CellParams, X: np.ndarray) -> np.ndarray:
    """T-LSTM output after t steps from zero init, as an explicit pooled sum."""
    X = np.asarray(X, dtype=np.float64)
    Xt = _stacked_inputs(X)
    F = sigmoid(Xt @ _stacked_matrix(params, "f").T)
    Z = Xt @ _stacked_matrix(params, "z").T
    o_last = np.tanh(_stacked_matrix(params, "o") @ Xt[-1])
    P, _ = pooling_weights(F)
    return o_last * (P * Z).sum(axis=0)


def tgru_forward_pooled(params: CellParams, X: np.ndarray) -> np.ndarray:
    """T-GRU state after t steps from zero init, as an explicit pooled sum."""
    X = np.asarray(X, dtype=np.float64)
    Xt = _stacked_inputs(X)
    F = sigmoid(Xt @ _stacked_matrix(params, "f").T)
    Z = Xt @ _stacked_matrix(params, "z").T
    O = np.tanh(Xt @ _stacked_matrix(params, "o").T)
    suffix = _suffix_products(F)
    t = X.shape[0]
    h = np.zeros(params.hidden_dim)
    for s in range(t):
        h += suffix[s + 1] * O[s] * Z[s]
    return h


# The kinds with a pooled closed form, each with its forward.
POOLED_FORWARD = {
    CellKind.T_RNN: trnn_forward_pooled,
    CellKind.T_LSTM: tlstm_forward_pooled,
    CellKind.T_GRU: tgru_forward_pooled,
}


def _gate_grad_pooled(
    u_eff: np.ndarray, F: np.ndarray, Z: np.ndarray, suffix: np.ndarray
) -> np.ndarray:
    """d(u_eff . sum_s P(s) (*) Z[s]) / dF[r] for every r, shape (t, d).

    dP(s)/dF[r] is -suffix[r+1] at s = r, and for s < r the exclusion product
    (1 - F[s]) * prod_{r' in (s, t], r' != r} F[r'], accumulated with a
    running prefix segment so the whole sweep is O(t^2 d) with no division.
    """
    t = F.shape[0]
    dF = np.empty_like(F)
    for r in range(t):
        acc = -Z[r] * suffix[r + 1]
        seg = np.ones(F.shape[1])
        for s in range(r - 1, -1, -1):
            # seg = prod_{r' = s+1 .. r-1} F[r']
            acc += Z[s] * (1.0 - F[s]) * seg * suffix[r + 1]
            seg = seg * F[s]
        dF[r] = u_eff * acc
    return dF


def _coeff_grad_pooled(
    u_eff: np.ndarray, F: np.ndarray, OZ: np.ndarray, suffix: np.ndarray
) -> np.ndarray:
    """Same sweep for coefficients prod_{r > s} F[r] (no (1-f) factor):
    d(u_eff . sum_s coeff(s) (*) OZ[s]) / dF[r], shape (t, d)."""
    t = F.shape[0]
    dF = np.zeros_like(F)
    for r in range(t):
        acc = np.zeros(F.shape[1])
        seg = np.ones(F.shape[1])
        for s in range(r - 1, -1, -1):
            acc += OZ[s] * seg * suffix[r + 1]
            seg = seg * F[s]
        dF[r] = u_eff * acc
    return dF


def closed_form_gradients(
    params: CellParams, X: np.ndarray, upstream: np.ndarray
) -> dict[str, np.ndarray]:
    """Analytic gradients of upstream . h_t w.r.t. every parameter tensor,
    for the three pooled typed cells (T-RNN, T-LSTM, T-GRU), zero init.

    Derived from the pooled forms above, not from the recurrence; the BPTT
    comparison in the tests is therefore a genuine dual-route check.
    """
    X = np.asarray(X, dtype=np.float64)
    u = np.asarray(upstream, dtype=np.float64)
    kind = params.kind
    t = X.shape[0]

    if kind == CellKind.T_RNN:
        F = sigmoid(X @ params["V"].T + params["b"])
        Z = X @ params["W"].T
        suffix = _suffix_products(F)
        P = (1.0 - F) * suffix[1:]
        dW = (u * P).T @ X
        dF = _gate_grad_pooled(u, F, Z, suffix)
        dPre = dF * F * (1.0 - F)
        return {"W": dW, "V": dPre.T @ X, "b": dPre.sum(axis=0)}

    if kind == CellKind.T_LSTM:
        Xt = _stacked_inputs(X)
        Uf = _stacked_matrix(params, "f")
        Uz = _stacked_matrix(params, "z")
        Uo = _stacked_matrix(params, "o")
        F = sigmoid(Xt @ Uf.T)
        Z = Xt @ Uz.T
        o_last = np.tanh(Uo @ Xt[-1])
        suffix = _suffix_products(F)
        P = (1.0 - F) * suffix[1:]
        m = (P * Z).sum(axis=0)
        dUo = np.outer(u * m * (1.0 - o_last * o_last), Xt[-1])
        u_eff = u * o_last
        dUz = (u_eff * P).T @ Xt
        dF = _gate_grad_pooled(u_eff, F, Z, suffix)
        dPre = dF * F * (1.0 - F)
        dUf = dPre.T @ Xt
        return _split_stacked(params, {"z": dUz, "f": dUf, "o": dUo})

    if kind == CellKind.T_GRU:
        Xt = _stacked_inputs(X)
        Uf = _stacked_matrix(params, "f")
        Uz = _stacked_matrix(params, "z")
        Uo = _stacked_matrix(params, "o")
        F = sigmoid(Xt @ Uf.T)
        Z = Xt @ Uz.T
        O = np.tanh(Xt @ Uo.T)
        suffix = _suffix_products(F)
        coeff = suffix[1:]
        dUo = (u * coeff * Z * (1.0 - O * O)).T @ Xt
        dUz = (u * coeff * O).T @ Xt
        dF = _coeff_grad_pooled(u, F, O * Z, suffix)
        dPre = dF * F * (1.0 - F)
        dUf = dPre.T @ Xt
        return _split_stacked(params, {"z": dUz, "f": dUf, "o": dUo})

    raise ValueError(f"no closed-form gradients for kind {kind!r}")


def _split_stacked(
    params: CellParams, stacked: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Split d/dU_g back into the V_g / W_g / b_g blocks, in canonical order."""
    d = params.input_dim
    out: dict[str, np.ndarray] = {}
    for g in ("z", "f", "o"):
        U = stacked[g]
        out[f"V_{g}"] = U[:, :d].copy()
        out[f"W_{g}"] = U[:, d : 2 * d].copy()
        out[f"b_{g}"] = U[:, 2 * d].copy()
    return {k: out[k] for k in params.tensors}
