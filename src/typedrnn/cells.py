"""Recurrent cells: typed variants, classical baselines, and stacks.

The typed cells (T-RNN, T-LSTM, T-GRU, T-MR) keep every learned matrix on the
input side of the recurrence; the state is only ever updated coordinatewise
(gating products, convex averages, a diagonal rescale). The classical cells
(RNN, LSTM without input gate, GRU) multiply the previous state by square
matrices inside the step. Update rules, writing s for sigmoid, tau for tanh,
(*) for the coordinatewise product:

    T-RNN    z = W x_t                  (no bias, no squashing)
             f = s(V x_t + b)
             h' = f (*) h + (1 - f) (*) z

    T-LSTM   z = V_z x_prev + W_z x_t + b_z          (x_prev = input at t-1)
             f = s(V_f x_prev + W_f x_t + b_f)
             o = tau(V_o x_prev + W_o x_t + b_o)
             c' = f (*) c + (1 - f) (*) z
             h' = c' (*) o                            (no squash on c')

    T-GRU    z, f, o as in T-LSTM
             h' = f (*) h + z (*) o

    RNN      h' = tau(V h + W x_t + b)

    LSTM     z = tau(V_z h + W_z x_t + b_z)           (input gate dropped)
             f = s(V_f h + W_f x_t + b_f)
             o = tau(V_o h + W_o x_t + b_o)
             c' = f (*) c + (1 - f) (*) z
             h' = tau(c') (*) o

    GRU      z = s(V_z h + W_z x_t + b_z)
             f = s(V_f h + W_f x_t + b_f)
             o = tau(V_o (z (*) h) + W_o x_t + b_o)
             h' = f (*) h + (1 - f) (*) o

    T-MR     h' = relu(b (*) h + W x_t + c)           (b, c vectors)

    SCRN     s' = alpha * s + (1 - alpha) * (W_s x_t) (alpha a scalar in (0,1))

Every typed cell except T-MR splits into stateless learnware and
state-dependent firmware. The learnware is one matrix multiply of the stacked
matrices (``stacked_learnware``) against the whole window's inputs at once:
``x_t`` for T-RNN, ``[x_{t-1}; x_t]`` for T-LSTM and T-GRU. Its result maps
coordinatewise to a forget gate F and an increment A, and the firmware is one
diagonal linear scan, the same for all three kinds:

    s_t = f_t (*) s_{t-1} + a_t

    T-RNN    a = (1 - f) (*) z      s = h, output s
    T-LSTM   a = (1 - f) (*) z      s = c, output s (*) o
    T-GRU    a = z (*) o            s = h, output s

``sequence_forward`` runs a whole time-major batch (T, B, d) this way and
records a tape for the hand-written backward pass in ``autodiff``, which runs
the same scan in reverse. The classical cells and T-MR have their own loops,
because their state passes through a matrix or a relu. ``stack_forward`` runs
a multi-layer stack with dropout applied only on vertical connections between
layers, never on the recurrent path and never on the raw model input. The DSL
interpreter (``dsl.interp``) is the independent per-step reference for every
update rule above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import ShapeError, sigmoid

__all__ = [
    "CellKind",
    "CellParams",
    "LayerCarry",
    "LayerTape",
    "SCAN_KINDS",
    "StackTape",
    "TRAINABLE_KINDS",
    "T_CELL_KINDS",
    "init_params",
    "param_shapes",
    "scrn_state_step",
    "sequence_forward",
    "stack_carry_out",
    "stack_forward",
]


class CellKind(str, Enum):
    RNN = "rnn"
    LSTM = "lstm"
    GRU = "gru"
    T_RNN = "t_rnn"
    T_LSTM = "t_lstm"
    T_GRU = "t_gru"
    T_MR = "t_mr"
    SCRN_STATE = "scrn_state"


#: Kinds that can be trained as language-model layers.
TRAINABLE_KINDS = (
    CellKind.RNN,
    CellKind.LSTM,
    CellKind.GRU,
    CellKind.T_RNN,
    CellKind.T_LSTM,
    CellKind.T_GRU,
    CellKind.T_MR,
)

#: Kinds whose step consumes the previous raw input x_{t-1}.
T_CELL_KINDS = (CellKind.T_LSTM, CellKind.T_GRU)

#: Kinds run as one learnware product followed by one diagonal scan.
SCAN_KINDS = (CellKind.T_RNN, CellKind.T_LSTM, CellKind.T_GRU)


def param_shapes(kind: CellKind, input_dim: int, hidden_dim: int) -> dict[str, tuple]:
    """Tensor names and shapes for a cell, in canonical (serialization) order."""
    h, d = hidden_dim, input_dim
    if kind == CellKind.RNN:
        return {"V": (h, h), "W": (h, d), "b": (h,)}
    if kind in (CellKind.LSTM, CellKind.GRU):
        out = {}
        for g in ("z", "f", "o"):
            out[f"V_{g}"] = (h, h)
            out[f"W_{g}"] = (h, d)
            out[f"b_{g}"] = (h,)
        return out
    if kind == CellKind.T_RNN:
        return {"W": (h, d), "V": (h, d), "b": (h,)}
    if kind in (CellKind.T_LSTM, CellKind.T_GRU):
        out = {}
        for g in ("z", "f", "o"):
            out[f"V_{g}"] = (h, d)
            out[f"W_{g}"] = (h, d)
            out[f"b_{g}"] = (h,)
        return out
    if kind == CellKind.T_MR:
        return {"W": (h, d), "b": (h,), "c": (h,)}
    if kind == CellKind.SCRN_STATE:
        return {"alpha": (), "W_s": (h, d)}
    raise ValueError(f"unknown cell kind {kind!r}")


@dataclass
class CellParams:
    """Parameters of one cell layer. ``tensors`` preserves canonical order."""

    kind: CellKind
    input_dim: int
    hidden_dim: int
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def num_params(self) -> int:
        return int(sum(t.size for t in self.tensors.values()))

    def copy(self) -> "CellParams":
        return CellParams(
            self.kind,
            self.input_dim,
            self.hidden_dim,
            {k: v.copy() for k, v in self.tensors.items()},
        )


def init_params(
    kind: CellKind,
    input_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    scheme: str = "uniform008",
) -> CellParams:
    """Initialize cell parameters.

    ``uniform008`` draws every matrix from U(-0.08, 0.08) and zeroes biases.
    ``identity`` (classical RNN only) sets the recurrent matrix to I instead.
    Exceptions to the uniform rule: the T-MR multiplicative memory vector b
    starts at 1 (identity memory) and the SCRN leak alpha at 0.95, both of
    which are ordinary trainable tensors afterwards.
    """
    kind = CellKind(kind)
    if scheme not in ("uniform008", "identity"):
        raise ValueError(f"unknown init scheme {scheme!r}")
    if scheme == "identity" and kind != CellKind.RNN:
        raise ValueError("identity init only applies to the classical rnn")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(kind, input_dim, hidden_dim).items():
        if kind == CellKind.T_MR and name == "b":
            tensors[name] = np.ones(shape)
        elif kind == CellKind.SCRN_STATE and name == "alpha":
            tensors[name] = np.array(0.95)
        elif len(shape) == 2:
            if scheme == "identity" and name == "V":
                tensors[name] = np.eye(hidden_dim)
            else:
                tensors[name] = rng.uniform(-0.08, 0.08, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return CellParams(kind, input_dim, hidden_dim, tensors)


def scrn_state_step(params: CellParams, s_prev, x_t):
    """One SCRN context-layer step; alpha must lie strictly inside (0, 1)."""
    alpha = float(params["alpha"])
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"scrn alpha must lie in (0, 1), got {alpha}")
    W_s = params["W_s"]
    if np.shape(x_t)[-1] != W_s.shape[1]:
        raise ShapeError(
            f"affine input has dim {np.shape(x_t)[-1]}, matrix expects {W_s.shape[1]}"
        )
    return alpha * s_prev + (1.0 - alpha) * (x_t @ W_s.T)


# ---------------------------------------------------------------------------
# Batched sequence forward with tape
# ---------------------------------------------------------------------------


@dataclass
class LayerTape:
    """Everything the backward pass needs from one layer's forward sweep.

    Arrays are time-major. ``H`` and ``C`` have T+1 rows including the initial
    state; gate arrays have T rows. ``X`` is the (possibly dropout-masked)
    input the W-side matrices saw. ``XX`` is the block the stacked learnware
    of a scan cell multiplied: ``X`` itself for T-RNN, and for T-LSTM / T-GRU
    the undropped previous input beside ``X``. The scanned state is ``C`` for
    T-LSTM and ``H`` for every other kind; ``Z``, ``F`` and ``O`` of a scan
    cell are views of its one learnware product.
    """

    kind: CellKind
    X: np.ndarray
    H: np.ndarray | None = None
    C: np.ndarray | None = None
    XX: np.ndarray | None = None
    xp_last: np.ndarray | None = None
    F: np.ndarray | None = None
    Z: np.ndarray | None = None
    O: np.ndarray | None = None
    G: np.ndarray | None = None
    M: np.ndarray | None = None
    TC: np.ndarray | None = None


def _seq_aff(X: np.ndarray, m: np.ndarray) -> np.ndarray:
    T, B, d = X.shape
    if d != m.shape[1]:
        raise ShapeError(
            f"affine input has dim {d}, matrix expects {m.shape[1]}"
        )
    return (X.reshape(T * B, d) @ m.T).reshape(T, B, m.shape[0])


def stacked_learnware(params: CellParams) -> tuple[np.ndarray, np.ndarray]:
    """Learned matrices of a T-cell fused into one block.

    For T-LSTM / T-GRU returns U of shape (3h, 2d) whose rows are the z, f, o
    blocks and whose columns split into the V (previous-input) and W
    (current-input) halves, plus the stacked bias (3h,). For T-RNN the block
    is (2h, d) over [W; V] with a zero bias on the z half (z carries no
    bias). One matrix multiply against the stacked inputs then evaluates the
    whole learnware.
    """
    if params.kind == CellKind.T_RNN:
        U = np.concatenate([params["W"], params["V"]], axis=0)
        bias = np.concatenate([np.zeros(params.hidden_dim), params["b"]])
        return U, bias
    if params.kind not in T_CELL_KINDS:
        raise ValueError(f"no stacked learnware for kind {params.kind!r}")
    U = np.concatenate(
        [
            np.concatenate([params[f"V_{g}"], params[f"W_{g}"]], axis=1)
            for g in ("z", "f", "o")
        ],
        axis=0,
    )
    bias = np.concatenate([params[f"b_{g}"] for g in ("z", "f", "o")])
    return U, bias


def _zeros_state(B: int, h: int, like: np.ndarray | None) -> np.ndarray:
    if like is None:
        return np.zeros((B, h))
    out = np.asarray(like, dtype=np.float64)
    if out.shape != (B, h):
        raise ShapeError(f"carried state has shape {out.shape}, expected {(B, h)}")
    return out


def sequence_forward(
    params: CellParams,
    X: np.ndarray,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
    x_prev_src: np.ndarray | None = None,
    xp0: np.ndarray | None = None,
) -> tuple[np.ndarray, LayerTape]:
    """Run one layer over a (T, B, input_dim) batch; returns (outputs, tape).

    ``x_prev_src`` is the sequence the V-side of T-LSTM / T-GRU reads at t-1
    (defaults to ``X``; differs when dropout masks the W-side input). ``xp0``
    is the previous-window input at the left boundary (zeros by default).
    For T-RNN, T-LSTM and T-GRU all learnable products are one matrix
    multiply; only the coordinatewise scan is sequential.
    """
    kind = params.kind
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ShapeError(f"sequence input must be (T, B, d), got {X.shape}")
    T, B, _ = X.shape
    hdim = params.hidden_dim

    if kind in SCAN_KINDS:
        d = params.input_dim
        if X.shape[2] != d:
            raise ShapeError(f"input has dim {X.shape[2]}, cell expects {d}")
        if kind == CellKind.T_RNN:
            XX, xp_last = X, None
        else:
            src = X if x_prev_src is None else np.asarray(x_prev_src, dtype=np.float64)
            if src.shape != X.shape:
                raise ShapeError(
                    f"x_prev_src has shape {src.shape}, input has {X.shape}"
                )
            XX = np.empty((T, B, 2 * d))
            XX[0, :, :d] = 0.0 if xp0 is None else np.asarray(xp0, dtype=np.float64)
            XX[1:, :, :d] = src[:-1]
            XX[:, :, d:] = X
            xp_last = src[-1].copy()
        U, bias = stacked_learnware(params)
        P = XX.reshape(T * B, -1) @ U.T
        P += bias
        P = P.reshape(T, B, -1)
        Z = P[..., :hdim]
        F = sigmoid(P[..., hdim : 2 * hdim], out=P[..., hdim : 2 * hdim])
        O = None
        if kind in T_CELL_KINDS:
            O = np.tanh(P[..., 2 * hdim :], out=P[..., 2 * hdim :])
        if kind == CellKind.T_GRU:
            A = Z * O
        else:
            A = 1.0 - F
            A *= Z
        S = np.empty((T + 1, B, hdim))
        S[0] = _zeros_state(B, hdim, c0 if kind == CellKind.T_LSTM else h0)
        for t in range(T):
            np.multiply(F[t], S[t], out=S[t + 1])
            S[t + 1] += A[t]
        tape = LayerTape(kind, X, XX=XX, xp_last=xp_last, F=F, Z=Z, O=O)
        if kind == CellKind.T_LSTM:
            tape.C = S
            return S[1:] * O, tape
        tape.H = S
        return S[1:], tape

    if kind == CellKind.RNN:
        pre_in = _seq_aff(X, params["W"]) + params["b"]
        V = params["V"]
        H = np.empty((T + 1, B, hdim))
        H[0] = _zeros_state(B, hdim, h0)
        for t in range(T):
            H[t + 1] = np.tanh(H[t] @ V.T + pre_in[t])
        return H[1:], LayerTape(kind, X, H=H)

    if kind == CellKind.LSTM:
        pz = _seq_aff(X, params["W_z"]) + params["b_z"]
        pf = _seq_aff(X, params["W_f"]) + params["b_f"]
        po = _seq_aff(X, params["W_o"]) + params["b_o"]
        Vz, Vf, Vo = params["V_z"], params["V_f"], params["V_o"]
        H = np.empty((T + 1, B, hdim))
        C = np.empty((T + 1, B, hdim))
        Z = np.empty((T, B, hdim))
        F = np.empty((T, B, hdim))
        O = np.empty((T, B, hdim))
        TC = np.empty((T, B, hdim))
        H[0] = _zeros_state(B, hdim, h0)
        C[0] = _zeros_state(B, hdim, c0)
        for t in range(T):
            Z[t] = np.tanh(H[t] @ Vz.T + pz[t])
            F[t] = sigmoid(H[t] @ Vf.T + pf[t])
            O[t] = np.tanh(H[t] @ Vo.T + po[t])
            C[t + 1] = F[t] * C[t] + (1.0 - F[t]) * Z[t]
            TC[t] = np.tanh(C[t + 1])
            H[t + 1] = TC[t] * O[t]
        return H[1:], LayerTape(kind, X, H=H, C=C, F=F, Z=Z, O=O, TC=TC)

    if kind == CellKind.GRU:
        pz = _seq_aff(X, params["W_z"]) + params["b_z"]
        pf = _seq_aff(X, params["W_f"]) + params["b_f"]
        po = _seq_aff(X, params["W_o"]) + params["b_o"]
        Vz, Vf, Vo = params["V_z"], params["V_f"], params["V_o"]
        H = np.empty((T + 1, B, hdim))
        Z = np.empty((T, B, hdim))
        F = np.empty((T, B, hdim))
        O = np.empty((T, B, hdim))
        G = np.empty((T, B, hdim))
        H[0] = _zeros_state(B, hdim, h0)
        for t in range(T):
            Z[t] = sigmoid(H[t] @ Vz.T + pz[t])
            F[t] = sigmoid(H[t] @ Vf.T + pf[t])
            G[t] = Z[t] * H[t]
            O[t] = np.tanh(G[t] @ Vo.T + po[t])
            H[t + 1] = F[t] * H[t] + (1.0 - F[t]) * O[t]
        return H[1:], LayerTape(kind, X, H=H, F=F, Z=Z, O=O, G=G)

    if kind == CellKind.T_MR:
        pre_in = _seq_aff(X, params["W"]) + params["c"]
        b = params["b"]
        H = np.empty((T + 1, B, hdim))
        M = np.empty((T, B, hdim), dtype=bool)
        H[0] = _zeros_state(B, hdim, h0)
        for t in range(T):
            pre = b * H[t] + pre_in[t]
            M[t] = pre > 0.0
            H[t + 1] = np.maximum(pre, 0.0)
        return H[1:], LayerTape(kind, X, H=H, M=M)

    raise ValueError(f"sequence_forward does not handle kind {kind!r}")


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------


@dataclass
class LayerCarry:
    """State carried across window boundaries for one layer."""

    h: np.ndarray | None = None
    c: np.ndarray | None = None
    x_prev: np.ndarray | None = None


@dataclass
class StackTape:
    """Per-layer tapes plus the dropout masks applied between layers.

    ``masks[l]`` multiplied layer l's input; it is None for l = 0 (dropout is
    never applied to the raw model input) and when dropout is off. Sources for
    the V-side of T-cells are kept unmasked inside each layer tape.
    """

    layer_tapes: list[LayerTape] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)


def stack_forward(
    layers: list[CellParams],
    X: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    carry: list[LayerCarry] | None = None,
) -> tuple[list[np.ndarray], StackTape]:
    """Run a stack of layers over a (T, B, d) batch.

    Returns the raw per-layer output sequences (undropped) and a tape. With
    dropout p > 0, layer l >= 1 reads an inverted-dropout masked copy of layer
    l-1's output on its learnable W-side, while the x_prev stream of T-LSTM /
    T-GRU always reads the unmasked layer l-1 output at t-1 (the recurrent
    path is never masked). ``carry`` supplies initial h / c / previous-window
    input per layer; zeros by default.
    """
    if not layers:
        raise ValueError("stack needs at least one layer")
    for p in layers:
        if p.kind not in TRAINABLE_KINDS:
            raise ValueError(f"cell kind {p.kind.value!r} cannot be stacked")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout > 0 requires an rng")
    if carry is None:
        carry = [LayerCarry() for _ in layers]
    if len(carry) != len(layers):
        raise ValueError("carry must have one entry per layer")

    tape = StackTape()
    outputs: list[np.ndarray] = []
    inp = np.asarray(X, dtype=np.float64)
    raw_inp = inp
    for l, params in enumerate(layers):
        mask = None
        if dropout > 0.0 and l > 0:
            keep = 1.0 - dropout
            mask = (rng.random(inp.shape) < keep) / keep
            inp = inp * mask
        cr = carry[l]
        out, ltape = sequence_forward(
            params,
            inp,
            h0=cr.h,
            c0=cr.c,
            x_prev_src=raw_inp if params.kind in T_CELL_KINDS else None,
            xp0=cr.x_prev,
        )
        tape.masks.append(mask)
        tape.layer_tapes.append(ltape)
        outputs.append(out)
        raw_inp = out
        inp = out
    return outputs, tape


def stack_carry_out(layers: list[CellParams], tape: StackTape) -> list[LayerCarry]:
    """Final h / c / last-raw-input per layer, for the next training window.

    T-LSTM carries no h (its recurrence runs through c only; h = c (*) o is
    pure output). T-cells carry the last raw (unmasked) input of the window
    so the first step of the next window sees the true x_{t-1}.
    """
    out: list[LayerCarry] = []
    for params, ltape in zip(layers, tape.layer_tapes):
        h = None if ltape.H is None else ltape.H[-1].copy()
        c = None if ltape.C is None else ltape.C[-1].copy()
        xp = ltape.xp_last if params.kind in T_CELL_KINDS else None
        out.append(LayerCarry(h=h, c=c, x_prev=xp))
    return out
