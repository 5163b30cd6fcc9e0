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

Every cell kind is a trainable layer (``TRAINABLE_KINDS``). The SCRN
context step, s' = alpha * s + (1 - alpha) * (W_s x_t) with alpha a scalar in
(0, 1), is no layer: ``scrn_state_step`` is a plain function of its two
parameters, the native reference for the ``scrn_state`` cell description.

Every cell splits into stateless learnware and state-dependent
firmware, each one block per layer; the named tensors are views of the
blocks, laid out by ``tensor_views``. That layout is written once: a new
``CellParams`` is made from it, ``param_shapes`` reads its shapes, and the
backward pass lays out its gradients with it. The learnware
(``CellParams.U`` and ``.bias``) is every matrix and bias that reads only
the input, multiplied in one product with the whole window's inputs:
``[x_{t-1}; x_t]`` for T-LSTM and T-GRU, ``x_t`` for every other kind. The
firmware block ``CellParams.V`` holds what touches the state: the classical
cells' recurrent matrices and T-MR's memory vector b. The typed scan cells'
firmware has no parameters.

The product is gate-major: a (gates, T*B, h) array whose block i holds gate
i's pre-activations for every row, made by one batched matmul over the
block's gate rows (``_affine_rows``). So every gate the firmware reads, a
whole window's F or one step's row of it, is one contiguous array; numpy
runs an elementwise op over a strided column view of a row-major product
about twice as slowly, through buffers. One row's row layout already is
its gate-major layout, so a one-row product stays one np.dot, which is
faster there than the batched matmul.

For T-RNN, T-LSTM and T-GRU the product maps coordinatewise to a forget gate
F and an increment A, and the firmware is one diagonal linear scan, the same
for all three kinds:

    s_t = f_t (*) s_{t-1} + a_t

    T-RNN    a = (1 - f) (*) z      s = h, output s
    T-LSTM   a = (1 - f) (*) z      s = c, output s (*) o
    T-GRU    a = z (*) o            s = h, output s

``sequence_forward`` runs a whole time-major batch (T, B, d) this way and
records a tape for the hand-written backward pass in ``autodiff``, which runs
the same scan in reverse. The classical cells and T-MR, whose state passes
through a matrix or a relu, run one loop instead: each step adds the
recurrent term into its rows of the same product and squashes them there
(``_recurrent_step``). So for every kind the product is the tape: its blocks
are the gates the backward pass reads (for RNN and T-MR, the
pre-activation). ``stack_forward`` runs a multi-layer stack with dropout
applied only on vertical connections between layers, never on the recurrent
path and never on the raw model input. The DSL interpreter (``dsl.interp``)
is the independent per-step reference for every update rule above.

What outlives a call is said once per layer, in a ``LayerState``: the
firmware state (h, c for LSTM and T-LSTM, and x_prev for T-LSTM / T-GRU),
zero when new. It is the one carrier of state across a window boundary:
``sequence_forward`` checks its shapes against the layer, reads it as the
window's initial state and writes the window's final state back into it at
its one exit, and ``stack_forward`` hands each layer its own, so training
and evaluation carry it from window to window. ``stack_step`` is the
firmware-only half of the learnware / firmware split, for generation: it
advances the same states by one token with no tape. A step is one product of
the layer's input row ([x_prev; x] for T-LSTM / T-GRU) with ``U``, the same
``_affine_rows`` call as a one-token window's, then either the gate map and
``s *= f; s += a`` in place, or one ``_recurrent_step`` that writes h (and
the LSTM's c) in place. The gate map and ``_recurrent_step`` are helpers
that ``sequence_forward`` calls too, so each update rule is written once and
a one-token step gives the bits of a one-token ``stack_forward``.

Everything else is working memory, and it all comes from a ``Workspace``
(``ws=``): the trainer and ``evaluate`` pass one, so a window reuses the
memory of the last one instead of mapping fresh pages; a call given none
makes its own. The tape, outputs and gradients are views of the workspace,
valid until its next use.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .linalg import ShapeError, sigmoid


class CellKind(str, Enum):
    RNN = "rnn"
    LSTM = "lstm"
    GRU = "gru"
    T_RNN = "t_rnn"
    T_LSTM = "t_lstm"
    T_GRU = "t_gru"
    T_MR = "t_mr"


#: Kinds that can be trained as language-model layers: every kind.
TRAINABLE_KINDS = tuple(CellKind)

#: Kinds whose step consumes the previous raw input x_{t-1}.
T_CELL_KINDS = (CellKind.T_LSTM, CellKind.T_GRU)

#: Kinds run as one learnware product followed by one diagonal scan.
SCAN_KINDS = (CellKind.T_RNN, CellKind.T_LSTM, CellKind.T_GRU)


def param_shapes(kind: CellKind, input_dim: int, hidden_dim: int) -> dict[str, tuple]:
    """Tensor names and shapes for a cell, in canonical (serialization) order,
    read off read-only zero-stride blocks (nothing of their size is made)."""
    tensors = _new_tensors(CellKind(kind), input_dim, hidden_dim, _no_memory)[-1]
    return {name: t.shape for name, t in tensors.items()}


def _no_memory(shape: tuple) -> np.ndarray:
    return np.ndarray(shape, buffer=bytes(8), strides=(0,) * len(shape))


@dataclass
class CellParams:
    """Parameters of one cell layer. ``tensors`` preserves canonical order.

    The constructor makes the kind's blocks, the learnware ``U`` with bias
    ``bias`` and the firmware ``V`` (None for the typed scan kinds), checks
    the given tensors' names and shapes against the named views of them
    (``tensor_views``; a ShapeError names a wrong, missing or extra tensor)
    and copies every given tensor into its view, so each block entry is
    written once: T-RNN's z bias half, which no tensor views, is zeroed. So
    ``tensors`` holds views of the blocks: update them in place.
    """

    kind: CellKind
    input_dim: int
    hidden_dim: int
    tensors: dict[str, np.ndarray]
    U: np.ndarray = field(init=False, repr=False, compare=False)
    bias: np.ndarray = field(init=False, repr=False, compare=False)
    V: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.kind = CellKind(self.kind)
        U, bias, V, tensors = _new_tensors(
            self.kind, self.input_dim, self.hidden_dim, np.empty
        )
        if self.kind == CellKind.T_RNN:
            bias[: self.hidden_dim] = 0.0  # z carries no bias
        for name in {**tensors, **self.tensors}:
            if name not in self.tensors:
                raise ShapeError(f"{self.kind.value} cell is missing tensor {name}")
            if name not in tensors:
                raise ShapeError(f"{self.kind.value} cell has no tensor {name}")
            if np.shape(self.tensors[name]) != tensors[name].shape:
                raise ShapeError(
                    f"{name} has shape {np.shape(self.tensors[name])}, "
                    f"expected {tensors[name].shape}"
                )
            tensors[name][...] = self.tensors[name]
        self.U, self.bias, self.V, self.tensors = U, bias, V, tensors

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def copy(self) -> "CellParams":
        return CellParams(self.kind, self.input_dim, self.hidden_dim, self.tensors)


#: Rows of a layer's learnware block, in units of the hidden size.
_LEARNWARE_ROWS = {
    CellKind.RNN: 1,
    CellKind.T_MR: 1,
    CellKind.T_RNN: 2,
    CellKind.LSTM: 3,
    CellKind.GRU: 3,
    CellKind.T_LSTM: 3,
    CellKind.T_GRU: 3,
}


def _new_tensors(kind: CellKind, input_dim: int, hidden_dim: int, make) -> tuple:
    """New blocks ``(U, bias, V)`` of a kind, each ``make(shape)``, and its named
    views (``tensor_views``)."""
    d, h = input_dim, hidden_dim
    rows = _LEARNWARE_ROWS[kind] * h
    U = make((rows, (2 if kind in T_CELL_KINDS else 1) * d))
    bias = make((rows,))
    if kind == CellKind.T_MR:
        V = make((h,))
    else:  # one recurrent matrix per gate, none for a scan
        V = None if kind in SCAN_KINDS else make((rows, h))
    return U, bias, V, tensor_views(kind, U, bias, V, d)


def tensor_views(
    kind: CellKind, U: np.ndarray, bias: np.ndarray, V: np.ndarray | None, input_dim: int
) -> dict[str, np.ndarray]:
    """Every named tensor of a trainable kind as a view of its layer's blocks
    (or of the gradients on them).

    Learnware: RNN: U is W, bias is b. T-MR: U is W, bias is c. LSTM / GRU: U
    is (3h, d), rows W_z, W_f, W_o; bias is [b_z; b_f; b_o]. T-LSTM / T-GRU:
    U is (3h, 2d), rows z, f, o and columns [V | W] (previous input, current
    input); bias is (3h,). T-RNN: U is (2h, d) over [W; V]; bias is (2h,),
    and its z half is no tensor's (z carries no bias).

    Firmware: RNN: V is V. LSTM / GRU: V is (3h, h), rows V_z, V_f, V_o.
    T-MR: V is b. T-RNN, T-LSTM and T-GRU: V is None.
    """
    h, d = U.shape[0] // _LEARNWARE_ROWS[kind], input_dim
    if kind == CellKind.RNN:
        return {"V": V, "W": U, "b": bias}
    if kind == CellKind.T_MR:
        return {"W": U, "b": V, "c": bias}
    if kind == CellKind.T_RNN:
        return {"W": U[:h], "V": U[h:], "b": bias[h:]}
    views = {}
    for i, g in enumerate(("z", "f", "o")):
        rows = slice(i * h, (i + 1) * h)
        if kind in T_CELL_KINDS:
            views[f"V_{g}"] = U[rows, :d]
            views[f"W_{g}"] = U[rows, d:]
        else:
            views[f"V_{g}"] = V[rows]
            views[f"W_{g}"] = U[rows]
        views[f"b_{g}"] = bias[rows]
    return views


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
    The one exception to the uniform rule: the T-MR multiplicative memory
    vector b starts at 1 (identity memory), an ordinary trainable tensor
    afterwards.
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
        elif len(shape) == 2:
            if scheme == "identity" and name == "V":
                tensors[name] = np.eye(hidden_dim)
            else:
                tensors[name] = rng.uniform(-0.08, 0.08, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return CellParams(kind, input_dim, hidden_dim, tensors)


def scrn_state_step(alpha, W_s: np.ndarray, s_prev, x_t):
    """One SCRN context-layer step, alpha * s_prev + (1 - alpha) * (W_s x_t);
    the scalar leak alpha must lie strictly inside (0, 1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"scrn alpha must lie in (0, 1), got {alpha}")
    if np.shape(x_t)[-1] != W_s.shape[1]:
        raise ShapeError(
            f"affine input has dim {np.shape(x_t)[-1]}, matrix expects {W_s.shape[1]}"
        )
    return alpha * s_prev + (1.0 - alpha) * (x_t @ W_s.T)


# ---------------------------------------------------------------------------
# Working memory
# ---------------------------------------------------------------------------


class Workspace:
    """Grow-only buffers reused across calls, looked up by key.

    ``get(key, shape)`` returns a C-contiguous view of the requested shape
    into one flat buffer per key (float64 unless ``dtype`` says otherwise).
    A buffer grows when a larger shape is asked for and never shrinks, so one
    key serves layers of different widths and windows of different sizes.
    The contents are whatever the last user left: callers overwrite or zero.

    ``layer(l)`` is layer l's view of the same memory. Its ``own`` keys are
    private to the layer, for what outlives the layer's call: the forward
    tape, which the backward pass reads, and the parameter gradients. Its
    ``get`` keys are shared by all layers, for scratch that is dead when the
    call returns, so a deeper stack needs no more of it. The input gradient
    a layer passes down lives in one of two shared buffers chosen by the
    parity of ``index``, so no layer writes the array it reads.

    Lifetime: an array returned or recorded by a call that was given a
    workspace (outputs, tapes, gradients) is valid until the next call with
    that workspace. A call given none makes a private one, so what two such
    calls return shares no memory. State written into a ``LayerState`` is
    always a copy.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self._scope = ""
        self.index = 0

    def layer(self, index: int) -> "Workspace":
        view = Workspace()
        view._bufs, view._scope, view.index = self._bufs, f"layer{index}.", index
        return view

    def get(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = self._bufs[key] = np.empty(n, dtype)
        return buf[:n].reshape(shape)

    def own(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        return self.get(self._scope + key, shape, dtype)


def dropout_mask(
    rng: np.random.Generator, dropout: float, out: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Fill ``out`` with the inverted-dropout mask ``(u < keep) / keep`` of
    uniform draws u, the same draws as ``rng.random(out.shape)``."""
    keep = 1.0 - dropout
    rng.random(out=out)
    kept = np.less(out, keep, out=ws.get("kept", out.shape, bool))
    return np.divide(kept, keep, out=out)


# ---------------------------------------------------------------------------
# Batched sequence forward with tape
# ---------------------------------------------------------------------------


@dataclass
class LayerTape:
    """Everything the backward pass needs from one layer's forward sweep.

    Arrays are time-major. ``H`` and ``C`` have T+1 rows including the initial
    state; gate arrays have T rows. ``XX`` is the block the stacked learnware
    multiplied: the input times ``mask`` (the dropout mask, None when off),
    and for T-LSTM / T-GRU the raw previous input beside it.
    The scanned state is ``C`` for T-LSTM and ``H`` for every other kind.
    ``Z``, ``F`` and ``O`` are the blocks of the layer's one gate-major
    learnware product, squashed in place into the gates (None past the last
    block; for RNN and T-MR, ``Z`` is the pre-activation). ``TC`` is the
    LSTM's tanh(c') and ``G`` the GRU's z (*) h. The layer input ``X`` is
    accepted but not kept: the backward pass reads ``XX``.
    """

    kind: CellKind
    X: InitVar[np.ndarray | None] = None
    H: np.ndarray | None = None
    C: np.ndarray | None = None
    XX: np.ndarray | None = None
    mask: np.ndarray | None = None
    F: np.ndarray | None = None
    Z: np.ndarray | None = None
    O: np.ndarray | None = None
    G: np.ndarray | None = None
    TC: np.ndarray | None = None


def _affine_rows(
    X: np.ndarray, m: np.ndarray, bias: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``X @ m.T + bias`` for the rows of a 2-d ``X``, computed gate-major
    into ``out`` of shape (gates, rows, h): ``out[i]`` is the product with
    gate i's block of rows of ``m``, one contiguous array per gate.

    Many rows take one batched matmul over the gate blocks. One row, whose
    row layout already is its gate-major layout, takes one np.dot into the
    flat row, because with ``out`` it costs less than matmul on
    ``stack_step``'s one-row products.
    """
    g, n, h = out.shape
    if n == 1:
        np.dot(X, m.T, out=out.reshape(1, -1))
    else:
        np.matmul(X, m.reshape(g, h, -1).transpose(0, 2, 1), out=out)
    out += bias.reshape(g, 1, h)
    return out


# The update rules, written once. ``sequence_forward`` applies them to every
# step of a window and ``stack_step`` to one token; both pass the same
# operand shapes for one row, so the two paths give the same bits.


def _gate_views(P: np.ndarray) -> tuple:
    """Z, F and O of a gate-major product P, None past its last block (the
    one block of RNN and T-MR, their pre-activation, comes back as Z)."""
    return (*P, None, None)[:3]


def _gate_map(kind: CellKind, Z, F, O, A: np.ndarray) -> None:
    """A scan cell's coordinatewise map, in place: F through the sigmoid, O
    through tanh, and the increment into A."""
    sigmoid(F, out=F)
    if O is not None:
        np.tanh(O, out=O)
    if kind == CellKind.T_GRU:
        np.multiply(Z, O, out=A)
    else:
        np.subtract(1.0, F, out=A)
        A *= Z


def _recurrent_step(kind: CellKind, V, p, h, c, h_out, c_out, aux) -> None:
    """One step of a classical cell or T-MR, in place. The recurrent term is
    added into the step's (gates, B, h) product rows ``p`` and they are
    squashed there, so ``p`` becomes the step's gates (the one block of RNN
    and T-MR, its pre-activation). h' goes into ``h_out``, the LSTM's c'
    into ``c_out``, and the row the backward pass reads into ``aux``:
    tanh(c') for the LSTM, z (*) h for the GRU. ``h_out`` and ``c_out`` may
    be ``h`` and ``c``."""
    n = h.shape[1]
    if kind == CellKind.RNN:
        pre = p[0]
        pre += h @ V.T
        np.tanh(pre, out=h_out)
    elif kind == CellKind.T_MR:
        pre = p[0]
        pre += V * h
        np.maximum(pre, 0.0, out=h_out)
    elif kind == CellKind.LSTM:
        p += np.matmul(h, V.reshape(3, n, n).transpose(0, 2, 1))
        z, f, o = p
        np.tanh(z, out=z)
        sigmoid(f, out=f)
        np.tanh(o, out=o)
        np.subtract(1.0, f, out=aux)
        aux *= z
        np.multiply(f, c, out=c_out)
        c_out += aux
        np.tanh(c_out, out=aux)
        np.multiply(aux, o, out=h_out)
    else:  # GRU: o reads z (*) h, so only z and f batch
        z, f, o = p
        zf = p[:2]
        zf += np.matmul(h, V[: 2 * n].reshape(2, n, n).transpose(0, 2, 1))
        sigmoid(z, out=z)
        sigmoid(f, out=f)
        np.multiply(z, h, out=aux)
        o += aux @ V[2 * n :].T
        np.tanh(o, out=o)
        inc = np.subtract(1.0, f)
        inc *= o
        np.multiply(f, h, out=h_out)
        h_out += inc


def sequence_forward(
    params: CellParams,
    X: np.ndarray,
    state: LayerState | None = None,
    mask: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, LayerTape]:
    """Run one layer over a (T, B, input_dim) batch; returns (outputs, tape).

    ``state`` (a ``LayerState`` for B streams; zero when not given) is the
    window's initial state, and the window's final h, c and last raw input
    are written back into it, in place, for the next window.
    ``mask`` (X's shape, or None) is the dropout mask on the input, which the
    tape records. It multiplies only the W-side x_t: the V-side of T-LSTM /
    T-GRU reads the raw x_{t-1}, since the recurrent path is never masked.
    Every kind's input side is one matrix multiply over the whole window;
    for T-RNN, T-LSTM and T-GRU it is the only one, and only the
    coordinatewise scan is sequential. With ``ws`` (a
    ``Workspace.layer`` view) the outputs and tape live in the workspace.
    """
    kind = params.kind
    ws = Workspace() if ws is None else ws
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ShapeError(f"sequence input must be (T, B, d), got {X.shape}")
    T, B, d = X.shape
    if d != params.input_dim:
        raise ShapeError(f"input has dim {d}, cell expects {params.input_dim}")
    if T == 0 or B == 0:
        raise ShapeError(f"sequence input {X.shape} is an empty window")
    hdim = params.hidden_dim
    seq = (T, B, hdim)
    state = LayerState(params, B) if state is None else state
    for name, want in _state_shapes(params, B).items():
        got = getattr(getattr(state, name), "shape", None)  # None: no such array
        if got != want:
            raise ShapeError(f"carried state {name} has shape {got}, expected {want}")

    if mask is not None and mask.shape != X.shape:
        raise ShapeError(f"mask has shape {mask.shape}, input has {X.shape}")
    XX = X if mask is None else np.multiply(X, mask, out=ws.own("in", X.shape))
    if kind in T_CELL_KINDS:
        rows = ws.own("XX", (T, B, 2 * d))
        rows[0, :, :d] = state.xx[:, d:]
        rows[1:, :, :d] = X[:-1]
        rows[:, :, d:] = XX
        XX = rows
    # The one input-side product, gate-major. Its blocks become the gates,
    # so it is every kind's tape.
    P = _affine_rows(
        XX.reshape(T * B, -1), params.U, params.bias,
        ws.own("P", (_LEARNWARE_ROWS[kind], T * B, hdim)),
    ).reshape(-1, T, B, hdim)
    tape = LayerTape(kind, XX=XX, mask=mask)
    tape.Z, tape.F, tape.O = Z, F, O = _gate_views(P)

    if kind in SCAN_KINDS:
        A = ws.get("A", seq)
        _gate_map(kind, Z, F, O, A)
        S = ws.own("S", (T + 1, B, hdim))
        S[0] = state.c if kind == CellKind.T_LSTM else state.h
        for t in range(T):
            np.multiply(F[t], S[t], out=S[t + 1])
            S[t + 1] += A[t]
        if kind == CellKind.T_LSTM:
            tape.C = S
            out = np.multiply(S[1:], O, out=ws.own("out", seq))
        else:
            tape.H, out = S, S[1:]
    else:
        tape.H = H = ws.own("H", (T + 1, B, hdim))
        H[0] = state.h
        C = aux = [None] * (T + 1)  # no cell state and no backward row
        if kind == CellKind.LSTM:
            tape.C = C = ws.own("C", (T + 1, B, hdim))
            C[0] = state.c
            tape.TC = aux = ws.own("TC", seq)
        elif kind == CellKind.GRU:
            tape.G = aux = ws.own("G", seq)
        for t in range(T):
            _recurrent_step(kind, params.V, P[:, t], H[t], C[t], H[t + 1], C[t + 1], aux[t])
        out = H[1:]

    state.h[...] = out[-1]
    if state.c is not None:
        state.c[...] = tape.C[-1]
    if state.xx is not None:
        state.xx[:, d:] = X[-1]
    return out, tape


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------


class LayerState:
    """One layer's firmware state, carried from window to window by
    ``sequence_forward`` and from token to token by ``stack_step``. A new one
    is the zero state of a batch of ``batch`` streams.

    ``h`` is the layer's last output (for T-LSTM, c (*) o); ``c`` the cell
    state of LSTM and T-LSTM, None for every other kind; for T-LSTM and T-GRU
    ``xx`` is the learnware input row [x_prev | x], whose right half holds
    the previous raw input between calls (None for every other kind);
    ``sequence_forward`` writes into these in place. The rows a step overwrites
    are made with the state: the gate-major input-side product ``p`` of
    shape (gates, batch, h), whose blocks are the gates (``gates``), and
    ``a``, the increment of the scan kinds, the LSTM's tanh(c') and the
    GRU's z (*) h. A step writes ``h`` and ``c`` in place, as a window does.
    """

    def __init__(self, params: CellParams, batch: int = 1) -> None:
        kind, h = params.kind, params.hidden_dim
        shapes = _state_shapes(params, batch).values()
        self.h, self.c, self.xx = (None if s is None else np.zeros(s) for s in shapes)
        self.p = np.empty((_LEARNWARE_ROWS[kind], batch, h))
        self.gates = _gate_views(self.p)
        self.a = np.empty((batch, h))


def _state_shapes(params: CellParams, batch: int) -> dict[str, tuple | None]:
    """The shapes of a layer's carried ``h``, ``c`` and ``xx`` for ``batch``
    streams, None where its kind carries no such array."""
    kind, h, d = params.kind, params.hidden_dim, params.input_dim
    return {
        "h": (batch, h),
        "c": (batch, h) if kind in (CellKind.LSTM, CellKind.T_LSTM) else None,
        "xx": (batch, 2 * d) if kind in T_CELL_KINDS else None,
    }


@dataclass
class StackTape:
    """Per-layer tapes plus the dropout masks applied between layers.

    ``masks[l]`` multiplied layer l's input; it is None for l = 0 (dropout is
    never applied to the raw model input) and when dropout is off. It is layer
    l's ``LayerTape.mask``, listed for callers that size a whole tape.
    """

    layer_tapes: list[LayerTape] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)


def stack_forward(
    layers: list[CellParams],
    X: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    state: list[LayerState] | None = None,
    ws: Workspace | None = None,
) -> tuple[list[np.ndarray], StackTape]:
    """Run a stack of layers over a (T, B, d) batch.

    Returns the raw per-layer output sequences (undropped) and a tape. With
    dropout p > 0, layer l >= 1 is handed an inverted-dropout mask for layer
    l-1's output, which ``sequence_forward`` applies where the layer's
    learnware reads its input. ``state`` (one ``LayerState`` per layer, for B
    streams) is handed layer by layer to ``sequence_forward``, which starts
    the window from it and leaves the window's final state in it; without it
    every layer starts from zeros. With ``ws`` the outputs, tape
    and masks live in the workspace (see ``Workspace`` for their lifetime).
    """
    if not layers:
        raise ValueError("stack needs at least one layer")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout > 0 requires an rng")
    if state is not None and len(state) != len(layers):
        raise ValueError("state must have one entry per layer")
    ws = Workspace() if ws is None else ws

    tape = StackTape()
    outputs: list[np.ndarray] = []
    inp = np.asarray(X, dtype=np.float64)
    for l, params in enumerate(layers):
        lws = ws.layer(l)
        mask = None
        if dropout > 0.0 and l > 0:
            mask = dropout_mask(rng, dropout, lws.own("mask", inp.shape), ws)
        inp, ltape = sequence_forward(
            params, inp, None if state is None else state[l], mask, ws=lws
        )
        tape.masks.append(mask)
        tape.layer_tapes.append(ltape)
        outputs.append(inp)
    return outputs, tape


# ---------------------------------------------------------------------------
# One-token firmware step
# ---------------------------------------------------------------------------


def stack_step(
    layers: list[CellParams], x: np.ndarray, state: list[LayerState]
) -> list[np.ndarray]:
    """Advance a stack by one token of (1, d) input ``x``, without a tape.

    ``state`` (one ``LayerState`` per layer) is updated in place. Returns
    each layer's (1, h) output row, which is its state's ``h``, so valid
    until the next step. The numbers
    are those of ``stack_forward`` over the same tokens, bit for bit.
    """
    outs = []
    for params, st in zip(layers, state):
        kind = params.kind
        if st.xx is not None:
            d = params.input_dim
            st.xx[:, :d] = st.xx[:, d:]
            st.xx[:, d:] = x
            x = st.xx
        _affine_rows(x, params.U, params.bias, st.p)
        if kind in SCAN_KINDS:
            Z, F, O = st.gates
            _gate_map(kind, Z, F, O, st.a)
            s = st.c if kind == CellKind.T_LSTM else st.h  # the scanned state
            s *= F
            s += st.a
            if kind == CellKind.T_LSTM:
                np.multiply(s, O, out=st.h)
        else:
            _recurrent_step(kind, params.V, st.p, st.h, st.c, st.h, st.c, st.a)
        x = st.h
        outs.append(x)
    return outs
