"""Hand-written backpropagation through time, with a finite-difference oracle.

Every cell's backward pass is derived by hand from the update rules in
``cells`` and consumes the tape recorded by ``sequence_forward``. Gradients
are exact reverse-mode derivatives of the float64 forward computation, which
is what the central-difference oracle ``finite_diff`` checks them against.

T-RNN, T-LSTM and T-GRU share one backward, the mirror of their shared
forward: one reverse scan ``G[t] = dS[t] + F[t] (*) G[t+1]`` for the gradient
on the scanned state, then one coordinatewise pass back through the gate maps.
The classical cells and T-MR keep their own reverse loops; T-MR reads its
relu's mask from its taped pre-activation ``Z``.
Every branch fills one stacked gradient ``DP`` on the input-side product,
laid out as the rows of the learnware block ``CellParams.U`` (the forward's
product is gate-major, so the gates it reads are contiguous; ``DP`` keeps
the row layout the tail's products read). The scan branch builds each
gate's gradient in contiguous scratch and writes it into its block of ``DP``
with its last product, so only that one pass per gate is strided. One shared
tail finishes every kind: one matrix multiply for the gradient on the block,
one sum for its bias, and one matrix multiply for the input gradient. The
branches compute the gradient on the firmware block ``CellParams.V``, and
every named gradient is a view of a block gradient, laid out by
``cells.tensor_views`` as the parameters are.

The backward passes take their memory from a ``cells.Workspace`` (``ws=``;
a call given none makes its own): they write parameter gradients into
per-layer buffers, reuse scratch (the reverse-scan gradient, ``DP``,
gate-derivative temporaries) shared by all layers, and pass the input
gradient down through two shared buffers in turn, so a layer never writes
the array it reads. ``input_grad=False`` skips the input gradient, which the
trainer does for layer 0 at char level. ``clip_global_norm`` squares each
gradient into one buffer of the same workspace.

Conventions: upstream gradients arrive per output step as dH (T, B, h);
``dh_final`` / ``dc_final`` inject gradient on the state carried out of the
window (used for Jacobian probes and window chaining). Gradients with respect
to inputs come back in two pieces for T-LSTM / T-GRU: ``dX`` for the W-side
sequence and ``dX_prev`` for the shifted V-side stream, because a dropout
mask may sit between the two views of the same lower-layer output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import (
    CellKind,
    CellParams,
    LayerTape,
    SCAN_KINDS,
    StackTape,
    T_CELL_KINDS,
    Workspace,
    sequence_forward,
    tensor_views,
)


@dataclass
class Grads:
    """Result of one backward sweep over a layer."""

    params: dict[str, np.ndarray]
    dX: np.ndarray | None
    dX_prev: np.ndarray | None = None
    dh0: np.ndarray | None = None
    dc0: np.ndarray | None = None


def _fold(D: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum of per-step outer products: (T,B,h),(T,B,d) -> (h,d), into ``out``."""
    T, B, h = D.shape
    return np.matmul(D.reshape(T * B, h).T, X.reshape(T * B, -1), out=out)


def _unfold(D: np.ndarray, M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Push per-step deltas through a matrix: (T,B,h) @ (h,d) -> (T,B,d),
    into ``out``."""
    T, B, h = D.shape
    np.matmul(D.reshape(T * B, h), M, out=out.reshape(T * B, M.shape[1]))
    return out


def sequence_backward(
    params: CellParams,
    tape: LayerTape,
    dH: np.ndarray,
    dh_final: np.ndarray | None = None,
    dc_final: np.ndarray | None = None,
    ws: Workspace | None = None,
    input_grad: bool = True,
) -> Grads:
    """Backward sweep of one layer. ``dH[t]`` is the upstream gradient on the
    layer's output at step t; gradients are truncated at the window boundary
    (nothing flows into the carried-in state except out through dh0 / dc0).

    With ``input_grad=False`` the input gradient is skipped and ``dX`` /
    ``dX_prev`` are None. With ``ws`` (a ``Workspace.layer`` view) the
    parameter gradients live in the layer's own buffers, the input gradient
    in the one of the two shared ones picked by ``ws.index``, and scratch in
    buffers every layer shares; ``dH`` must not be that input-gradient
    buffer.
    """
    kind = params.kind
    ws = Workspace() if ws is None else ws
    dH = np.asarray(dH, dtype=np.float64)
    T, B, h = dH.shape
    seq = (T, B, h)
    zero = np.zeros((B, h))
    gh = zero if dh_final is None else np.asarray(dh_final, dtype=np.float64)
    gc = zero if dc_final is None else np.asarray(dc_final, dtype=np.float64)
    # gradient on the input-side product, in the row layout of the block U
    DP = ws.get("DP", (T, B, params.U.shape[0]))
    dPz, dPf, dPo = (DP[..., i * h : (i + 1) * h] for i in range(3))
    tmp = ws.get("tmp", seq)
    V = params.V  # the firmware block; gV is the gradient on it
    gV = None if V is None else ws.own("gV", V.shape)

    if kind in SCAN_KINDS:
        F, Z, O = tape.F, tape.Z, tape.O
        lstm = kind == CellKind.T_LSTM
        S = tape.C if lstm else tape.H
        dS = np.multiply(dH, O, out=ws.get("dS", seq)) if lstm else dH
        G = ws.get("G", seq)  # gradient on s_t at each step
        g = (gc if lstm else gh).copy()
        for t in range(T - 1, -1, -1):
            np.add(dS[t], g, out=G[t])
            np.multiply(G[t], F[t], out=g)
        # Each gate's gradient is built in contiguous scratch (the forward's
        # increment, dead by now) and written into its block of DP by the
        # last product.
        dP = ws.get("A", seq)
        if kind == CellKind.T_GRU:
            np.multiply(G, O, out=dPz)
            np.multiply(G, S[:-1], out=dP)
        else:
            np.subtract(1.0, F, out=dP)
            np.multiply(dP, G, out=dPz)
            np.subtract(S[:-1], Z, out=dP)
            dP *= G
        dP *= F
        np.multiply(dP, np.subtract(1.0, F, out=tmp), out=dPf)
        if O is not None:
            if lstm:
                np.multiply(dH, S[1:], out=dP)
            else:
                np.multiply(G, Z, out=dP)
            np.multiply(O, O, out=tmp)
            np.multiply(dP, np.subtract(1.0, tmp, out=tmp), out=dPo)
        boundary = {"dc0": g} if lstm else {"dh0": g}

    elif kind == CellKind.RNN:
        H = tape.H
        g = gh
        for t in range(T - 1, -1, -1):
            g = dH[t] + g
            dp = g * (1.0 - H[t + 1] * H[t + 1])
            DP[t] = dp
            g = dp @ V
        _fold(DP, H[:-1], gV)
        boundary = {"dh0": g}

    elif kind == CellKind.T_MR:
        H, Z = tape.H, tape.Z  # Z is the pre-activation
        g = gh
        for t in range(T - 1, -1, -1):
            g = dH[t] + g
            DP[t] = g * (Z[t] > 0.0)
            g = DP[t] * V
        np.sum(np.multiply(DP, H[:-1], out=tmp), axis=(0, 1), out=gV)
        boundary = {"dh0": g}

    else:
        H, F, Z, O = tape.H, tape.F, tape.Z, tape.O
        g, dc = gh, gc
        if kind == CellKind.LSTM:
            C, TC = tape.C, tape.TC
            for t in range(T - 1, -1, -1):
                g = dH[t] + g
                dO = g * TC[t]
                dct = g * O[t] * (1.0 - TC[t] * TC[t]) + dc
                dF = dct * (C[t] - Z[t])
                dZ = dct * (1.0 - F[t])
                dc = dct * F[t]
                dPz[t] = dZ * (1.0 - Z[t] * Z[t])
                dPf[t] = dF * F[t] * (1.0 - F[t])
                dPo[t] = dO * (1.0 - O[t] * O[t])
                g = DP[t] @ V
            _fold(DP, H[:-1], gV)
            boundary = {"dh0": g, "dc0": dc}
        else:
            for t in range(T - 1, -1, -1):
                g = dH[t] + g
                dF = g * (H[t] - O[t])
                dO = g * (1.0 - F[t])
                carry = g * F[t]
                dPo[t] = dO * (1.0 - O[t] * O[t])
                dG = dPo[t] @ V[2 * h :]
                dZ = dG * H[t]
                carry = carry + dG * Z[t]
                dPz[t] = dZ * Z[t] * (1.0 - Z[t])
                dPf[t] = dF * F[t] * (1.0 - F[t])
                g = carry + DP[t, :, : 2 * h] @ V[: 2 * h]
            _fold(DP[..., : 2 * h], H[:-1], gV[: 2 * h])  # z and f read h
            _fold(dPo, tape.G, gV[2 * h :])
            boundary = {"dh0": g}

    # The learnware of every kind: one fold for the block, one bias sum, and
    # one product back to the input.
    gU = _fold(DP, tape.XX, ws.own("gU", params.U.shape))
    gb = np.sum(DP, axis=(0, 1), out=ws.own("gb", params.bias.shape))
    grads = tensor_views(kind, gU, gb, gV, params.input_dim)
    if not input_grad:
        return Grads(grads, None, **boundary)
    dXX = _unfold(DP, params.U, ws.get(f"dX{ws.index % 2}", tape.XX.shape))
    if kind in T_CELL_KINDS:
        d = params.input_dim
        return Grads(grads, dXX[..., d:], dX_prev=dXX[..., :d], **boundary)
    return Grads(grads, dXX, **boundary)


def bptt(
    params: CellParams,
    X: np.ndarray,
    upstream: np.ndarray,
) -> Grads:
    """Forward + backward over one (T, B, d) window of a single layer, from
    the zero state.

    ``upstream`` is either the gradient on the final output h_T, shape
    (B, h), or a (T, B, h) array with one gradient per output step. Returns
    parameter gradients and gradients on the inputs: for T-LSTM / T-GRU
    ``dX`` (W-side) and ``dX_prev`` (V-side) apart, which ``stack_backward``
    adds into one array.
    """
    out, tape = sequence_forward(params, X)
    dH = np.asarray(upstream, dtype=np.float64)
    if dH.ndim == 2:
        dH = np.zeros_like(out)
        dH[-1] = upstream
    elif dH.shape != out.shape:
        raise ValueError(f"per-step upstream has shape {dH.shape}, expected {out.shape}")
    return sequence_backward(params, tape, dH)


def stack_backward(
    layers: list[CellParams],
    tape: StackTape,
    dH_top: np.ndarray,
    ws: Workspace | None = None,
    input_grad: bool = True,
) -> tuple[list[dict[str, np.ndarray]], np.ndarray | None]:
    """Backward through a stack; returns per-layer grads and dX on the model
    input (None with ``input_grad=False``, which skips layer 0's input
    gradient). Dropout masks recorded in the tape gate the W-side path
    between layers; the V-side (x_prev) path bypasses them, matching the
    forward. With ``ws`` the gradients live in the workspace.
    """
    ws = Workspace() if ws is None else ws
    upstream = np.asarray(dH_top, dtype=np.float64)
    per_layer: list[dict[str, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for l in range(len(layers) - 1, -1, -1):
        res = sequence_backward(
            layers[l], tape.layer_tapes[l], upstream,
            ws=ws.layer(l), input_grad=input_grad or l > 0,
        )
        per_layer[l] = res.params
        upstream = res.dX
        if upstream is None:
            break
        if tape.masks[l] is not None:
            upstream *= tape.masks[l]
        if res.dX_prev is not None:
            # A step at a time: the two are interleaved halves of one buffer,
            # and numpy copies an operand it cannot prove disjoint, which
            # whole windows are not and single steps are.
            for t in range(len(upstream) - 1):
                upstream[t] += res.dX_prev[t + 1]
    return per_layer, upstream


# ---------------------------------------------------------------------------
# Oracles and gradient utilities
# ---------------------------------------------------------------------------


def finite_diff(
    params: CellParams, loss_fn, eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``loss_fn`` w.r.t. every tensor entry.

    ``loss_fn`` must be deterministic and is called with a perturbed copy of
    ``params``. O(P) forward passes at two evaluations each: an oracle, not a
    training tool.
    """
    probe = params.copy()
    grads: dict[str, np.ndarray] = {}
    for name, arr in probe.tensors.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"], op_flags=["readwrite"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = loss_fn(probe)
            arr[idx] = orig - eps
            lo = loss_fn(probe)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * eps)
            it.iternext()
        grads[name] = g
    return grads


def global_norm(grads: dict[str, np.ndarray], ws: Workspace | None = None) -> float:
    """L2 norm over the concatenation of every gradient tensor.

    Each tensor is squared into one scratch buffer (from ``ws`` when given)
    and summed in C order, tensor by tensor. A square that overflows makes
    the norm ``inf``, which is the report, so numpy does not warn about it.
    """
    ws = Workspace() if ws is None else ws
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            g = np.asarray(g, dtype=np.float64)
            total += float(np.square(g, out=ws.get("norm.sq", g.shape)).sum())
    return float(np.sqrt(total))


def clip_global_norm(
    grads: dict[str, np.ndarray],
    max_norm: float | None,
    ws: Workspace | None = None,
) -> tuple[dict[str, np.ndarray], float]:
    """Rescale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns (grads, pre-clip norm). ``max_norm=None`` disables clipping and
    only reports the norm. Scaling is in place on the passed dict's arrays.
    A non-finite norm leaves the gradients as they are, so the caller can
    still find the tensor that overflowed. ``ws`` supplies the scratch
    buffer of ``global_norm``.
    """
    norm = global_norm(grads, ws)
    if max_norm is not None:
        if not max_norm > 0:
            raise ValueError(f"clip threshold must be positive, got {max_norm}")
        if max_norm < norm < np.inf:
            factor = max_norm / norm
            for g in grads.values():
                g *= factor
    return grads, norm


def state_jacobian(params: CellParams, X: np.ndarray) -> np.ndarray:
    """Jacobian of the carried state after T steps w.r.t. the initial state,
    for one unbatched input sequence X of shape (T, d).

    The carried state is h for every kind except T-LSTM, whose recurrence
    runs through c (h = c (*) o is pure output); there the Jacobian is
    dc_T / dc_0. Computed exactly, in one backward pass: the batch carries
    the h basis vectors, one copy of X per state coordinate.
    """
    X = np.asarray(X, dtype=np.float64)
    h = params.hidden_dim
    _, tape = sequence_forward(params, np.repeat(X[:, None, :], h, axis=1))
    dH = np.zeros((X.shape[0], h, h))
    if params.kind == CellKind.T_LSTM:
        return sequence_backward(params, tape, dH, dc_final=np.eye(h)).dc0
    return sequence_backward(params, tape, dH, dh_final=np.eye(h)).dh0
