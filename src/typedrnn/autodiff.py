"""Hand-written backpropagation through time, with a finite-difference oracle.

Every cell's backward pass is derived by hand from the update rules in
``cells`` and consumes the tape recorded by ``sequence_forward``. Gradients
are exact reverse-mode derivatives of the float64 forward computation, which
is what the central-difference oracle ``finite_diff`` checks them against.

T-RNN, T-LSTM and T-GRU share one backward, the mirror of their shared
forward: one reverse scan ``G[t] = dS[t] + F[t] (*) G[t+1]`` for the gradient
on the scanned state, then one coordinatewise pass back through the gate maps.
The classical cells and T-MR keep their own reverse loops, as in the forward.
Every branch fills one stacked gradient ``DP`` on the input-side product,
laid out as the rows of the learnware block ``CellParams.U`` (the forward's
product is gate-major, so the gates it reads are contiguous; ``DP`` keeps
the row layout the tail's products read). The scan branch builds each
gate's gradient in contiguous scratch and writes it into its block of ``DP``
with its last product, so only that one pass per gate is strided. One shared
tail finishes every kind: one matrix multiply for the gradient on the block,
one sum for its bias, and one matrix multiply for the input gradient. The
named learnware gradients are views of the block gradient, laid out by
``cells.learnware_views`` as the parameters are; the state-side gradients
(the classical V's, T-MR's b) are computed in the branches.

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
    TRAINABLE_KINDS,
    T_CELL_KINDS,
    Workspace,
    learnware_views,
    sequence_forward,
)

__all__ = [
    "Grads",
    "bptt",
    "clip_global_norm",
    "finite_diff",
    "global_norm",
    "sequence_backward",
    "stack_backward",
    "state_jacobian",
]


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
    if kind not in TRAINABLE_KINDS:
        raise ValueError(f"sequence_backward does not handle kind {kind!r}")
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
    grads = {}  # the state-side gradients

    def fold(name: str, D: np.ndarray, side: np.ndarray) -> np.ndarray:
        return _fold(D, side, ws.own(f"g.{name}", params[name].shape))

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
        H, V = tape.H, params["V"]
        g = gh
        for t in range(T - 1, -1, -1):
            g = dH[t] + g
            dp = g * (1.0 - H[t + 1] * H[t + 1])
            DP[t] = dp
            g = dp @ V
        grads["V"] = fold("V", DP, H[:-1])
        boundary = {"dh0": g}

    elif kind == CellKind.T_MR:
        H, M, b = tape.H, tape.M, params["b"]
        g = gh
        for t in range(T - 1, -1, -1):
            g = dH[t] + g
            DP[t] = g * M[t]
            g = DP[t] * b
        grads["b"] = np.sum(
            np.multiply(DP, H[:-1], out=tmp), axis=(0, 1), out=ws.own("g.b", (h,))
        )
        boundary = {"dh0": g}

    else:
        H, F, Z, O = tape.H, tape.F, tape.Z, tape.O
        Vz, Vf, Vo = params["V_z"], params["V_f"], params["V_o"]
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
                g = dPz[t] @ Vz + dPf[t] @ Vf + dPo[t] @ Vo
            sides = (H[:-1], H[:-1], H[:-1])
            boundary = {"dh0": g, "dc0": dc}
        else:
            for t in range(T - 1, -1, -1):
                g = dH[t] + g
                dF = g * (H[t] - O[t])
                dO = g * (1.0 - F[t])
                carry = g * F[t]
                dPo[t] = dO * (1.0 - O[t] * O[t])
                dG = dPo[t] @ Vo
                dZ = dG * H[t]
                carry = carry + dG * Z[t]
                dPz[t] = dZ * Z[t] * (1.0 - Z[t])
                dPf[t] = dF * F[t] * (1.0 - F[t])
                g = carry + dPz[t] @ Vz + dPf[t] @ Vf
            sides = (H[:-1], H[:-1], tape.G)
            boundary = {"dh0": g}
        for n, dP, side in zip("zfo", (dPz, dPf, dPo), sides):
            grads[f"V_{n}"] = fold(f"V_{n}", dP, side)

    # The learnware of every kind: one fold for the block, one bias sum, and
    # one product back to the input.
    gU = np.matmul(
        DP.reshape(T * B, -1).T, tape.XX.reshape(T * B, -1),
        out=ws.own("gU", params.U.shape),
    )
    gb = np.sum(DP, axis=(0, 1), out=ws.own("gb", params.bias.shape))
    grads.update(learnware_views(kind, gU, gb, params.input_dim))
    grads = {name: grads[name] for name in params.tensors}
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
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
    xp0: np.ndarray | None = None,
) -> Grads:
    """Forward + backward over one window of a single layer.

    ``upstream`` is either the gradient on the final output h_T with shape
    (B, h) (or (h,) when X is unbatched (T, d)), or a full per-step array
    matching the output sequence. Returns parameter gradients and gradients
    on the inputs: for T-LSTM / T-GRU ``dX`` (W-side) and ``dX_prev``
    (V-side) apart, which ``stack_backward`` adds into one array.
    """
    X = np.asarray(X, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    squeeze = X.ndim == 2
    if squeeze:
        X = X[:, None, :]
        if h0 is not None:
            h0 = np.asarray(h0)[None, :]
        if c0 is not None:
            c0 = np.asarray(c0)[None, :]
        if xp0 is not None:
            xp0 = np.asarray(xp0)[None, :]
        if upstream.ndim == 1:
            upstream = upstream[None, :]
        elif upstream.ndim == 2:
            upstream = upstream[:, None, :]
    T = X.shape[0]
    out, tape = sequence_forward(params, X, h0=h0, c0=c0, xp0=xp0)
    if upstream.ndim == 2:
        dH = np.zeros_like(out)
        dH[T - 1] = upstream
    else:
        if upstream.shape != out.shape:
            raise ValueError(
                f"per-step upstream has shape {upstream.shape}, expected {out.shape}"
            )
        dH = upstream
    res = sequence_backward(params, tape, dH)
    if squeeze:
        res.dX = res.dX[:, 0, :]
        if res.dX_prev is not None:
            res.dX_prev = res.dX_prev[:, 0, :]
        if res.dh0 is not None:
            res.dh0 = res.dh0[0]
        if res.dc0 is not None:
            res.dc0 = res.dc0[0]
    return res


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


def finite_diff(params, loss_fn, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``loss_fn`` w.r.t. every tensor entry.

    ``params`` is a CellParams or a plain name->array dict; ``loss_fn`` must
    be deterministic and is called with a perturbed copy. O(P) forward passes
    at two evaluations each: an oracle, not a training tool.
    """
    if isinstance(params, CellParams):
        probe = params.copy()
        work = probe.tensors
    else:
        probe = work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    grads: dict[str, np.ndarray] = {}
    for name, arr in work.items():
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
    and summed in C order, tensor by tensor.
    """
    ws = Workspace() if ws is None else ws
    total = 0.0
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
    ``ws`` supplies the scratch buffer of ``global_norm``.
    """
    norm = global_norm(grads, ws)
    if max_norm is not None:
        if max_norm <= 0:
            raise ValueError(f"clip threshold must be positive, got {max_norm}")
        if norm > max_norm and norm > 0.0:
            factor = max_norm / norm
            for g in grads.values():
                g *= factor
    return grads, norm


def state_jacobian(params: CellParams, X: np.ndarray) -> np.ndarray:
    """Jacobian of the carried state after T steps w.r.t. the initial state,
    for one unbatched input sequence X of shape (T, d).

    The carried state is h for every kind except T-LSTM, whose recurrence
    runs through c (h = c (*) o is pure output); there the Jacobian is
    dc_T / dc_0. Computed exactly, one backward pass per state coordinate.
    """
    X = np.asarray(X, dtype=np.float64)[:, None, :]
    h = params.hidden_dim
    _, tape = sequence_forward(params, X)
    J = np.empty((h, h))
    dH = np.zeros((X.shape[0], 1, h))
    for i in range(h):
        basis = np.zeros((1, h))
        basis[0, i] = 1.0
        if params.kind == CellKind.T_LSTM:
            res = sequence_backward(params, tape, dH, dc_final=basis)
            J[i] = res.dc0[0]
        else:
            res = sequence_backward(params, tape, dH, dh_final=basis)
            J[i] = res.dh0[0]
    return J
