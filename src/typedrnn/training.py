"""Language-model training: plain SGD over stacked recurrent layers.

The model is a stack of same-kind cell layers between an input encoding and
a tied-nothing linear projection to vocabulary logits. Character-level input
is one-hot; word-level input is a learned embedding of the hidden size.
Training is truncated backpropagation through time over contiguous windows:
state (h, c, and the previous raw input for T-cells) carries across window
boundaries within an epoch, gradients do not. Inverted dropout is applied
only on vertical connections (between layers and before the projection),
never on the recurrent path and never on the raw model input.

The output head (projection, softmax cross-entropy and its gradients) walks
the window's (T*B, hidden) top-layer rows in fixed blocks of about 2 MiB of
logits, so training and evaluation never allocate a (T, B, K) logit array
(a small vocabulary fits all rows in one block). Training and evaluation
share that one head; the rows per block depend only on K, so the sums it
groups are the same on every machine.

The optimizer is plain SGD with optional global-norm clipping and a
multiplicative per-epoch learning-rate decay that starts after a configured
epoch. Each window is one forward and backward pass over the whole batch.
Parallelism comes from two places: the BLAS library's own threads inside
the large products (set ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``),
and, when the process has at least twice as many cores as BLAS threads,
a thread that a multi-block training head starts for that call alone: it
computes one block's gradient products while the calling thread computes
the next block's logits (two logit blocks exist then). The head joins the
thread before it returns or raises and sums the blocks in the same order
either way. With one BLAS thread a run is bitwise deterministic for a fixed
config, corpus and seed, with or without the thread.

``train`` and ``evaluate`` each make one ``cells.Workspace`` per call and
run every window through it (``train`` its per-epoch validation too), so a
window reuses the encoded input, tapes, scratch, logit block, gradients and
gradient-norm buffer of the last one. The state carried across windows is
one ``cells.LayerState`` per layer, made new (zero) per epoch by ``train``
and per call by ``evaluate``, which ``stack_forward`` advances in place. The
SGD update scales each gradient in place before subtracting it, which gives
the same bits as ``t -= lr * g``. At char level the backward pass skips the
input gradient, which would land on the fixed one-hot code. ``sample`` runs
the seed text through one taped ``stack_forward`` and every later token
through ``cells.stack_step``, both advancing the same ``LayerState``s; its
per-token work is that step, one projection, the softmax and numpy's
sampler.

A non-finite loss or gradient norm aborts training with a diagnostic
recording the epoch, step, loss, gradient norm and what went non-finite
first: the loss, or the first tensor whose gradient did.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import clip_global_norm, stack_backward
from .cells import (
    CellKind,
    CellParams,
    LayerState,
    TRAINABLE_KINDS,
    Workspace,
    dropout_mask,
    init_params,
    param_shapes,
    stack_forward,
    stack_step,
)
from .checkpoint import Checkpoint, CheckpointError
from .data import DataError, EncodedCorpus, Vocab, batch_iter
from .linalg import softmax

__all__ = [
    "Metrics",
    "MetricsRow",
    "Model",
    "TrainConfig",
    "TrainingDiverged",
    "build_model",
    "cross_entropy",
    "evaluate",
    "model_from_checkpoint",
    "model_to_checkpoint",
    "sample",
    "train",
]

METRICS_HEADER = "epoch,step,split,loss_nats,perplexity,grad_norm,wall_ms"


class TrainingDiverged(RuntimeError):
    """Raised when the loss or gradient norm stops being finite.

    ``tensor`` names what went non-finite first: ``"loss"``, or else the
    first tensor in ``Model.tensors()`` order whose gradient's sum of squares
    is not finite, because it holds a non-finite value or one too large to
    square (``"grad_norm"`` if only the sum over all tensors overflowed).
    """

    def __init__(
        self, epoch: int, step: int, loss: float, grad_norm: float, tensor: str
    ):
        super().__init__(
            f"training diverged at epoch {epoch} step {step}: "
            f"loss={loss!r} grad_norm={grad_norm!r}; first non-finite: {tensor}"
        )
        self.epoch = epoch
        self.step = step
        self.loss = loss
        self.grad_norm = grad_norm
        self.tensor = tensor


def _first_non_finite(
    loss: float, grads: dict[str, np.ndarray], order: dict[str, np.ndarray]
) -> str:
    """What ``TrainingDiverged.tensor`` names for a window."""
    if not math.isfinite(loss):
        return "loss"
    with np.errstate(over="ignore", invalid="ignore"):
        for name in order:
            if not math.isfinite(float(np.square(grads[name]).sum())):
                return name
    return "grad_norm"


@dataclass
class TrainConfig:
    arch: CellKind
    layers: int = 1
    hidden: int = 64
    level: str = "char"
    seq_len: int = 50
    batch: int = 32
    epochs: int = 1
    lr: float = 0.25
    lr_decay: float = 1.0
    decay_start: int = 1
    clip: float | None = 2.5
    dropout: float = 0.0
    seed: int = 0
    init: str = "uniform008"
    # Only 1 is accepted. The field stays because the benchmark harness
    # passes ``threads=1``; drop both together when the benchmark changes.
    threads: int = 1
    log_every: int = 100

    def __post_init__(self) -> None:
        self.arch = CellKind(self.arch)
        if self.arch not in TRAINABLE_KINDS:
            raise ValueError(f"architecture {self.arch.value!r} is not trainable")
        if self.level not in ("char", "word"):
            raise ValueError(f"level must be 'char' or 'word', got {self.level!r}")
        for name in ("layers", "hidden", "seq_len", "batch", "epochs", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.threads != 1:
            raise ValueError(
                "threads must be 1; set OPENBLAS_NUM_THREADS (or "
                "OMP_NUM_THREADS) for parallel BLAS products instead"
            )
        if self.decay_start < 0:
            raise ValueError("decay_start must be at least 0")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.clip is not None and not self.clip > 0:
            raise ValueError("clip must be positive or None")
        if self.init not in ("uniform008", "identity"):
            raise ValueError(f"unknown init scheme {self.init!r}")

    def lr_for_epoch(self, epoch: int) -> float:
        """Learning rate for 1-based epoch: decay multiplies per epoch past
        ``decay_start``."""
        return self.lr * self.lr_decay ** max(0, epoch - self.decay_start)


@dataclass
class Model:
    arch: CellKind
    level: str
    vocab: Vocab
    layers: list[CellParams]
    embed: np.ndarray | None  # (vocab, hidden) for word level, else None
    w_out: np.ndarray  # (vocab, hidden)
    b_out: np.ndarray  # (vocab,)

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden_dim

    def tensors(self) -> dict[str, np.ndarray]:
        """All trainable tensors in canonical serialization order."""
        out: dict[str, np.ndarray] = {}
        if self.embed is not None:
            out["embed.E"] = self.embed
        for i, layer in enumerate(self.layers):
            for name, arr in layer.tensors.items():
                out[f"layer{i}.{name}"] = arr
        out["out.W"] = self.w_out
        out["out.b"] = self.b_out
        return out

    def num_params(self) -> int:
        return int(sum(t.size for t in self.tensors().values()))


def build_model(config: TrainConfig, vocab: Vocab, rng: np.random.Generator) -> Model:
    if vocab.level != config.level:
        raise ValueError(
            f"vocab level {vocab.level!r} does not match config level "
            f"{config.level!r}"
        )
    k = vocab.size
    h = config.hidden
    embed = rng.uniform(-0.08, 0.08, size=(k, h)) if config.level == "word" else None
    in0 = h if config.level == "word" else k
    layers = []
    for i in range(config.layers):
        layers.append(
            init_params(
                config.arch,
                in0 if i == 0 else h,
                h,
                rng,
                scheme=config.init,
            )
        )
    w_out = rng.uniform(-0.08, 0.08, size=(k, h))
    b_out = np.zeros(k)
    return Model(config.arch, config.level, vocab, layers, embed, w_out, b_out)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def cross_entropy(logits: np.ndarray, target: int) -> float:
    """Negative log-likelihood in nats of ``target`` under softmax(logits)."""
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"logits must be a vector, got shape {v.shape}")
    if not 0 <= target < v.shape[0]:
        raise ValueError(f"target {target} out of range for {v.shape[0]} classes")
    m = float(v.max())
    lse = m + math.log(float(np.exp(v - m).sum()))
    return lse - float(v[target])


# Bytes of float64 logits the output head holds at once. The rows per block
# follow from this and K alone, never from the machine, so the grouping of
# the gradient sums (and with it every trained bit) is the same everywhere.
_HEAD_BLOCK_BYTES = 2 * 2**20


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    """BLAS threads as OpenBLAS sizes its pool: ``OPENBLAS_NUM_THREADS``,
    else ``OMP_NUM_THREADS``, else one per core."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return _cores()


def _spare_core() -> bool:
    """True when this process has a core that BLAS leaves idle: at least
    twice as many cores as BLAS threads."""
    return _cores() >= 2 * _blas_threads()


def _head_grads(z, x, w_out, gW, gW_block, gb, gb_block, d_rows) -> None:
    """One block's gradient products from its logit gradient ``z`` and rows
    ``x``: accumulate into ``gW`` and ``gb``, and write ``d_rows``. Writes
    only the buffers it is given and allocates no array."""
    np.matmul(z.T, x, out=gW_block)
    gW += gW_block
    np.sum(z, axis=0, out=gb_block)
    gb += gb_block
    np.matmul(z, w_out, out=d_rows)


def _output_head(
    top: np.ndarray,
    Y: np.ndarray,
    w_out: np.ndarray,
    b_out: np.ndarray,
    grad_scale: float | None = None,
    ws: Workspace | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Summed cross-entropy of the projection ``top @ w_out.T + b_out``.

    ``top`` is (N, h) and ``Y`` holds N target ids. The logits are computed
    a block of rows at a time in a reused buffer of about
    ``_HEAD_BLOCK_BYTES``. Returns the loss in nats summed over the N rows
    and, when ``grad_scale`` is given, the gradients ``(gW, gb, d_top)`` of
    ``grad_scale`` times that sum with respect to ``w_out``, ``b_out`` and
    ``top``; otherwise None. With ``ws`` the buffers and the gradients live
    in the workspace.

    A call that asks for gradients and walks more than one block, in a
    process with a core that BLAS leaves idle (``_spare_core``), computes
    the logits into two buffers in turn and hands each block's gradient
    products (``_head_grads``) to a one-thread executor that lives for this
    call. Its thread runs them in block order while this thread computes
    the next block's logits and softmax. Before a buffer is reused the
    block that last filled it is done; before running the last block's
    products itself, this thread reads the result of every handed-off
    block, so a block's error is raised here. The executor is shut down,
    its thread joined, before the call returns or raises. The gradients are
    summed in block order either way, so the bits do not depend on the
    handoff.
    """
    ws = Workspace() if ws is None else ws
    n = len(top)
    k = w_out.shape[0]
    rows = min(n, max(1, _HEAD_BLOCK_BYTES // (8 * k)))
    bufs = [ws.get("head.logits", (rows, k))]
    total = 0.0
    pool = None
    done = []  # the futures of the handed-off blocks, in block order
    if grad_scale is not None:
        gW = ws.get("head.gW", w_out.shape)
        gW.fill(0.0)
        gW_block = ws.get("head.gW_block", w_out.shape)
        gb = ws.get("head.gb", b_out.shape)
        gb.fill(0.0)
        gb_block = ws.get("head.gb_block", b_out.shape)
        d_top = ws.get("head.d_top", top.shape)
        if rows < n and _spare_core():
            pool = ThreadPoolExecutor(1, thread_name_prefix="typedrnn-head")
            bufs.append(ws.get("head.logits2", (rows, k)))
    try:
        for i, lo in enumerate(range(0, n, rows)):
            x = top[lo : lo + rows]
            y = Y[lo : lo + rows]
            if pool is not None and i >= 2:
                done[i - 2].result()  # the block that last used this buffer
            z = bufs[i % len(bufs)][: len(x)]
            r = np.arange(len(x))
            np.matmul(x, w_out.T, out=z)
            z += b_out
            z -= z.max(axis=1, keepdims=True)
            tgt = z[r, y]
            np.exp(z, out=z)
            se = z.sum(axis=1)
            total += float((np.log(se) - tgt).sum())
            if grad_scale is None:
                continue
            # softmax minus one-hot, times the scale: the logit gradient
            z *= (grad_scale / se)[:, None]
            z[r, y] -= grad_scale
            task = (z, x, w_out, gW, gW_block, gb, gb_block, d_top[lo : lo + len(x)])
            if pool is None or lo + rows >= n:
                for f in done:
                    f.result()
                _head_grads(*task)
            else:
                done.append(pool.submit(_head_grads, *task))
    finally:
        if pool is not None:
            pool.shutdown()
    if grad_scale is None:
        return total, None
    return total, (gW, gb, d_top)


# ---------------------------------------------------------------------------
# Forward / backward over one window
# ---------------------------------------------------------------------------


def _encode_inputs(
    model: Model, X_ids: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    ws = Workspace() if ws is None else ws
    T, B = X_ids.shape
    if model.level == "word":
        out = ws.get("input", (T, B, model.hidden))
        return np.take(model.embed, X_ids, axis=0, out=out)
    out = ws.get("input", (T, B, model.vocab.size))
    out.fill(0.0)
    out.reshape(T * B, -1)[np.arange(T * B), X_ids.reshape(-1)] = 1.0
    return out


def _window_pass(
    model: Model,
    X_ids: np.ndarray,
    Y_ids: np.ndarray,
    state: list[LayerState] | None,
    dropout: float,
    rng: np.random.Generator | None,
    ws: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + backward over one window; returns (mean loss, grads).

    ``state`` (see ``stack_forward``) is advanced past the window in place.
    With ``ws`` the gradients live in the workspace until its next use.
    """
    ws = Workspace() if ws is None else ws
    X = _encode_inputs(model, X_ids, ws)
    outs, tape = stack_forward(
        model.layers, X, dropout=dropout, rng=rng, state=state, ws=ws
    )
    top = outs[-1]
    top_mask = None
    if dropout > 0.0:
        top_mask = dropout_mask(rng, dropout, ws.get("top.mask", top.shape), ws)
        top = np.multiply(top, top_mask, out=ws.get("top", top.shape))
    T, B, h = top.shape
    # The loss reported is the per-token mean; the gradient is of the
    # per-stream summed loss averaged over the batch, the usual truncated
    # backprop objective, whose scale suits unit-order learning rates and a
    # clip threshold of a few.
    total, (gW, gb, d_top) = _output_head(
        top.reshape(T * B, h), Y_ids.reshape(T * B), model.w_out, model.b_out,
        grad_scale=1.0 / B, ws=ws,
    )
    loss = total / (T * B)
    grads: dict[str, np.ndarray] = {"out.W": gW, "out.b": gb}
    d_top = d_top.reshape(T, B, h)
    if top_mask is not None:
        d_top *= top_mask
    # At char level the input gradient would land on the fixed one-hot code.
    word = model.level == "word"
    layer_grads, dX = stack_backward(
        model.layers, tape, d_top, ws=ws, input_grad=word
    )
    for i, lg in enumerate(layer_grads):
        for name, g in lg.items():
            grads[f"layer{i}.{name}"] = g
    if word:
        dE = ws.get("dE", model.embed.shape)
        dE.fill(0.0)
        np.add.at(dE, X_ids.reshape(T * B), dX.reshape(T * B, h))
        grads = {"embed.E": dE, **grads}
    return loss, grads


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _perplexity(loss: float) -> float:
    """``exp(loss)``, clamped to inf where exp would overflow float64 (just
    above 709 nats) so that a huge but finite loss is reported, not raised."""
    return math.exp(loss) if loss < 709.0 else math.inf


@dataclass
class MetricsRow:
    epoch: int
    step: int
    split: str
    loss_nats: float
    perplexity: float
    grad_norm: float
    wall_ms: float

    def as_csv(self) -> str:
        return (
            f"{self.epoch},{self.step},{self.split},{self.loss_nats!r},"
            f"{self.perplexity!r},{self.grad_norm!r},{self.wall_ms!r}"
        )


@dataclass
class Metrics:
    rows: list[MetricsRow] = field(default_factory=list)

    def log(
        self,
        epoch: int,
        step: int,
        split: str,
        loss: float,
        grad_norm: float,
        wall_ms: float,
    ) -> None:
        ppl = _perplexity(loss)
        self.rows.append(
            MetricsRow(epoch, step, split, loss, ppl, grad_norm, wall_ms)
        )

    def to_csv(self, path: str | Path) -> None:
        lines = [METRICS_HEADER]
        lines.extend(row.as_csv() for row in self.rows)
        Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Train / evaluate / sample
# ---------------------------------------------------------------------------


def train(config: TrainConfig, corpus: EncodedCorpus) -> tuple[Model, Metrics]:
    """Train a model on ``corpus.train``, validating once per epoch.

    Bitwise deterministic for a fixed config and corpus when BLAS runs one
    thread; more BLAS threads may reorder sums in the products. Raises
    TrainingDiverged if the loss or gradient norm becomes non-finite.
    """
    if corpus.level != config.level:
        raise ValueError(
            f"corpus level {corpus.level!r} does not match config {config.level!r}"
        )
    rng = np.random.default_rng(config.seed)
    model = build_model(config, corpus.vocab, rng)
    metrics = Metrics()
    tensors = model.tensors()
    drop_rng = rng if config.dropout > 0.0 else None
    # one set of window buffers for the whole run, validation included
    ws = Workspace()
    step = 0
    for epoch in range(1, config.epochs + 1):
        lr = config.lr_for_epoch(epoch)
        state = [LayerState(p, config.batch) for p in model.layers]
        loss_sum = 0.0
        norm_sum = 0.0
        n_steps = 0
        epoch_t0 = time.perf_counter()
        for X_ids, Y_ids in batch_iter(corpus.train, config.seq_len, config.batch):
            t0 = time.perf_counter()
            loss, grads = _window_pass(
                model, X_ids, Y_ids, state, config.dropout, drop_rng, ws
            )
            grads, grad_norm = clip_global_norm(grads, config.clip, ws=ws)
            step += 1
            if not (math.isfinite(loss) and math.isfinite(grad_norm)):
                raise TrainingDiverged(
                    epoch, step, loss, grad_norm,
                    _first_non_finite(loss, grads, tensors),
                )
            for name, g in grads.items():
                g *= lr  # in place: the same bits as ``lr * g``
                tensors[name] -= g
            loss_sum += loss
            norm_sum += grad_norm
            n_steps += 1
            if step % config.log_every == 0:
                wall = (time.perf_counter() - t0) * 1000.0
                metrics.log(epoch, step, "train", loss, grad_norm, wall)
        if n_steps == 0:
            raise DataError("training split yields no windows")
        epoch_wall = (time.perf_counter() - epoch_t0) * 1000.0
        metrics.log(
            epoch, step, "train", loss_sum / n_steps, norm_sum / n_steps,
            epoch_wall,
        )
        t0 = time.perf_counter()
        val_loss, _ = evaluate(
            model, corpus, "valid",
            seq_len=config.seq_len, batch=config.batch, ws=ws,
        )
        metrics.log(
            epoch, step, "val", val_loss, 0.0,
            (time.perf_counter() - t0) * 1000.0,
        )
    return model, metrics


def evaluate(
    model: Model,
    corpus: EncodedCorpus,
    split: str = "valid",
    seq_len: int = 100,
    batch: int = 16,
    ws: Workspace | None = None,
) -> tuple[float, float]:
    """Mean per-token loss (nats) and perplexity on a split, dropout off.

    State carries across windows; tokens past the last full window of each
    stream are not scored. Batch and window shrink automatically for small
    splits. Every window reuses the buffers of ``ws``, a new ``Workspace``
    by default.
    """
    try:
        ids = {"train": corpus.train, "valid": corpus.valid, "test": corpus.test}[
            split
        ]
    except KeyError:
        raise ValueError(f"unknown split {split!r}") from None
    n = len(ids)
    if n < 2:
        raise DataError(f"split {split!r} has {n} tokens; need at least 2")
    batch = max(1, min(batch, n // (seq_len + 1)))
    seq_len = min(seq_len, n - 1)
    ws = Workspace() if ws is None else ws
    state = [LayerState(p, batch) for p in model.layers]
    loss_sum = 0.0
    count = 0
    for X_ids, Y_ids in batch_iter(ids, seq_len, batch):
        X = _encode_inputs(model, X_ids, ws)
        outs, _ = stack_forward(model.layers, X, state=state, ws=ws)
        top = outs[-1]
        T, B, h = top.shape
        total, _ = _output_head(
            top.reshape(T * B, h), Y_ids.reshape(T * B), model.w_out,
            model.b_out, ws=ws,
        )
        loss_sum += total
        count += T * B
    if count == 0:
        raise DataError(f"split {split!r} yields no evaluation windows")
    mean = loss_sum / count
    return mean, _perplexity(mean)


def sample(
    model: Model,
    seed_text: str,
    n: int,
    temperature: float = 1.0,
    seed: int = 0,
) -> str:
    """Continue ``seed_text`` by ``n`` sampled tokens.

    The seed must encode to at least one token, and every seed symbol must be
    in the vocabulary (listed in the error otherwise). Logits are divided by
    ``temperature`` before softmax sampling; n = 0 returns the seed
    unchanged.
    """
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    vocab = model.vocab
    if vocab.level == "word":
        tokens = seed_text.split()
        missing = sorted(set(tokens) - set(vocab.index))
        if missing:
            raise DataError(
                f"seed symbols not in vocabulary: {', '.join(map(repr, missing))}"
            )
    ids = vocab.encode(seed_text)
    if len(ids) == 0:
        raise DataError("seed text encodes to no tokens")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return seed_text
    rng = np.random.default_rng(seed)
    # The seed runs batched through the taped forward; every later token
    # through the tape-free step. Both advance the same LayerState objects.
    state = [LayerState(p) for p in model.layers]
    stack_forward(model.layers, _encode_inputs(model, ids[:, None]), state=state)
    onehot = np.zeros((1, vocab.size)) if model.embed is None else None
    top = state[-1].h[0]  # the top layer's last output
    out_ids: list[int] = []
    while True:
        probs = softmax((model.w_out @ top + model.b_out) / temperature)
        nxt = int(rng.choice(vocab.size, p=probs))
        out_ids.append(nxt)
        if len(out_ids) == n:
            break
        if onehot is None:
            x = model.embed[nxt : nxt + 1]
        else:
            x = onehot
            x.fill(0.0)
            x[0, nxt] = 1.0
        top = stack_step(model.layers, x, state)[-1][0]
    tail = vocab.decode(out_ids)
    return seed_text + tail if vocab.level == "char" else seed_text + " " + tail


# ---------------------------------------------------------------------------
# Checkpoint bridge
# ---------------------------------------------------------------------------


def model_to_checkpoint(model: Model) -> Checkpoint:
    return Checkpoint(
        arch=model.arch,
        level=model.level,
        layers=len(model.layers),
        hidden=model.hidden,
        vocab_symbols=list(model.vocab.symbols),
        tensors={k: v.copy() for k, v in model.tensors().items()},
    )


def _expected_shapes(
    arch: CellKind, level: str, layers: int, hidden: int, k: int
) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    if level == "word":
        out["embed.E"] = (k, hidden)
    in0 = hidden if level == "word" else k
    for i in range(layers):
        for name, shape in param_shapes(arch, in0 if i == 0 else hidden, hidden).items():
            out[f"layer{i}.{name}"] = shape
    out["out.W"] = (k, hidden)
    out["out.b"] = (k,)
    return out


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    vocab = Vocab(ckpt.level, list(ckpt.vocab_symbols))
    expected = _expected_shapes(
        ckpt.arch, ckpt.level, ckpt.layers, ckpt.hidden, vocab.size
    )
    got = {name: tuple(arr.shape) for name, arr in ckpt.tensors.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(
            name
            for name in set(got) & set(expected)
            if got[name] != expected[name]
        )
        parts = []
        if missing:
            parts.append(f"missing tensors: {', '.join(missing)}")
        if extra:
            parts.append(f"unexpected tensors: {', '.join(extra)}")
        if wrong:
            parts.append(
                "shape mismatch: "
                + ", ".join(
                    f"{n} is {got[n]}, expected {expected[n]}" for n in wrong
                )
            )
        raise CheckpointError("; ".join(parts))
    embed = ckpt.tensors.get("embed.E")
    in0 = ckpt.hidden if ckpt.level == "word" else vocab.size
    layers = []
    for i in range(ckpt.layers):
        dim = in0 if i == 0 else ckpt.hidden
        names = param_shapes(ckpt.arch, dim, ckpt.hidden)
        # the constructor copies what it is given
        tensors = {n: ckpt.tensors[f"layer{i}.{n}"] for n in names}
        layers.append(CellParams(ckpt.arch, dim, ckpt.hidden, tensors))
    return Model(
        arch=ckpt.arch,
        level=ckpt.level,
        vocab=vocab,
        layers=layers,
        embed=None if embed is None else embed.copy(),
        w_out=ckpt.tensors["out.W"].copy(),
        b_out=ckpt.tensors["out.b"].copy(),
    )
