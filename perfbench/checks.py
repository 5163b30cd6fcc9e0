"""Correctness checks run by every workload.

Each check tests a property of the method or compares against a computation
that does not go through the code under test; none compares against stored
output. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math

import numpy as np

from typedrnn import autodiff, cells, training
from typedrnn.cells import CellKind
from typedrnn.data import EncodedCorpus
from typedrnn.dsl.builtin import builtin_spec, interp_params, port_names
from typedrnn.dsl.interp import interpret_step

EVAL_REL_TOL = 1e-9
GRAD_REL_TOL = 1e-6
GRAD_EPS = 1e-6


class CheckFailed(AssertionError):
    pass


def last_window_loss(metrics: training.Metrics) -> float:
    """Loss of the last logged training window of a one-epoch run.

    ``train`` appends an epoch-summary ``train`` row and a ``val`` row after
    the window rows, so the last window row is third from the end.
    """
    rows = metrics.rows
    if len(rows) < 3 or [r.split for r in rows[-3:]] != ["train", "train", "val"]:
        raise CheckFailed("metrics hold no logged training window")
    return rows[-3].loss_nats


def check_window_loss(metrics: training.Metrics, vocab_size: int) -> None:
    """The last logged window loss beats a uniform predictor (ln K nats)."""
    loss = last_window_loss(metrics)
    if not loss < math.log(vocab_size):
        raise CheckFailed(
            f"last window loss {loss!r} is not below ln K = {math.log(vocab_size)!r}"
        )


def encode(model: training.Model, ids: np.ndarray) -> np.ndarray:
    """Model input for token ids: one-hot rows (char) or embedding rows (word)."""
    if model.level == "word":
        return model.embed[ids]
    return np.eye(model.vocab.size)[ids]


def oracle_loss(model: training.Model, ids: np.ndarray) -> float:
    """Mean next-token loss of one stream, computed step by step through the
    DSL interpreter with zero initial state."""
    T = len(ids) - 1
    seq = encode(model, ids[:T])
    for params in model.layers:
        kind = CellKind(params.kind)
        spec = builtin_spec(kind.value)
        iparams = interp_params(params)
        states, inputs = port_names(kind)
        out_name = "h" if kind == CellKind.T_LSTM else states[0] + "'"
        state = {s: np.zeros(params.hidden_dim) for s in states}
        outs = []
        for t in range(T):
            if len(inputs) == 2:
                prev = seq[t - 1] if t > 0 else np.zeros(seq.shape[1])
                step_in = {inputs[0]: prev, inputs[1]: seq[t]}
            else:
                step_in = {inputs[0]: seq[t]}
            state, bindings = interpret_step(spec, iparams, state, step_in)
            outs.append(bindings[out_name])
        seq = np.stack(outs)
    total = 0.0
    for t in range(T):
        logits = model.w_out @ seq[t] + model.b_out
        m = logits.max()
        total += m + math.log(np.exp(logits - m).sum()) - logits[ids[t + 1]]
    return float(total / T)


def check_eval_oracle(model: training.Model, ids: np.ndarray) -> None:
    """``evaluate`` on a one-stream, one-window split matches the oracle."""
    empty = np.zeros(0, dtype=np.int64)
    corpus = EncodedCorpus(model.vocab, empty, empty, ids, digest="")
    T = len(ids) - 1
    got, _ = training.evaluate(model, corpus, "test", seq_len=T, batch=1)
    want = oracle_loss(model, ids)
    if not abs(got - want) <= EVAL_REL_TOL * abs(want):
        raise CheckFailed(f"evaluate gave {got!r}, interpreter oracle {want!r}")


def check_gradient(
    model: training.Model, X_ids: np.ndarray, rng: np.random.Generator
) -> None:
    """``stack_backward`` matches a central difference of ``stack_forward``
    along a random direction in parameters and input together.

    The error is measured against the gradient's norm, the typical size of a
    derivative along a standard normal direction; the derivative itself can
    come out near zero for some directions.
    """
    layers = [p.copy() for p in model.layers]
    X = encode(model, X_ids)
    R = rng.standard_normal((X.shape[0], X.shape[1], model.hidden))
    dirs = [
        {n: rng.standard_normal(a.shape) for n, a in p.tensors.items()}
        for p in layers
    ]
    dX_dir = rng.standard_normal(X.shape)

    def objective(step: float) -> float:
        moved = [
            cells.CellParams(
                p.kind, p.input_dim, p.hidden_dim,
                {n: a + step * d[n] for n, a in p.tensors.items()},
            )
            for p, d in zip(layers, dirs)
        ]
        outs, _ = cells.stack_forward(moved, X + step * dX_dir)
        return float(np.sum(outs[-1] * R))

    _, tape = cells.stack_forward(layers, X)
    grads, dX = autodiff.stack_backward(layers, tape, R)
    analytic = float(np.sum(dX * dX_dir))
    norm_sq = float(np.sum(dX * dX))
    for g, d in zip(grads, dirs):
        analytic += sum(float(np.sum(g[n] * d[n])) for n in d)
        norm_sq += sum(float(np.sum(g[n] * g[n])) for n in d)
    numeric = (objective(GRAD_EPS) - objective(-GRAD_EPS)) / (2.0 * GRAD_EPS)
    if not abs(analytic - numeric) <= GRAD_REL_TOL * math.sqrt(norm_sq):
        raise CheckFailed(
            f"directional derivative: backward {analytic!r}, central "
            f"difference {numeric!r}, gradient norm {math.sqrt(norm_sq)!r}"
        )


def check_same_loss(in_memory: float, reloaded: float) -> None:
    """A save -> load round trip leaves the evaluation loss bit-identical."""
    if not (math.isfinite(in_memory) and in_memory == reloaded):
        raise CheckFailed(
            f"loss {in_memory!r} before the checkpoint round trip, "
            f"{reloaded!r} after"
        )


def check_sample(
    first: str, second: str, seed_text: str, n: int, vocab
) -> None:
    """Same-seed samples agree, and each is the seed plus n vocabulary tokens."""
    if first != second:
        raise CheckFailed("two samples with the same seed differ")
    if not first.startswith(seed_text):
        raise CheckFailed("sample does not start with its seed text")
    tail = first[len(seed_text):]
    if vocab.level == "word":
        if not tail.startswith(" "):
            raise CheckFailed("sampled words are not separated from the seed")
        tokens = tail[1:].split(" ")
    else:
        tokens = list(tail)
    if len(tokens) != n:
        raise CheckFailed(f"sample holds {len(tokens)} tokens, expected {n}")
    outside = sorted(set(tokens) - set(vocab.index))
    if outside:
        raise CheckFailed(f"sampled tokens outside the vocabulary: {outside[:5]}")


def check_same_params(
    want: dict[str, np.ndarray], got: dict[str, np.ndarray]
) -> None:
    """Two training runs of one configuration end with bitwise-equal tensors."""
    if want.keys() != got.keys():
        raise CheckFailed("parameter sets name different tensors")
    for name in want:
        a, b = want[name], got[name]
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            raise CheckFailed(f"tensor {name} differs between runs")
