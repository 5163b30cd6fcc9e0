"""The tape-free one-token step against the taped per-token forward."""

import numpy as np
import pytest
from conftest import TRAIN_KINDS

from typedrnn.cells import LayerState, stack_forward, stack_step
from typedrnn.data import build_vocab, synthetic_corpus
from typedrnn.linalg import softmax
from typedrnn.training import TrainConfig, _encode_inputs, build_model, sample

TEXTS = {
    "char": synthetic_corpus(3000, seed=3),
    "word": " ".join(
        np.random.default_rng(2).choice([f"w{i}" for i in range(40)], 2000)
    ),
}


def _model(kind, level, seed=1):
    """A 2-layer model with its weights scaled up from the U(-0.08, 0.08)
    init, so that states and sampling odds depend strongly on the input, and
    its zero-initialized biases drawn nonzero, so that a step must add them."""
    vocab = build_vocab(TEXTS[level], level=level)
    cfg = TrainConfig(arch=kind, level=level, layers=2, hidden=7, seed=seed)
    rng = np.random.default_rng(seed)
    model = build_model(cfg, vocab, rng)
    for arr in model.tensors().values():
        arr *= 12.0
        if arr.ndim == 1:
            arr += rng.uniform(-1.0, 1.0, size=arr.shape)
    return model


def _reference_sample(model, seed_text, n, temperature, seed):
    """Per-token sampling through the taped forward, one token per call."""
    rng = np.random.default_rng(seed)
    vocab = model.vocab
    state = [LayerState(p) for p in model.layers]
    out_ids = []
    cur = vocab.encode(seed_text)[:, None]
    for _ in range(n):
        X = _encode_inputs(model, cur)
        outs, _ = stack_forward(model.layers, X, state=state)
        logits = model.w_out @ outs[-1][-1, 0] + model.b_out
        nxt = int(rng.choice(vocab.size, p=softmax(logits / temperature)))
        out_ids.append(nxt)
        cur = np.array([[nxt]], dtype=np.int64)
    tail = vocab.decode(out_ids)
    return seed_text + tail if vocab.level == "char" else seed_text + " " + tail


@pytest.mark.parametrize("level", ["char", "word"])
@pytest.mark.parametrize("kind", [k.value for k in TRAIN_KINDS])
def test_stack_step_matches_the_taped_forward_bitwise(kind, level):
    model = _model(kind, level)
    rng = np.random.default_rng(5)
    seed_ids = rng.integers(0, model.vocab.size, size=(6, 1))
    # the taped path and the step each carry their own states from the seed
    taped = [LayerState(p) for p in model.layers]
    stepped = [LayerState(p) for p in model.layers]
    for states in (taped, stepped):
        stack_forward(model.layers, _encode_inputs(model, seed_ids), state=states)
    for tok in rng.integers(0, model.vocab.size, size=30):
        X = _encode_inputs(model, np.array([[tok]]))
        outs, _ = stack_forward(model.layers, X, state=taped)
        step_outs = stack_step(model.layers, X[0], stepped)
        assert len(step_outs) == len(outs)
        for out, row in zip(outs, step_outs):
            assert row.shape == (1, model.hidden)
            assert np.array_equal(out[-1], row)
        # every state the taped path carries, the step carries the same
        for want, st, p in zip(taped, stepped, model.layers):
            assert np.array_equal(want.h, st.h)
            assert want.c is None or np.array_equal(want.c, st.c)
            if want.xx is not None:
                d = p.input_dim
                assert np.array_equal(want.xx[:, d:], st.xx[:, d:])


@pytest.mark.parametrize("level", ["char", "word"])
@pytest.mark.parametrize("kind", [k.value for k in TRAIN_KINDS])
def test_sample_matches_the_per_token_taped_loop(kind, level):
    model = _model(kind, level, seed=4)
    text = TEXTS[level]
    seed_text = text[:7] if level == "char" else " ".join(text.split()[:4])
    for temperature in (1.0, 0.7, 3.0, np.inf, 1e-3):
        for n in (1, 30):
            want = _reference_sample(model, seed_text, n, temperature, seed=8)
            assert sample(model, seed_text, n, temperature, seed=8) == want


def test_an_overflow_mid_stream_is_an_error():
    """A temperature at which the first token still samples, and a later
    token's scaled logits overflow, raises rather than samples from NaN."""
    model = _model("t_mr", "char", seed=4)
    seed_text = TEXTS["char"][:7]
    want = _reference_sample(model, seed_text, 1, 1e-300, seed=8)
    assert sample(model, seed_text, 1, 1e-300, seed=8) == want
    with pytest.raises(ValueError, match="too small: the scaled logits overflow"):
        sample(model, seed_text, 30, 1e-300, seed=8)


def _head_distributions(K, rng):
    """Token distributions over K ids: a random one (with exact zeros at
    both ends once K > 2) and one-hots at both ends and inside."""
    q = rng.pareto(1.0, size=K) + 1e-3
    if K > 2:
        q[[0, -1]] = 0.0
        q[rng.integers(1, K - 1, size=K // 10)] = 0.0
    yield q / q.sum()
    for at in (0, K - 1, int(rng.integers(K))):
        onehot = np.zeros(K)
        onehot[at] = 1.0
        yield onehot


@pytest.mark.parametrize("K", [2, 26, 4000])
def test_sample_draws_as_generator_choice(K):
    """With ``w_out = 0`` and ``b_out = log p`` every token's logits are the
    chosen log-probabilities, and ``sample`` draws the ids that a twin
    generator's ``choice(K, p=softmax(b_out))`` draws token by token."""
    vocab = build_vocab(" ".join(f"w{i}" for i in range(K - 1)), level="word")
    assert vocab.size == K
    cfg = TrainConfig(arch="t_lstm", level="word", layers=1, hidden=3)
    model = build_model(cfg, vocab, np.random.default_rng(0))
    model.w_out[:] = 0.0
    rng = np.random.default_rng(K)
    for p in _head_distributions(K, rng):
        with np.errstate(divide="ignore"):
            model.b_out[:] = np.log(p)
        probs = softmax(model.b_out)
        assert np.all(probs[p == 0.0] == 0.0) and np.all(probs[p == 1.0] == 1.0)
        seed = int(rng.integers(1000))
        twin = np.random.default_rng(seed)
        ids = [int(twin.choice(K, p=probs)) for _ in range(300)]
        assert sample(model, "w0", 300, seed=seed) == "w0 " + vocab.decode(ids)


def test_step_from_an_empty_carry_starts_at_zero_state():
    for kind in ("t_lstm", "lstm"):
        model = _model(kind, "char")
        state = [LayerState(p) for p in model.layers]
        taped = [LayerState(p) for p in model.layers]
        for tok in (3, 1, 4):
            X = _encode_inputs(model, np.array([[tok]]))
            outs, _ = stack_forward(model.layers, X, state=taped)
            rows = stack_step(model.layers, X[0], state)
            assert all(np.array_equal(o[0], r) for o, r in zip(outs, rows))


@pytest.mark.parametrize("kind", [k.value for k in TRAIN_KINDS])
def test_stepping_updates_the_state_in_place(kind):
    """A window and a step write every carried array of a ``LayerState`` in
    place, and the row a step returns for a layer is that layer's ``h``."""
    model = _model(kind, "char")
    state = [LayerState(p) for p in model.layers]
    arrays = [(st.h, st.c, st.xx) for st in state]
    X = _encode_inputs(model, np.array([[2], [5], [3], [1]]))
    stack_forward(model.layers, X[:2], state=state)
    for x in X[2:]:
        rows = stack_step(model.layers, x, state)
        assert all(row is st.h for row, st in zip(rows, state))
    for st, (h, c, xx) in zip(state, arrays):
        assert st.h is h and st.c is c and st.xx is xx
