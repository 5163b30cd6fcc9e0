"""Every benchmark check passes on the library's output and fails on a
deliberately perturbed model or output."""

import math

import numpy as np
import pytest

import checks
from tracing import tape_bytes
from typedrnn import autodiff, cells, checkpoint, data, training


@pytest.fixture(scope="module")
def corpus():
    text = data.synthetic_corpus(20_000, seed=0)
    return data.encode_and_split(text, data.build_vocab(text))


@pytest.fixture(scope="module", params=["t_lstm", "gru"])
def trained(request, corpus):
    config = training.TrainConfig(
        arch=request.param, layers=2, hidden=12, seq_len=20, batch=8, log_every=10
    )
    return training.train(config, corpus)


@pytest.fixture(scope="module")
def word_model():
    text = " ".join(f"w{i % 37}" for i in range(3000))
    vocab = data.build_vocab(text, "word")
    config = training.TrainConfig(
        arch="t_gru", layers=2, hidden=8, level="word", seq_len=10, batch=4
    )
    return training.build_model(config, vocab, np.random.default_rng(3))


def test_window_loss_check(trained, corpus):
    model, metrics = trained
    checks.check_window_loss(metrics, model.vocab.size)
    bad = training.Metrics(list(metrics.rows))
    row = bad.rows[-3]
    bad.rows[-3] = training.MetricsRow(
        row.epoch, row.step, row.split, math.log(model.vocab.size),
        row.perplexity, row.grad_norm, row.wall_ms,
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_window_loss(bad, model.vocab.size)
    with pytest.raises(checks.CheckFailed):
        checks.check_window_loss(training.Metrics(bad.rows[-2:]), model.vocab.size)


def test_eval_oracle_check(trained, corpus, monkeypatch):
    model, _ = trained
    ids = corpus.test[:21]
    checks.check_eval_oracle(model, ids)

    forward = training.stack_forward

    def nudged_forward(*args, **kwargs):
        outs, tape = forward(*args, **kwargs)
        outs[-1] = outs[-1] + 1e-3
        return outs, tape

    monkeypatch.setattr(training, "stack_forward", nudged_forward)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_oracle(model, ids)


def test_eval_oracle_check_word_level(word_model):
    ids = np.arange(11) % word_model.vocab.size
    checks.check_eval_oracle(word_model, ids)
    word_model.embed[ids[3]] += 1e-6
    loss = checks.oracle_loss(word_model, ids)
    word_model.embed[ids[3]] -= 1e-6
    assert loss != checks.oracle_loss(word_model, ids)


def test_eval_oracle_check_catches_wrong_loss(trained, corpus, monkeypatch):
    model, _ = trained
    evaluate = training.evaluate

    def off(*args, **kwargs):
        loss, ppl = evaluate(*args, **kwargs)
        return loss * (1.0 + 1e-8), ppl

    monkeypatch.setattr(training, "evaluate", off)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_oracle(model, corpus.test[:21])


@pytest.mark.parametrize("level", ["char", "word"])
def test_gradient_check(level, trained, word_model, corpus, monkeypatch):
    model = trained[0] if level == "char" else word_model
    source = corpus.train if level == "char" else np.arange(400) % model.vocab.size
    X_ids, _ = next(data.batch_iter(source, 10, 4))
    checks.check_gradient(model, X_ids, np.random.default_rng(0))

    backward = autodiff.stack_backward

    def skewed(layers, tape, dH):
        grads, dX = backward(layers, tape, dH)
        grads[0] = {name: g * (1.0 + 1e-3) for name, g in grads[0].items()}
        return grads, dX

    monkeypatch.setattr(autodiff, "stack_backward", skewed)
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient(model, X_ids, np.random.default_rng(0))


def test_gradient_check_covers_the_input_gradient(trained, corpus, monkeypatch):
    model, _ = trained
    X_ids, _ = next(data.batch_iter(corpus.train, 10, 4))
    backward = autodiff.stack_backward

    def skewed_input(layers, tape, dH):
        grads, dX = backward(layers, tape, dH)
        return grads, dX * (1.0 + 1e-3)

    monkeypatch.setattr(autodiff, "stack_backward", skewed_input)
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient(model, X_ids, np.random.default_rng(0))


def test_round_trip_check(trained, corpus, tmp_path):
    model, _ = trained
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(training.model_to_checkpoint(model), path)
    loaded = training.model_from_checkpoint(checkpoint.load_checkpoint(path))
    before, _ = training.evaluate(model, corpus, "test")
    after, _ = training.evaluate(loaded, corpus, "test")
    checks.check_same_loss(before, after)

    loaded.b_out[0] += 1e-9
    nudged, _ = training.evaluate(loaded, corpus, "test")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_loss(before, nudged)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_loss(math.nan, math.nan)


@pytest.mark.parametrize("level", ["char", "word"])
def test_sample_check(level, trained, word_model):
    model = trained[0] if level == "char" else word_model
    seed_text = model.vocab.decode([1, 2, 3])
    a = training.sample(model, seed_text, 30, seed=5)
    b = training.sample(model, seed_text, 30, seed=5)
    checks.check_sample(a, b, seed_text, 30, model.vocab)

    other = training.sample(model, seed_text, 30, seed=6)
    sep = "" if level == "char" else " "
    outside = "#" if level == "char" else "nonword"
    bad = [
        (a, other, 30),  # different seeds
        (a, a, 29),  # one token more than asked for
        (a[:-1], a[:-1], 30) if level == "char" else (a + " w1", a + " w1", 30),
        (a + sep + outside, a + sep + outside, 31),  # outside the vocabulary
        ("x" + a, "x" + a, 30),  # seed not at the start
    ]
    for first, second, n in bad:
        with pytest.raises(checks.CheckFailed):
            checks.check_sample(first, second, seed_text, n, model.vocab)


def test_same_params_check(trained):
    model, _ = trained
    want = {k: v.copy() for k, v in model.tensors().items()}
    checks.check_same_params(want, model.tensors())
    got = {k: v.copy() for k, v in want.items()}
    got["out.b"][0] = np.nextafter(got["out.b"][0], 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_params(want, got)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_params(want, {k: v for k, v in want.items() if k != "out.b"})


def test_tape_bytes_counts_each_buffer_once():
    base = np.zeros((5, 2, 3))
    tape = cells.StackTape(
        layer_tapes=[cells.LayerTape(cells.CellKind.T_RNN, X=base[1:], H=base, F=np.ones(4))],
        masks=[None],
    )
    assert tape_bytes(tape) == base.nbytes + 4 * 8
