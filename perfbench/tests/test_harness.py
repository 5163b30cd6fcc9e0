"""The harness's token counts agree with what the library actually does."""

import numpy as np
import pytest

import harness
import workloads
from typedrnn import data, training


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_eval_tokens_match_evaluate(name, monkeypatch):
    w = workloads.WORKLOADS[name]
    text = w.make_text(7)
    vocab = data.build_vocab(text, w.level, w.max_words)
    corpus = data.encode_and_split(text, vocab)
    config = training.TrainConfig(arch="t_rnn", layers=1, hidden=4, level=w.level)
    model = training.build_model(config, vocab, np.random.default_rng(0))

    scored = 0
    batch_iter = training.batch_iter

    def counting(*args, **kwargs):
        nonlocal scored
        for X, Y in batch_iter(*args, **kwargs):
            scored += X.size
            yield X, Y

    monkeypatch.setattr(training, "batch_iter", counting)
    training.evaluate(
        model, corpus, "test",
        seq_len=workloads.EVAL_SEQ_LEN, batch=workloads.EVAL_BATCH,
    )
    assert scored == harness.eval_tokens(len(corpus.test)) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_windows_match_batch_iter(name):
    w = workloads.WORKLOADS[name]
    text = w.make_text(7)
    corpus = data.encode_and_split(text, data.build_vocab(text, w.level, w.max_words))
    got = sum(1 for _ in data.batch_iter(corpus.train, workloads.SEQ_LEN, workloads.BATCH))
    assert got == harness.n_windows(len(corpus.train), workloads.SEQ_LEN, workloads.BATCH) > 0
