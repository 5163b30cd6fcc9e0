"""Language-model training loop: objective, schedule, metrics, sampling."""

import csv
import dataclasses
import io
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import TRAIN_KINDS

from typedrnn import training
from typedrnn.cells import LayerState, Workspace, stack_forward
from typedrnn.data import (
    UNK,
    DataError,
    Vocab,
    batch_iter,
    build_vocab,
    encode_and_split,
    synthetic_corpus,
)
from typedrnn.training import (
    METRICS_HEADER,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    _output_head,
    _window_pass,
    build_model,
    cross_entropy,
    evaluate,
    model_from_checkpoint,
    model_to_checkpoint,
    sample,
    train,
)


def _tiny_corpus(text, level="char"):
    vocab = build_vocab(text, level=level)
    return encode_and_split(text, vocab)


def test_train_config_validation():
    TrainConfig(arch="t_rnn")
    with pytest.raises(ValueError, match="is not a valid CellKind"):
        TrainConfig(arch="scrn_state")
    with pytest.raises(ValueError, match="level must be 'char' or 'word', got 'byte'"):
        TrainConfig(arch="t_rnn", level="byte")
    with pytest.raises(ValueError, match="layers must be at least 1"):
        TrainConfig(arch="t_rnn", layers=0)
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        TrainConfig(arch="t_rnn", lr=0.0)
    with pytest.raises(ValueError, match=re.escape("lr_decay must lie in (0, 1]")):
        TrainConfig(arch="t_rnn", lr_decay=0.0)
    with pytest.raises(ValueError, match=re.escape("dropout must lie in [0, 1)")):
        TrainConfig(arch="t_rnn", dropout=1.0)
    with pytest.raises(ValueError, match="clip must be positive"):
        TrainConfig(arch="t_rnn", clip=-1.0)
    for name in ("lr", "clip"):
        with pytest.raises(ValueError, match=name):
            TrainConfig(arch="t_rnn", **{name: float("nan")})
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(arch="t_rnn", lr=float("inf"))
    with pytest.raises(ValueError, match="decay_start"):
        TrainConfig(arch="t_rnn", decay_start=-1)
    TrainConfig(arch="t_rnn", decay_start=0)
    with pytest.raises(ValueError, match="unknown init scheme 'he'"):
        TrainConfig(arch="t_rnn", init="he")
    with pytest.raises(ValueError, match="identity init only applies to the classical rnn"):
        TrainConfig(arch="t_lstm", init="identity")
    TrainConfig(arch="rnn", init="identity")
    with pytest.raises(ValueError, match="log_every"):
        TrainConfig(arch="t_rnn", log_every=0)
    with pytest.raises(ValueError, match="OPENBLAS_NUM_THREADS"):
        TrainConfig(arch="t_rnn", threads=2)


def test_train_rejects_a_corpus_of_another_level():
    corpus = _tiny_corpus("abcabcabd" * 40)
    config = TrainConfig(arch="t_rnn", level="word", hidden=4, seq_len=5, batch=2)
    with pytest.raises(ValueError, match="does not match config level"):
        train(config, corpus)


def test_lr_schedule():
    cfg = TrainConfig(arch="t_rnn", lr=1.0, lr_decay=0.5, decay_start=2)
    assert [cfg.lr_for_epoch(e) for e in (1, 2, 3, 4)] == [1.0, 1.0, 0.5, 0.25]
    flat = TrainConfig(arch="t_rnn", lr=0.3)
    assert flat.lr_for_epoch(10) == pytest.approx(0.3)


def _head_reference(top, Y, w_out, b_out, grad_scale):
    """Summed loss and (gW, gb, d_top) from one whole-array log-softmax."""
    logits = top @ w_out.T + b_out
    logp = logits - logits.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    rows = np.arange(len(Y))
    dlogits = np.exp(logp)
    dlogits[rows, Y] -= 1.0
    dlogits *= grad_scale
    return -logp[rows, Y].sum(), (dlogits.T @ top, dlogits.sum(axis=0), dlogits @ w_out)


def test_cross_entropy_matches_batch_loss():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-2, 2, size=(3, 2, 5))
    Y = rng.integers(0, 5, size=(3, 2))
    # With top = I and a zero bias the head's projection is exactly
    # ``logits``, and gW is exactly the transposed logit gradient.
    w_out = logits.reshape(6, 5).T.copy()
    total, (gW, gb, d_top) = _output_head(
        np.eye(6), Y.reshape(6), w_out, np.zeros(5), grad_scale=1.0 / 2
    )
    loss = total / 6
    dlogits = gW.T.reshape(3, 2, 5)
    per_token = [
        cross_entropy(logits[t, b], int(Y[t, b]))
        for t in range(3)
        for b in range(2)
    ]
    assert loss == pytest.approx(np.mean(per_token), abs=1e-12)
    # gradient of the time-summed batch-mean objective: rows sum to zero and
    # finite differences on one logit agree
    assert np.max(np.abs(dlogits.sum(axis=-1))) < 1e-12
    assert abs(gb.sum()) < 1e-12
    _, (_, ref_gb, ref_d_top) = _head_reference(
        np.eye(6), Y.reshape(6), w_out, np.zeros(5), 1.0 / 2
    )
    assert np.max(np.abs(gb - ref_gb)) < 1e-12
    assert np.max(np.abs(d_top - ref_d_top)) < 1e-12
    eps = 1e-6
    bumped = logits.copy()
    bumped[1, 1, 3] += eps
    lp = sum(
        cross_entropy(bumped[t, b], int(Y[t, b])) for t in range(3) for b in range(2)
    ) / 2.0
    lm = sum(
        cross_entropy(logits[t, b], int(Y[t, b])) for t in range(3) for b in range(2)
    ) / 2.0
    assert dlogits[1, 1, 3] == pytest.approx((lp - lm) / eps, abs=1e-5)

    with pytest.raises(ValueError, match="logits must be a vector"):
        cross_entropy(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError, match="target 5 out of range for 3 classes"):
        cross_entropy(np.zeros(3), 5)


def _assert_window_grads_match_fd(model, X_ids, Y_ids, names):
    # The analytic gradients come through a workspace that an earlier
    # window already filled, as in training.
    ws = Workspace()
    _window_pass(model, X_ids, Y_ids, None, 0.0, None, ws)
    loss, grads = _window_pass(model, X_ids, Y_ids, None, 0.0, None, ws)
    tensors = model.tensors()
    assert set(grads) == set(tensors)
    grads = {name: g.copy() for name, g in grads.items()}

    T, B = X_ids.shape
    eps = 1e-6
    for name in names:
        arr = tensors[name]
        flat = arr.flat  # writes through to the cell's learnware block
        # The three largest entries (for a layer-0 matrix, in the one-hot
        # columns of characters in the window) sit far above ``abs`` below,
        # so a wrong gradient cannot hide under the tolerance.
        g = grads[name].reshape(-1)
        picks = np.argsort(-np.abs(g), kind="stable")[:3]
        assert np.min(np.abs(g[picks])) > 1e-3, name
        for k in map(int, picks):
            orig = flat[k]
            flat[k] = orig + eps
            lp, _ = _window_pass(model, X_ids, Y_ids, None, 0.0, None)
            flat[k] = orig - eps
            lm, _ = _window_pass(model, X_ids, Y_ids, None, 0.0, None)
            flat[k] = orig
            # _window_pass reports the per-token mean; the gradient is of the
            # time-summed batch mean, T times larger
            fd = T * (lp - lm) / (2 * eps)
            assert g[k] == pytest.approx(fd, rel=1e-4, abs=1e-7), name


def _spread(model, scale=12.0):
    """Scale every weight up from the U(-0.08, 0.08) init, where the
    gradients of the lower layers are of order 1e-7 and below."""
    for arr in model.tensors().values():
        arr *= scale
    return model


def test_window_pass_gradients_match_finite_differences():
    text = "the quick brown fox jumps over the lazy dog " * 4
    corpus = _tiny_corpus(text)
    cfg = TrainConfig(arch="t_lstm", layers=2, hidden=5, seq_len=6, batch=2, seed=3)
    rng = np.random.default_rng(cfg.seed)
    model = _spread(build_model(cfg, corpus.vocab, rng))
    X = corpus.train[:13]
    X_ids = np.stack([X[:6], X[6:12]], axis=1)
    Y_ids = np.stack([X[1:7], X[7:13]], axis=1)
    _assert_window_grads_match_fd(
        model, X_ids, Y_ids, ("layer0.W_z", "layer1.V_f", "out.W", "out.b", "layer0.b_o")
    )


def test_output_head_row_blocks_match_whole_array(monkeypatch):
    rng = np.random.default_rng(1)
    n, h, k = 11, 4, 7
    top = rng.standard_normal((n, h))
    w_out = rng.uniform(-1, 1, size=(k, h))
    b_out = rng.uniform(-1, 1, size=k)
    Y = rng.integers(0, k, size=n)
    # 3 rows per block: blocks of 3, 3, 3 and a ragged 2
    monkeypatch.setattr(training, "_HEAD_BLOCK_BYTES", 8 * k * 3)
    total, grads = _output_head(top, Y, w_out, b_out, grad_scale=0.25)
    ref_total, ref_grads = _head_reference(top, Y, w_out, b_out, 0.25)
    assert total == pytest.approx(ref_total, rel=1e-12)
    for got, want in zip(grads, ref_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the loss-only call walks the same blocks
    assert _output_head(top, Y, w_out, b_out) == (total, None)

    # a word-level window of 6 x 2 rows spans blocks of 5, 5 and 2 rows
    words = np.random.default_rng(2).choice(["ka", "lo", "mi", "nu", "pe"], 1000)
    corpus = _tiny_corpus(" ".join(words), level="word")
    cfg = TrainConfig(
        arch="t_lstm", level="word", layers=2, hidden=5, seq_len=6, batch=2, seed=4
    )
    model = _spread(build_model(cfg, corpus.vocab, np.random.default_rng(cfg.seed)))
    monkeypatch.setattr(training, "_HEAD_BLOCK_BYTES", 8 * corpus.vocab.size * 5)
    X = corpus.train[:13]
    X_ids = np.stack([X[:6], X[6:12]], axis=1)
    Y_ids = np.stack([X[1:7], X[7:13]], axis=1)
    _assert_window_grads_match_fd(
        model, X_ids, Y_ids, ("embed.E", "layer1.W_z", "out.W", "out.b")
    )

    # evaluate scores 6 x 4 rows per window in blocks of 5
    per_token = []
    state = [LayerState(p, 4) for p in model.layers]
    for X_ids, Y_ids in batch_iter(corpus.valid, 6, 4):
        outs, _ = stack_forward(model.layers, model.embed[X_ids], state=state)
        logits = outs[-1] @ model.w_out.T + model.b_out
        per_token.extend(
            cross_entropy(logits[t, b], int(Y_ids[t, b]))
            for t in range(6)
            for b in range(4)
        )
    loss, _ = evaluate(model, corpus, "valid", seq_len=6, batch=4)
    assert loss == pytest.approx(np.mean(per_token), rel=1e-12)


def test_window_pass_never_holds_a_full_logit_block():
    K, T, B = 4000, 50, 32
    vocab = Vocab("word", [UNK] + [f"w{i}" for i in range(K - 1)])
    cfg = TrainConfig(arch="t_lstm", level="word", layers=2, hidden=64,
                      seq_len=T, batch=B)
    rng = np.random.default_rng(0)
    model = build_model(cfg, vocab, rng)
    X_ids = rng.integers(0, K, size=(T, B))
    Y_ids = rng.integers(0, K, size=(T, B))
    tracemalloc.start()
    try:
        _window_pass(model, X_ids, Y_ids, None, 0.0, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < T * B * K * 8  # one (T*B, K) float64 logit block, 51.2 MB


@pytest.fixture
def deadline():
    """Fail a test that blocks for a minute, instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("blocked for 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, in order."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def _word_setup(monkeypatch):
    """A 2-layer word-level t-lstm whose head walks blocks of 5 rows."""
    words = np.random.default_rng(2).choice(["ka", "lo", "mi", "nu", "pe"], 3000)
    corpus = _tiny_corpus(" ".join(words), level="word")
    cfg = TrainConfig(arch="t_lstm", level="word", layers=2, hidden=6,
                      seq_len=8, batch=3, seed=5)
    model = _spread(build_model(cfg, corpus.vocab, np.random.default_rng(cfg.seed)))
    monkeypatch.setattr(training, "_HEAD_BLOCK_BYTES", 8 * corpus.vocab.size * 5)
    return corpus, cfg, model


def _head_windows(model, corpus, cfg):
    """Loss, gradients and ``d_top`` of two windows through one workspace."""
    ws = Workspace()
    state = [LayerState(p, cfg.batch) for p in model.layers]
    seen = []
    for X_ids, Y_ids in list(batch_iter(corpus.train, cfg.seq_len, cfg.batch))[:2]:
        loss, grads = _window_pass(model, X_ids, Y_ids, state, 0.0, None, ws)
        d_top = ws.get("head.d_top", (cfg.seq_len * cfg.batch, cfg.hidden))
        seen.append((loss, {n: g.copy() for n, g in grads.items()}, d_top.copy()))
    return seen


def _same_windows(run1, run2):
    """Whether two ``_head_windows`` results hold the same bits."""
    return all(
        l1 == l2 and np.array_equal(d1, d2) and g1.keys() == g2.keys()
        and all(np.array_equal(g1[n], g2[n]) for n in g1)
        for (l1, g1, d1), (l2, g2, d2) in zip(run1, run2)
    )


def test_head_handoff_joins_every_block(monkeypatch, deadline):
    """With products that start each block late, and with products that do
    not under a short thread switch interval, a 5-block head gives the same
    bits as running them inline: the caller waits for a block before
    reusing its logit buffer, and for every block, the last one included,
    before it returns."""
    corpus, cfg, model = _word_setup(monkeypatch)  # 24 rows: 5 blocks
    monkeypatch.setattr(training, "_spare_core", lambda: False)
    inline = _head_windows(model, corpus, cfg)
    monkeypatch.setattr(training, "_spare_core", lambda: True)
    products = training._head_grads

    def slow(*args):
        time.sleep(0.005)
        products(*args)

    monkeypatch.setattr(training, "_head_grads", slow)
    handed = [_head_windows(model, corpus, cfg)]
    monkeypatch.setattr(training, "_head_grads", products)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        handed.append(_head_windows(model, corpus, cfg))
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_windows(inline, run) for run in handed)


@pytest.mark.parametrize("block", [1, 3, 4])
def test_head_worker_raises_a_task_error_in_the_caller(
    monkeypatch, deadline, thread_starts, block
):
    """Block 1's error reaches the caller through the wait before block 3
    reuses its buffer, the errors of block 3 and of block 4 (the last) only
    through the reads after the last block; either way the head's thread is
    gone."""
    corpus, cfg, model = _word_setup(monkeypatch)  # 24 rows: 5 blocks
    monkeypatch.setattr(training, "_spare_core", lambda: True)
    expected = _head_windows(model, corpus, cfg)
    products = training._head_grads
    calls = []

    def fail_one(*args):
        calls.append(1)
        if len(calls) == block + 1:
            raise FloatingPointError(f"block {block}")
        products(*args)

    before = threading.active_count()
    monkeypatch.setattr(training, "_head_grads", fail_one)
    with pytest.raises(FloatingPointError, match=f"block {block}"):
        _head_windows(model, corpus, cfg)
    assert thread_starts and not any(t.is_alive() for t in thread_starts)
    assert threading.active_count() == before
    monkeypatch.setattr(training, "_head_grads", products)
    # later handoffs run, and the error is not raised again
    assert _same_windows(expected, _head_windows(model, corpus, cfg))


def test_forked_child_head_matches_the_parent(monkeypatch, deadline):
    """A child forked after the parent handed off head blocks gets the
    parent's bits from its own handoffs."""
    corpus, cfg, model = _word_setup(monkeypatch)
    monkeypatch.setattr(training, "_spare_core", lambda: True)
    expected = _head_windows(model, corpus, cfg)
    pid = os.fork()
    if pid == 0:  # the child reports by exit status only
        ok = False
        try:
            # a hang kills the child, whatever handler it inherited
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(30)
            ok = _same_windows(expected, _head_windows(model, corpus, cfg))
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_train_leaves_no_thread_running(monkeypatch, deadline, thread_starts):
    corpus, cfg, _ = _word_setup(monkeypatch)
    monkeypatch.setattr(training, "_spare_core", lambda: True)
    before = threading.active_count()
    for _ in range(3):
        train(cfg, corpus)
    assert thread_starts  # the head handed blocks off
    assert not any(t.is_alive() for t in thread_starts)
    assert threading.active_count() == before


def test_char_training_starts_no_thread(monkeypatch, thread_starts):
    """A character vocabulary fits a window's rows in one head block, which
    is never handed off."""
    corpus = _tiny_corpus(synthetic_corpus(6_000, seed=1))
    monkeypatch.setattr(training, "_spare_core", lambda: True)
    train(TrainConfig(arch="t_lstm", layers=2, hidden=6, seq_len=20, batch=4), corpus)
    assert thread_starts == []


def test_spare_core_reads_blas_threads_as_openblas_does(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert training._blas_threads() == 4 and not training._spare_core()
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert training._blas_threads() == 2 and training._spare_core()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert training._blas_threads() == 3 and not training._spare_core()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # unset, to OpenBLAS
    assert training._blas_threads() == 2


def _state_arrays(state):
    """Copies of the carried arrays of a list of ``LayerState``s."""
    arrays = (a for st in state for a in (st.h, st.c, st.xx))
    return [None if a is None else a.copy() for a in arrays]


def _same_states(s1, s2):
    return all(
        (x is None and y is None) or np.array_equal(x, y) for x, y in zip(s1, s2)
    )


@pytest.mark.parametrize("dropout", [0.0, 0.25])
@pytest.mark.parametrize(
    "kind,level",
    [(k.value, "char") for k in TRAIN_KINDS] + [("t_lstm", "word")],
)
def test_window_pass_through_a_workspace_is_bitwise_fresh(kind, level, dropout):
    if level == "word":
        words = np.random.default_rng(2).choice(["ka", "lo", "mi", "nu", "pe"], 3000)
        corpus = _tiny_corpus(" ".join(words), level="word")
    else:
        corpus = _tiny_corpus(synthetic_corpus(6_000, seed=1))
    cfg = TrainConfig(arch=kind, level=level, layers=2, hidden=6, seq_len=7,
                      batch=3, dropout=dropout, seed=2)
    model = build_model(cfg, corpus.vocab, np.random.default_rng(cfg.seed))
    windows = list(batch_iter(corpus.train, cfg.seq_len, cfg.batch))[:3]
    ws = Workspace()
    runs = []
    for w in (None, ws):
        rng = np.random.default_rng(9) if dropout > 0.0 else None
        state = [LayerState(p, cfg.batch) for p in model.layers]
        seen = []
        for X_ids, Y_ids in windows:
            loss, grads = _window_pass(model, X_ids, Y_ids, state, dropout, rng, w)
            # copies: the workspace's gradients last until its next use
            grads = {n: g.copy() for n, g in grads.items()}
            seen.append((loss, grads, _state_arrays(state)))
        runs.append(seen)
    for (l1, g1, s1), (l2, g2, s2) in zip(*runs):
        assert l1 == l2
        assert g1.keys() == g2.keys()
        assert all(np.array_equal(g1[n], g2[n]) for n in g1)
        assert _same_states(s1, s2)
    # the state holds copies: later use of the workspace leaves it alone
    kept = _state_arrays(state)
    _window_pass(model, *windows[0], None, dropout, np.random.default_rng(1), ws)
    assert _same_states(kept, _state_arrays(state))
    # evaluate through the used workspace, with another batch, is unchanged
    want = evaluate(model, corpus, "valid", seq_len=5, batch=2)
    assert evaluate(model, corpus, "valid", seq_len=5, batch=2, ws=ws) == want


@pytest.mark.parametrize("kind", [k.value for k in TRAIN_KINDS])
def test_window_pass_reuses_workspace_memory(kind):
    """From the second window on, a char-level window through one workspace
    allocates almost nothing new (fresh allocation: 4.8-19.2 MiB)."""
    corpus = _tiny_corpus(synthetic_corpus(20_000, seed=1))
    cfg = TrainConfig(arch=kind, layers=2, hidden=64, seq_len=50, batch=32)
    model = build_model(cfg, corpus.vocab, np.random.default_rng(0))
    windows = batch_iter(corpus.train, cfg.seq_len, cfg.batch)
    ws = Workspace()
    state = [LayerState(p, cfg.batch) for p in model.layers]
    _window_pass(model, *next(windows), state, 0.0, None, ws)
    for _ in range(2):
        tracemalloc.start()
        try:
            _window_pass(model, *next(windows), state, 0.0, None, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak


def test_clip_through_a_workspace_reuses_its_square_buffer():
    """At word level with K=4000, the global norm squares each gradient into
    one reused buffer (a fresh square per tensor peaks at 2.02 MiB), and
    sums the squares in the same order as a fresh ``g ** 2``."""
    words = np.random.default_rng(3).zipf(1.2, size=40_000) % 6000
    text = " ".join(f"w{i}" for i in words)
    vocab = build_vocab(text, level="word", max_words=4000)
    corpus = encode_and_split(text, vocab)
    assert vocab.size == 4000
    cfg = TrainConfig(arch="t_lstm", level="word", layers=2, hidden=64,
                      seq_len=50, batch=32)
    model = build_model(cfg, vocab, np.random.default_rng(0))
    windows = batch_iter(corpus.train, cfg.seq_len, cfg.batch)
    ws = Workspace()
    state = [LayerState(p, cfg.batch) for p in model.layers]
    for clip in (2.5, 1e-3):
        _, grads = _window_pass(model, *next(windows), state, 0.0, None, ws)
        total = sum(float(np.sum(np.asarray(g) ** 2)) for g in grads.values())
        tracemalloc.start()
        try:
            _, norm = training.clip_global_norm(grads, clip, ws=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm == float(np.sqrt(total))
        if clip < 1.0:  # the buffer exists from the first clip on
            assert norm > clip and peak < 2**19, peak


def test_untrained_model_scores_near_uniform():
    text = synthetic_corpus(20_000, seed=1)
    corpus = _tiny_corpus(text)
    cfg = TrainConfig(arch="gru", hidden=16, seed=0)
    model = build_model(cfg, corpus.vocab, np.random.default_rng(0))
    loss, ppl = evaluate(model, corpus, "valid")
    assert abs(loss - math.log(corpus.vocab.size)) < 0.05
    assert ppl == pytest.approx(math.exp(loss))


def test_training_learns_an_alternating_corpus():
    text = "ab" * 3000
    corpus = _tiny_corpus(text)
    cfg = TrainConfig(
        arch="t_rnn", layers=1, hidden=8, seq_len=20, batch=4,
        epochs=3, lr=0.5, clip=2.5, seed=0, log_every=50,
    )
    model, metrics = train(cfg, corpus)
    loss, _ = evaluate(model, corpus, "test")
    assert loss < 0.05  # a period-2 stream is nearly free to predict
    val_rows = [r for r in metrics.rows if r.split == "val"]
    assert len(val_rows) == cfg.epochs
    assert all(r.grad_norm == 0.0 for r in val_rows)


def test_training_is_deterministic_under_seed():
    text = synthetic_corpus(8_000, seed=2)
    corpus = _tiny_corpus(text)
    base = dict(hidden=10, seq_len=20, batch=4, epochs=1, seed=5)
    # the 2-layer dropout run covers the x_prev carry and the mask draws
    for cfg in (
        TrainConfig(arch="t_gru", **base),
        TrainConfig(arch="t_lstm", layers=2, dropout=0.25, log_every=10, **base),
    ):
        m1, k1 = train(cfg, corpus)
        m2, k2 = train(cfg, corpus)
        for (n1, t1), (n2, t2) in zip(m1.tensors().items(), m2.tensors().items()):
            assert n1 == n2 and np.array_equal(t1, t2), n1
        assert [r.loss_nats for r in k1.rows] == [r.loss_nats for r in k2.rows]
        assert [r.grad_norm for r in k1.rows] == [r.grad_norm for r in k2.rows]


def test_training_diverges_loudly_at_huge_lr():
    text = synthetic_corpus(8_000, seed=3)
    corpus = _tiny_corpus(text)
    # with clipping on, an infinite norm must not zero the gradients that
    # name the first non-finite tensor
    for clip in (None, 2.5):
        cfg = TrainConfig(
            arch="t_mr", hidden=16, seq_len=20, batch=4, epochs=1,
            lr=1e9, clip=clip, seed=0,
        )
        diverged = "^training diverged at epoch 1 step "
        with pytest.raises(TrainingDiverged, match=diverged) as e:
            train(cfg, corpus)
        assert e.value.epoch == 1 and e.value.step >= 1
        # the loss is still finite; layer0.W, first in model order, is the
        # first gradient whose entries square past float64's range
        assert math.isfinite(e.value.loss) and not math.isfinite(e.value.grad_norm)
        assert e.value.tensor == "layer0.W", clip
        assert str(e.value).endswith("first non-finite: layer0.W")
    grads = {"a": np.ones(2), "b": np.array([1.0, np.nan]), "c": np.ones(1)}
    weights = {"a": np.ones(2), "b": np.ones(2), "c": np.ones(1)}
    assert training._first_non_finite(math.nan, grads, weights) == "loss"
    assert training._first_non_finite(1.0, grads, weights) == "b"
    # a weight that an update overflowed goes ahead of the loss and gradients
    weights["c"] = np.array([np.inf])
    assert training._first_non_finite(math.nan, grads, weights) == "c"


def test_metrics_rows_and_csv_schema(tmp_path):
    m = Metrics()
    m.log(1, 10, "train", 1.5, 0.25, 12.5)
    m.log(1, 10, "val", 2.0, 0.0, 3.0)
    m.log(2, 20, "train", 800.0, 1.0, 1.0)  # perplexity saturates to inf
    assert m.rows[0].perplexity == pytest.approx(math.exp(1.5), rel=1e-9)
    assert math.isinf(m.rows[2].perplexity)
    path = tmp_path / "metrics.csv"
    m.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    reader = csv.DictReader(io.StringIO(path.read_text()))
    rows = list(reader)
    assert len(rows) == 3
    assert rows[0]["split"] == "train"
    assert float(rows[0]["loss_nats"]) == 1.5
    assert float(rows[0]["perplexity"]) == pytest.approx(math.exp(1.5))
    assert float(rows[1]["grad_norm"]) == 0.0
    assert float(rows[2]["perplexity"]) == math.inf
    assert int(rows[2]["epoch"]) == 2


def test_sampling_contract():
    text = synthetic_corpus(8_000, seed=4)
    corpus = _tiny_corpus(text)
    prompt = text[:3]  # guaranteed to be encodable
    for arch in ("t_rnn", "t_lstm", "lstm"):
        cfg = TrainConfig(arch=arch, hidden=8, seq_len=20, batch=4, epochs=1, seed=0)
        model, _ = train(cfg, corpus)

        out = sample(model, prompt, 40, temperature=1.0, seed=9)
        assert out.startswith(prompt) and len(out) == 43, arch
        again = sample(model, prompt, 40, temperature=1.0, seed=9)
        assert out == again, arch
        other = sample(model, prompt, 40, temperature=1.0, seed=10)
        assert out != other, arch
        assert sample(model, prompt, 0) == prompt
        with pytest.raises(ValueError, match="temperature must be positive"):
            sample(model, prompt, 10, temperature=0.0)
        with pytest.raises(ValueError, match="n must be non-negative"):
            sample(model, prompt, -1)
        with pytest.raises(DataError, match="seed text encodes to no tokens"):
            sample(model, "", 5)
        with pytest.raises(DataError, match="not in vocabulary"):
            sample(model, "@#", 5)


def test_word_level_round_trip():
    text = "alpha beta gamma delta " * 200
    vocab = build_vocab(text, level="word")
    corpus = encode_and_split(text, vocab)
    cfg = TrainConfig(
        arch="gru", level="word", hidden=8, seq_len=10, batch=2, epochs=1, seed=0,
    )
    model, _ = train(cfg, corpus)
    assert model.embed is not None and model.embed.shape == (vocab.size, 8)
    out = sample(model, "alpha beta", 3, seed=0)
    tokens = out.split()
    assert tokens[:2] == ["alpha", "beta"] and len(tokens) == 5
    with pytest.raises(DataError, match="omega"):
        sample(model, "alpha omega", 3)


def test_checkpoint_bridge_round_trip():
    text = synthetic_corpus(8_000, seed=5)
    corpus = _tiny_corpus(text)
    cfg = TrainConfig(arch="t_lstm", layers=2, hidden=8, seq_len=20, batch=4,
                      epochs=1, seed=1)
    model, _ = train(cfg, corpus)
    ckpt = model_to_checkpoint(model)
    back = model_from_checkpoint(ckpt)
    assert back.arch == model.arch and back.level == model.level
    assert back.vocab.symbols == model.vocab.symbols
    for (n1, t1), (n2, t2) in zip(model.tensors().items(), back.tensors().items()):
        assert n1 == n2 and np.array_equal(t1, t2)
    l1, _ = evaluate(model, corpus, "test")
    l2, _ = evaluate(back, corpus, "test")
    assert l1 == l2  # bit-identical, not merely close

    broken = model_to_checkpoint(model)
    del broken.tensors["layer1.V_f"]
    with pytest.raises(ValueError, match="layer1.V_f"):
        model_from_checkpoint(broken)

    extra = model_to_checkpoint(model)
    extra.tensors["layer9.W"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="layer9.W"):
        model_from_checkpoint(extra)


def test_evaluate_handles_short_splits():
    text = "abcdefgh" * 40
    corpus = _tiny_corpus(text)
    cfg = TrainConfig(arch="rnn", hidden=6, seed=0)
    model = build_model(cfg, corpus.vocab, np.random.default_rng(0))
    loss, ppl = evaluate(model, corpus, "test", seq_len=100, batch=16)
    assert math.isfinite(loss) and ppl == pytest.approx(math.exp(loss))
    with pytest.raises(ValueError, match="unknown split 'future'"):
        evaluate(model, corpus, "future")
    one = dataclasses.replace(corpus, test=corpus.test[:1])
    with pytest.raises(DataError, match="'test' has 1 tokens; need at least 2"):
        evaluate(model, one, "test")


def test_evaluate_clamps_perplexity_of_a_huge_loss():
    corpus = _tiny_corpus(synthetic_corpus(4_000, seed=7))
    cfg = TrainConfig(arch="rnn", hidden=6, seed=0)
    rng = np.random.default_rng(0)
    model = build_model(cfg, corpus.vocab, rng)
    model.w_out[...] = rng.uniform(-1e5, 1e5, size=model.w_out.shape)
    loss, ppl = evaluate(model, corpus, "valid", seq_len=20, batch=4)
    assert math.isfinite(loss) and loss > 709.0
    assert ppl == math.inf
