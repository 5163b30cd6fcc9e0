"""End-to-end acceptance checks.

Each test exercises one library-level guarantee at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them). The long training matrix in criterion 8 dominates the runtime;
expect a few minutes on one core.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import T_KINDS, TRAIN_KINDS, draw_instance, rand_params, rand_scrn

from typedrnn.autodiff import bptt, finite_diff, sequence_backward, state_jacobian
from typedrnn.cells import (
    CellKind,
    CellParams,
    LayerState,
    init_params,
    scrn_state_step,
    sequence_forward,
)
from typedrnn.checkpoint import load_checkpoint, save_checkpoint
from typedrnn.cli import main
from typedrnn.data import build_vocab, encode_and_split, synthetic_corpus
from typedrnn.dsl.builtin import (
    BUILTIN_CELLS,
    builtin_spec,
    builtin_text,
    interp_params,
    port_names,
)
from typedrnn.dsl.checker import typecheck
from typedrnn.dsl.interp import interpret_step
from typedrnn.dsl.parser import parse_spec
from typedrnn.linalg import spectral_norm
from typedrnn.semantics import POOLED_FORWARD, closed_form_gradients, pooling_weights
from typedrnn.training import (
    METRICS_HEADER,
    TrainConfig,
    evaluate,
    model_from_checkpoint,
    model_to_checkpoint,
    train,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{label}]: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} [{label}] failed: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1 + 2: pooled forward equals the recurrence; pooling mass sums to 1
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pooled_sweep():
    """100 random instances per typed kind (hidden <= 8, T <= 20), checked
    both for pooled-vs-recurrent agreement and pooling-mass conservation."""
    rng = np.random.default_rng(11)
    gaps: dict[CellKind, float] = {}
    mass: dict[CellKind, float] = {}
    t0 = time.perf_counter()
    for kind in T_KINDS:
        fn = POOLED_FORWARD[kind]
        worst_gap = 0.0
        worst_mass = 0.0
        for _ in range(100):
            h = int(rng.integers(1, 9))
            d = int(rng.integers(2, 7))
            t = int(rng.integers(1, 21))
            params = rand_params(kind, d, h, rng)
            X = rng.uniform(-1.0, 1.0, size=(t, d))
            pooled = fn(params, X)
            out, tape = sequence_forward(params, X[:, None, :])
            worst_gap = max(worst_gap, float(np.max(np.abs(pooled - out[-1, 0]))))
            P, residual = pooling_weights(tape.F[:, 0, :])
            err = np.abs(P.sum(axis=0) + residual - 1.0)
            worst_mass = max(worst_mass, float(np.max(err)))
        gaps[kind] = worst_gap
        mass[kind] = worst_mass
    return gaps, mass, time.perf_counter() - t0


def test_criterion_01_pooled_equals_recurrent(pooled_sweep):
    gaps, _, elapsed = pooled_sweep
    worst = max(gaps.values())
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "pooled forward vs recurrence",
            ok, f"max abs gap {worst:.3e} over 300 instances in {elapsed:.2f}s")


def test_criterion_02_pooling_mass_conservation(pooled_sweep):
    _, mass, _ = pooled_sweep
    worst = max(mass.values())
    _report(2, "pooling mass conservation",
            worst <= 1e-12, f"max |sum P + residual - 1| = {worst:.3e}")


# ---------------------------------------------------------------------------
# Criterion 3: gradients vs finite differences and vs the analytic pooled form
# ---------------------------------------------------------------------------


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_cf = 0.0
    for kind in TRAIN_KINDS:
        for _ in range(20):
            params, X = draw_instance(kind, rng, h_max=4, t_max=8, d_max=4)
            u = rng.uniform(-1.0, 1.0, size=(1, params.hidden_dim))

            def loss(p, X=X, u=u):
                out, _ = sequence_forward(p, X)
                return float(np.sum(u * out[-1]))

            res = bptt(params, X, u)
            fd = finite_diff(params, loss, eps=1e-5)
            for name, g in res.params.items():
                num = float(np.max(np.abs(g - fd[name])))
                den = max(float(np.max(np.abs(fd[name]))), 1e-8)
                worst_rel = max(worst_rel, num / den)
            if kind in POOLED_FORWARD:
                cf = closed_form_gradients(params, X[:, 0, :], u[0])
                for name in cf:
                    gap = float(np.max(np.abs(cf[name] - res.params[name])))
                    worst_cf = max(worst_cf, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-4 and worst_cf <= 1e-8 and elapsed < 60.0
    _report(3, "backprop vs oracles", ok,
            f"finite-diff rel {worst_rel:.3e}, pooled-form abs {worst_cf:.3e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: typed state Jacobians stay bounded; a spectral-norm-3 vanilla
# RNN explodes
# ---------------------------------------------------------------------------


def _rnn_horizon_norms(seed: int) -> tuple[list[float], float]:
    """Infinity norms of d h_T / d h_1 for T in {5, 10, 20} for a vanilla RNN
    whose recurrent matrix is scaled to spectral norm 3, rolled out on a zero
    input sequence (which keeps tanh in its linear regime, so the Jacobian is
    exactly a matrix power). Returns the norms and the worst relative gap to
    the directly computed powers of V."""
    rng = np.random.default_rng(seed)
    params = init_params(CellKind.RNN, 8, 16, rng)
    V = rng.standard_normal((16, 16))
    V *= 3.0 / spectral_norm(V)
    params = CellParams(CellKind.RNN, 8, 16, {**params.tensors, "V": V})
    X = np.zeros((20, 8))
    norms: list[float] = []
    power_gap = 0.0
    for T in (5, 10, 20):
        state = LayerState(params)  # carries h_1 into the window that follows
        sequence_forward(params, X[:1][:, None, :], state)
        _, tape = sequence_forward(params, X[1:T][:, None, :], state)
        J = np.empty((16, 16))
        dH = np.zeros((T - 1, 1, 16))
        for i in range(16):
            basis = np.zeros((1, 16))
            basis[0, i] = 1.0
            res = sequence_backward(params, tape, dH, dh_final=basis)
            J[i] = res.dh0[0]
        norm = float(np.abs(J).sum(axis=1).max())
        ref = float(np.abs(np.linalg.matrix_power(V, T - 1)).sum(axis=1).max())
        power_gap = max(power_gap, abs(norm - ref) / ref)
        norms.append(norm)
    return norms, power_gap


def test_criterion_04_bounded_vs_exploding_gradients():
    rng = np.random.default_rng(31)
    worst = 0.0
    for kind in (CellKind.T_RNN, CellKind.T_LSTM):
        for _ in range(50):
            h = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            t = int(rng.integers(2, 13))
            params = rand_params(kind, d, h, rng)
            X = rng.uniform(-1.0, 1.0, size=(t, d))
            J = state_jacobian(params, X)
            worst = max(worst, float(np.abs(J).sum(axis=1).max()))
    bounded_ok = worst <= 1.0

    growth_ok = True
    grown = []
    for seed in (0, 1, 2):
        norms, power_gap = _rnn_horizon_norms(seed)
        growth_ok = growth_ok and norms[0] < norms[1] < norms[2]
        growth_ok = growth_ok and power_gap < 1e-10
        grown.append(norms[-1] / norms[0])
    _report(4, "bounded typed gradients", bounded_ok and growth_ok,
            f"typed worst inf-norm {worst:.4f} <= 1; vanilla RNN "
            f"T=5..20 growth factors {['%.1e' % g for g in grown]}")


# ---------------------------------------------------------------------------
# Criterion 5: type-checker verdicts against golden files
# ---------------------------------------------------------------------------


def test_criterion_05_typechecker_verdicts():
    ill = {"rnn", "lstm", "gru"}
    mismatches = []
    for name in BUILTIN_CELLS:
        verdict = typecheck(parse_spec(builtin_text(name)))
        rendered = verdict.render() + "\n"
        golden = (GOLDEN / f"verdict_{name}.txt").read_text(encoding="utf-8")
        if rendered != golden:
            mismatches.append(f"{name}: text drift")
        if verdict.well_typed == (name in ill):
            mismatches.append(f"{name}: wrong verdict class")
        if name in ill and "cycle" not in rendered:
            mismatches.append(f"{name}: missing cycle diagnostic")
    _report(5, "type-checker verdict goldens", not mismatches,
            f"{len(BUILTIN_CELLS)} specs checked"
            + (f"; {mismatches}" if mismatches else ""))


# ---------------------------------------------------------------------------
# Criterion 6: DSL interpreter equals the native cells
# ---------------------------------------------------------------------------


def _interp_native_gap(kind: CellKind, rng: np.random.Generator) -> float:
    spec = builtin_spec(kind.value)
    states, inputs = port_names(kind)
    out_name = "h" if kind == CellKind.T_LSTM else states[0] + "'"
    h = int(rng.integers(2, 7))
    d = int(rng.integers(2, 6))
    T = int(rng.integers(1, 9))
    params = rand_params(kind, d, h, rng)
    X = rng.uniform(-1.0, 1.0, size=(T, d))
    native, _ = sequence_forward(params, X[:, None, :])
    state = {name: np.zeros(h) for name in states}
    worst = 0.0
    for t in range(T):
        if len(inputs) == 2:
            feed = {inputs[0]: X[t - 1] if t > 0 else np.zeros(d), inputs[1]: X[t]}
        else:
            feed = {inputs[0]: X[t]}
        state, bindings = interpret_step(spec, interp_params(params), state, feed)
        worst = max(worst, float(np.max(np.abs(bindings[out_name] - native[t, 0]))))
    return worst


def test_criterion_06_interpreter_equivalence():
    rng = np.random.default_rng(41)
    worst = 0.0
    for kind in TRAIN_KINDS:
        for _ in range(20):
            worst = max(worst, _interp_native_gap(kind, rng))

    spec = builtin_spec("scrn_state")
    for _ in range(20):
        h = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        T = int(rng.integers(1, 9))
        alpha, W_s = rand_scrn(d, h, rng)
        tensors = {"affine#1.W0": W_s, "alpha": alpha}
        X = rng.uniform(-1.0, 1.0, size=(T, d))
        s = np.zeros(h)
        state = {"s": np.zeros(h)}
        for t in range(T):
            s = scrn_state_step(alpha, W_s, s, X[t])
            state, _ = interpret_step(spec, tensors, state, {"x": X[t]})
            worst = max(worst, float(np.max(np.abs(state["s"] - s))))

    spec = builtin_spec("rnn_symmetric")
    for _ in range(20):
        h = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        T = int(rng.integers(1, 9))
        M = rng.uniform(-0.6, 0.6, size=(h, h))
        S = 0.5 * (M + M.T)
        W = rng.uniform(-0.6, 0.6, size=(h, d))
        b = rng.uniform(-0.6, 0.6, size=h)
        tensors = {"affine#1.W0": S, "affine#2.W0": W, "affine#2.b": b}
        hv = np.zeros(h)
        state = {"h": np.zeros(h)}
        for t in range(T):
            x = rng.uniform(-1.0, 1.0, size=d)
            hv = np.tanh(S @ hv + W @ x + b)
            state, _ = interpret_step(spec, tensors, state, {"x": x})
            worst = max(worst, float(np.max(np.abs(state["h"] - hv))))

    _report(6, "interpreter vs native rollouts", worst <= 1e-12,
            f"max abs gap {worst:.3e} over 9 specs x 20 instances")


# ---------------------------------------------------------------------------
# Criterion 7: a hidden-32 multiplicative cell learns max(z1, z2) on a grid
# ---------------------------------------------------------------------------


def test_criterion_07_tmr_learns_pairwise_max():
    grid = np.linspace(-1.0, 1.0, 21)
    Z1, Z2 = np.meshgrid(grid, grid, indexing="ij")
    z1, z2 = Z1.ravel(), Z2.ravel()
    y = np.maximum(z1, z2)
    n = y.size

    # Each grid point is a 2-step sequence feeding one coordinate per step,
    # so the features the W rows compute can combine both inputs.
    X = np.zeros((2, n, 2))
    X[0, :, 0] = z1
    X[1, :, 1] = z2

    rng = np.random.default_rng(0)
    params = init_params(CellKind.T_MR, 2, 32, rng)
    readout = rng.uniform(-0.08, 0.08, size=32)
    shift = 0.0
    lr = 0.2
    mse = np.inf
    reached = None
    for step in range(1, 5001):
        out, tape = sequence_forward(params, X)
        pred = out[-1] @ readout + shift
        err = pred - y
        mse = float(np.mean(err**2))
        if mse < 1e-2:
            reached = step
            break
        dpred = 2.0 * err / n
        dH = np.zeros_like(out)
        dH[-1] = dpred[:, None] * readout
        res = sequence_backward(params, tape, dH)
        for name, g in res.params.items():
            params.tensors[name] -= lr * g
        readout -= lr * (out[-1].T @ dpred)
        shift -= lr * float(dpred.sum())
    _report(7, "pairwise max regression", reached is not None,
            f"MSE {mse:.5f} {'at step %d' % reached if reached else 'after 5000 steps'}")


# ---------------------------------------------------------------------------
# Criteria 8 + 9: character-level training matrix; stability without clipping
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_corpus():
    text = synthetic_corpus(1_000_000, seed=0)
    vocab = build_vocab(text, "char")
    return encode_and_split(text, vocab), vocab


def _final_train_losses(metrics) -> list[float]:
    rows = metrics.rows
    return [rows[i - 1].loss_nats for i, r in enumerate(rows) if r.split == "val"]


def test_criterion_08_training_matrix(smoke_corpus):
    corpus, vocab = smoke_corpus
    target = 0.7 * np.log(vocab.size)
    finals: dict[CellKind, float] = {}
    for kind in TRAIN_KINDS:
        config = TrainConfig(
            arch=kind, layers=2, hidden=64, level="char", seq_len=50,
            batch=32, epochs=5, lr=0.25, lr_decay=0.7, decay_start=1,
            clip=2.5, dropout=0.0, seed=0, init="uniform008",
            log_every=500,
        )
        _, metrics = train(config, corpus)
        finals[kind] = _final_train_losses(metrics)[-1]
    below = all(v <= target for v in finals.values())
    gap = finals[CellKind.T_LSTM] - finals[CellKind.LSTM]
    summary = ", ".join(f"{k.value}={v:.3f}" for k, v in finals.items())
    _report(8, "training matrix", below and gap <= 0.05,
            f"final train nats {summary}; target <= {target:.3f}; "
            f"t_lstm-lstm gap {gap:+.3f} <= +0.05")


def test_criterion_09_tlstm_stable_without_clipping(smoke_corpus):
    corpus, _ = smoke_corpus
    config = TrainConfig(
        arch=CellKind.T_LSTM, layers=2, hidden=64, level="char", seq_len=50,
        batch=32, epochs=1, lr=0.1, lr_decay=1.0, decay_start=1,
        clip=None, dropout=0.0, seed=0, init="uniform008",
        log_every=25,
    )
    _, metrics = train(config, corpus)
    losses = np.array([r.loss_nats for r in metrics.rows])
    norms = np.array([r.grad_norm for r in metrics.rows])
    ok = bool(np.isfinite(losses).all() and np.isfinite(norms).all())
    _report(9, "no-clipping stability", ok,
            f"{losses.size} rows, max loss {losses.max():.3f}, "
            f"max grad norm {norms.max():.3f}, all finite")


# ---------------------------------------------------------------------------
# Criterion 10: typed LSTM at least as fast per step as the classical LSTM
# ---------------------------------------------------------------------------


def test_criterion_10_bench_ratio(capsys):
    code = main([
        "bench", "--arch", "t-lstm", "--hidden", "128", "--steps", "50",
        "--reps", "20", "--batch", "32", "--seed", "0",
    ])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        line = [l for l in out.splitlines() if "speedup" in l]
        assert line, out
        ratio = float(line[0].split("speedup ")[1].rstrip("x"))
        _report(10, "t-lstm:lstm step-time ratio", ratio >= 1.0,
                f"speedup {ratio:.2f}x (>= 1.0 required)")


# ---------------------------------------------------------------------------
# Criterion 11: checkpoint round trip and metrics schema
# ---------------------------------------------------------------------------


def test_criterion_11_checkpoint_and_metrics(tmp_path):
    text = synthetic_corpus(40_000, seed=3)
    vocab = build_vocab(text, "char")
    corpus = encode_and_split(text, vocab)
    config = TrainConfig(
        arch=CellKind.T_GRU, layers=1, hidden=24, level="char", seq_len=25,
        batch=8, epochs=1, lr=0.25, clip=2.5, seed=4, log_every=50,
    )
    model, metrics = train(config, corpus)
    before, _ = evaluate(model, corpus, "valid", seq_len=25, batch=8)

    path = tmp_path / "round.ckpt"
    save_checkpoint(model_to_checkpoint(model), path)
    restored = model_from_checkpoint(load_checkpoint(path))
    after, _ = evaluate(restored, corpus, "valid", seq_len=25, batch=8)

    csv_path = tmp_path / "metrics.csv"
    metrics.to_csv(csv_path)
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    golden = (GOLDEN / "metrics_header.txt").read_text(encoding="utf-8").strip()

    ok = before == after and header == METRICS_HEADER == golden
    _report(11, "checkpoint round trip + metrics schema", ok,
            f"valid loss {before:.6f} == {after:.6f} bit-identical; "
            f"schema {header!r}")
