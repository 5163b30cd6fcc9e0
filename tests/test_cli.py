"""Command-line interface: help text, exit codes, and end-to-end runs."""

from pathlib import Path

import numpy as np
import pytest

from typedrnn import cli
from typedrnn.cells import CellKind
from typedrnn.cli import main
from typedrnn.checkpoint import load_checkpoint, save_checkpoint
from typedrnn.data import build_vocab
from typedrnn.training import TrainConfig, build_model, model_to_checkpoint

GOLDEN = Path(__file__).parent / "golden"

HELP_PAGES = [
    ("top", ["--help"]),
    ("train", ["train", "--help"]),
    ("sample", ["sample", "--help"]),
    ("eval", ["eval", "--help"]),
    ("gradcheck", ["gradcheck", "--help"]),
    ("semcheck", ["semcheck", "--help"]),
    ("typecheck", ["typecheck", "--help"]),
    ("bench", ["bench", "--help"]),
]


@pytest.mark.parametrize("name,argv", HELP_PAGES, ids=[n for n, _ in HELP_PAGES])
def test_help_pages_match_golden(name, argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"help_{name}.txt").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Exit-code contract
# ---------------------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["train", "--arch", "rnn", "--frobnicate"]) == 1
    assert main(["train", "--arch", "rnn", "--threads", "2"]) == 1
    capsys.readouterr()


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["train"]) == 1
    capsys.readouterr()


def test_bad_clip_flag_rejected(capsys):
    for value in ("zero", "-1", "nan"):
        assert main(["train", "--arch", "rnn", "--clip", value]) == 1
        assert "argument --clip: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """A directory holding a corpus ``c.txt`` and an untrained t-rnn
    checkpoint ``m.ckpt`` over its characters."""
    root = tmp_path_factory.mktemp("untrained")
    text = "abcd " * 200
    (root / "c.txt").write_text(text, encoding="utf-8")
    config = TrainConfig(arch="t_rnn", hidden=4)
    model = build_model(config, build_vocab(text, "char"), np.random.default_rng(0))
    save_checkpoint(model_to_checkpoint(model), root / "m.ckpt")
    return root


@pytest.mark.parametrize("argv", [
    ["train", "--arch", "rnn", "--log-every", "0"],
    ["train", "--arch", "rnn", "--log-every", "-1"],
    ["train", "--arch", "rnn", "--layers", "0"],
    ["train", "--arch", "rnn", "--hidden", "0"],
    ["train", "--arch", "rnn", "--seq-len", "0"],
    ["train", "--arch", "rnn", "--batch", "0"],
    ["train", "--arch", "rnn", "--epochs", "0"],
    ["train", "--arch", "rnn", "--level", "word", "--max-words", "0"],
    ["train", "--arch", "rnn", "--level", "word", "--max-words", "-3"],
    ["eval", "--ckpt", "m.ckpt", "--corpus", "c.txt", "--batch", "0"],
    ["eval", "--ckpt", "m.ckpt", "--corpus", "c.txt", "--batch", "-2"],
    ["eval", "--ckpt", "m.ckpt", "--corpus", "c.txt", "--seq-len", "0"],
    ["eval", "--ckpt", "m.ckpt", "--corpus", "c.txt", "--seq-len", "-3"],
    ["bench", "--arch", "rnn", "--steps", "0"],
    ["bench", "--arch", "rnn", "--batch", "0"],
    ["bench", "--arch", "rnn", "--hidden", "0"],
    ["bench", "--arch", "t-lstm", "--reps", "0"],
    ["gradcheck", "--trials", "0"],
    ["gradcheck", "--hidden", "0"],
    ["gradcheck", "--steps", "2.5"],
    ["semcheck", "--steps", "0"],
    ["semcheck", "--trials", "0"],
    # the real-valued oracle flags: NaN, and a step that is not finite and
    # positive, are rejected too
    ["gradcheck", "--eps", "nan"],
    ["gradcheck", "--eps", "0"],
    ["gradcheck", "--eps", "inf"],
    ["train", "--arch", "rnn", "--lr", "inf"],
    ["gradcheck", "--tol", "nan"],
    ["gradcheck", "--cf-tol", "nan"],
    ["semcheck", "--tol", "nan"],
], ids=" ".join)
def test_count_flags_must_be_positive(argv, untrained, capsys):
    # eval gets a real checkpoint and corpus, so only the flag can fail it
    argv = [str(untrained / a) if a in ("m.ckpt", "c.txt") else a for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-2]}: " in err and "Traceback" not in err


def test_negative_decay_start_is_a_usage_error(untrained, capsys):
    argv = ["train", "--arch", "rnn", "--corpus", str(untrained / "c.txt")]
    assert main([*argv, "--decay-start", "-4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: decay_start must be at least 0\n"


def test_corpus_flags_are_mutually_exclusive(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("abcd " * 200, encoding="utf-8")
    code = main([
        "train", "--arch", "rnn", "--corpus", str(corpus),
        "--train", str(corpus), "--valid", str(corpus), "--test", str(corpus),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot be combined" in err


def test_partial_presplit_flags_rejected(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("abcd " * 200, encoding="utf-8")
    code = main(["train", "--arch", "rnn", "--train", str(corpus)])
    err = capsys.readouterr().err
    assert code == 1
    assert "provide --corpus" in err


def test_undersized_corpus_reports_data_error(tmp_path, capsys):
    corpus = tmp_path / "tiny.txt"
    corpus.write_text("abcabc", encoding="utf-8")
    code = main(["train", "--arch", "rnn", "--corpus", str(corpus)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


def test_missing_corpus_file_reports_io_error(tmp_path, capsys):
    code = main([
        "train", "--arch", "rnn", "--corpus", str(tmp_path / "nope.txt"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


def test_typecheck_verdict_exit_codes(capsys):
    assert main(["typecheck", "--arch", "rnn"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("ILL-TYPED:")

    assert main(["typecheck", "--arch", "t-rnn"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("WELL-TYPED: t_rnn")


def test_typecheck_missing_spec_file(tmp_path, capsys):
    code = main(["typecheck", "--spec", str(tmp_path / "absent.cell")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


def test_typecheck_parse_error_spec(tmp_path, capsys):
    bad = tmp_path / "bad.cell"
    bad.write_text("cell broken { state h; h' = tanh(%); }", encoding="utf-8")
    code = main(["typecheck", "--spec", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("PARSE ERROR at ")
    assert "unexpected character" in out


def test_typecheck_spec_file_matches_builtin(tmp_path, capsys):
    main(["typecheck", "--arch", "t-gru"])
    builtin_out = capsys.readouterr().out

    from typedrnn.dsl.builtin import builtin_text

    spec = tmp_path / "copy.cell"
    spec.write_text(builtin_text("t_gru"), encoding="utf-8")
    assert main(["typecheck", "--spec", str(spec)]) == 0
    assert capsys.readouterr().out == builtin_out


# ---------------------------------------------------------------------------
# End-to-end: train, sample, eval
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Train a small model once and reuse the artifacts across tests."""
    root = tmp_path_factory.mktemp("cli_e2e")
    corpus = root / "corpus.txt"
    rng = np.random.default_rng(7)
    corpus.write_text(
        "".join(rng.choice(list("abcd ")) for _ in range(2000)), encoding="utf-8"
    )
    ckpt = root / "model.ckpt"
    metrics = root / "metrics.csv"
    argv = [
        "train", "--arch", "t-rnn", "--layers", "1", "--hidden", "16",
        "--seq-len", "10", "--batch", "2", "--epochs", "2", "--lr", "0.5",
        "--seed", "3", "--log-every", "10",
        "--corpus", str(corpus), "--out", str(ckpt), "--metrics", str(metrics),
    ]
    return corpus, ckpt, metrics, argv


def test_train_writes_artifacts_and_reports(trained, capsys):
    corpus, ckpt, metrics, argv = trained
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert ckpt.exists() and metrics.exists()
    assert "epoch 1: " in out and "epoch 2: " in out
    assert f"checkpoint written to {ckpt}" in out
    assert f"metrics written to {metrics}" in out
    header = metrics.read_text(encoding="utf-8").splitlines()[0]
    assert header == "epoch,step,split,loss_nats,perplexity,grad_norm,wall_ms"
    stored = load_checkpoint(str(ckpt))
    assert stored.hidden == 16
    assert stored.layers == 1


def test_sample_prints_seed_plus_continuation(trained, capsys):
    _, ckpt, _, argv = trained
    if not ckpt.exists():
        main(argv)
        capsys.readouterr()
    code = main([
        "sample", "--ckpt", str(ckpt), "--seed-text", "ab",
        "--length", "20", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    text = out.rstrip("\n")
    assert text.startswith("ab")
    assert len(text) == 22
    assert set(text) <= set("abcd ")


def test_sample_bad_temperature(trained, capsys):
    _, ckpt, _, argv = trained
    if not ckpt.exists():
        main(argv)
        capsys.readouterr()
    for temperature in ("0", "nan"):
        code = main([
            "sample", "--ckpt", str(ckpt), "--seed-text", "a",
            "--temperature", temperature,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: temperature must be positive\n"


def test_eval_reports_split_loss(trained, capsys):
    corpus, ckpt, _, argv = trained
    if not ckpt.exists():
        main(argv)
        capsys.readouterr()
    code = main([
        "eval", "--ckpt", str(ckpt), "--corpus", str(corpus),
        "--split", "valid", "--seq-len", "10", "--batch", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("valid: loss ")
    assert "nats, perplexity " in out


def test_eval_missing_checkpoint(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("abcd " * 100, encoding="utf-8")
    code = main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                 "--corpus", str(corpus)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# Oracle subcommands
# ---------------------------------------------------------------------------


def test_gradcheck_single_arch_passes(capsys):
    code = main([
        "gradcheck", "--arch", "t-rnn", "--hidden", "3", "--steps", "4",
        "--trials", "2", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "t-rnn: " in out
    assert "max relative error" in out
    assert "pooled-form gradients max absolute error" in out
    assert out.rstrip().endswith("OK")


def test_gradcheck_classical_arch_has_no_pooled_line(capsys):
    code = main([
        "gradcheck", "--arch", "gru", "--hidden", "3", "--steps", "4",
        "--trials", "2", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "gru: " in out
    assert "pooled-form" not in out
    assert out.rstrip().endswith("OK")


def _nan_grads(params, *args, **kwargs):
    """A gradient oracle whose every entry is NaN."""
    return {n: np.full(t.shape, np.nan) for n, t in params.tensors.items()}


@pytest.mark.parametrize("arch,oracle", [
    ("gru", "finite_diff"), ("t-rnn", "closed_form_gradients"),
])
def test_a_nan_error_fails_gradcheck(arch, oracle, monkeypatch, capsys):
    monkeypatch.setattr(cli, oracle, _nan_grads)
    code = main(["gradcheck", "--arch", arch, "--hidden", "3", "--steps", "4",
                 "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "error nan" in out and out.rstrip().endswith("FAIL")


def test_a_nan_gap_fails_semcheck(monkeypatch, capsys):
    monkeypatch.setitem(cli._POOLED_FORWARD, CellKind.T_GRU,
                        lambda params, X: np.full(params.hidden_dim, np.nan))
    code = main(["semcheck", "--arch", "t-gru", "--hidden", "3", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "gap nan" in out and out.rstrip().endswith("FAIL")


def test_semcheck_passes(capsys):
    code = main([
        "semcheck", "--arch", "t-gru", "--hidden", "4", "--steps", "6",
        "--trials", "5", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "t-gru: max absolute gap " in out
    assert out.rstrip().endswith("OK")


def test_bench_prints_per_step_time(capsys):
    code = main([
        "bench", "--arch", "rnn", "--hidden", "8", "--steps", "5",
        "--reps", "2", "--batch", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("rnn: ")
    assert "ms/step forward+backward" in out
    assert "speedup" not in out


def test_bench_tlstm_reports_speedup_ratio(capsys):
    code = main([
        "bench", "--arch", "t-lstm", "--hidden", "8", "--steps", "5",
        "--reps", "2", "--batch", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "t-lstm: " in out
    assert "lstm: " in out
    assert "t-lstm:lstm speedup " in out
    ratio_line = [l for l in out.splitlines() if "speedup" in l][0]
    ratio = float(ratio_line.split("speedup ")[1].rstrip("x"))
    assert ratio > 0
