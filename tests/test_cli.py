"""Command-line interface: help text, exit codes, and end-to-end runs."""

import os
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from typedrnn import cli, semantics
from typedrnn.cells import CellKind
from typedrnn.cli import main
from typedrnn.checkpoint import load_checkpoint, save_checkpoint
from typedrnn.data import build_vocab, synthetic_corpus
from typedrnn.training import METRICS_HEADER, TrainConfig, build_model, model_to_checkpoint

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


@pytest.mark.parametrize("flag,value,message", [
    ("--lr", "fast", "expected a number, got 'fast'"),
    ("--clip", "off", "expected a number, got 'off'"),
    ("--hidden", "2.5", "expected a positive integer, got '2.5'"),
])
def test_a_flag_that_does_not_parse_says_what_it_expected(flag, value, message, capsys):
    # argparse would otherwise print its own "invalid _positive_flag value"
    assert main(["train", "--arch", "rnn", flag, value]) == 1
    assert capsys.readouterr().err.endswith(f"argument {flag}: {message}\n")


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


def test_sample_length_may_be_zero_but_not_negative(untrained, capsys):
    argv = ["sample", "--ckpt", str(untrained / "m.ckpt"), "--seed-text", "ab", "--length"]
    assert main([*argv, "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument --length: must be at least 0, got -1\n")
    assert main([*argv, "0"]) == 0
    assert capsys.readouterr().out == "ab\n"


def test_every_train_flag_reaches_the_config(untrained, monkeypatch, capsys):
    seen = []

    def fake_train(config, corpus):
        seen.append(config)
        return None, SimpleNamespace(rows=[])

    monkeypatch.setattr(cli, "train", fake_train)
    assert main([
        "train", "--arch", "rnn", "--corpus", str(untrained / "c.txt"),
        "--layers", "3", "--hidden", "5", "--level", "word", "--seq-len", "7",
        "--batch", "3", "--epochs", "2", "--lr", "0.5", "--lr-decay", "0.75",
        "--decay-start", "4", "--clip", "none", "--dropout", "0.25",
        "--seed", "9", "--init", "identity", "--log-every", "11",
    ]) == 0
    assert seen == [TrainConfig(
        arch=CellKind.RNN, layers=3, hidden=5, level="word", seq_len=7,
        batch=3, epochs=2, lr=0.5, lr_decay=0.75, decay_start=4, clip=None,
        dropout=0.25, seed=9, init="identity", log_every=11,
    )]
    assert capsys.readouterr().out == ""


def test_diverging_train_is_a_runtime_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text(synthetic_corpus(20_000), encoding="utf-8")
    metrics = tmp_path / "m.csv"
    code = main([
        "train", "--arch", "t-mr", "--hidden", "16", "--seq-len", "20",
        "--batch", "4", "--lr", "1e9", "--clip", "none", "--log-every", "1",
        "--corpus", str(corpus), "--metrics", str(metrics),
    ])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: training diverged at epoch 1 step 2: ")
    assert "first non-finite: layer0.W" in err and "Traceback" not in err
    # the rows logged before the failing window are kept
    lines = metrics.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert [line.split(",")[:3] for line in lines[1:]] == [["1", "1", "train"]]


def test_a_diverging_run_prints_only_its_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text(synthetic_corpus(20_000), encoding="utf-8")
    argv = [
        "train", "--arch", "t-mr", "--hidden", "16", "--seq-len", "20",
        "--batch", "4", "--log-every", "1", "--corpus", str(corpus),
    ]
    # the overflow that ends the run is reported once, by the error line, and
    # not by a numpy warning first
    for flags, tensor in [
        (["--lr", "1e9"], "layer0.W"),  # clipping on, the default
        (["--lr", "1e9", "--clip", "none"], "layer0.W"),
        # step 1's update overflowed a weight: it is named ahead of the loss
        (["--lr", "1e308", "--clip", "none"], "layer0.c"),
        # here the forward pass overflowed first
        (["--arch", "t-lstm", "--lr", "1e200", "--clip", "none"], "loss"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, *flags])
        out, err = capsys.readouterr()
        assert code == 3 and out == "", flags
        assert err.startswith("error: training diverged at epoch 1 step 2: ")
        assert err.endswith(f"first non-finite: {tensor}\n") and err.count("\n") == 1


def _must_not_run(*args):
    raise AssertionError("the run went on past a check that fails")


def test_a_bad_config_fails_before_the_corpus_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_load_corpus", _must_not_run)
    argv = ["train", "--arch", "rnn", "--corpus", str(tmp_path / "missing.txt")]
    for flags, message in [
        (["--lr-decay", "2"], "lr_decay must lie in (0, 1]"),
        (["--dropout", "1"], "dropout must lie in [0, 1)"),
        (["--decay-start", "-4"], "decay_start must be at least 0"),
        (["--arch", "t-lstm", "--init", "identity"],
         "identity init only applies to the classical rnn"),
        (["--layers", "65536", "--out", str(tmp_path / "m.ckpt")],
         "--layers 65536 is more than a checkpoint holds (65535)"),
    ]:
        assert main([*argv, *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("out,metrics", [
    ("x.out", "./x.out"),
    ("kept", "kept"),
    ("kept", "link"),  # a hard link to the same file
])
def test_out_and_metrics_naming_one_file_is_a_usage_error(
    untrained, tmp_path, monkeypatch, capsys, out, metrics
):
    monkeypatch.setattr(cli, "train", _must_not_run)
    monkeypatch.setattr(cli, "_load_corpus", _must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept").write_bytes(b"kept")
    os.link(tmp_path / "kept", tmp_path / "link")
    argv = [
        "train", "--arch", "rnn", "--corpus", str(untrained / "c.txt"),
        "--out", out, "--metrics", metrics,
    ]
    message = f"--out and --metrics name the same file ({out}, {metrics})"
    with pytest.raises(cli.UsageError, match=f"^{re.escape(message)}$"):
        cli._cmd_train(cli.build_parser().parse_args(argv))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "link"]
    assert (tmp_path / "kept").read_bytes() == b"kept"


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
@pytest.mark.parametrize("where,reason", [
    ("nodir/x", "No such file or directory"),
    ("c.txt/x", "Not a directory"),
    ("", "Is a directory"),
    ("loopA", "Too many levels of symbolic links"),
    ("dangling", "No such file or directory"),  # a link into a missing directory
])
def test_an_unwritable_output_fails_before_the_corpus_is_read(
    untrained, tmp_path, monkeypatch, capsys, flag, where, reason
):
    monkeypatch.setattr(cli, "train", _must_not_run)
    monkeypatch.setattr(cli, "_load_corpus", _must_not_run)
    (tmp_path / "c.txt").write_text("abc", encoding="utf-8")
    (tmp_path / "loopA").symlink_to("loopB")
    (tmp_path / "loopB").symlink_to("loopA")
    (tmp_path / "dangling").symlink_to("nodir/x.ckpt")
    bad = tmp_path / where if where else tmp_path
    # the error is the one writing the output would have raised
    with pytest.raises(OSError, match=reason) as written:
        bad.write_bytes(b"")
    good = tmp_path / "good"
    good.write_bytes(b"kept")
    outputs = {"--out": str(good), "--metrics": str(good), flag: str(bad)}
    code = main([
        "train", "--arch", "rnn", "--corpus", str(untrained / "c.txt"),
        *[a for pair in outputs.items() for a in pair],
    ])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"error: {written.value}\n"
    assert good.read_bytes() == b"kept"


def test_a_link_to_a_file_not_yet_written_is_a_writable_output(tmp_path):
    (tmp_path / "link").symlink_to("x.ckpt")
    cli._check_output(str(tmp_path / "link"))  # the write creates its target
    assert [p.name for p in tmp_path.iterdir()] == ["link"]


def test_an_output_in_a_read_only_directory_is_refused(
    untrained, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "train", _must_not_run)
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: Path(path) != tmp_path and access(path, mode)
    )
    out = tmp_path / "x.ckpt"
    argv = ["train", "--arch", "rnn", "--corpus", str(untrained / "c.txt")]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
    assert not out.exists()


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


@pytest.mark.parametrize("tokens,code", [(9, 3), (10, 0)])
def test_training_split_one_token_short_of_a_window(tmp_path, capsys, tokens, code):
    """Batch 2 with window 4 needs 10 training tokens: 9 is a data error,
    10 trains on one window."""
    argv = ["train", "--arch", "rnn", "--hidden", "4", "--seq-len", "4", "--batch", "2"]
    for name in ("train", "valid", "test"):
        path = tmp_path / f"{name}.txt"
        text = "abc" * 4
        path.write_text(text[:tokens] if name == "train" else text, encoding="utf-8")
        argv += [f"--{name}", str(path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and "needs at least 10" in err
    else:
        assert err == ""


def test_missing_corpus_file_reports_io_error(tmp_path, capsys):
    code = main([
        "train", "--arch", "rnn", "--corpus", str(tmp_path / "nope.txt"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("command", [
    ["train", "--arch", "rnn", "--corpus"], ["typecheck", "--spec"],
])
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"cell caf" + b"\xe9" * 3 + b" {}\n")
    assert main([*command, str(bad)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {bad} is not UTF-8 text: bad byte at offset 8\n"


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
    for temperature, message in [
        ("0", "temperature must be positive"),
        ("nan", "temperature must be positive"),
        ("1e-320", "temperature 1e-320 is too small: the scaled logits overflow"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "sample", "--ckpt", str(ckpt), "--seed-text", "a",
                "--temperature", temperature,
            ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"


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


def _pre_split(root, texts):
    """Write three split files under ``root``; returns their flags."""
    flags = []
    for split, text in zip(("train", "valid", "test"), texts):
        path = root / f"{split}.txt"
        path.write_text(text, encoding="utf-8")
        flags += [f"--{split}", str(path)]
    return flags


def test_pre_split_word_vocabulary_keeps_words_whole(tmp_path, capsys):
    # no trailing newlines: joining the files as they are would glue the
    # last word of one to the first word of the next
    flags = _pre_split(tmp_path, [
        "alpha beta gamma", "delta alpha beta", "gamma delta alpha",
    ])
    ckpt = tmp_path / "m.ckpt"
    assert main([
        "train", "--arch", "t-rnn", "--hidden", "4", "--level", "word",
        "--seq-len", "2", "--batch", "1", *flags, "--out", str(ckpt),
    ]) == 0
    capsys.readouterr()
    symbols = load_checkpoint(ckpt).vocab_symbols
    assert symbols == ["<unk>", "alpha", "beta", "delta", "gamma"]


@pytest.fixture(scope="module")
def pre_split_char(tmp_path_factory):
    """A char model trained in pre-split mode, its split texts and flags."""
    root = tmp_path_factory.mktemp("pre_split")
    texts = ["abcab" * 40, "bcd" * 40, "cdex" * 40]
    flags = _pre_split(root, texts)
    ckpt = root / "m.ckpt"
    code = main([
        "train", "--arch", "t-lstm", "--hidden", "4", "--seq-len", "10",
        "--batch", "2", *flags, "--out", str(ckpt),
    ])
    return code, texts, flags, ckpt


def test_pre_split_char_vocabulary_is_the_files_characters(pre_split_char, capsys):
    code, texts, _, ckpt = pre_split_char
    capsys.readouterr()
    assert code == 0
    assert load_checkpoint(ckpt).vocab_symbols == sorted(set("".join(texts)))


def test_pre_split_eval_reports_split_loss(pre_split_char, capsys):
    _, _, flags, ckpt = pre_split_char
    code = main([
        "eval", "--ckpt", str(ckpt), *flags, "--split", "valid",
        "--seq-len", "10", "--batch", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("valid: loss ") and "nats, perplexity " in out


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


def test_gradcheck_tmr_draws_away_from_kinks(capsys):
    code = main(["gradcheck", "--arch", "t-mr", "--trials", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(" max ")[0] for line in lines[:-1]] == [
        "t-mr: W", "t-mr: b", "t-mr: c",
    ]
    assert lines[-1] == "OK"
    # 64 hidden units over 400 steps: every one of the 64 draws has a
    # pre-activation within 1e-3 of the kink, so the draw gives up
    with pytest.raises(cli.UsageError, match="could not draw an instance away"):
        cli._draw_instance(CellKind.T_MR, 64, 400, np.random.default_rng(0))
    code = main(["gradcheck", "--arch", "t-mr", "--hidden", "64", "--steps", "400"])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error: could not draw") and "--hidden 64 --steps 400" in err


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
    monkeypatch.setitem(semantics.POOLED_FORWARD, CellKind.T_GRU,
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
