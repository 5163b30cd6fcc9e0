"""A seeded fuzz of ``main``: corrupted checkpoints, mutated corpus bytes
and flags at extreme values each end with a documented exit code, and print
no warning."""

import struct
import warnings

import numpy as np
import pytest

from typedrnn.cli import main
from typedrnn.data import synthetic_corpus

SMALL = ["--hidden", "4", "--seq-len", "5", "--batch", "2", "--corpus", "c.txt"]
MODELS = {"char": ["--arch", "t-lstm"], "word": ["--arch", "gru", "--level", "word"]}


def _run(argv, capsys) -> int:
    """``main(argv)`` with every warning an error, so that a warning escapes
    it; its stderr must be empty on success and one error line otherwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding a corpus ``c.txt``, a char t-lstm ``char.ckpt``
    and a word gru ``word.ckpt`` trained on it, and a link loop ``loop``."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "c.txt").write_text(synthetic_corpus(3_000, seed=1), encoding="utf-8")
    (root / "loop").symlink_to("loop2")
    (root / "loop2").symlink_to("loop")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for level, flags in MODELS.items():
            assert main(["train", *flags, *SMALL, "--out", f"{level}.ckpt"]) == 0
    return root


def _regions(blob: bytes) -> list[tuple[int, int]]:
    """The byte ranges of a checkpoint's header, vocabulary and tensors."""
    (n,) = struct.unpack_from("<I", blob, 16)
    end = 20
    for _ in range(n):
        end += 4 + struct.unpack_from("<I", blob, end)[0]
    return [(0, 20), (20, end), (end, len(blob))]


def _corrupt(blob: bytes, lo: int, hi: int, rng) -> bytes:
    """``blob`` with a bit flipped, cut short, or 1-4 bytes overwritten at a
    position in [lo, hi)."""
    data = bytearray(blob)
    at = int(rng.integers(lo, hi))
    how = int(rng.integers(3))
    if how == 0:
        data[at] ^= 1 << int(rng.integers(8))
    elif how == 1:
        del data[at:]
    else:
        n = int(rng.integers(1, 5))
        data[at : at + n] = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    return bytes(data)


@pytest.mark.parametrize("level", MODELS)
def test_a_corrupted_checkpoint_is_read_or_refused(root, tmp_path, monkeypatch, capsys, level):
    monkeypatch.chdir(root)
    blob = (root / f"{level}.ckpt").read_bytes()
    seed_text = "baboda" if level == "word" else "b"
    rng = np.random.default_rng(len(level))
    bad = tmp_path / "bad.ckpt"
    codes = []
    for i in range(200):
        bad.write_bytes(_corrupt(blob, *_regions(blob)[i % 3], rng))
        for argv in (
            ["eval", "--ckpt", bad, *SMALL[2:]],
            ["sample", "--ckpt", bad, "--seed-text", seed_text, "--length", "5"],
        ):
            codes.append(_run(argv, capsys))
            assert codes[-1] in (0, 3), (i, argv[0])
    assert {0, 3} <= set(codes)  # some copies still load, some are refused


def _mutated_corpora(rng) -> list[bytes]:
    """Seeded mutations of a UTF-8 corpus with 2-, 3- and 4-byte characters:
    bit flips, a cut inside a multi-byte character, a NUL run, a BOM, CRLF
    line ends, whitespace only, and one or two characters."""
    text = synthetic_corpus(600, seed=2).translate(
        {ord("a"): "ä", ord("e"): "漢", ord("o"): "\U0001d11e"}
    )
    data = text.encode("utf-8")
    out = []
    for flips in (1, 1, 3, 8):
        flipped = bytearray(data)
        for at in rng.integers(len(data), size=flips):
            flipped[at] ^= 1 << int(rng.integers(8))
        out.append(bytes(flipped))
    inside = [i for i, b in enumerate(data) if b & 0xC0 == 0x80]  # continuation bytes
    out.append(data[: inside[int(rng.integers(len(inside)))]])
    at = len(text[: int(rng.integers(len(text)))].encode("utf-8"))  # between characters
    out.append(data[:at] + b"\0" * int(rng.integers(1, 40)) + data[at:])
    out.append(b"\xef\xbb\xbf" + data)
    out.append(data.replace(b"\n", b"\r\n"))
    out += [b" \n\t\r\n " * 20, "ä".encode(), b"ab", b""]
    return out


@pytest.mark.parametrize("level", MODELS)
def test_a_mutated_corpus_is_trained_on_or_refused(root, tmp_path, monkeypatch, capsys, level):
    monkeypatch.chdir(root)
    corpus, ckpt = tmp_path / "m.txt", tmp_path / "m.ckpt"
    codes = []
    for i, data in enumerate(_mutated_corpora(np.random.default_rng(len(level)))):
        corpus.write_bytes(data)
        train = ["train", *MODELS[level], *SMALL[:-1], corpus, "--epochs", "1", "--out", ckpt]
        codes.append(_run(train, capsys))
        assert codes[-1] in (0, 1, 3), (i, "train")
        # the checkpoint trained on this corpus, if any, and the fixture's
        for model in [ckpt] * (codes[-1] == 0) + [f"{level}.ckpt"]:
            codes.append(_run(["eval", "--ckpt", model, *SMALL[2:-1], corpus], capsys))
            assert codes[-1] in (0, 1, 3), (i, "eval", model)
    assert {0, 3} <= set(codes)  # some corpora train, some are refused


@pytest.mark.parametrize("argv,code", [
    (["train", "--seed", "1180591620717411303424"], 0),  # 2**70
    (["train", "--seed", "-3"], 1),
    (["train", "--clip", "1e-320"], 0),
    (["train", "--lr-decay", "1e-320", "--epochs", "3"], 0),
    (["train", "--dropout", "0.9999999"], 0),
    (["train", "--decay-start", "99999999999999999999"], 0),
    (["train", "--level", "word", "--max-words", "1"], 0),
    (["train", "--lr-decay", "2", "--corpus", "missing.txt"], 1),
    (["train", "--lr", "1e308", "--clip", "none"], 3),
    (["train", "--out", "loop"], 3),
    (["eval", "--ckpt", "char.ckpt", "--seq-len", "100000"], 0),
    (["sample", "--ckpt", "char.ckpt", "--seed-text", "b", "--temperature", "1e-300"], 0),
    (["sample", "--ckpt", "char.ckpt", "--seed-text", "b", "--temperature", "1e-320"], 1),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_a_flag_at_an_extreme_value_ends_with_a_documented_code(
    root, monkeypatch, capsys, argv, code
):
    monkeypatch.chdir(root)
    if argv[0] == "train":
        argv = [*argv[:1], *MODELS["char"], *SMALL, *argv[1:]]
    elif argv[0] == "eval":
        argv = [*argv, "--corpus", "c.txt"]
    assert _run(argv, capsys) == code
