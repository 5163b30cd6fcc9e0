"""Binary checkpoint format: exact round trips and corruption handling."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from typedrnn.cells import CellKind
from typedrnn.checkpoint import (
    ARCH_CODES,
    FORMAT_VERSION,
    LEVEL_CODES,
    MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from typedrnn.cli import main
from typedrnn.data import DataError, build_vocab
from typedrnn.training import (
    TrainConfig,
    build_model,
    model_from_checkpoint,
    model_to_checkpoint,
)


def _sample_ckpt(rng):
    return Checkpoint(
        arch=CellKind.T_LSTM,
        level="char",
        layers=2,
        hidden=3,
        vocab_symbols=["a", " ", "\n", "é", "漢"],
        tensors={
            "layer0.W_z": rng.standard_normal((3, 5)),
            "layer0.b_z": rng.standard_normal(3),
            "scalar": np.array(0.75),
        },
    )


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = _sample_ckpt(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.arch == ckpt.arch
    assert back.level == ckpt.level
    assert back.layers == ckpt.layers and back.hidden == ckpt.hidden
    assert back.vocab_symbols == ckpt.vocab_symbols
    assert list(back.tensors) == list(ckpt.tensors)
    for name in ckpt.tensors:
        assert back.tensors[name].shape == np.asarray(ckpt.tensors[name]).shape
        assert np.array_equal(back.tensors[name], ckpt.tensors[name])
        assert back.tensors[name].dtype == np.float64


def test_loaded_tensors_are_read_only_views_of_the_file(tmp_path):
    """Loading copies no tensor: each is a read-only view of the file's bytes,
    and saving what was loaded writes the same file back. The model rebuilt
    from it owns writeable copies."""
    config = TrainConfig(arch="t_lstm", layers=2, hidden=4)
    model = build_model(config, build_vocab("ab cab", "char"), np.random.default_rng(9))
    path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(model_to_checkpoint(model), path)
    loaded = load_checkpoint(path)
    for name, arr in loaded.tensors.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    rebuilt = model_from_checkpoint(loaded)
    for name, arr in rebuilt.tensors().items():
        assert arr.flags.writeable, name
        assert not np.shares_memory(arr, loaded.tensors[name]), name


def test_all_arch_and_level_codes_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for arch in ARCH_CODES:
        for level in LEVEL_CODES:
            ckpt = Checkpoint(
                arch=arch, level=level, layers=1, hidden=2,
                vocab_symbols=["x", "y"],
                tensors={"t": rng.standard_normal((2, 2))},
            )
            path = tmp_path / f"{CellKind(arch).value}_{level}.ckpt"
            save_checkpoint(ckpt, path)
            back = load_checkpoint(path)
            assert back.arch == CellKind(arch) and back.level == level


def test_magic_and_version_are_checked(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(_sample_ckpt(rng), path)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == MAGIC

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)

    versioned = bytearray(raw)
    versioned[4] = FORMAT_VERSION + 1
    bad.write_bytes(bytes(versioned))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


def test_truncation_is_detected_everywhere(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(_sample_ckpt(rng), path)
    raw = path.read_bytes()
    bad = tmp_path / "cut.ckpt"
    # cutting the file anywhere strictly inside must raise, never crash
    for cut in list(range(0, 40)) + [len(raw) // 2, len(raw) - 3]:
        bad.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match="^truncated checkpoint while reading "):
            load_checkpoint(bad)


def test_duplicate_tensor_names_rejected(tmp_path):
    rng = np.random.default_rng(4)
    ckpt = Checkpoint(
        arch=CellKind.RNN, level="char", layers=1, hidden=2,
        vocab_symbols=["a"], tensors={"w": rng.standard_normal((2, 2))},
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    # append a second copy of the tensor section
    header_end = raw.find(b"w", 20)
    dup = tmp_path / "dup.ckpt"
    dup.write_bytes(raw + raw[header_end - 4 :])
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(dup)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError, match="absent.ckpt"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_non_finite_tensor_is_rejected(tmp_path, capsys):
    text = "abc cab " * 40
    corpus = tmp_path / "c.txt"
    corpus.write_text(text, encoding="utf-8")
    config = TrainConfig(arch=CellKind.T_LSTM, hidden=4)
    model = build_model(config, build_vocab(text, "char"), np.random.default_rng(0))
    ckpt = model_to_checkpoint(model)
    ckpt.tensors["layer0.W_f"][1, 2] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError, match="layer0.W_f"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert "layer0.W_f" in capsys.readouterr().err


def _model_ckpt(tmp_path, level, arch=CellKind.T_RNN):
    """A one-layer checkpoint at hidden size 4 and the corpus file it was
    built for."""
    text = "abc cab bca " * 40
    corpus = tmp_path / "c.txt"
    corpus.write_text(text, encoding="utf-8")
    config = TrainConfig(arch=arch, hidden=4, level=level)
    vocab = build_vocab(text, level)
    model = build_model(config, vocab, np.random.default_rng(0))
    return model_to_checkpoint(model), corpus


@pytest.mark.parametrize("where", ["symbol", "name"])
def test_bad_utf8_is_a_checkpoint_error(tmp_path, capsys, where):
    ckpt, corpus = _model_ckpt(tmp_path, "char")
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    # symbol "a" is stored as its u32 length 1 and then b"a"
    at = raw.index(b"\x01\x00\x00\x00a") + 4 if where == "symbol" else raw.index(b"layer0")
    raw[at] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert "UTF-8" in capsys.readouterr().err


def test_word_checkpoint_without_unk_first_is_rejected(tmp_path, capsys):
    ckpt, corpus = _model_ckpt(tmp_path, "word")
    assert ckpt.vocab_symbols[0] == "<unk>"
    ckpt.vocab_symbols[0] = "zzz"
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(DataError, match="<unk>"):
        model_from_checkpoint(load_checkpoint(path))
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert "<unk>" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, message", [
    (8, 0xFE, "unknown architecture code 254"),
    (9, 0xFE, "unknown level code 254"),
    ("out.b", 9, "implausible rank 9 for 'out.b'"),
], ids=["arch", "level", "rank"])
def test_unknown_codes_and_implausible_ranks_are_rejected(
    tmp_path, capsys, where, value, message
):
    ckpt, corpus = _model_ckpt(tmp_path, "char")
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    # bytes 8 and 9 hold the architecture and level codes; a tensor's rank
    # is the u32 right after its name
    at = where if isinstance(where, int) else raw.index(where.encode()) + len(where)
    raw[at] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert message in capsys.readouterr().err
    assert main(["sample", "--ckpt", str(path), "--seed-text", "ab"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["layer count", "hidden size"])
def test_zero_layers_or_hidden_size_is_rejected(tmp_path, capsys, field):
    ckpt, corpus = _model_ckpt(tmp_path, "char")
    if field == "layer count":
        ckpt.layers = 0
    else:
        ckpt.hidden = 0
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert field in capsys.readouterr().err
    assert main(["sample", "--ckpt", str(path), "--seed-text", "ab"]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, tensor, message",
    [
        ("out.b", None, "missing tensors: out.b"),
        ("layer1.W", np.zeros((4, 4)), "unexpected tensors: layer1.W"),
        (
            "layer0.V_f",
            np.zeros((4, 5)),
            "shape mismatch: layer0.V_f is (4, 5), expected (4, 4)",
        ),
    ],
    ids=["missing", "extra", "misshapen"],
)
def test_tensors_that_do_not_fit_the_header_are_rejected(
    tmp_path, capsys, name, tensor, message
):
    ckpt, corpus = _model_ckpt(tmp_path, "char", arch=CellKind.LSTM)
    if tensor is None:
        del ckpt.tensors[name]
    else:
        ckpt.tensors[name] = tensor
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        model_from_checkpoint(load_checkpoint(path))
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert message in capsys.readouterr().err
    assert main(["sample", "--ckpt", str(path), "--seed-text", "ab"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("layer count", 65535), ("hidden size", 2**30)],
)
def test_header_larger_than_its_tensors_is_rejected(tmp_path, capsys, field, value):
    ckpt, corpus = _model_ckpt(tmp_path, "char", arch=CellKind.LSTM)
    if field == "layer count":
        ckpt.layers = value
    else:
        ckpt.hidden = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError, match=f"{field} {value} exceeds"):
        model_from_checkpoint(load_checkpoint(path))
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert f"{field} {value}" in capsys.readouterr().err
    assert main(["sample", "--ckpt", str(path), "--seed-text", "ab"]) == 3
    assert f"{field} {value}" in capsys.readouterr().err


def test_tensors_are_checked_before_the_model_is_allocated(tmp_path):
    # A hidden size of 3000 fits the (3000, 4) output weights, so only the
    # shape check rejects it; building the model first would allocate its
    # (9000, 3000) blocks, 216 MB each.
    words = [f"w{i}" for i in range(2999)]
    vocab = build_vocab(" ".join(words), "word")
    config = TrainConfig(arch=CellKind.LSTM, hidden=4, level="word")
    ckpt = model_to_checkpoint(build_model(config, vocab, np.random.default_rng(0)))
    assert ckpt.tensors["out.W"].shape == (3000, 4)
    ckpt.hidden = 3000
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="shape mismatch: embed.E"):
            model_from_checkpoint(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("level", ["char", "word"])
def test_loaded_model_copies_the_file_tensors(tmp_path, level):
    """The loaded model holds the file's tensors bit for bit, in arrays of
    its own."""
    config = TrainConfig(arch=CellKind.T_LSTM, layers=2, hidden=4, level=level)
    vocab = build_vocab("abc cab bca " * 40, level)
    path = tmp_path / "model.ckpt"
    save_checkpoint(
        model_to_checkpoint(build_model(config, vocab, np.random.default_rng(0))), path
    )
    ckpt = load_checkpoint(path)
    model = model_from_checkpoint(ckpt)
    tensors = model.tensors()
    assert list(tensors) == list(ckpt.tensors)
    for name, t in tensors.items():
        assert np.array_equal(t, ckpt.tensors[name]), name
        assert not any(np.shares_memory(t, c) for c in ckpt.tensors.values()), name


def test_a_cut_or_a_bad_byte_in_the_vocabulary_names_its_entry(tmp_path):
    ckpt = _sample_ckpt(np.random.default_rng(5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    assert raw[16:20] == struct.pack("<I", len(ckpt.vocab_symbols))
    # what a cut at each byte of the vocabulary entries leaves unread
    unread, starts = [], []
    for i, sym in enumerate(ckpt.vocab_symbols):
        starts.append(20 + len(unread) + 4)
        unread += [f"vocab entry {i} length"] * 4 + [f"vocab entry {i}"] * len(sym.encode())
    bad = tmp_path / "bad.ckpt"
    for cut, what in enumerate(unread, start=20):
        bad.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match=f"^truncated checkpoint while reading {what}$"):
            load_checkpoint(bad)
    for i, start in enumerate(starts):
        bad.write_bytes(raw[:start] + b"\xff" + raw[start + 1 :])
        with pytest.raises(CheckpointError, match=f"^vocab entry {i} is not valid UTF-8"):
            load_checkpoint(bad)


def test_a_char_vocabulary_of_longer_symbols_is_rejected(tmp_path, capsys):
    ckpt, corpus = _model_ckpt(tmp_path, "char")
    ckpt.vocab_symbols = ["ab", "c", "", " "]
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    message = "char vocabulary symbol 'ab' is not one character"
    with pytest.raises(DataError, match=message):
        model_from_checkpoint(load_checkpoint(path))
    assert main(["eval", "--ckpt", str(path), "--corpus", str(corpus)]) == 3
    assert message in capsys.readouterr().err
    assert main(["sample", "--ckpt", str(path), "--seed-text", "c", "--length", "10"]) == 3
    assert message in capsys.readouterr().err
