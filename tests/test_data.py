"""Vocabularies, corpus splits, and the batching iterator."""

import re

import numpy as np
import pytest

from typedrnn.data import (
    UNK,
    DataError,
    Vocab,
    batch_iter,
    build_vocab,
    encode_and_split,
    encode_pre_split,
    synthetic_corpus,
)


def test_char_vocab_round_trip():
    v = build_vocab("banana split", level="char")
    assert v.symbols == sorted(set("banana split"))
    ids = v.encode("banana")
    assert v.decode(ids) == "banana"
    with pytest.raises(DataError, match="not in vocabulary"):
        v.encode("orange!")


def test_word_vocab_frequency_order_and_unk():
    v = build_vocab("b a a c b a", level="word")
    assert v.symbols[0] == UNK
    assert v.symbols[1] == "a"  # most frequent first, ties alphabetical
    assert v.symbols[2] == "b"
    ids = v.encode("a zebra c")
    assert v.symbols[ids[1]] == UNK
    assert v.decode(ids) == f"a {UNK} c"


def test_word_vocab_max_words():
    v = build_vocab("a a a b b c", level="word", max_words=3)
    assert v.symbols == [UNK, "a", "b"]
    with pytest.raises(DataError, match="max_words must be at least 1"):
        build_vocab("a", level="word", max_words=0)


def test_vocab_validation():
    with pytest.raises(DataError, match="duplicate symbols"):
        Vocab("char", ["a", "a"])
    with pytest.raises(DataError, match="level must be 'char' or 'word', got 'syllable'"):
        Vocab("syllable", ["a"])
    with pytest.raises(DataError, match="level must be 'char' or 'word', got 'phoneme'"):
        build_vocab("abc", level="phoneme")


def test_encode_and_split_fractions():
    text = "a" * 100
    v = build_vocab(text, level="char")
    c = encode_and_split(text, v)
    assert (len(c.train), len(c.valid), len(c.test)) == (80, 10, 10)
    # floor on train and valid, remainder to test
    text = "a" * 103
    c = encode_and_split(text, build_vocab(text, level="char"))
    assert (len(c.train), len(c.valid), len(c.test)) == (82, 10, 11)
    assert c.level == "char"
    assert len(c.digest) == 64


def test_encode_pre_split_shares_vocab():
    v = build_vocab("abc xyz", level="char")
    c = encode_pre_split("abc", "xy", "z", v)
    assert len(c.train) == 3 and len(c.valid) == 2 and len(c.test) == 1
    d = encode_pre_split("abc", "xy", "z", v)
    assert c.digest == d.digest
    e = encode_pre_split("abc", "x", "yz", v)
    assert c.digest != e.digest  # boundaries are part of the digest


def test_batch_iter_single_stream_windows():
    split = np.arange(10)
    windows = list(batch_iter(split, seq_len=3, batch=1))
    assert len(windows) == 3
    for w, (x, y) in enumerate(windows):
        assert x.shape == (3, 1) and y.shape == (3, 1)
        assert np.array_equal(x[:, 0], np.arange(3 * w, 3 * w + 3))
        assert np.array_equal(y[:, 0], x[:, 0] + 1)


def test_batch_iter_streams_are_contiguous_slices():
    split = np.arange(20)
    windows = list(batch_iter(split, seq_len=4, batch=2))
    assert len(windows) == 2
    x0, y0 = windows[0]
    assert np.array_equal(x0[:, 0], [0, 1, 2, 3])
    assert np.array_equal(x0[:, 1], [10, 11, 12, 13])
    x1, y1 = windows[1]
    assert np.array_equal(x1[:, 0], [4, 5, 6, 7])
    assert np.array_equal(y1[:, 1], [15, 16, 17, 18])


def test_batch_iter_rejects_undersized_splits():
    with pytest.raises(DataError, match="needs at least"):
        list(batch_iter(np.arange(10), seq_len=5, batch=2))
    with pytest.raises(DataError, match="seq_len and batch must be positive"):
        list(batch_iter(np.arange(10), seq_len=0, batch=1))
    # exactly enough for one window per stream
    windows = list(batch_iter(np.arange(12), seq_len=5, batch=2))
    assert len(windows) == 1


def test_synthetic_corpus_is_deterministic_and_learnable_shape():
    a = synthetic_corpus(5_000, seed=7)
    b = synthetic_corpus(5_000, seed=7)
    assert a == b
    assert synthetic_corpus(5_000, seed=8) != a
    assert len(a) == 5_000
    lines = a.strip().split("\n")
    # the output is cut to exactly n_chars, so only the last line may be a
    # truncated sentence
    assert all(line.endswith(".") for line in lines[:-1])
    assert all(line[0].isupper() for line in lines)
    vocab = build_vocab(a, level="char")
    assert vocab.size <= 30  # small fixed alphabet


# The plain-Python vocabulary and encoding that the numpy ones replace, kept
# as the reference they must match symbol for symbol and id for id.
def _reference_vocab(text, level, max_words=None):
    if level == "char":
        return sorted(set(text))
    counts = {}
    for tok in text.split():
        counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return [UNK] + (ordered if max_words is None else ordered[: max_words - 1])


def _reference_encode(symbols, level, text):
    index = {s: i for i, s in enumerate(symbols)}
    if level == "char":
        missing = sorted(set(text) - set(index))
        if missing:
            raise DataError(f"characters not in vocabulary: {', '.join(map(repr, missing))}")
        return np.array([index[c] for c in text], dtype=np.int64)
    return np.array([index.get(tok, 0) for tok in text.split()], dtype=np.int64)


_ALPHABET = list("abcdeé☃\U0001F600\x00\ud800") + [" ", "  ", "\n", "\t", " \r\n"]


def _random_text(rng):
    n = int(rng.integers(0, 60))
    return "".join(_ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), n))


@pytest.mark.parametrize("level, max_words", [
    ("char", None), ("word", None), ("word", 1), ("word", 2), ("word", 4),
])
def test_vocab_and_encoding_match_the_plain_python_reference(level, max_words):
    rng = np.random.default_rng(11)
    for _ in range(200):
        text, other = _random_text(rng), _random_text(rng)
        vocab = build_vocab(text, level, max_words)
        assert vocab.symbols == _reference_vocab(text, level, max_words)
        for probe in (text, other, ""):
            try:
                want = _reference_encode(vocab.symbols, level, probe)
            except DataError as e:
                with pytest.raises(DataError, match=f"^{re.escape(str(e))}$"):
                    vocab.encode(probe)
                continue
            got = vocab.encode(probe)
            assert got.dtype == np.int64 and np.array_equal(got, want)


def test_word_ties_keep_code_point_order():
    v = build_vocab("é b a ☃ c b a c é", level="word")
    assert v.symbols == [UNK, "a", "b", "c", "é", "☃"]
    assert build_vocab("z y x y", level="word", max_words=3).symbols == [UNK, "y", "x"]


def test_char_encoding_names_missing_characters_in_code_point_order():
    v = build_vocab("ab", level="char")
    with pytest.raises(DataError, match=r"^characters not in vocabulary: 'c', 'é', '\\U0010ffff'$"):
        v.encode("a\U0010ffffécbc")


def test_char_vocab_symbols_are_single_characters():
    with pytest.raises(DataError, match="symbol 'ab' is not one character"):
        Vocab("char", ["c", "ab", ""])
    with pytest.raises(DataError, match="symbol '' is not one character"):
        Vocab("char", ["c", ""])
