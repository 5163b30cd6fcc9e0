"""Corpus handling: vocabularies, encoding, splits, and batch windows.

Character vocabularies enumerate the distinct characters of the source text
in codepoint order and encoding is exactly invertible. Every char symbol is
one character (``Vocab`` refuses any other), and text is encoded by code
point through a table of (largest symbol code point + 2) int64 entries: 1 KiB
for ASCII, 8.9 MB at worst (U+10FFFF). Word vocabularies are
whitespace-tokenized, ordered by descending frequency with ties broken
lexicographically, and reserve ``<unk>`` at index 0 (``Vocab`` refuses a
word vocabulary without it there); a size cap counts the ``<unk>`` entry, and
out-of-vocabulary tokens encode to it.

``encode_and_split`` cuts one token stream contiguously into train / valid /
test of sizes floor(0.8 N) / floor(0.1 N) / remainder; ``encode_pre_split``
accepts three pre-split texts sharing one vocabulary. ``batch_iter`` reshapes
a split into ``batch`` contiguous streams and yields (seq_len, batch) input
and target windows, targets shifted one token ahead; the final partial window
is dropped, and a split smaller than batch * (seq_len + 1) tokens is an
error.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

UNK = "<unk>"


class DataError(ValueError):
    """Raised for malformed corpora, vocab mismatches, or undersized splits."""


def _codes(text: str) -> np.ndarray:
    """The code points of ``text``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")


@dataclass
class Vocab:
    level: str  # "char" | "word"
    symbols: list[str]
    index: dict[str, int] = field(init=False, repr=False)
    # char level: the id per code point, -1 for none; the last entry is every one above
    table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.level not in ("char", "word"):
            raise DataError(f"level must be 'char' or 'word', got {self.level!r}")
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise DataError("vocabulary contains duplicate symbols")
        if self.level == "word" and self.symbols[:1] != [UNK]:
            raise DataError(f"a word vocabulary must hold {UNK} at index 0")
        if self.level == "char":
            bad = [s for s in self.symbols if len(s) != 1]
            if bad:
                raise DataError(f"char vocabulary symbol {bad[0]!r} is not one character")
            codes = np.fromiter(map(ord, self.symbols), np.int64, len(self.symbols))
            self.table = np.full(codes.max(initial=-1) + 2, -1, np.int64)
            self.table[codes] = np.arange(len(codes))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> np.ndarray:
        if self.level == "char":
            codes = _codes(text)
            ids = self.table[np.minimum(codes, len(self.table) - 1)]
            missing = ids < 0
            if missing.any():
                chars = ", ".join(repr(chr(c)) for c in np.unique(codes[missing]))
                raise DataError(f"characters not in vocabulary: {chars}")
            return ids
        toks = text.split()
        unk = itertools.repeat(self.index[UNK])
        return np.fromiter(map(self.index.get, toks, unk), np.int64, len(toks))

    def decode(self, ids) -> str:
        sep = "" if self.level == "char" else " "
        return sep.join(self.symbols[int(i)] for i in ids)


def build_vocab(text: str, level: str = "char", max_words: int | None = None) -> Vocab:
    """Build a vocabulary from source text (see module doc for ordering)."""
    if level == "char":
        return Vocab("char", [chr(c) for c in np.flatnonzero(np.bincount(_codes(text)))])
    if level != "word":
        raise DataError(f"level must be 'char' or 'word', got {level!r}")
    counts = Counter(text.split())
    # the outer sort is stable, so equal counts keep the inner code-point order
    ordered = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    if max_words is not None:
        if max_words < 1:
            raise DataError("max_words must be at least 1 (the <unk> entry)")
        ordered = ordered[: max_words - 1]
    return Vocab("word", [UNK] + ordered)


@dataclass
class EncodedCorpus:
    """Encoded token streams plus the vocabulary and a source digest."""

    vocab: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    digest: str

    @property
    def level(self) -> str:
        return self.vocab.level


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def encode_and_split(text: str, vocab: Vocab) -> EncodedCorpus:
    """Encode one text and cut it 80/10/10 contiguously (floor, floor, rest)."""
    ids = vocab.encode(text)
    n = len(ids)
    n_train = int(0.8 * n)
    n_valid = int(0.1 * n)
    return EncodedCorpus(
        vocab=vocab,
        train=ids[:n_train],
        valid=ids[n_train : n_train + n_valid],
        test=ids[n_train + n_valid :],
        digest=_digest(text),
    )


def encode_pre_split(
    train_text: str, valid_text: str, test_text: str, vocab: Vocab
) -> EncodedCorpus:
    """Encode three pre-split texts with one shared vocabulary."""
    return EncodedCorpus(
        vocab=vocab,
        train=vocab.encode(train_text),
        valid=vocab.encode(valid_text),
        test=vocab.encode(test_text),
        digest=_digest(train_text, valid_text, test_text),
    )


def batch_iter(
    split: np.ndarray, seq_len: int, batch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (X, Y) windows of shape (seq_len, batch) from contiguous streams.

    Stream b is the b-th of ``batch`` equal contiguous slices of the split;
    targets are inputs shifted one position ahead within each stream.
    """
    split = np.asarray(split)
    if seq_len < 1 or batch < 1:
        raise DataError("seq_len and batch must be positive")
    n = len(split)
    need = batch * (seq_len + 1)
    if n < need:
        raise DataError(
            f"split has {n} tokens; batch {batch} with window {seq_len} "
            f"needs at least {need}"
        )
    stream_len = n // batch
    streams = split[: batch * stream_len].reshape(batch, stream_len)
    for w in range((stream_len - 1) // seq_len):
        lo = w * seq_len
        x = streams[:, lo : lo + seq_len].T
        y = streams[:, lo + 1 : lo + seq_len + 1].T
        yield np.ascontiguousarray(x), np.ascontiguousarray(y)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

_SYLLABLES = [
    c + v
    for c in ("b", "d", "k", "l", "m", "n", "r", "s", "t")
    for v in ("a", "e", "i", "o", "u")
]


def _lexicon(size: int = 60) -> list[str]:
    words = []
    n = len(_SYLLABLES)
    for i in range(size):
        w = _SYLLABLES[i % n] + _SYLLABLES[(i * 7 + 3) % n]
        if i % 4 == 0:
            w += _SYLLABLES[(i * 13 + 5) % n]
        words.append(w)
    return words


def synthetic_corpus(n_chars: int = 1_000_000, seed: int = 0) -> str:
    """Deterministic learnable text: sentences over a fixed 60-word lexicon
    with zipfian word frequencies, capitalized sentence starts, one sentence
    per line. Used by the end-to-end smoke tests; regenerate anywhere with
    the same seed for an identical corpus.
    """
    rng = np.random.default_rng(seed)
    words = _lexicon()
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    weights = 1.0 / ranks**1.1
    weights /= weights.sum()
    pieces: list[str] = []
    total = 0
    while total < n_chars:
        length = int(rng.integers(4, 12))
        picks = rng.choice(len(words), size=length, p=weights)
        sentence = " ".join(words[int(i)] for i in picks)
        sentence = sentence[0].upper() + sentence[1:] + ".\n"
        pieces.append(sentence)
        total += len(sentence)
    return "".join(pieces)[:n_chars]
