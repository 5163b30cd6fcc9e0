"""Workload definitions and their seeded input generators.

Every workload trains 2-layer, hidden-64 language models with B=32, T=50
windows through ``typedrnn.training.train``, the same call ``typedrnn train``
makes, then evaluates and samples them the way ``typedrnn eval`` and
``typedrnn sample`` do. Inputs depend only on the seed passed on the command
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from typedrnn import data

LAYERS = 2
HIDDEN = 64
SEQ_LEN = 50
BATCH = 32
# The last logged window's loss is checked; logging every 10 windows keeps
# it near the end of the shortest training call (15 windows).
LOG_EVERY = 10
# ``typedrnn eval`` defaults.
EVAL_SEQ_LEN = 100
EVAL_BATCH = 16

WORD_LEXICON = 8000
WORD_ZIPF_EXPONENT = 1.0
WORD_TOKENS = 30_100
WORD_MAX_WORDS = 4000
CHAR_LENGTH = 60_000

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def zipf_word_corpus(seed: int) -> str:
    """Whitespace-separated words drawn from a seeded zipfian lexicon.

    The lexicon holds ``WORD_LEXICON`` distinct 2-4 syllable words and word
    r (1-based) is drawn with probability proportional to r^-1. About 4.8k
    distinct types occur in ``WORD_TOKENS`` draws, so the vocabulary cap of
    ``WORD_MAX_WORDS`` always binds and K is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    lexicon: list[str] = []
    while len(lexicon) < WORD_LEXICON:
        n = int(rng.integers(2, 5))
        word = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n))
        if word not in seen:
            seen.add(word)
            lexicon.append(word)
    weights = 1.0 / np.arange(1, WORD_LEXICON + 1) ** WORD_ZIPF_EXPONENT
    picks = rng.choice(WORD_LEXICON, size=WORD_TOKENS, p=weights / weights.sum())
    lines = []
    for lo in range(0, WORD_TOKENS, 12):
        lines.append(" ".join(lexicon[i] for i in picks[lo : lo + 12]))
    return "\n".join(lines) + "\n"


def char_corpus(seed: int) -> str:
    return data.synthetic_corpus(CHAR_LENGTH, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    level: str
    kinds: tuple[str, ...]
    make_text: Callable[[int], str]
    max_words: int | None
    # Tokens of the test split that seed ``sample``, and tokens sampled.
    seed_tokens: int
    sample_len: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "char-typed", "char", ("t_rnn", "t_lstm", "t_gru"),
            char_corpus, None, seed_tokens=20, sample_len=400,
        ),
        Workload(
            "char-classical", "char", ("rnn", "lstm", "gru"),
            char_corpus, None, seed_tokens=20, sample_len=400,
        ),
        Workload(
            "word-large-vocab", "word", ("t_lstm",),
            zipf_word_corpus, WORD_MAX_WORDS, seed_tokens=5, sample_len=200,
        ),
    )
}

#: Kinds with per-layer metrics: every kind some workload trains.
TRACED_KINDS = tuple(dict.fromkeys(k for w in WORKLOADS.values() for k in w.kinds))
