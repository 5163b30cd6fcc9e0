"""Parity fingerprint: one SHA-256 over what typedrnn computes, per case.

    python3 tools/fingerprint.py [--src DIR]

Imports ``typedrnn`` from ``--src`` (by default this checkout's ``src``), so
the same script also runs on another tree, for example a parent commit
unpacked with ``git archive``. BLAS runs on one thread, the mode in which
typedrnn is bitwise deterministic, so two trees that compute the same bits
print the same lines.

The cases are every trainable kind at char and word level, with dropout 0
and 0.25: 2 layers, h=16, one epoch of ``synthetic_corpus(6_000, seed=3)``
at T=10, B=4. Each case line holds one short digest per component:

    init    the ``build_model`` tensors, by name, in order
    train   the trained tensors
    rows    the logged metric rows without ``wall_ms``
    ckpt    the model after a checkpoint save and load, by name, in order
    eval    ``evaluate`` of the loaded model on the test split
    sample  30 sampled tokens from the loaded model at temperature 1,
            then 30 at temperature 0.5
    carry   the trained layers' ``stack_forward`` over two consecutive
            windows of random input, with one ``LayerState`` list, one
            ``Workspace`` and the case's dropout (seeded): both windows'
            outputs and the final h, c and xx
    step    5 ``stack_step`` tokens from stream 0 of that carried state
    bptt    layer 0's ``bptt`` on a (T, B, d) window, with a per-step and
            with a last-step upstream: its gradients, dX, dX_prev, dh0, dc0
    jac     ``state_jacobian`` of layer 0

A last word-level t-lstm case has a vocabulary wide enough that a window's
head walks two blocks; it is trained with the head's handoff to a second
thread forced off and then on (through ``training._spare_core``), and the
script exits 1 if the two differ. A ``vocab`` line digests the
``build_vocab`` symbols and ``encode_and_split`` ids of the char and word
cases' corpus with its vowels replaced by ä, é, ☃, 漢 and an astral
character, at char level and at word level capped at ``VOCAB_CAP`` entries. The last line is
``combined <sha256>`` over every component digest of every case and the
vocab line's digests.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

COMPONENTS = (
    "init", "train", "rows", "ckpt", "eval", "sample", "carry", "step", "bptt", "jac"
)
DROPOUTS = (0.0, 0.25)
WIDE_VOCAB = 7_500  # words; 40 head rows of K > 6,554 logits exceed one block
VOCAB_CAP = 20  # words, below the non-ASCII corpus's word types


def _digest(*parts) -> str:
    """SHA-256 over strings, floats and name-to-array dicts, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            for name, arr in part.items():
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                h.update(f"{name}{arr.shape}".encode())
                h.update(arr.tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(str(part).encode())
    return h.hexdigest()


def _arrays(prefix: str, obj, names: tuple) -> dict[str, np.ndarray]:
    """The named arrays of ``obj`` that are not None, keyed ``prefix.name``."""
    found = {n: getattr(obj, n) for n in names}
    return {f"{prefix}.{n}": a for n, a in found.items() if a is not None}


def _layer_digests(layers, config) -> dict[str, str]:
    """The carry, step, bptt and jac digests of a trained stack."""
    from typedrnn import autodiff, cells

    rng = np.random.default_rng(config.seed)
    T, B, d = config.seq_len, config.batch, layers[0].input_dim
    state = [cells.LayerState(p, B) for p in layers]
    ws = cells.Workspace()
    carry = {}
    for w in range(2):  # copied: the outputs live in ws until its next use
        X = rng.uniform(-1.0, 1.0, size=(T, B, d))
        outs, _ = cells.stack_forward(layers, X, config.dropout, rng, state, ws)
        carry.update({f"window{w}.out{l}": out.copy() for l, out in enumerate(outs)})
    for l, st in enumerate(state):
        carry.update(_arrays(f"layer{l}", st, ("h", "c", "xx")))

    stream0 = [cells.LayerState(p, 1) for p in layers]
    for st, one in zip(state, stream0):
        for name in ("h", "c", "xx"):
            if getattr(st, name) is not None:
                getattr(one, name)[...] = getattr(st, name)[:1]
    step = {}
    for t in range(5):
        outs = cells.stack_step(layers, rng.uniform(-1.0, 1.0, size=(1, d)), stream0)
        step.update({f"token{t}.out{l}": out.copy() for l, out in enumerate(outs)})

    X = rng.uniform(-1.0, 1.0, size=(T, B, d))
    h = layers[0].hidden_dim
    grads = {}
    for shape in ((T, B, h), (B, h)):  # per-step, then last-step upstream
        res = autodiff.bptt(layers[0], X, rng.uniform(-1.0, 1.0, size=shape))
        key = f"{len(shape)}d"
        grads.update({f"{key}.{n}": g for n, g in res.params.items()})
        grads.update(_arrays(key, res, ("dX", "dX_prev", "dh0", "dc0")))
    jac = autodiff.state_jacobian(layers[0], X[:, 0])
    return {
        "carry": _digest(carry),
        "step": _digest(step),
        "bptt": _digest(grads),
        "jac": _digest({"J": jac}),
    }


def _case(corpus, config, workdir: Path) -> dict[str, str]:
    """The component digests of one training configuration."""
    from typedrnn import checkpoint, training

    init = training.build_model(
        config, corpus.vocab, np.random.default_rng(config.seed)
    )
    model, metrics = training.train(config, corpus)
    rows = [
        (r.epoch, r.step, r.split, r.loss_nats, r.perplexity, r.grad_norm)
        for r in metrics.rows
    ]
    path = workdir / f"{config.arch.value}.ckpt"
    checkpoint.save_checkpoint(training.model_to_checkpoint(model), path)
    loaded = training.model_from_checkpoint(checkpoint.load_checkpoint(path))
    loss, ppl = training.evaluate(loaded, corpus, "test")
    seed_text = corpus.vocab.decode(corpus.test[:5])
    texts = [
        training.sample(loaded, seed_text, 30, temperature=t, seed=config.seed)
        for t in (1.0, 0.5)
    ]
    return {
        "init": _digest(init.tensors()),
        "train": _digest(model.tensors()),
        "rows": _digest(*(x for row in rows for x in row)),
        "ckpt": _digest(list(loaded.tensors()), loaded.tensors()),
        "eval": _digest(loss, ppl),
        "sample": _digest(*texts),
        **_layer_digests(model.layers, config),
    }


def _vocab_digests(text: str) -> dict[str, str]:
    """The vocabulary and split ids of ``text`` at char and capped word level."""
    from typedrnn import data

    out = {}
    for level, cap in (("char", None), ("word", VOCAB_CAP)):
        corpus = data.encode_and_split(text, data.build_vocab(text, level, cap))
        splits = {"train": corpus.train, "valid": corpus.valid, "test": corpus.test}
        out[level] = _digest(corpus.vocab.symbols, splits)
    return out


def _line(label: str, digests: dict[str, str]) -> str:
    return " ".join([label] + [f"{c}={digests[c][:12]}" for c in COMPONENTS])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src,
                        help="directory that holds the typedrnn package")
    args = parser.parse_args(argv)
    if not (args.src / "typedrnn" / "__init__.py").is_file():
        parser.error(f"no typedrnn package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    from typedrnn import data, training
    from typedrnn.cells import TRAINABLE_KINDS

    text = data.synthetic_corpus(6_000, seed=3)
    corpora = {
        level: data.encode_and_split(text, data.build_vocab(text, level))
        for level in ("char", "word")
    }
    combined = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        workdir = Path(tmp)
        for level, corpus in corpora.items():
            for kind in TRAINABLE_KINDS:
                for dropout in DROPOUTS:
                    config = training.TrainConfig(
                        arch=kind, layers=2, hidden=16, level=level, seq_len=10,
                        batch=4, epochs=1, dropout=dropout, seed=3,
                    )
                    digests = _case(corpus, config, workdir)
                    print(_line(f"{kind.value} {level} dropout={dropout}", digests))
                    combined.update("".join(digests.values()).encode())

        words = [f"w{i}" for i in range(WIDE_VOCAB)]
        order = np.random.default_rng(3).permutation(2 * WIDE_VOCAB) % WIDE_VOCAB
        wide_text = " ".join(words[i] for i in order)
        wide = data.encode_and_split(wide_text, data.build_vocab(wide_text, "word"))
        config = training.TrainConfig(
            arch="t_lstm", layers=2, hidden=16, level="word", seq_len=10,
            batch=4, epochs=1, dropout=0.25, seed=3,
        )
        spare_core = training._spare_core
        runs = {}
        try:
            for handoff in (False, True):
                training._spare_core = lambda: handoff
                runs[handoff] = _case(wide, config, workdir)
        finally:
            training._spare_core = spare_core
    label = f"t_lstm word K={wide.vocab.size} dropout=0.25"
    print(_line(f"{label} handoff=off", runs[False]))
    print(_line(f"{label} handoff=on", runs[True]))
    combined.update("".join(runs[False].values()).encode())
    vocab = _vocab_digests(text.translate(str.maketrans("aeiou", "äé☃漢\U0001F600")))
    print(" ".join(["vocab"] + [f"{level}={d[:12]}" for level, d in vocab.items()]))
    combined.update("".join(vocab.values()).encode())
    print(f"combined {combined.hexdigest()}")
    if runs[False] != runs[True]:
        print("the head's handoff changed the result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
