"""Command-line interface: train, sample, eval, gradcheck, semcheck,
typecheck, and bench subcommands over the library.

Exit codes: 0 success, 1 usage error, 2 check failure (a gradcheck/semcheck
assertion failed, or a cell description is ill-typed / unparseable), 3
runtime or data error (unreadable files, unwritable outputs, corpus too
small, divergence, malformed checkpoints). Parallelism comes from the BLAS
library's threads inside the products (set ``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS``) and, in ``train`` with a vocabulary large enough that
a window's logits span several blocks, from a thread that the output head
starts for each window when BLAS leaves a core idle (see ``training``).
With one BLAS thread every subcommand is bitwise deterministic for a fixed
``--seed``.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import os
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import bptt, finite_diff, sequence_backward
from .cells import (
    CellKind,
    CellParams,
    TRAINABLE_KINDS,
    Workspace,
    param_shapes,
    sequence_forward,
)
from .checkpoint import MAX_LAYERS, CheckpointError, load_checkpoint, save_checkpoint
from .data import DataError, EncodedCorpus, build_vocab, encode_and_split, encode_pre_split
from .dsl.builtin import BUILTIN_CELLS, builtin_text
from .dsl.checker import Verdict, typecheck
from .dsl.nodes import ParseError
from .dsl.parser import parse_spec
from .semantics import POOLED_FORWARD, closed_form_gradients
from .training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    model_from_checkpoint,
    model_to_checkpoint,
    sample,
    train,
)


class UsageError(ValueError):
    """Bad flag combination detected after parsing."""


def _kind(name: str) -> CellKind:
    return CellKind(name.replace("-", "_"))


def _dashed(kind: CellKind) -> str:
    return kind.value.replace("_", "-")


TRAIN_ARCHS = tuple(map(_dashed, TRAINABLE_KINDS))
POOLED_ARCHS = tuple(map(_dashed, POOLED_FORWARD))


# Every TrainConfig field as a parameter, with its default. Each but threads,
# whose one accepted value is its default, has a train flag of its name.
TRAIN_PARAMS = inspect.signature(TrainConfig).parameters


def _positive_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def _clip_flag(text: str) -> float | None:
    return None if text.lower() == "none" else _positive_flag(text)


def _count_flag(text: str, least: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a {'positive' if least else 'non-negative'} integer, got {text!r}"
        ) from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _length_flag(text: str) -> int:
    return _count_flag(text, least=0)


def _formatter(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=100)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: bad byte at offset {e.start}") from None


def _check_output(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, creating and
    truncating nothing. Links are followed as the write follows them: the
    file it opens must not be a directory, its directory must exist and be
    writable, and a link loop fails."""
    name, real = str(Path(path)), Path(os.path.realpath(path))
    try:  # a trailing separator makes stat fail as open does on the directory
        os.stat(os.path.join(real.parent, ""))
        if os.path.lexists(real):  # realpath leaves only a link loop unresolved
            os.stat(real)
    except OSError as e:
        raise OSError(e.errno, e.strerror, name) from None
    if real.is_dir() or not os.access(real if real.exists() else real.parent, os.W_OK):
        code = errno.EISDIR if real.is_dir() else errno.EACCES
        raise OSError(code, os.strerror(code), name)


def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", metavar="PATH",
                     help="single text file, split 80/10/10 into train/valid/test")
    sub.add_argument("--train", metavar="PATH", dest="train_file",
                     help="training text (pre-split mode; needs --valid and --test)")
    sub.add_argument("--valid", metavar="PATH", dest="valid_file",
                     help="validation text (pre-split mode)")
    sub.add_argument("--test", metavar="PATH", dest="test_file",
                     help="test text (pre-split mode)")


def _load_corpus(args, vocab=None) -> EncodedCorpus:
    """The ``--corpus`` text split 80/10/10, or the three pre-split texts,
    encoded with ``vocab``; without one, with a vocabulary built from every
    text (word-level texts joined by a space, so no word spans two files)."""
    pre = (args.train_file, args.valid_file, args.test_file)
    if args.corpus is not None:
        if any(p is not None for p in pre):
            raise UsageError("--corpus cannot be combined with --train/--valid/--test")
        pre = (args.corpus,)
    elif None in pre:
        raise UsageError("provide --corpus, or all three of --train/--valid/--test")
    texts = [_read_text(p) for p in pre]
    if vocab is None:
        sep = " " if args.level == "word" else ""
        vocab = build_vocab(sep.join(texts), args.level, args.max_words)
    if len(texts) == 1:
        return encode_and_split(texts[0], vocab)
    return encode_pre_split(*texts, vocab)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typedrnn",
        description="Strongly-typed recurrent cells: train and sample language "
        "models, check gradients and pooling semantics against oracles, and "
        "type-check cell descriptions.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser(
        "train", formatter_class=_formatter,
        help="train a language model and write a checkpoint / metrics CSV",
        description="Train a character- or word-level language model with "
        "truncated backpropagation through time and plain SGD.",
    )
    p.add_argument("--arch", choices=TRAIN_ARCHS, required=True,
                   help="cell architecture")
    d = TRAIN_PARAMS
    p.add_argument("--layers", type=_count_flag, default=d["layers"].default, metavar="N",
                   help="number of stacked layers (default %(default)s)")
    p.add_argument("--hidden", type=_count_flag, default=d["hidden"].default, metavar="N",
                   help="hidden units per layer (default %(default)s)")
    p.add_argument("--level", choices=("char", "word"), default=d["level"].default,
                   help="tokenization level (default %(default)s)")
    _add_corpus_flags(p)
    p.add_argument("--max-words", type=_count_flag, default=10000, metavar="N",
                   help="word-level vocabulary cap including <unk> (default 10000)")
    p.add_argument("--seq-len", type=_count_flag, default=d["seq_len"].default, metavar="N",
                   help="truncated-backprop window length (default %(default)s)")
    p.add_argument("--batch", type=_count_flag, default=d["batch"].default, metavar="N",
                   help="parallel streams per step (default %(default)s)")
    p.add_argument("--epochs", type=_count_flag, default=d["epochs"].default, metavar="N",
                   help="passes over the training split (default %(default)s)")
    p.add_argument("--lr", type=_positive_flag, default=d["lr"].default, metavar="F",
                   help="SGD learning rate (default %(default)s)")
    p.add_argument("--lr-decay", type=float, default=d["lr_decay"].default, metavar="F",
                   help="multiplicative per-epoch decay factor (default %(default)s)")
    p.add_argument("--decay-start", type=int, default=d["decay_start"].default, metavar="N",
                   help="epoch after which decay compounds (default %(default)s)")
    p.add_argument("--clip", type=_clip_flag, default=d["clip"].default, metavar="F|none",
                   help="global gradient-norm clip threshold, or 'none' (default %(default)s)")
    p.add_argument("--dropout", type=float, default=d["dropout"].default, metavar="F",
                   help="dropout rate on vertical connections only (default %(default)g)")
    p.add_argument("--seed", type=int, default=d["seed"].default, metavar="N",
                   help="RNG seed (default %(default)s)")
    p.add_argument("--init", choices=("uniform008", "identity"), default=d["init"].default,
                   help="weight init: uniform(-0.08, 0.08), or identity recurrence "
                   "for rnn (default %(default)s)")
    p.add_argument("--log-every", type=_count_flag, default=d["log_every"].default, metavar="N",
                   help="steps between metrics rows (default %(default)s)")
    p.add_argument("--out", metavar="CKPT", help="checkpoint output path")
    p.add_argument("--metrics", metavar="PATH", help="metrics CSV output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "sample", formatter_class=_formatter,
        help="sample a continuation from a trained checkpoint",
        description="Load a checkpoint and sample tokens autoregressively "
        "after consuming the seed text.",
    )
    p.add_argument("--ckpt", required=True, metavar="PATH", help="checkpoint file")
    p.add_argument("--seed-text", required=True, metavar="S",
                   help="prompt consumed before sampling begins")
    p.add_argument("--length", type=_length_flag, default=100, metavar="N",
                   help="number of tokens to sample (default 100)")
    d = inspect.signature(sample).parameters
    p.add_argument("--temperature", type=float, default=d["temperature"].default, metavar="F",
                   help="softmax temperature, must be positive (default %(default)s)")
    p.add_argument("--seed", type=int, default=d["seed"].default, metavar="N",
                   help="RNG seed (default %(default)s)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "eval", formatter_class=_formatter,
        help="evaluate a checkpoint's loss and perplexity on a split",
        description="Load a checkpoint, encode a corpus with its stored "
        "vocabulary, and report mean per-token loss (nats) and perplexity.",
    )
    p.add_argument("--ckpt", required=True, metavar="PATH", help="checkpoint file")
    _add_corpus_flags(p)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test",
                   help="split to score (default test)")
    d = inspect.signature(evaluate).parameters
    p.add_argument("--seq-len", type=_count_flag, default=d["seq_len"].default, metavar="N",
                   help="evaluation window length (default %(default)s)")
    p.add_argument("--batch", type=_count_flag, default=d["batch"].default, metavar="N",
                   help="parallel streams (default %(default)s)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "gradcheck", formatter_class=_formatter,
        help="check hand-written backpropagation against finite differences",
        description="Compare backpropagation-through-time gradients against "
        "central finite differences on random instances, and against the "
        "analytic pooled-form gradients for the typed architectures. Prints "
        "the worst relative error per tensor and OK or FAIL.",
    )
    p.add_argument("--arch", choices=TRAIN_ARCHS, default=None,
                   help="architecture to check (default: all)")
    p.add_argument("--hidden", type=_count_flag, default=4, metavar="N",
                   help="hidden units (default 4)")
    p.add_argument("--steps", type=_count_flag, default=8, metavar="T",
                   help="sequence length (default 8)")
    p.add_argument("--trials", type=_count_flag, default=20, metavar="K",
                   help="random instances per architecture (default 20)")
    p.add_argument("--eps", type=_positive_flag, default=1e-5, metavar="F",
                   help="finite-difference step (default 1e-5)")
    p.add_argument("--tol", type=_positive_flag, default=1e-4, metavar="F",
                   help="max allowed relative error (default 1e-4)")
    p.add_argument("--cf-tol", type=_positive_flag, default=1e-8, metavar="F",
                   help="max allowed absolute error vs analytic pooled-form "
                   "gradients (default 1e-8)")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="RNG seed (default 0)")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser(
        "semcheck", formatter_class=_formatter,
        help="check pooled-convolution forward against the recurrence",
        description="Verify on random instances that each typed cell's "
        "dynamic average-pooling form produces exactly the state the "
        "step-by-step recurrence produces.",
    )
    p.add_argument("--arch", choices=POOLED_ARCHS, default=None,
                   help="architecture to check (default: all three)")
    p.add_argument("--hidden", type=_count_flag, default=8, metavar="N",
                   help="hidden units (default 8)")
    p.add_argument("--steps", type=_count_flag, default=20, metavar="T",
                   help="max sequence length (default 20)")
    p.add_argument("--trials", type=_count_flag, default=100, metavar="K",
                   help="random instances per architecture (default 100)")
    p.add_argument("--tol", type=_positive_flag, default=1e-10, metavar="F",
                   help="max allowed absolute error (default 1e-10)")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="RNG seed (default 0)")
    p.set_defaults(func=_cmd_semcheck)

    p = sub.add_parser(
        "typecheck", formatter_class=_formatter,
        help="type-check a cell description and print the verdict",
        description="Run the admissibility checker on a .cell file or a "
        "shipped builtin; prints WELL-TYPED with per-binding types, or "
        "ILL-TYPED with diagnostics.",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="PATH", help="cell description file")
    group.add_argument(
        "--arch",
        choices=tuple(name.replace("_", "-") for name in BUILTIN_CELLS),
        help="shipped builtin cell",
    )
    p.set_defaults(func=_cmd_typecheck)

    p = sub.add_parser(
        "bench", formatter_class=_formatter,
        help="measure per-step forward+backward wall time",
        description="Time one layer's forward plus backward pass over random "
        "data. For t-lstm the classical lstm is timed alongside and the "
        "per-step speedup ratio is reported.",
    )
    p.add_argument("--arch", choices=TRAIN_ARCHS, required=True,
                   help="cell architecture")
    p.add_argument("--hidden", type=_count_flag, default=64, metavar="N",
                   help="hidden units (default 64)")
    p.add_argument("--steps", type=_count_flag, default=50, metavar="T",
                   help="sequence length per rep (default 50)")
    p.add_argument("--reps", type=_count_flag, default=20, metavar="K",
                   help="timed repetitions, after one warmup (default 20)")
    p.add_argument("--batch", type=_count_flag, default=32, metavar="N",
                   help="parallel sequences (default 32)")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="RNG seed (default 0)")
    p.set_defaults(func=_cmd_bench)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same resolved path, or, when
    both exist, the same inode (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _cmd_train(args) -> int:
    if args.out and args.metrics and _same_file(args.out, args.metrics):
        raise UsageError(
            f"--out and --metrics name the same file ({args.out}, {args.metrics})"
        )
    if args.out and args.layers > MAX_LAYERS:
        raise UsageError(f"--layers {args.layers} is more than a checkpoint holds ({MAX_LAYERS})")
    for path in filter(None, (args.out, args.metrics)):
        _check_output(path)
    flags = {k: v for k, v in vars(args).items() if k in TRAIN_PARAMS}
    config = TrainConfig(**(flags | {"arch": _kind(args.arch)}))
    corpus = _load_corpus(args)
    try:
        model, metrics = train(config, corpus)
    except TrainingDiverged as e:
        if args.metrics:
            e.metrics.to_csv(args.metrics)
        raise
    # train logs each epoch's summary train row just before its val row
    for prev, row in zip(metrics.rows, metrics.rows[1:]):
        if row.split == "val":
            print(f"epoch {row.epoch}: train {prev.loss_nats:.4f}  "
                  f"val {row.loss_nats:.4f} nats (ppl {row.perplexity:.3f})")
    if args.out:
        save_checkpoint(model_to_checkpoint(model), args.out)
        print(f"checkpoint written to {args.out}")
    if args.metrics:
        metrics.to_csv(args.metrics)
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_sample(args) -> int:
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    print(sample(model, args.seed_text, args.length,
                 temperature=args.temperature, seed=args.seed))
    return 0


def _cmd_eval(args) -> int:
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    corpus = _load_corpus(args, model.vocab)
    loss, ppl = evaluate(model, corpus, args.split, seq_len=args.seq_len, batch=args.batch)
    print(f"{args.split}: loss {loss:.6f} nats, perplexity {ppl:.6f}")
    return 0


def _rand_params(
    kind: CellKind, dim: int, hidden: int, rng: np.random.Generator
) -> CellParams:
    """Random parameters with entries large enough to exercise every path."""
    tensors = {}
    for name, shape in param_shapes(kind, dim, hidden).items():
        tensors[name] = rng.uniform(-0.6, 0.6, size=shape)
    return CellParams(kind, dim, hidden, tensors)


def _tmr_margin(params: CellParams, X: np.ndarray) -> float:
    """Smallest |pre-activation| the rectifier sees along the rollout."""
    _, tape = sequence_forward(params, X[:, None, :])
    return float(np.min(np.abs(tape.Z)))  # Z is T-MR's pre-activation


def _draw_instance(kind: CellKind, hidden: int, steps: int, rng):
    dim = hidden
    for _ in range(64):
        params = _rand_params(kind, dim, hidden, rng)
        X = rng.uniform(-1.0, 1.0, size=(steps, dim))
        if kind != CellKind.T_MR or _tmr_margin(params, X) > 1e-3:
            return params, X
    raise UsageError(
        "could not draw an instance away from rectifier kinks at"
        f" --hidden {hidden} --steps {steps}; try smaller values"
    )


def _verdict(failed: bool) -> int:
    """Print a check's verdict and return its exit code."""
    print("FAIL" if failed else "OK")
    return 2 if failed else 0


def _cmd_gradcheck(args) -> int:
    kinds = [_kind(args.arch)] if args.arch else list(TRAINABLE_KINDS)
    rng = np.random.default_rng(args.seed)
    failed = False
    for kind in kinds:
        worst: dict[str, float] = {}
        cf_worst = 0.0
        for _ in range(args.trials):
            params, X = _draw_instance(kind, args.hidden, args.steps, rng)
            U = rng.uniform(-1.0, 1.0, size=(args.steps, params.hidden_dim))
            res = bptt(params, X[:, None, :], U[:, None, :])

            def probe(p, X=X, U=U):
                out, _ = sequence_forward(p, X[:, None, :])
                return float(np.sum(out[:, 0, :] * U))

            fd = finite_diff(params, probe, eps=args.eps)
            for name, g in res.params.items():
                num = float(np.max(np.abs(g - fd[name])))
                den = max(float(np.max(np.abs(fd[name]))), 1e-8)
                rel = num / den
                worst[name] = float(np.maximum(worst.get(name, 0.0), rel))
            if kind in POOLED_FORWARD:
                u_last = U[-1]
                cf = closed_form_gradients(params, X, u_last)
                res_last = bptt(params, X[:, None, :], u_last[None, :])
                for name, g in res_last.params.items():
                    cf_worst = float(np.maximum(cf_worst, np.max(np.abs(g - cf[name]))))
        label = _dashed(kind)
        for name, rel in worst.items():
            print(f"{label}: {name} max relative error {rel:.3e}")
        if not all(rel <= args.tol for rel in worst.values()):
            failed = True
        if kind in POOLED_FORWARD:
            print(
                f"{label}: pooled-form gradients max absolute error {cf_worst:.3e}"
            )
            if not cf_worst <= args.cf_tol:
                failed = True
    return _verdict(failed)


def _cmd_semcheck(args) -> int:
    kinds = [_kind(args.arch)] if args.arch else list(POOLED_FORWARD)
    rng = np.random.default_rng(args.seed)
    failed = False
    for kind in kinds:
        worst = 0.0
        for _ in range(args.trials):
            steps = int(rng.integers(1, args.steps + 1))
            params, X = _draw_instance(kind, args.hidden, steps, rng)
            out, _ = sequence_forward(params, X[:, None, :])
            pooled = POOLED_FORWARD[kind](params, X)
            worst = float(np.maximum(worst, np.max(np.abs(out[-1, 0] - pooled))))
        print(f"{_dashed(kind)}: max absolute gap {worst:.3e}")
        if not worst <= args.tol:
            failed = True
    return _verdict(failed)


def _cmd_typecheck(args) -> int:
    if args.spec is not None:
        text = _read_text(args.spec)
    else:
        text = builtin_text(args.arch.replace("-", "_"))
    try:
        spec = parse_spec(text)
    except ParseError as e:
        print(f"PARSE ERROR at {e.span}: {e.message}")
        return 2
    verdict: Verdict = typecheck(spec)
    print(verdict.render())
    return 0 if verdict.well_typed else 2


def _bench_ms(
    kinds: list[CellKind], hidden: int, steps: int, batch: int, reps: int, seed: int
) -> list[float]:
    """Median ms per step of forward plus backward for each kind, after one
    untimed run each. The kinds take turns within every rep, in an order that
    flips from rep to rep, so drift in machine speed falls on all alike. Each
    kind reuses one workspace across its reps, as training reuses one across
    its windows."""
    runs = []
    for kind in kinds:
        rng = np.random.default_rng(seed)
        params = _rand_params(kind, hidden, hidden, rng)
        X = rng.uniform(-1.0, 1.0, size=(steps, batch, hidden))
        runs.append((params, X, Workspace().layer(0), []))
    dH = np.full((steps, batch, hidden), 1.0 / (steps * batch))
    for rep in range(reps + 1):  # rep 0 is the warmup
        for params, X, ws, times in runs if rep % 2 else runs[::-1]:
            t0 = time.perf_counter()
            _, tape = sequence_forward(params, X, ws=ws)
            sequence_backward(params, tape, dH, ws=ws)
            times.append(time.perf_counter() - t0)
    return [float(np.median(times[1:])) / steps * 1000.0 for *_, times in runs]


def _cmd_bench(args) -> int:
    kind = _kind(args.arch)
    kinds = [kind, CellKind.LSTM] if kind == CellKind.T_LSTM else [kind]
    ms = _bench_ms(kinds, args.hidden, args.steps, args.batch, args.reps, args.seed)
    setup = (
        f"hidden={args.hidden} steps={args.steps} batch={args.batch} "
        f"reps={args.reps}"
    )
    print(f"{args.arch}: {ms[0]:.4f} ms/step forward+backward ({setup})")
    if kind == CellKind.T_LSTM:
        print(f"lstm: {ms[1]:.4f} ms/step forward+backward ({setup})")
        print(f"t-lstm:lstm speedup {ms[1] / ms[0]:.2f}x")
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (DataError, CheckpointError, TrainingDiverged, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
