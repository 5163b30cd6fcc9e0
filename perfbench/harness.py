"""One benchmark run: set-up, timed rounds, checks and metrics.

A round trains every kind of the workload once with ``training.train``, then
for each trained model makes a checkpoint round trip, two ``evaluate`` calls
(the in-memory and the reloaded model) and two same-seed ``sample`` calls.
Rounds repeat until the requested seconds have passed; every round does the
same operations, so the counts of a run are whole multiples of one round's.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from tracing import Tracer
from typedrnn import checkpoint, data, training
from typedrnn.cells import CellKind

# Set-up repetitions before each round.
SETUP_REPS = 3
PROBE_WINDOWS = 4


def n_windows(n_tokens: int, seq_len: int, batch: int) -> int:
    """Windows ``data.batch_iter`` yields for a split of ``n_tokens``."""
    return (n_tokens // batch - 1) // seq_len


def eval_tokens(n_tokens: int) -> int:
    """Tokens ``training.evaluate`` scores on a split, with the CLI's window."""
    batch = max(1, min(workloads.EVAL_BATCH, n_tokens // (workloads.EVAL_SEQ_LEN + 1)))
    seq_len = min(workloads.EVAL_SEQ_LEN, n_tokens - 1)
    return n_windows(n_tokens, seq_len, batch) * seq_len * batch


@dataclass
class RoundFigures:
    train_tokens: int = 0
    train_s: float = 0.0
    eval_tokens: int = 0
    eval_s: float = 0.0
    sample_tokens: int = 0
    sample_s: float = 0.0


@dataclass
class Run:
    workload: workloads.Workload
    seed: int
    workdir: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)
    rounds: list[RoundFigures] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        w = self.workload
        self.text = w.make_text(self.seed)
        self.vocab = data.build_vocab(self.text, w.level, w.max_words)
        if w.max_words is not None and self.vocab.size != w.max_words:
            raise RuntimeError(
                f"generated corpus has {self.vocab.size} word types, "
                f"fewer than the cap {w.max_words}"
            )
        self.corpus = data.encode_and_split(self.text, self.vocab)
        self.seed_text = self.vocab.decode(self.corpus.test[: w.seed_tokens])
        self.windows = n_windows(len(self.corpus.train), workloads.SEQ_LEN, workloads.BATCH)
        self.reference: dict[str, dict[str, np.ndarray]] = {}
        self.models: dict[str, training.Model] = {}
        self.workdir.mkdir(parents=True, exist_ok=True)
        # The checkpoints that the set-up loads, one per kind, at trained size.
        rng = np.random.default_rng(self.seed)
        for kind in w.kinds:
            model = training.build_model(self.config(kind), self.vocab, rng)
            checkpoint.save_checkpoint(
                training.model_to_checkpoint(model), self.ckpt_path(kind)
            )

    def config(self, kind: str) -> training.TrainConfig:
        return training.TrainConfig(
            arch=CellKind(kind),
            layers=workloads.LAYERS,
            hidden=workloads.HIDDEN,
            level=self.workload.level,
            seq_len=workloads.SEQ_LEN,
            batch=workloads.BATCH,
            seed=self.seed,
            threads=1,
            log_every=workloads.LOG_EVERY,
        )

    def ckpt_path(self, kind: str) -> Path:
        return self.workdir / f"{kind}.ckpt"

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.check_failures.append(f"{fn.__name__}: {exc}")

    # -- set-up ---------------------------------------------------------------

    def setup_once(self) -> float:
        """Time what ``typedrnn eval`` and ``sample`` do before their work:
        build the vocabulary, encode and split, load every kind's checkpoint."""
        w = self.workload
        t0 = time.perf_counter()
        vocab = data.build_vocab(self.text, w.level, w.max_words)
        data.encode_and_split(self.text, vocab)
        for kind in w.kinds:
            training.model_from_checkpoint(checkpoint.load_checkpoint(self.ckpt_path(kind)))
        return time.perf_counter() - t0

    def setup(self) -> None:
        self.setup_s.extend(self.setup_once() for _ in range(SETUP_REPS))

    # -- rounds ---------------------------------------------------------------

    def round(self) -> RoundFigures:
        figures = RoundFigures()
        for kind in self.workload.kinds:
            total = self.windows + 5
            self._done = 0
            try:
                self._kind_round(kind, figures)
            except Exception as exc:  # an operation failed: so do the rest
                self.problems.append(f"{kind}: {exc!r}")
                self.failed += total - self._done
            self.attempted += total
        self.rounds.append(figures)
        return figures

    def _kind_round(self, kind: str, figures: RoundFigures) -> None:
        """Train one kind, then one checkpoint round trip, two evaluations
        and two samples: ``windows + 5`` operations, counted in ``_done``."""
        corpus, n = self.corpus, self.workload.sample_len
        t0 = time.perf_counter()
        model, metrics = training.train(self.config(kind), corpus)
        figures.train_s += time.perf_counter() - t0
        figures.train_tokens += self.windows * workloads.SEQ_LEN * workloads.BATCH
        self._done += self.windows
        self.check(checks.check_window_loss, metrics, self.vocab.size)
        params = model.tensors()
        if kind in self.reference:
            self.check(checks.check_same_params, self.reference[kind], params)
        else:
            self.reference[kind] = params
        self.models[kind] = model

        path = self.ckpt_path(kind)
        checkpoint.save_checkpoint(training.model_to_checkpoint(model), path)
        loaded = training.model_from_checkpoint(checkpoint.load_checkpoint(path))
        self._done += 1

        losses = []
        for m in (model, loaded):
            t0 = time.perf_counter()
            loss, _ = training.evaluate(
                m, corpus, "test",
                seq_len=workloads.EVAL_SEQ_LEN, batch=workloads.EVAL_BATCH,
            )
            figures.eval_s += time.perf_counter() - t0
            figures.eval_tokens += eval_tokens(len(corpus.test))
            self._done += 1
            losses.append(loss)
        self.check(checks.check_same_loss, *losses)

        texts = []
        for _ in range(2):
            t0 = time.perf_counter()
            texts.append(training.sample(loaded, self.seed_text, n, seed=self.seed))
            figures.sample_s += time.perf_counter() - t0
            figures.sample_tokens += n
            self._done += 1
        self.check(checks.check_sample, *texts, self.seed_text, n, self.vocab)

    def probe(self, kind: str) -> None:
        """A short traced training of a kind the workload does not train,
        for that kind's per-layer figures at this workload's sizes."""
        B, T = workloads.BATCH, workloads.SEQ_LEN
        c = self.corpus
        small = data.EncodedCorpus(
            c.vocab, c.train[: B * (PROBE_WINDOWS * T + 1)], c.valid[: T + 2],
            c.test, c.digest,
        )
        training.train(self.config(kind), small)

    # -- once-per-run checks ----------------------------------------------------

    def final_checks(self) -> None:
        rng = np.random.default_rng(self.seed)
        X_ids, _ = next(data.batch_iter(self.corpus.train, workloads.SEQ_LEN, workloads.BATCH))
        one_window = self.corpus.test[: workloads.SEQ_LEN + 1]
        for kind, model in self.models.items():
            self.check(checks.check_eval_oracle, model, one_window)
            self.check(checks.check_gradient, model, X_ids, rng)

    # -- figures ----------------------------------------------------------------

    def end_to_end(self, rounds: list[RoundFigures]) -> dict[str, dict]:
        """Throughputs are tokens over seconds summed across the rounds. On a
        shared machine that spread less from run to run than the median of
        per-round rates, most of all for the short ``sample`` calls."""

        def rate(tokens: str, seconds: str) -> float:
            total_s = sum(getattr(r, seconds) for r in rounds)
            return sum(getattr(r, tokens) for r in rounds) / total_s if total_s > 0 else 0.0

        return {
            "train_tok_s": {"value": rate("train_tokens", "train_s"), "unit": "tok/s"},
            "eval_tok_s": {"value": rate("eval_tokens", "eval_s"), "unit": "tok/s"},
            "sample_tok_s": {"value": rate("sample_tokens", "sample_s"), "unit": "tok/s"},
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }


_API = ("training.train", "training.evaluate", "training.sample")


def per_layer(tracer: Tracer, kinds: tuple[str, ...]) -> dict[str, dict]:
    """Per-layer medians from the spans of a traced run.

    Window metrics come from the ``training.window`` spans directly under
    ``training.train``: the caller's work on one window between two pulls
    from ``batch_iter``. ``training.other_ms`` is that span minus the layer
    forward and backward spans and clipping inside it. Kinds the workload
    trains are read from its rounds, the other kinds from their probes.
    """
    spans = tracer.spans
    bench: list[int] = []  # enclosing bench.* span
    api: list[int] = []  # outermost enclosing train / evaluate / sample span
    window: list[int] = []  # enclosing window of train's own loop
    for i, s in enumerate(spans):
        p = s.parent
        up = (bench[p], api[p], window[p]) if p >= 0 else (-1, -1, -1)
        bench.append(i if s.name.startswith("bench.") else up[0])
        api.append(up[1] if up[1] >= 0 else (i if s.name in _API else -1))
        own = s.name == "training.window" and p >= 0 and spans[p].name == "training.train"
        window.append(i if own else up[2])

    def under(i: int, name: str) -> bool:
        return bench[i] >= 0 and spans[bench[i]].name == name

    win: dict[int, dict] = {}
    for i, s in enumerate(spans):
        w = window[i]
        if w == i:
            win[w] = {"kind": spans[s.parent].attrs["kind"], "bench": spans[bench[i]].name,
                      "wall": s.ms, "layer": 0.0, "clip": 0.0}
        elif w >= 0 and s.name in ("cells.sequence_forward", "autodiff.sequence_backward"):
            key = ("fwd" if s.name.startswith("cells") else "bwd") + f"_l{s.attrs['layer']}"
            win[w][key] = win[w].get(key, 0.0) + s.ms
            win[w]["layer"] += s.ms
        elif w >= 0 and s.name == "autodiff.clip_global_norm":
            win[w]["clip"] += s.ms
        elif w >= 0 and s.name == "cells.stack_forward":
            win[w]["tape"] = s.attrs["tape_bytes"]

    out: dict[str, dict] = {}

    def put(name, values, unit, scale=1.0):
        values = [v * scale for v in values]
        out[name] = {"value": statistics.median(values) if values else math.nan,
                     "unit": unit}

    for kind in workloads.TRACED_KINDS:
        source = "bench.round" if kind in kinds else "bench.probe"
        recs = [r for r in win.values() if r["kind"] == kind and r["bench"] == source]
        for l in (0, 1):
            put(f"cells.{kind}.fwd_l{l}_ms", [r[f"fwd_l{l}"] for r in recs], "ms")
            put(f"autodiff.{kind}.bwd_l{l}_ms", [r[f"bwd_l{l}"] for r in recs], "ms")
        put(f"cells.{kind}.tape_mb", [r["tape"] for r in recs], "MiB", 2.0**-20)

    rounds = [r for r in win.values() if r["bench"] == "bench.round"]
    put("autodiff.clip_ms", [r["clip"] for r in rounds], "ms")
    put("training.other_ms", [r["wall"] - r["layer"] - r["clip"] for r in rounds], "ms")

    def ms(name, where):
        return [s.ms for i, s in enumerate(spans) if s.name == name and where(i)]

    def called_from(caller):
        return lambda i: (under(i, "bench.round") and api[i] >= 0
                          and spans[api[i]].name == caller)

    put("data.batch_iter_ms", ms("data.batch_iter", lambda i: under(i, "bench.round")
                                 and spans[spans[i].parent].name == "training.train"), "ms")
    put("data.encode_ms", ms("data.encode_and_split", lambda i: under(i, "bench.setup")), "ms")
    put("training.eval_fwd_ms", ms("cells.stack_forward", called_from("training.evaluate")), "ms")
    put("cells.sample_fwd_us", ms("cells.stack_forward", called_from("training.sample")), "us", 1e3)
    put("linalg.softmax_us", ms("linalg.softmax", lambda i: under(i, "bench.round")), "us", 1e3)
    put("checkpoint.save_ms", ms("checkpoint.save_checkpoint", lambda i: under(i, "bench.round")), "ms")
    put("checkpoint.load_ms", ms("checkpoint.load_checkpoint", lambda i: bench[i] >= 0), "ms")

    # Counts over the first traced round; every round does the same work.
    first = next(i for i, s in enumerate(spans) if s.name == "bench.round")
    in_first = [i for i in range(len(spans)) if bench[i] == first]

    def count(name):
        return sum(1 for i in in_first if spans[i].name == name)

    out["checkpoint.bytes"] = {"value": sum(
        spans[i].attrs["bytes"] for i in in_first
        if spans[i].name == "checkpoint.save_checkpoint"), "unit": "bytes"}
    out["cells.fwd_calls"] = {"value": count("cells.sequence_forward"), "unit": "count"}
    out["autodiff.bwd_calls"] = {"value": count("autodiff.sequence_backward"), "unit": "count"}
    out["training.windows"] = {"value": sum(1 for i in in_first if window[i] == i),
                               "unit": "count"}
    return out


def run(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    results: Path,
) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    workdir = results / f"work-{workload.name}-{seed}-{time.time_ns()}"
    try:
        r = Run(workload, seed, workdir)
        if trace:
            metrics = _traced(r, seconds, results)
        else:
            _measure(r, seconds, time.perf_counter(), lambda name: contextlib.nullcontext())
            metrics = r.end_to_end(r.rounds)
        r.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in r.problems + r.check_failures:
        print(line, file=sys.stderr, flush=True)
    return {
        "correct": not r.check_failures,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }


def _measure(r: Run, seconds: float, t_start: float, span) -> None:
    """Alternate set-up repetitions and rounds until ``seconds`` have passed
    since ``t_start``, so that both sample the same stretch of machine time.
    ``span(name)`` is a context manager around each."""
    while True:
        with span("bench.setup"):
            r.setup()
        with span("bench.round"):
            r.round()
        if time.perf_counter() - t_start >= seconds:
            return


def _traced(r: Run, seconds: float, results: Path) -> dict:
    """Untraced reference round, then traced set-up and rounds, then probes.

    Every traced round must end with the reference round's parameters,
    bit for bit. Spans and the traced end-to-end figures go to
    ``results/<workload>-seed<seed>-trace.json``.
    """
    t_start = time.perf_counter()
    r.setup()
    untraced = r.end_to_end([r.round()])
    r.setup_s.clear()
    tracer = Tracer()
    tracer.install()
    try:
        _measure(r, seconds, t_start, tracer.span)
        for kind in workloads.TRACED_KINDS:
            if kind not in r.workload.kinds:
                with tracer.span("bench.probe"):
                    r.probe(kind)
    finally:
        tracer.uninstall()
    layer = per_layer(tracer, r.workload.kinds)
    report = {
        "workload": r.workload.name,
        "seed": r.seed,
        "untraced_round": untraced,
        "traced": r.end_to_end(r.rounds[1:]),
        "per_layer": layer,
        "spans": [[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans],
    }
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{r.workload.name}-seed{r.seed}-trace.json"
    path.write_text(json.dumps(report))
    return layer
