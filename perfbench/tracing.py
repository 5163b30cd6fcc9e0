"""Span recording around the library's public functions.

``Tracer.install`` replaces module attributes of ``typedrnn`` with wrappers
that record a span per call and then call the original; ``uninstall`` puts the
originals back. Nothing under ``src/`` changes: the wrappers take effect
because the library looks these names up in its own module namespaces at call
time (``training`` calls ``stack_forward``, ``cells.stack_forward`` calls
``sequence_forward``, and so on). Spans are kept in memory.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from typedrnn import autodiff, cells, checkpoint, data, training


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def tape_bytes(tape: cells.StackTape) -> int:
    """Bytes of array memory a stack tape keeps alive, each buffer once."""
    seen: dict[int, int] = {}
    arrays = [m for m in tape.masks if m is not None]
    for lt in tape.layer_tapes:
        arrays.extend(v for v in vars(lt).values() if isinstance(v, np.ndarray))
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        seen[id(a)] = a.nbytes
    return sum(seen.values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._layers: list[list[cells.CellParams]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        # A window span whose loop body raised is closed late, when its
        # generator is collected; the spans opened after it are gone by then.
        if idx in self._stack:
            del self._stack[self._stack.index(idx):]

    def _layer_index(self, params: cells.CellParams) -> int:
        layers = self._layers[-1] if self._layers else []
        for i, p in enumerate(layers):
            if p is params:
                return i
        return -1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, attrs=None, after=None, stack=False):
        """Record a span per call of ``fn``. ``attrs(*args)`` gives span
        attributes up front, ``after(span, args, result)`` adds more, and
        ``stack`` marks functions whose first argument is a layer stack."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                self._layers.append(args[0])
            idx = self.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if stack:
                    self._layers.pop()
            if after is not None:  # outside the span: not part of its time
                after(self.spans[idx], args, out)
            return out

        return traced

    def _wrap_batch_iter(self, fn):
        """Spans for each window's generation and for the caller's work on it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open("data.batch_iter")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                idx = self.open("training.window")
                try:
                    yield item
                finally:
                    self.close(idx)

        return traced

    def install(self) -> None:
        def layer_attrs(params, *a, **k):
            return {"kind": params.kind.value, "layer": self._layer_index(params)}

        def train_attrs(config, corpus):
            return {"kind": config.arch.value}

        def record_tape(span, args, out):
            # Only tapes of train's own windows are reported; sizing the
            # per-token tapes of sample would add to its traced time.
            window = self.spans[span.parent] if span.parent >= 0 else None
            if window is not None and window.name == "training.window" and (
                self.spans[window.parent].name == "training.train"
            ):
                span.attrs["tape_bytes"] = tape_bytes(out[1])

        def record_size(span, args, out):
            span.attrs["bytes"] = os.path.getsize(args[1])

        patches = [
            (training, "train", self._wrap("training.train", training.train, train_attrs)),
            (training, "evaluate", self._wrap("training.evaluate", training.evaluate)),
            (training, "sample", self._wrap("training.sample", training.sample)),
            (training, "batch_iter", self._wrap_batch_iter(training.batch_iter)),
            (training, "stack_forward", self._wrap(
                "cells.stack_forward", training.stack_forward,
                after=record_tape, stack=True)),
            (training, "stack_backward", self._wrap(
                "autodiff.stack_backward", training.stack_backward, stack=True)),
            (training, "clip_global_norm", self._wrap(
                "autodiff.clip_global_norm", training.clip_global_norm)),
            (training, "softmax", self._wrap("linalg.softmax", training.softmax)),
            (cells, "sequence_forward", self._wrap(
                "cells.sequence_forward", cells.sequence_forward, layer_attrs)),
            (autodiff, "sequence_backward", self._wrap(
                "autodiff.sequence_backward", autodiff.sequence_backward, layer_attrs)),
            (data, "build_vocab", self._wrap("data.build_vocab", data.build_vocab)),
            (data, "encode_and_split", self._wrap(
                "data.encode_and_split", data.encode_and_split)),
            (checkpoint, "save_checkpoint", self._wrap(
                "checkpoint.save_checkpoint", checkpoint.save_checkpoint,
                after=record_size)),
            (checkpoint, "load_checkpoint", self._wrap(
                "checkpoint.load_checkpoint", checkpoint.load_checkpoint)),
        ]
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
