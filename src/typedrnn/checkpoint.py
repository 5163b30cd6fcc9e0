"""Binary checkpoint format.

Layout, all integers little-endian:

    magic   4 bytes  b"TRNN"
    u32     format version (currently 1)
    u8      architecture code (see ARCH_CODES)
    u8      level code (0 = char, 1 = word)
    u16     layer count
    u32     hidden size
    u32     vocabulary size, then per symbol: u32 byte length + UTF-8 bytes
    then until end of file, one record per tensor:
            u32 name byte length + name bytes
            u32 rank, then u32 per dimension
            rank-0..n float64 data, little-endian, row-major

There is no tensor-count field; the reader consumes records until EOF and
rejects truncated files. Loading refuses unknown magic or version, a layer
count or hidden size of 0, a symbol or tensor name that is not valid UTF-8,
and names any tensor holding NaN or infinity; shape validation against an
architecture happens when a model is rebuilt from the checkpoint.
Round-trips are bit-exact.
A loaded ``Checkpoint``'s tensors are read-only views of the file's bytes;
``training.model_from_checkpoint`` copies each once, into the model.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cells import CellKind

MAGIC = b"TRNN"
FORMAT_VERSION = 1
_U32 = struct.Struct("<I")

ARCH_CODES: dict[CellKind, int] = {
    CellKind.RNN: 0,
    CellKind.LSTM: 1,
    CellKind.GRU: 2,
    CellKind.T_RNN: 3,
    CellKind.T_LSTM: 4,
    CellKind.T_GRU: 5,
    CellKind.T_MR: 6,
}
_ARCH_FROM_CODE = {v: k for k, v in ARCH_CODES.items()}

LEVEL_CODES = {"char": 0, "word": 1}
_LEVEL_FROM_CODE = {v: k for k, v in LEVEL_CODES.items()}


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint data."""


@dataclass
class Checkpoint:
    arch: CellKind
    level: str
    layers: int
    hidden: int
    vocab_symbols: list[str]
    tensors: dict[str, np.ndarray]


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<BB", ARCH_CODES[ckpt.arch], LEVEL_CODES[ckpt.level])
    out += struct.pack("<H", ckpt.layers)
    out += struct.pack("<I", ckpt.hidden)
    out += struct.pack("<I", len(ckpt.vocab_symbols))
    for sym in ckpt.vocab_symbols:
        raw = sym.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    for name, arr in ckpt.tensors.items():
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
        arr = np.asarray(arr, dtype=np.float64)
        out += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def text(self, what: str, i: int | None = None) -> str:
        """A u32 byte length, then that many bytes of UTF-8. An error names
        it ``what.format(i)``; only an error formats that."""
        data, start = self.data, self.pos + 4
        if start > len(data):
            raise CheckpointError(f"truncated checkpoint while reading {what.format(i)} length")
        end = start + _U32.unpack_from(data, self.pos)[0]
        if end > len(data):
            raise CheckpointError(f"truncated checkpoint while reading {what.format(i)}")
        self.pos = end
        try:
            return data[start:end].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{what.format(i)} is not valid UTF-8 ({e.reason})") from None

    def floats(self, dims: tuple, what: str) -> np.ndarray:
        """The next float64 array of shape ``dims``, viewed, not copied."""
        start, count = self.pos, math.prod(dims)
        self.pos += 8 * count
        if self.pos > len(self.data):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        return np.frombuffer(self.data, "<f8", count, start).reshape(dims)

    def at_end(self) -> bool:
        return self.pos == len(self.data)


def load_checkpoint(path: str | Path) -> Checkpoint:
    r = _Reader(Path(path).read_bytes())
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )
    arch_code, level_code = struct.unpack("<BB", r.take(2, "header"))
    if arch_code not in _ARCH_FROM_CODE:
        raise CheckpointError(f"unknown architecture code {arch_code}")
    if level_code not in _LEVEL_FROM_CODE:
        raise CheckpointError(f"unknown level code {level_code}")
    layers = struct.unpack("<H", r.take(2, "layer count"))[0]
    if layers == 0:
        raise CheckpointError("checkpoint has layer count 0")
    hidden = r.u32("hidden size")
    if hidden == 0:
        raise CheckpointError("checkpoint has hidden size 0")
    vocab_size = r.u32("vocab size")
    symbols = [r.text("vocab entry {}", i) for i in range(vocab_size)]
    tensors: dict[str, np.ndarray] = {}
    while not r.at_end():
        name = r.text("tensor name")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor {name!r}")
        rank = r.u32(f"rank of {name}")
        if rank > 8:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        dims = tuple(r.u32(f"dim of {name}") for _ in range(rank))
        tensors[name] = r.floats(dims, f"data of {name}")
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
    return Checkpoint(
        arch=_ARCH_FROM_CODE[arch_code],
        level=_LEVEL_FROM_CODE[level_code],
        layers=layers,
        hidden=hidden,
        vocab_symbols=symbols,
        tensors=tensors,
    )
