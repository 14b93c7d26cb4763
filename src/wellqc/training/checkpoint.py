"""Versioned checkpoint container and the training history it carries.

Byte layout (documented for cross-implementation compatibility):

    line 1:  ASCII "WELLQC-CKPT v2 <header_bytes>\\n", the one place the
             version is stored
    header:  exactly <header_bytes> bytes of UTF-8 JSON with five sorted keys:
             architecture, best_epoch, history, hyperparams, params (an
             ordered list of {"name", "shape"})
    blocks:  for each params entry in listed order, the tensor's values as
             raw little-endian 32-bit floats in row-major (C) order

Weights round-trip bit-exactly, so a loaded checkpoint predicts identically
to the in-memory model it was saved from. Loading checks the header with the
strict config codec and checks that the listed params are exactly the
tensors the architecture has; any defect is a FormatError, and so is a file
of another version: a v1 model must be retrained.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from wellqc import configio
from wellqc.errors import FormatError, WellQcError
from wellqc.nn.arch import ArchitectureSpec
from wellqc.nn.model import INFER, Model, param_shapes
from wellqc.optim import Hyperparams

CHECKPOINT_VERSION = 2
_MAGIC = "WELLQC-CKPT"


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of training history. Wall time is logged, never stored."""

    epoch: int  # 1-based
    train_loss: float  # cross-entropy + L2 penalty (the optimized objective)
    train_ce: float
    train_accuracy: float
    val_loss: float  # pure cross-entropy
    val_accuracy: float


HISTORY_COLUMNS = tuple(f.name for f in fields(EpochRecord))


@dataclass(frozen=True)
class _ParamEntry:
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class _Header:
    architecture: ArchitectureSpec
    hyperparams: Hyperparams
    params: tuple[_ParamEntry, ...]
    history: tuple[EpochRecord, ...] = ()
    best_epoch: int = 0


@dataclass
class Checkpoint:
    spec: ArchitectureSpec
    params: dict[str, np.ndarray]  # float32
    hyperparams: Hyperparams
    history: list = field(default_factory=list)
    best_epoch: int = 0

    def to_model(self) -> Model:
        return Model(spec=self.spec, params={k: v.copy() for k, v in self.params.items()}, mode=INFER)

    def save(self, path) -> None:
        header = _Header(
            architecture=self.spec,
            hyperparams=self.hyperparams,
            params=tuple(_ParamEntry(name, value.shape) for name, value in self.params.items()),
            history=tuple(self.history),
            best_epoch=self.best_epoch,
        )
        header_bytes = json.dumps(configio.dump(header), sort_keys=True, separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(f"{_MAGIC} v{CHECKPOINT_VERSION} {len(header_bytes)}\n".encode("ascii"))
            fh.write(header_bytes)
            for name in self.params:
                fh.write(np.ascontiguousarray(self.params[name], dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        data = Path(path).read_bytes()
        nl = data.find(b"\n")
        if nl < 0:
            raise FormatError(f"{path}: missing checkpoint magic line", offset=0)
        parts = data[:nl].decode("ascii", errors="replace").split()
        if len(parts) != 3 or parts[0] != _MAGIC:
            raise FormatError(f"{path}: bad magic line {data[:nl]!r}", offset=0)
        if parts[1] != f"v{CHECKPOINT_VERSION}":
            raise FormatError(f"{path}: unsupported checkpoint version {parts[1]}")
        if not parts[2].isdigit():
            raise FormatError(f"{path}: bad header length {parts[2]!r}", offset=0)
        header_len = int(parts[2])

        header_start = nl + 1
        header_bytes = data[header_start : header_start + header_len]
        if len(header_bytes) < header_len:
            raise FormatError(f"{path}: truncated header", offset=header_start + len(header_bytes))
        try:
            header = configio.load(_Header, json.loads(header_bytes.decode("utf-8")))
            expected = param_shapes(header.architecture)
        except (ValueError, WellQcError) as exc:
            raise FormatError(f"{path}: bad header: {exc}", offset=header_start) from None
        if sorted((p.name, p.shape) for p in header.params) != sorted(expected.items()):
            listed = ", ".join(f"{name}{list(shape)}" for name, shape in expected.items())
            raise FormatError(f"{path}: header params are not the architecture's {listed}", offset=header_start)

        params: dict[str, np.ndarray] = {}
        offset = header_start + header_len
        for entry in header.params:
            nbytes = math.prod(entry.shape) * 4
            block = data[offset : offset + nbytes]
            if len(block) < nbytes:
                raise FormatError(
                    f"{path}: truncated weight block for {entry.name}",
                    offset=offset + len(block),
                )
            params[entry.name] = np.frombuffer(block, dtype="<f4").reshape(entry.shape).astype(np.float32)
            offset += nbytes
        if offset != len(data):
            raise FormatError(f"{path}: {len(data) - offset} trailing bytes", offset=offset)

        return cls(
            spec=header.architecture,
            params=params,
            hyperparams=header.hyperparams,
            history=list(header.history),
            best_epoch=header.best_epoch,
        )
