"""Versioned checkpoint container: an architecture and its weights.

Byte layout (documented for cross-implementation compatibility):

    line 1:  ASCII "WELLQC-CKPT v3 <header_bytes>\\n", single spaces, the one
             place the version is stored
    header:  exactly <header_bytes> bytes of UTF-8 JSON: the architecture as
             ``configio.dump`` writes it, keys sorted, no whitespace
    blocks:  for each tensor of ``param_shapes(architecture)``, in that order,
             its values as raw little-endian 32-bit floats in row-major (C)
             order

The header holds the architecture alone, since the tensor names and shapes
follow from it. A run's hyperparameters and history are not in the file:
they live in its out-dir, as ``resolved_config.json`` and ``history.csv``.

Weights round-trip bit-exactly, so a loaded checkpoint predicts identically
to the in-memory model it was saved from. Loading checks the magic line byte
for byte and the header with the strict config codec and the architecture's
shape checks, which want a Softmax head 2 wide; any defect is a FormatError,
and so is a file of another version: a v1 or v2 model must be retrained (v2's
tensor blocks are these same bytes).
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wellqc import configio
from wellqc.errors import FormatError, WellQcError, shorten
from wellqc.nn.arch import ArchitectureSpec
from wellqc.nn.model import INFER, Model, param_shapes

CHECKPOINT_VERSION = 3
_MAGIC = b"WELLQC-CKPT"


@dataclass
class Checkpoint:
    spec: ArchitectureSpec
    params: dict[str, np.ndarray]  # float32, keyed as param_shapes(spec)

    def to_model(self) -> Model:
        return Model(spec=self.spec, params={k: v.copy() for k, v in self.params.items()}, mode=INFER)

    def save(self, path) -> None:
        header = json.dumps(configio.dump(self.spec), sort_keys=True, separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(b"%s v%d %d\n" % (_MAGIC, CHECKPOINT_VERSION, len(header)))
            fh.write(header)
            for name in param_shapes(self.spec):
                fh.write(np.ascontiguousarray(self.params[name], dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        data = Path(path).read_bytes()
        nl = data.find(b"\n")
        if nl < 0:
            raise FormatError(f"{path}: missing checkpoint magic line", offset=0)
        parts = data[:nl].split(b" ")
        if len(parts) != 3 or parts[0] != _MAGIC:
            raise FormatError(f"{path}: bad magic line {shorten(repr(data[:nl]))}", offset=0)
        if parts[1] != b"v%d" % CHECKPOINT_VERSION:
            version = parts[1].decode("ascii", "replace")
            raise FormatError(f"{path}: unsupported checkpoint version {shorten(repr(version))}")
        if not parts[2].isdigit():
            raise FormatError(f"{path}: bad header length {shorten(repr(parts[2]))}", offset=0)
        header_len = int(parts[2])

        header_start = nl + 1
        header_bytes = data[header_start : header_start + header_len]
        if len(header_bytes) < header_len:
            raise FormatError(f"{path}: truncated header", offset=header_start + len(header_bytes))
        try:
            spec = configio.load(ArchitectureSpec, json.loads(header_bytes.decode("utf-8")))
            shapes = param_shapes(spec)
        except (ValueError, RecursionError, WellQcError) as exc:
            raise FormatError(f"{path}: bad header: {exc}", offset=header_start) from None

        params: dict[str, np.ndarray] = {}
        offset = header_start + header_len
        for name, shape in shapes.items():
            nbytes = math.prod(shape) * 4
            block = data[offset : offset + nbytes]
            if len(block) < nbytes:
                raise FormatError(f"{path}: truncated weight block for {name}", offset=offset + len(block))
            params[name] = np.frombuffer(block, dtype="<f4").reshape(shape).astype(np.float32)
            offset += nbytes
        if offset != len(data):
            raise FormatError(f"{path}: {len(data) - offset} trailing bytes", offset=offset)
        return cls(spec=spec, params=params)
