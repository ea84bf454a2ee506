"""Checkpoint serialization.

Layout: the 4 magic bytes ``HFN1``, a newline, one manifest line per
tensor (``<name> <dtype> <d0,d1,...>``), a blank line, then the raw
little-endian float32 payloads in manifest order. Loading validates the
complete tensor set and every shape against the architecture table before
accepting anything, so a checkpoint that parses is guaranteed to fit the
network exactly, and it rejects any tensor holding a non-finite value.
"""

from __future__ import annotations

import numpy as np

from ._files import write_atomic
from .errors import CheckpointFormatError, CheckpointSchemaError, ShapeError
from .network import ModelParams, check_param_shapes
from .tensor import Tensor

MAGIC = b"HFN1"
_DTYPE_TOKEN = "f32"


def save_checkpoint(params: ModelParams, path) -> None:
    lines = []
    for name, t in params.tensors.items():
        dims = ",".join(str(d) for d in t.shape)
        lines.append(f"{name} {_DTYPE_TOKEN} {dims}")
    manifest = ("\n".join(lines) + "\n\n").encode("utf-8")
    payload = b"".join(np.ascontiguousarray(t.data, dtype="<f4").tobytes()
                       for t in params.tensors.values())
    write_atomic(path, MAGIC + b"\n" + manifest + payload)


def load_checkpoint(path) -> ModelParams:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(
            f"{path}: cannot read checkpoint ({exc.strerror})") from exc
    if not blob.startswith(MAGIC + b"\n"):
        raise CheckpointFormatError(f"{path}: bad magic, not a checkpoint")
    body = blob[len(MAGIC) + 1:]
    sep = body.find(b"\n\n")
    if sep < 0:
        raise CheckpointFormatError(f"{path}: unterminated manifest")
    manifest, payload = body[:sep], body[sep + 2:]

    try:
        lines = manifest.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise CheckpointFormatError(f"{path}: manifest is not UTF-8") from None
    entries: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(lines, 1):
        fields = raw.split()
        if len(fields) != 3:
            raise CheckpointFormatError(
                f"{path}: manifest line {lineno} malformed: {raw!r}")
        name, dtype_token, dims = fields
        if dtype_token != _DTYPE_TOKEN:
            raise CheckpointFormatError(
                f"{path}: unsupported dtype {dtype_token!r} for {name}")
        try:
            shape = tuple(int(d) for d in dims.split(","))
        except ValueError:
            raise CheckpointFormatError(
                f"{path}: bad shape {dims!r} for {name}") from None
        entries.append((name, shape))

    names = [name for name, _ in entries]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CheckpointSchemaError(f"{path}: tensors listed twice: {repeated}")
    shapes = dict(entries)
    try:
        check_param_shapes(shapes)
    except ShapeError as exc:
        raise CheckpointSchemaError(f"{path}: {exc}") from None

    tensors: dict[str, Tensor] = {}
    offset = 0
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        nbytes = 4 * count
        if offset + nbytes > len(payload):
            raise CheckpointFormatError(
                f"{path}: truncated payload while reading {name}")
        arr = np.frombuffer(
            payload, dtype="<f4", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointFormatError(
                f"{path}: {name} holds non-finite values")
        tensors[name] = Tensor(arr.astype(np.float32))
        offset += nbytes
    if offset != len(payload):
        raise CheckpointFormatError(
            f"{path}: {len(payload) - offset} trailing bytes after payload")
    return ModelParams(tensors)
