"""Grayscale image plumbing: binary PGM files, bilinear resizing, and the
8-bit quantization shared by image emission and the entropy metric.

PGM (P5) is the one image format, because it is bit-exact and trivial to
parse. It is read at any maxval up to 65535, 16-bit samples included,
and written at maxval 255.
"""

from __future__ import annotations

import re

import numpy as np

from ._files import write_atomic
from .errors import DomainError, IngestionError, ShapeError

# one PGM header token: whitespace bytes and '#' comments that end in a
# newline, then a run of bytes that are neither whitespace nor '#'
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]+)")


def quantize_u8(img: np.ndarray) -> np.ndarray:
    """[0, 1] floats -> uint8 levels, ties rounded away from zero."""
    levels = np.floor(255.0 * np.clip(img, 0.0, 1.0) + 0.5)
    return levels.astype(np.uint8)


def resize_bilinear(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear resampling with half-pixel centers, edges clamped."""
    H, W = img.shape
    if (H, W) == (height, width):
        return img.copy()
    ys = (np.arange(height) + 0.5) * (H / height) - 0.5
    xs = (np.arange(width) + 0.5) * (W / width) - 0.5
    y0 = np.clip(np.floor(ys), 0, H - 1).astype(int)
    x0 = np.clip(np.floor(xs), 0, W - 1).astype(int)
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5) -> float64 image in [0, 1], scaled by its maxval.

    Maxval 1-255 stores one byte per sample, 256-65535 two big-endian
    bytes (the Netpbm PGM spec); a sample above maxval is an error.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IngestionError(
            f"{path}: cannot read image ({exc.strerror})") from exc
    tokens, i = [], 0
    while len(tokens) < 4 and (m := _HEADER_TOKEN.match(blob, i)):
        tokens.append(m[1])
        i = m.end()
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise IngestionError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise IngestionError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise IngestionError(
            f"{path}: PGM dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise IngestionError(
            f"{path}: PGM maxval must be in 1..65535, got {maxval}")
    if i < len(blob) and not blob[i:i + 1].isspace():   # a '#' comment
        raise IngestionError(f"{path}: PGM maxval must end in one whitespace byte")
    i += 1  # that byte
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    size = width * height * dtype.itemsize
    pixels = blob[i:i + size]
    if len(pixels) != size:
        raise IngestionError(f"{path}: truncated PGM pixel data")
    arr = np.frombuffer(pixels, dtype=dtype).reshape(height, width)
    if arr.max() > maxval:
        raise IngestionError(
            f"{path}: PGM sample {arr.max()} exceeds maxval {maxval}")
    return arr.astype(np.float64) / maxval


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0, 1] image as binary PGM (P5, maxval 255); values outside
    [0, 1] clip, and a NaN or infinite pixel is a DomainError."""
    if img.ndim != 2:
        raise ShapeError(f"write_pgm expects a 2-d image, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise DomainError(f"{path}: image has non-finite pixels")
    data = quantize_u8(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    write_atomic(path, header + data.tobytes())

