"""Grayscale image plumbing: binary PGM files, luma conversion, bilinear
resizing, and the 8-bit quantization shared by image emission and the
entropy metric.

PGM (P5, maxval 255) is the native format because it is bit-exact and
trivial to parse. Other formats are decoded through Pillow when it is
installed (``HAVE_PIL``); the core pipeline never requires it.
"""

from __future__ import annotations

import numpy as np

from ._files import write_atomic
from .errors import IngestionError, ShapeError

try:
    from PIL import Image as _PILImage
    HAVE_PIL = True
except ImportError:  # pragma: no cover - depends on the environment
    _PILImage = None
    HAVE_PIL = False

# ITU-R BT.601 luma weights.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def quantize_u8(img: np.ndarray) -> np.ndarray:
    """[0, 1] floats -> uint8 levels, ties rounded away from zero."""
    levels = np.floor(255.0 * np.clip(img, 0.0, 1.0) + 0.5)
    return levels.astype(np.uint8)


def levels_to_unit(arr: np.ndarray, name: str = "image") -> np.ndarray:
    """Decoded pixel levels -> float64 in [0, 1], scaled by the dtype.

    8-bit levels are divided by 255 and 16-bit levels by 65535, whatever
    values the image happens to hold; a bilevel (bool) image maps to 0
    and 1. Any other pixel type is an IngestionError naming ``name``.
    """
    if arr.dtype == np.bool_:
        return arr.astype(np.float64)
    if arr.dtype.kind == "u" and arr.dtype.itemsize in (1, 2):
        return arr.astype(np.float64) / float(np.iinfo(arr.dtype).max)
    raise IngestionError(f"{name}: unsupported pixel type {arr.dtype}")


def to_gray(rgb: np.ndarray) -> np.ndarray:
    """(H, W, 3) array in [0, 1] -> single luma channel."""
    if rgb.ndim == 2:
        return rgb
    if rgb.ndim != 3 or rgb.shape[2] not in (3, 4):
        raise ShapeError(f"expected (H, W, 3) color data, got {rgb.shape}")
    r, g, b = LUMA_WEIGHTS
    return r * rgb[..., 0] + g * rgb[..., 1] + b * rgb[..., 2]


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
    """Binary PGM (P5, maxval 255) -> float64 image in [0, 1]."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IngestionError(
            f"{path}: cannot read image ({exc.strerror})") from exc
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(blob):
        c = blob[i:i + 1]
        if c == b"#":
            i = blob.find(b"\n", i)
            if i < 0:
                break
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace() and blob[j:j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise IngestionError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise IngestionError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise IngestionError(
            f"{path}: PGM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise IngestionError(f"{path}: only maxval 255 supported, got {maxval}")
    i += 1  # single whitespace byte after maxval
    pixels = blob[i:i + width * height]
    if len(pixels) != width * height:
        raise IngestionError(f"{path}: truncated PGM pixel data")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return arr.astype(np.float64) / 255.0


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0, 1] image as binary PGM (P5, maxval 255)."""
    if img.ndim != 2:
        raise ShapeError(f"write_pgm expects a 2-d image, got shape {img.shape}")
    data = quantize_u8(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    write_atomic(path, header + data.tobytes())


def read_image(path) -> np.ndarray:
    """Decode any supported image file to a [0, 1] grayscale array."""
    name = str(path)
    if name.lower().endswith(".pgm"):
        return read_pgm(path)
    if not HAVE_PIL:
        raise IngestionError(
            f"{name}: only .pgm is supported without Pillow installed")
    try:
        with _PILImage.open(path) as im:
            arr = np.asarray(im)
    except Exception as exc:
        raise IngestionError(f"{name}: undecodable image ({exc})") from exc
    return to_gray(levels_to_unit(arr, name))
