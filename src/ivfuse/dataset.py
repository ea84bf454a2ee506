"""Registered image-pair datasets: directory ingestion with a seeded 3:1
train/test split, and a deterministic synthetic pair generator for desk
scale work (real multispectral face corpora are license-restricted and
not bundled).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestionError
from .images import read_pgm, resize_bilinear
from .losses import gaussian_window_1d


@dataclass
class ImagePair:
    """A registered (infrared, visible) pair plus its split tag."""

    name: str
    infrared: np.ndarray
    visible: np.ndarray
    split: str = "train"  # "train" | "test"


class PairDataset:
    def __init__(self, pairs: list[ImagePair]):
        self.pairs = pairs

    def train_pairs(self) -> list[ImagePair]:
        return [p for p in self.pairs if p.split == "train"]

    def test_pairs(self) -> list[ImagePair]:
        return [p for p in self.pairs if p.split == "test"]


def split_counts(n: int) -> tuple[int, int]:
    """Train/test counts at a 3:1 ratio, rounding the test share half up."""
    n_test = int(np.floor(n / 4.0 + 0.5))
    n_test = min(n_test, n - 1) if n > 1 else 0
    return n - n_test, n_test


def assign_splits(pairs: list[ImagePair], seed: int) -> None:
    """Shuffle deterministically and tag the first 3/4 as training pairs."""
    order = np.random.default_rng(seed).permutation(len(pairs))
    n_train, _ = split_counts(len(pairs))
    for rank, idx in enumerate(order):
        pairs[idx].split = "train" if rank < n_train else "test"


def _check_size_and_seed(size: int, seed: int) -> None:
    if size < 1:
        raise ConfigError(f"image_size must be >= 1, got {size}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def load_dataset(ir_dir, vis_dir, image_size: int, seed: int) -> PairDataset:
    """Pair equally named files from two directories.

    Every file is read as a binary PGM (whatever its name), bilinearly
    resized to ``image_size`` square, and scaled to [0, 1]. Any file
    present in one directory but not the other is an error naming the
    orphan.
    """
    _check_size_and_seed(image_size, seed)
    for d in (ir_dir, vis_dir):
        if not os.path.isdir(d):
            raise IngestionError(f"image directory not found: {d}")
    ir_names, vis_names = ({f for f in os.listdir(d)
                            if os.path.isfile(os.path.join(d, f))}
                           for d in (ir_dir, vis_dir))
    orphans = ir_names.symmetric_difference(vis_names)
    if orphans:
        name = sorted(orphans)[0]
        side = "visible" if name in ir_names else "infrared"
        raise IngestionError(
            f"unpaired image {name!r}: missing from the {side} directory")
    if not ir_names:
        raise IngestionError(f"no image files in {ir_dir}")

    pairs = []
    for name in sorted(ir_names):
        ir, vis = (np.clip(resize_bilinear(read_pgm(os.path.join(d, name)),
                                           image_size, image_size), 0.0, 1.0)
                   for d in (ir_dir, vis_dir))
        stem = os.path.splitext(name)[0]
        pairs.append(ImagePair(stem, ir, vis))
    assign_splits(pairs, seed)
    return PairDataset(pairs)


def _smooth(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge clamping."""
    radius = max(1, int(3.0 * sigma))
    kernel = gaussian_window_1d(2 * radius + 1, sigma)
    padded = np.pad(img, radius, mode="edge")
    rows = np.apply_along_axis(
        lambda r: np.convolve(r, kernel, mode="valid"), 1, padded)
    return np.apply_along_axis(
        lambda c: np.convolve(c, kernel, mode="valid"), 0, rows)


def _render_pair(rng: np.random.Generator, size: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One registered synthetic pair sharing a face-like layout.

    The two spectra render the shared geometry with opposite contrast, as
    real thermal/visible pairs do: the infrared variant is smooth and
    intensity-shifted, a warm bright head on a cool dark background, while
    the visible variant keeps high-frequency texture on a lighter
    background. The visible rendering carries more histogram entropy on
    average.
    """
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    cx = rng.uniform(0.4, 0.6)
    cy = rng.uniform(0.4, 0.6)
    ax = rng.uniform(0.26, 0.34)
    ay = rng.uniform(0.32, 0.42)

    head = np.clip(1.0 - (((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2),
                   0.0, 1.0)
    eyes = np.zeros_like(head)
    for side in (-1.0, 1.0):
        ex = cx + side * 0.4 * ax
        ey = cy - 0.25 * ay
        eye = ((xx - ex) / (0.18 * ax)) ** 2 + ((yy - ey) / (0.14 * ay)) ** 2
        eyes += np.clip(1.0 - eye, 0.0, 1.0)
    mx, my = cx, cy + 0.45 * ay
    mouth = np.clip(1.0 - (((xx - mx) / (0.45 * ax)) ** 2
                           + ((yy - my) / (0.10 * ay)) ** 2), 0.0, 1.0)

    # visible channel: lighter textured background, darker face
    gx, gy = rng.uniform(-0.15, 0.15, size=2)
    f1, f2 = rng.uniform(6.0, 14.0, size=2)
    p1, p2 = rng.uniform(0.0, 2 * np.pi, size=2)
    stripes = 0.05 * np.sin(2 * np.pi * f1 * xx + p1) \
        + 0.04 * np.sin(2 * np.pi * f2 * yy + p2)
    grain = _smooth(rng.standard_normal((size, size)), 0.8) * 0.14
    visible = (0.42 + gx * (xx - 0.5) + gy * (yy - 0.5)
               - 0.28 * head - 0.12 * eyes - 0.08 * mouth + stripes + grain)
    visible = np.clip(visible, 0.0, 1.0)

    # infrared channel: dark background, smooth warm blob, shifted range
    shift = rng.uniform(0.02, 0.08)
    infrared = shift + 0.62 * head + 0.10 * eyes + 0.06 * mouth
    infrared = _smooth(infrared, 2.2)
    infrared = np.clip(infrared, 0.0, 1.0)
    return infrared, visible


def synth_corpus(n_pairs: int, size: int, seed: int) -> PairDataset:
    """Deterministic registered synthetic pairs, split 3:1 like real data."""
    if n_pairs < 1:
        raise ConfigError(f"synthetic pair count must be >= 1, got {n_pairs}")
    _check_size_and_seed(size, seed)
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n_pairs):
        ir, vis = _render_pair(rng, size)
        pairs.append(ImagePair(f"pair{k:03d}", ir, vis))
    assign_splits(pairs, seed)
    return PairDataset(pairs)
