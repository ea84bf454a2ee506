"""Fusion quality metrics: histogram entropy (EN), edge fidelity (Qabf),
two-reference structural similarity (SSIM), and PSNR, plus corpus-level
report emission.

EN and Qabf follow the standard constructions used across the fusion
literature; the SSIM metric averages the fused image's similarity to each
source (a two-reference stand-in for the no-reference variant), and PSNR
likewise averages over both sources on the [0, 1] range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import write_atomic
from .errors import DomainError, ShapeError
from .images import quantize_u8
from .losses import LossConfig, ssim as _ssim_graph
from .network import FeedbackConfig, ModelParams, fuse_images
from .tensor import as_tensor, conv2d

# Published reference results for this architecture on the two benchmark
# multispectral face corpora (CASIA NIR-VIS, QFIRE). The corpora are
# license-restricted and not bundled, so these are documentation targets,
# not reproducible by this repository's synthetic corpus.
REFERENCE_RESULTS = {
    "CASIA": {"en": 7.2022, "qabf": 0.5913, "ssim": 0.9514, "psnr": 23.06},
    "QFIRE": {"en": 7.7522, "qabf": 0.5463, "ssim": 0.9386, "psnr": 21.03},
}

# Edge-preservation sigmoid constants of the original fusion-performance
# measure: strength (gamma, kappa, sigma) then orientation.
QABF_STRENGTH = (0.9994, -15.0, 0.5)
QABF_ORIENT = (0.9879, -22.0, 0.8)

# SSIM metric window: 11 wide, sigma 1.5, whatever the training loss used
SSIM_CONFIG = LossConfig()

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL = np.stack([_SOBEL_X, _SOBEL_X.T])[:, np.newaxis]   # (2, 1, 3, 3)


def _check_images(caller: str, **images) -> None:
    for name, img in images.items():
        if not img.size:
            raise ShapeError(f"{caller}: {name} is empty, shape {img.shape}")
        if not np.isfinite(img).all():
            raise DomainError(f"{caller}: {name} has non-finite pixels")


def entropy(img: np.ndarray) -> float:
    """Shannon entropy (bits) of the 8-bit intensity histogram."""
    _check_images("entropy", img=img)
    hist = np.bincount(quantize_u8(img).ravel(), minlength=256)
    p = hist[hist > 0] / img.size
    return float(-np.sum(p * np.log2(p)) + 0.0)  # +0.0 folds away -0.0


def _check_triple(caller: str, f, a, b) -> None:
    if a.shape != f.shape or b.shape != f.shape:
        raise ShapeError(f"{caller} needs three equal shapes, got "
                         f"{a.shape}, {b.shape}, {f.shape}")
    _check_images(caller, a=a, b=b, f=f)


def _sobel_same(imgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and orientation of each image of an (N, H, W)
    stack, zero-padded borders: one same conv by the Sobel pair."""
    s = conv2d(as_tensor(imgs[:, np.newaxis], np.float64), as_tensor(_SOBEL)).data
    sx, sy = s[:, 0], s[:, 1]
    mag = np.sqrt(sx * sx + sy * sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.where(sx == 0.0, math.pi / 2, np.arctan(np.divide(
            sy, np.where(sx == 0.0, 1.0, sx))))
    return mag, ang


def _preservation(g_src, a_src, g_fused, a_fused) -> np.ndarray:
    """Per-pixel edge preservation of one source in the fused image."""
    tg, kg, dg = QABF_STRENGTH
    ta, ka, da = QABF_ORIENT
    # relative strength: min/max ratio; no edge in either image scores 0
    hi = np.maximum(g_src, g_fused)
    ratio = np.divide(np.minimum(g_src, g_fused), hi, out=np.zeros_like(hi),
                      where=hi > 0)
    align = 1.0 - np.abs(a_src - a_fused) / (math.pi / 2)
    q_strength = tg / (1.0 + np.exp(kg * (ratio - dg)))
    q_orient = ta / (1.0 + np.exp(ka * (align - da)))
    return q_strength * q_orient


def qabf(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> float:
    """Edge fidelity of the fused image f against sources a and b.

    Gradient-strength-weighted mean of the two per-source preservation
    maps, from one Sobel conv of the three; 0 when both sources are flat.
    """
    _check_triple("qabf", f, a, b)
    (ga, gb, gf), (aa, ab, af) = _sobel_same(np.stack([a, b, f]))
    qa = _preservation(ga, aa, gf, af)
    qb = _preservation(gb, ab, gf, af)
    den = float(np.sum(ga + gb))
    if den == 0.0:
        return 0.0
    return float(np.sum(qa * ga + qb * gb) / den)


def ssim_metric(f: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM of the fused image against each source.

    One 64-bit evaluation on the batch of the two pairs (f, a) and (f, b).
    Arrays are constants, so no graph is recorded.
    """
    _check_triple("ssim_metric", f, a, b)
    fused = np.stack([f, f])[:, np.newaxis].astype(np.float64)
    sources = np.stack([a, b])[:, np.newaxis].astype(np.float64)
    return float(_ssim_graph(fused, sources, SSIM_CONFIG).data)


def psnr(f: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Mean PSNR (dB, peak 1.0) of the fused image against each source.

    A reference identical to f contributes +inf; callers treat an
    infinite result as the defined sentinel for a degenerate comparison.
    """
    _check_triple("psnr", f, a, b)
    vals = []
    for ref in (a, b):
        mse = float(np.mean((f.astype(np.float64) - ref.astype(np.float64)) ** 2))
        vals.append(math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse))
    return (vals[0] + vals[1]) / 2.0


@dataclass
class MetricRow:
    pair_id: str
    en: float
    qabf: float
    ssim: float
    psnr: float

    def values(self) -> tuple[float, float, float, float]:
        return (self.en, self.qabf, self.ssim, self.psnr)


class MetricReport:
    """Per-image rows plus corpus means, in EN/Qabf/SSIM/PSNR column order."""

    COLUMNS = ("EN", "Qabf", "SSIM", "PSNR")

    def __init__(self, corpus: str, method: str, rows: list[MetricRow]):
        self.corpus = corpus
        self.method = method
        self.rows = sorted(rows, key=lambda r: r.pair_id)

    def means(self) -> tuple[float, float, float, float]:
        cols = np.array([r.values() for r in self.rows], dtype=np.float64)
        return tuple(float(v) for v in cols.mean(axis=0))

    def table_text(self) -> str:
        width = max([len("mean")] + [len(r.pair_id) for r in self.rows]) + 2
        lines = [f"corpus: {self.corpus}    method: {self.method}"]
        header = "".join(f"{c:>10}" for c in self.COLUMNS)
        lines.append(f"{'pair':<{width}}" + header)
        for r in self.rows:
            cells = "".join(f"{v:>10.4f}" for v in r.values())
            lines.append(f"{r.pair_id:<{width}}" + cells)
        cells = "".join(f"{v:>10.4f}" for v in self.means())
        lines.append(f"{'mean':<{width}}" + cells)
        return "\n".join(lines) + "\n"

    def csv_lines(self) -> list[str]:
        out = ["pair_id,en,qabf,ssim,psnr"]
        for r in self.rows:
            out.append(f"{r.pair_id},{r.en:.6f},{r.qabf:.6f},"
                       f"{r.ssim:.6f},{r.psnr:.6f}")
        return out

    def save(self, table_path, csv_path) -> None:
        write_atomic(table_path, self.table_text().encode("utf-8"))
        write_atomic(csv_path,
                     ("\n".join(self.csv_lines()) + "\n").encode("utf-8"))


def measure_triple(a: np.ndarray, b: np.ndarray, f: np.ndarray,
                   pair_id: str = "pair") -> MetricRow:
    _check_triple("measure_triple", f, a, b)
    return MetricRow(pair_id, entropy(f), qabf(a, b, f),
                     ssim_metric(f, a, b), psnr(f, a, b))


def evaluate_corpus(pairs, params: ModelParams,
                    fb: FeedbackConfig = FeedbackConfig(),
                    corpus: str = "corpus",
                    fused_sink=None) -> MetricReport:
    """Fuse every pair and report all four metrics per image plus means.

    ``pairs`` is any iterable of dataset pairs (normally the test split);
    processing order is name-sorted for determinism. ``fused_sink``, if
    given, receives (pair_id, fused_image) for each fusion.
    """
    pairs = sorted(pairs, key=lambda p: p.name)
    if not pairs:
        raise ValueError("evaluate_corpus needs a nonempty pair list")
    rows = []
    for pair in pairs:
        fused = fuse_images(pair.infrared, pair.visible, params, fb)
        if fused_sink is not None:
            fused_sink(pair.name, fused)
        rows.append(measure_triple(pair.infrared, pair.visible, fused,
                                   pair.name))
    return MetricReport(corpus, "ivfuse", rows)
