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
from .errors import ShapeError
from .images import quantize_u8
from .losses import LossConfig, ssim as _ssim_graph
from .network import FeedbackConfig, ModelParams, fuse_images
from .tensor import no_grad

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

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T.copy()


def entropy(img: np.ndarray) -> float:
    """Shannon entropy (bits) of the 8-bit intensity histogram."""
    hist = np.bincount(quantize_u8(img).ravel(), minlength=256)
    p = hist[hist > 0] / img.size
    return float(-np.sum(p * np.log2(p)) + 0.0)  # +0.0 folds away -0.0


def _sobel_same(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and orientation, zero-padded borders."""
    padded = np.pad(img.astype(np.float64), 1)
    H, W = img.shape
    sx = np.zeros((H, W))
    sy = np.zeros((H, W))
    for u in range(3):
        for v in range(3):
            window = padded[u:u + H, v:v + W]
            sx += _SOBEL_X[u, v] * window
            sy += _SOBEL_Y[u, v] * window
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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            g_src == g_fused,
            np.where(g_src == 0.0, 0.0, 1.0),
            np.where(g_src > g_fused,
                     np.divide(g_fused, np.where(g_src == 0.0, 1.0, g_src)),
                     np.divide(g_src, np.where(g_fused == 0.0, 1.0, g_fused))))
    align = 1.0 - np.abs(a_src - a_fused) / (math.pi / 2)
    q_strength = tg / (1.0 + np.exp(kg * (ratio - dg)))
    q_orient = ta / (1.0 + np.exp(ka * (align - da)))
    return q_strength * q_orient


def qabf(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> float:
    """Edge fidelity of the fused image f against sources a and b.

    Gradient-strength-weighted mean of the two per-source preservation
    maps; 0 when both sources are flat.
    """
    if a.shape != b.shape or a.shape != f.shape:
        raise ShapeError(
            f"qabf needs three equal shapes, got {a.shape}, {b.shape}, {f.shape}")
    ga, aa = _sobel_same(a)
    gb, ab = _sobel_same(b)
    gf, af = _sobel_same(f)
    qa = _preservation(ga, aa, gf, af)
    qb = _preservation(gb, ab, gf, af)
    den = float(np.sum(ga + gb))
    if den == 0.0:
        return 0.0
    return float(np.sum(qa * ga + qb * gb) / den)


def ssim_metric(f: np.ndarray, a: np.ndarray, b: np.ndarray,
                cfg: LossConfig = LossConfig()) -> float:
    """Mean SSIM of the fused image against each source.

    One 64-bit evaluation, with no graph, on the batch of the two pairs
    (f, a) and (f, b).
    """
    if a.shape != f.shape or b.shape != f.shape:
        raise ShapeError(
            f"ssim_metric needs three equal shapes, got {a.shape}, {b.shape}, "
            f"{f.shape}")
    fused = np.stack([f, f])[:, np.newaxis].astype(np.float64)
    sources = np.stack([a, b])[:, np.newaxis].astype(np.float64)
    with no_grad():
        return float(_ssim_graph(fused, sources, cfg).data)


def psnr(f: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Mean PSNR (dB, peak 1.0) of the fused image against each source.

    A reference identical to f contributes +inf; callers treat an
    infinite result as the defined sentinel for a degenerate comparison.
    """
    if a.shape != f.shape or b.shape != f.shape:
        raise ShapeError(
            f"psnr needs three equal shapes, got {a.shape}, {b.shape}, {f.shape}")
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
                   pair_id: str = "pair",
                   cfg: LossConfig = LossConfig()) -> MetricRow:
    return MetricRow(pair_id, entropy(f), qabf(a, b, f),
                     ssim_metric(f, a, b, cfg), psnr(f, a, b))


def evaluate_corpus(pairs, params: ModelParams,
                    fb: FeedbackConfig = FeedbackConfig(),
                    cfg: LossConfig = LossConfig(),
                    corpus: str = "corpus", method: str = "ivfuse",
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
                                   pair.name, cfg))
    return MetricReport(corpus, method, rows)
