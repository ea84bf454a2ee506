"""The composite training loss and its three components.

Total = ssim_weight * (1 - SSIM(O, I)) + pixel term + ag_weight * detail
term. Everything is built from the autodiff ops, so the whole loss is
differentiable end to end.

The detail term has two modes. The literal mode is simply the mean local
gradient magnitude of the output; minimizing it blurs the output, which
works against the point of a detail term, so the default mode instead
penalizes |avg_gradient(input) - avg_gradient(output)|, i.e. it matches
the output's sharpness to the input's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, as_tensor, conv2d, narrow

PIXEL_MODES = ("mse", "norm")
AG_MODES = ("sharpness_match", "literal")


@dataclass(frozen=True)
class LossConfig:
    ssim_weight: float = 100.0      # weight on the structural term
    ag_weight: float = 0.1          # weight on the detail term
    ssim_window: int = 11
    ssim_sigma: float = 1.5
    ssim_c1: float = 0.01 ** 2      # stability constants on a [0, 1] range
    ssim_c2: float = 0.03 ** 2
    ag_mode: str = "sharpness_match"
    pixel_mode: str = "mse"

    def __post_init__(self):
        if self.ssim_window < 3 or self.ssim_window % 2 == 0:
            raise ConfigError(
                f"ssim_window must be odd and >= 3, got {self.ssim_window}")
        if self.ssim_c1 <= 0 or self.ssim_c2 <= 0:
            raise ConfigError("ssim stability constants must be positive")
        if self.ag_mode not in AG_MODES:
            raise ConfigError(f"ag_mode must be one of {AG_MODES}")
        if self.pixel_mode not in PIXEL_MODES:
            raise ConfigError(f"pixel_mode must be one of {PIXEL_MODES}")


def _as_batch(x) -> Tensor:
    """Accept one (H, W) image or a (B, 1, H, W) batch; return the 4-d tensor."""
    t = as_tensor(x)
    if t.data.ndim == 2:
        return t.reshape((1, 1) + t.shape)
    if t.data.ndim == 4 and t.shape[1] == 1:
        return t
    raise ShapeError(
        f"expected an (H, W) image or a (B, 1, H, W) batch, got shape {t.shape}")


def pixel_loss(output, target, mode: str = "mse") -> Tensor:
    """Elementwise reconstruction distance.

    "norm" is the plain Euclidean norm of the difference; "mse" (default)
    divides the squared norm by the element count, which decouples the
    loss weights from the image size. A batch scores the mean of its
    per-image distances.
    """
    o = _as_batch(output)
    t = _as_batch(target)
    if o.shape != t.shape:
        raise ShapeError(
            f"pixel_loss needs equal shapes, got {o.shape} and {t.shape}")
    if mode not in PIXEL_MODES:
        raise ConfigError(f"pixel_mode must be one of {PIXEL_MODES}")
    sq = (o - t).square()
    return sq.mean() if mode == "mse" else sq.sum(axis=(1, 2, 3)).sqrt().mean()


def gaussian_window_1d(size: int, sigma: float, dtype=np.float64) -> np.ndarray:
    c = (size - 1) / 2.0
    idx = np.arange(size, dtype=np.float64)
    win = np.exp(-((idx - c) ** 2) / (2.0 * sigma * sigma))
    return (win / win.sum()).astype(dtype)


def _window_mean(img: Tensor, win: np.ndarray) -> Tensor:
    """Local Gaussian mean over valid windows, via two separable passes."""
    size = win.size
    wv = Tensor(win.reshape(1, 1, size, 1))
    wh = Tensor(win.reshape(1, 1, 1, size))
    return conv2d(conv2d(img, wv, padding="valid"), wh, padding="valid")


def ssim(output, target, cfg: LossConfig = LossConfig()) -> Tensor:
    """Mean structural similarity over sliding Gaussian windows.

    The classic construction: local means, variances, and covariance under
    an 11x11 sigma-1.5 Gaussian window (valid positions only), combined as
    ((2 mu_o mu_t + C1)(2 cov + C2)) / ((mu_o^2 + mu_t^2 + C1)
    (var_o + var_t + C2)). Returns a scalar in [-1, 1]; exactly 1 when the
    images are identical. A (B, 1, H, W) batch pairs image b of ``output``
    with image b of ``target`` and scores the mean of the B per-image
    values (every image has the same number of windows).
    """
    o = _as_batch(output)
    t = _as_batch(target)
    if o.shape != t.shape:
        raise ShapeError(
            f"ssim needs equal shapes, got {o.shape} and {t.shape}")
    H, W = o.shape[2], o.shape[3]
    if H < cfg.ssim_window or W < cfg.ssim_window:
        raise ShapeError(
            f"image {H}x{W} is smaller than the {cfg.ssim_window}-wide ssim window")
    win = gaussian_window_1d(cfg.ssim_window, cfg.ssim_sigma, dtype=o.dtype)
    mu_o = _window_mean(o, win)
    mu_t = _window_mean(t, win)
    var_o = _window_mean(o.square(), win) - mu_o.square()
    var_t = _window_mean(t.square(), win) - mu_t.square()
    cov = _window_mean(o * t, win) - mu_o * mu_t
    num = (2.0 * (mu_o * mu_t) + cfg.ssim_c1) * (2.0 * cov + cfg.ssim_c2)
    den = (mu_o.square() + mu_t.square() + cfg.ssim_c1) * (var_o + var_t + cfg.ssim_c2)
    return (num / den).mean()


def ssim_loss(output, target, cfg: LossConfig = LossConfig()) -> Tensor:
    """1 - SSIM; zero iff the pair is structurally identical."""
    return 1.0 - ssim(output, target, cfg)


def _gradient_magnitude(t: Tensor) -> Tensor:
    """Forward-difference gradient magnitude of a (B, 1, H, W) batch, on
    the (H-1) x (W-1) region where both differences exist."""
    H, W = t.shape[2], t.shape[3]
    if H < 2 or W < 2:
        raise ShapeError(f"avg_gradient needs at least 2x2, got {H}x{W}")
    top = narrow(t, 2, 0, H - 1)
    left = narrow(t, 3, 0, W - 1)
    dx = narrow(top, 3, 1, W) - narrow(top, 3, 0, W - 1)
    dy = narrow(left, 2, 1, H) - narrow(left, 2, 0, H - 1)
    return ((dx.square() + dy.square()) * 0.5).sqrt()


def avg_gradient(img) -> Tensor:
    """Mean forward-difference gradient magnitude of an image.

    The mean is taken over exactly the region where both differences
    exist, so a constant image scores exactly 0. A (B, 1, H, W) batch
    scores the mean of its per-image values.
    """
    return _gradient_magnitude(_as_batch(img)).mean()


def _detail_term(o: Tensor, t: Tensor, cfg: LossConfig) -> Tensor:
    if cfg.ag_mode == "literal":
        return avg_gradient(o)
    ag_t = _gradient_magnitude(t).mean(axis=(1, 2, 3))
    ag_o = _gradient_magnitude(o).mean(axis=(1, 2, 3))
    return (ag_t - ag_o).abs().mean()


def composite_loss(output, target, cfg: LossConfig = LossConfig()) -> Tensor:
    """ssim_weight * ssim_loss + pixel_loss + ag_weight * detail term."""
    total, _ = composite_loss_parts(output, target, cfg)
    return total


def composite_loss_parts(output, target, cfg: LossConfig = LossConfig()
                         ) -> tuple[Tensor, dict[str, float]]:
    """Composite loss plus the detached per-component values.

    Accepts one (H, W) image or a (B, 1, H, W) batch. A batch contributes
    the mean of its per-image losses, and each logged part is the mean of
    that part over the batch; one image is the batch B=1.
    """
    o = _as_batch(output)
    t = _as_batch(target)
    if o.shape != t.shape:
        raise ShapeError(
            f"composite_loss needs equal shapes, got {o.shape} and {t.shape}")
    lp = pixel_loss(o, t, cfg.pixel_mode)
    ls = ssim_loss(o, t, cfg)
    lag = _detail_term(o, t, cfg)
    total = cfg.ssim_weight * ls + lp + cfg.ag_weight * lag
    parts = {"L_p": lp.item(), "L_ssim": ls.item(), "L_ag": lag.item(),
             "L": total.item()}
    return total, parts
