"""Finite-difference verification of every analytic gradient.

Each component builds random 64-bit inputs (nudged away from the kinks of
ReLU, |.| and sqrt), compares backward() against central differences, and
reports its worst scale-normalized error: max |analytic - numeric| over
the checked entries, divided by the gradient's own infinity norm. The
whole-pipeline component perturbs a sample of coordinates in every
parameter tensor rather than all ~79k of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import losses, network
from .tensor import (Tensor, backward, concat_channels, conv2d,
                     finite_diff_gradient, narrow, tile_channels)

DEFAULT_TOLERANCE = 1e-4
DEFAULT_STEP = 1e-5
_FLOOR = 1e-8


@dataclass
class CheckResult:
    name: str
    worst_rel_err: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        return self.worst_rel_err < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<24} worst rel err {self.worst_rel_err:.3e} "
                f"(tol {self.tolerance:.0e})  {status}")


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), _FLOOR)
    return float(np.abs(analytic - numeric).max() / scale)


def _away_from_zero(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push entries out of the kink neighborhood around 0."""
    x = x.copy()
    near = np.abs(x) < margin
    x[near & (x >= 0)] += margin
    x[near & (x < 0)] -= margin
    return x


def _check(f: Callable[[Tensor], Tensor], x: Tensor, h: float) -> float:
    loss = f(x)
    backward(loss)
    analytic = x.grad.copy()
    numeric = finite_diff_gradient(f, x, h)
    return _rel_err(analytic, numeric)


def _projection(rng, shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, size=shape))


def _check_conv2d(rng, h):
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
    b = Tensor(rng.standard_normal(3) * 0.1)
    w1 = Tensor(rng.standard_normal((2, 2, 1, 1)))
    r = _projection(rng, (1, 3, 5, 5))
    r1 = _projection(rng, (1, 2, 5, 5))
    rv = _projection(rng, (1, 3, 3, 3))
    worst = 0.0
    worst = max(worst, _check(lambda t: (conv2d(t, w, b) * r).sum(), x, h))
    worst = max(worst, _check(lambda t: (conv2d(x, t, b) * r).sum(), w, h))
    worst = max(worst, _check(lambda t: (conv2d(x, w, t) * r).sum(), b, h))
    worst = max(worst, _check(lambda t: (conv2d(t, w1) * r1).sum(), x, h))
    worst = max(worst, _check(
        lambda t: (conv2d(t, w, b, padding="valid") * rv).sum(), x, h))
    return worst


def _check_relu(rng, h):
    x = Tensor(_away_from_zero(rng.uniform(-1, 1, size=(2, 3, 4)), 10 * h))
    r = _projection(rng, (2, 3, 4))
    return _check(lambda t: (t.relu() * r).sum(), x, h)


def _check_concat(rng, h):
    parts = [Tensor(rng.standard_normal((1, c, 3, 3))) for c in (2, 1, 3)]
    r = _projection(rng, (1, 6, 3, 3))
    worst = 0.0
    for i in range(len(parts)):
        def f(t, i=i):
            repl = list(parts)
            repl[i] = t
            return (concat_channels(repl) * r).sum()
        worst = max(worst, _check(f, parts[i], h))
    return worst


def _check_tile(rng, h):
    x = Tensor(rng.standard_normal((1, 2, 3, 3)))
    r = _projection(rng, (1, 8, 3, 3))
    return _check(lambda t: (tile_channels(t, 4) * r).sum(), x, h)


def _check_narrow(rng, h):
    x = Tensor(rng.standard_normal((1, 4, 5, 5)))
    r = _projection(rng, (2, 15))

    def f(t):
        return (narrow(narrow(t, 1, 1, 3), 2, 2, 5).reshape((2, 15)) * r).sum()

    return _check(f, x, h)


def _check_elementwise(rng, h):
    a = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    bb = b + 2.0  # denominator in [1, 3]
    rows = _projection(rng, (3,))
    cols = _projection(rng, (4,))

    def axis_terms(t):
        return ((t.square().sum(axis=1) * rows).sum()
                + (t.mean(axis=0) * cols).sum() + t.mean(axis=(0, 1)))

    def f_a(t):
        return (((t * b + t - b) * 0.5).square().mean() + (t / bb).sum()
                + axis_terms(t))

    def f_b(t):
        tb = t + 2.0
        return (((a * t + a - t) * 0.5).square().mean() + (a / tb).sum()
                + axis_terms(t))

    return max(_check(f_a, a, h), _check(f_b, b, h))


def _check_sqrt_abs(rng, h):
    x = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    y = Tensor(_away_from_zero(rng.uniform(-1, 1, size=(3, 4)), 10 * h))
    r = _projection(rng, (3, 4))
    worst = _check(lambda t: ((t.square() + 0.5).sqrt() * r).sum(), x, h)
    return max(worst, _check(lambda t: (t.abs() * r).sum(), y, h))


def _image(rng, side=16):
    return rng.uniform(0.05, 0.95, size=(1, 1, side, side))


def _check_pixel_loss(rng, h):
    o = Tensor(_image(rng, 12))
    target = _image(rng, 12)
    worst = _check(lambda t: losses.pixel_loss(t, target, "mse"), o, h)
    return max(worst, _check(lambda t: losses.pixel_loss(t, target, "norm"), o, h))


def _check_ssim_loss(rng, h):
    o = Tensor(_image(rng))
    target = _image(rng)
    return _check(lambda t: losses.ssim_loss(t, target), o, h)


def _check_avg_gradient(rng, h):
    o = Tensor(_image(rng, 12))
    return _check(losses.avg_gradient, o, h)


def _composite_checker(mode):
    def check(rng, h):
        cfg = losses.LossConfig(ag_mode=mode)
        o = Tensor(_image(rng))
        target = _image(rng)
        return _check(lambda t: losses.composite_loss(t, target, cfg), o, h)
    return check


def _check_pipeline(rng, h, coords_per_tensor=2):
    """Composite loss through encode -> fuse_add -> decode, gradients with
    respect to a coordinate sample of every parameter tensor.

    A perturbed parameter can push one of the network's ReLU inputs (or
    the detail term's |.|) across its kink, where central differences say
    nothing about the derivative. Such coordinates are detected by the
    first-order disagreement of the two one-sided slopes and skipped, per
    the kink-exclusion rule the op-level checks apply to their inputs.
    """
    params = network.init_params(int(rng.integers(2 ** 31)), dtype=np.float64)
    a = Tensor(_image(rng))
    b = Tensor(_image(rng))
    target = (a.data + b.data) / 2.0
    cfg = losses.LossConfig()
    fb = network.FeedbackConfig()

    def forward() -> Tensor:
        fused = network.fuse_add(network.encode(a, params),
                                 network.encode(b, params))
        return losses.composite_loss(network.decode(fused, params, fb),
                                     target, cfg)

    backward(forward())
    f0 = forward().item()
    worst = 0.0
    for name, tensor in params.tensors.items():
        analytic = tensor.grad.copy()
        scale = max(np.abs(analytic).max(initial=0.0), _FLOOR)
        n = min(coords_per_tensor, tensor.size)
        picks = rng.choice(tensor.size, size=n, replace=False)
        for flat_idx in picks:
            base = tensor.data.copy()
            tensor.data.flat[flat_idx] = base.flat[flat_idx] + h
            fp = forward().item()
            tensor.data.flat[flat_idx] = base.flat[flat_idx] - h
            fm = forward().item()
            tensor.data[...] = base
            d_plus = (fp - f0) / h
            d_minus = (f0 - fm) / h
            # central differencing is only trustworthy where f is smooth
            # on [x-h, x+h]; a kink bounds the central error by half the
            # one-sided disagreement, so gate at the check tolerance
            if abs(d_plus - d_minus) > DEFAULT_TOLERANCE * scale:
                continue
            numeric = (fp - fm) / (2.0 * h)
            worst = max(worst, abs(analytic.flat[flat_idx] - numeric) / scale)
    return worst


COMPONENTS: dict[str, Callable] = {
    "conv2d": _check_conv2d,
    "relu": _check_relu,
    "concat_channels": _check_concat,
    "tile_channels": _check_tile,
    "narrow": _check_narrow,
    "elementwise": _check_elementwise,
    "sqrt_abs": _check_sqrt_abs,
    "pixel_loss": _check_pixel_loss,
    "ssim_loss": _check_ssim_loss,
    "avg_gradient": _check_avg_gradient,
    "composite_literal": _composite_checker("literal"),
    "composite_sharpness": _composite_checker("sharpness_match"),
    "pipeline": _check_pipeline,
}


def run_gradient_checks(seed: int = 0, n_seeds: int = 20,
                        h: float = DEFAULT_STEP,
                        tolerance: float = DEFAULT_TOLERANCE,
                        components: list[str] | None = None
                        ) -> list[CheckResult]:
    """Run every component over ``n_seeds`` seeds; keep the worst error."""
    names = components if components is not None else list(COMPONENTS)
    results = []
    for name in names:
        check = COMPONENTS[name]
        worst = 0.0
        for k in range(n_seeds):
            rng = np.random.default_rng((seed, k))
            worst = max(worst, check(rng, h))
        results.append(CheckResult(name, worst, tolerance))
    return results
