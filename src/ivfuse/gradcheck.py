"""Finite-difference verification of every analytic gradient.

Each component builds random 64-bit inputs (nudged away from the kinks of
ReLU, |.| and sqrt), compares backward() against central differences, and
yields the scale-normalized error of each check it makes: max |analytic -
numeric| over the checked entries, divided by the gradient's own infinity
norm. The worst over all seeds is taken once; a NaN error fails. The
whole-pipeline component perturbs a sample of coordinates in every
parameter tensor rather than all ~79k of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import losses, network
from .errors import ConfigError
from .tensor import (Tensor, backward, concat_channels, conv2d,
                     finite_diff_gradient, narrow, no_grad)

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
    # the addends' checks draw last, so every input above stays as it was
    w3 = Tensor(rng.standard_normal((6, 2, 3, 3)) * 0.5)
    s = Tensor(rng.standard_normal((1, 2, 5, 5)))
    r3 = _projection(rng, (1, 6, 5, 5))
    a = Tensor(rng.standard_normal((1, 3, 5, 5)))
    # the fused ReLU's kink: outputs whose pre-activation a step could push
    # across 0 get no weight in the loss
    with no_grad():
        kink = np.abs(conv2d(x, w, b).data) < 10 * h
        kink_a = np.abs(conv2d(x, w, b, add=a).data) < 10 * h
    rr = Tensor(np.where(kink, 0.0, r.data))
    ra = Tensor(np.where(kink_a, 0.0, r.data))
    yield _check(lambda t: (conv2d(t, w, b) * r).sum(), x, h)
    yield _check(lambda t: (conv2d(x, t, b) * r).sum(), w, h)
    yield _check(lambda t: (conv2d(x, w, t) * r).sum(), b, h)
    yield _check(lambda t: (conv2d(t, w1) * r1).sum(), x, h)
    yield _check(lambda t: (conv2d(t, w, b, padding="valid") * rv).sum(), x, h)
    yield _check(lambda t: (conv2d(t, w, b, relu=True) * rr).sum(), x, h)
    yield _check(lambda t: (conv2d(x, t, b, relu=True) * rr).sum(), w, h)
    yield _check(lambda t: (conv2d(x, w, t, relu=True) * rr).sum(), b, h)
    yield _check(lambda t: (conv2d(t, w3, add=s) * r3).sum(), x, h)
    yield _check(lambda t: (conv2d(x, w3, add=t) * r3).sum(), s, h)
    yield _check(lambda t: (conv2d(t, w, b, relu=True, add=a) * ra).sum(), x, h)
    yield _check(lambda t: (conv2d(x, w, b, relu=True, add=t) * ra).sum(), a, h)


def _check_relu(rng, h):
    x = Tensor(_away_from_zero(rng.uniform(-1, 1, size=(2, 3, 4)), 10 * h))
    r = _projection(rng, (2, 3, 4))
    yield _check(lambda t: (t.relu() * r).sum(), x, h)


def _check_concat(rng, h):
    parts = [Tensor(rng.standard_normal((1, c, 3, 3))) for c in (2, 1, 3)]
    r = _projection(rng, (1, 6, 3, 3))
    for i in range(len(parts)):
        def f(t, i=i):
            repl = list(parts)
            repl[i] = t
            return (concat_channels(repl) * r).sum()
        yield _check(f, parts[i], h)


def _check_narrow(rng, h):
    x = Tensor(rng.standard_normal((1, 4, 5, 5)))
    r = _projection(rng, (2, 15))

    def f(t):
        return (narrow(narrow(t, 1, 1, 3), 2, 2, 5).reshape((2, 15)) * r).sum()

    yield _check(f, x, h)


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

    yield _check(f_a, a, h)
    yield _check(f_b, b, h)


def _check_sqrt_abs(rng, h):
    x = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    y = Tensor(_away_from_zero(rng.uniform(-1, 1, size=(3, 4)), 10 * h))
    r = _projection(rng, (3, 4))
    yield _check(lambda t: ((t.square() + 0.5).sqrt() * r).sum(), x, h)
    yield _check(lambda t: (t.abs() * r).sum(), y, h)


def _image(rng, side=16):
    return rng.uniform(0.05, 0.95, size=(1, 1, side, side))


def _check_pixel_loss(rng, h):
    o = Tensor(_image(rng, 12))
    target = _image(rng, 12)
    yield _check(lambda t: losses.pixel_loss(t, target, "mse"), o, h)
    yield _check(lambda t: losses.pixel_loss(t, target, "norm"), o, h)


def _check_ssim_loss(rng, h):
    o = Tensor(_image(rng))
    target = _image(rng)
    yield _check(lambda t: losses.ssim_loss(t, target), o, h)


def _check_avg_gradient(rng, h):
    o = Tensor(_image(rng, 12))
    yield _check(losses.avg_gradient, o, h)


def _composite_checker(mode):
    def check(rng, h):
        cfg = losses.LossConfig(ag_mode=mode)
        o = Tensor(_image(rng))
        target = _image(rng)
        yield _check(lambda t: losses.composite_loss_parts(t, target, cfg)[0],
                     o, h)
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
        return losses.composite_loss_parts(network.decode(fused, params, fb),
                                           target, cfg)[0]

    def value() -> float:
        with no_grad():
            return forward().item()

    backward(forward())
    f0 = value()
    for name, tensor in params.tensors.items():
        analytic = tensor.grad.copy()
        scale = max(np.abs(analytic).max(initial=0.0), _FLOOR)
        n = min(coords_per_tensor, tensor.size)
        picks = rng.choice(tensor.size, size=n, replace=False)
        for flat_idx in picks:
            base = tensor.data.copy()
            tensor.data.flat[flat_idx] = base.flat[flat_idx] + h
            fp = value()
            tensor.data.flat[flat_idx] = base.flat[flat_idx] - h
            fm = value()
            tensor.data[...] = base
            d_plus = (fp - f0) / h
            d_minus = (f0 - fm) / h
            # central differencing is only trustworthy where f is smooth
            # on [x-h, x+h]; a kink bounds the central error by half the
            # one-sided disagreement, so gate at the check tolerance
            if abs(d_plus - d_minus) > DEFAULT_TOLERANCE * scale:
                continue
            numeric = (fp - fm) / (2.0 * h)
            yield abs(analytic.flat[flat_idx] - numeric) / scale


COMPONENTS: dict[str, Callable] = {
    "conv2d": _check_conv2d,
    "relu": _check_relu,
    "concat_channels": _check_concat,
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
    """Run every component over ``n_seeds`` seeds and keep the worst error
    its checks yield over all of them; a NaN error fails. ``h`` and
    ``tolerance`` must be finite and > 0."""
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    for arg, value in (("h", h), ("tolerance", tolerance)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{arg} must be finite and > 0, got {value}")
    names = components if components is not None else list(COMPONENTS)
    unknown = [name for name in names if name not in COMPONENTS]
    if unknown:
        raise ConfigError(f"unknown gradient check components {unknown}; "
                          f"known: {', '.join(COMPONENTS)}")
    results = []
    for name in names:
        # each seed's checks run out before the next seed's rng is made;
        # np.max, unlike max(), passes a NaN error on, so that it fails
        errors = [err for k in range(n_seeds) for err in
                  COMPONENTS[name](np.random.default_rng((seed, k)), h)]
        results.append(CheckResult(name, float(np.max(errors, initial=0.0)),
                                   tolerance))
    return results
