"""Autoencoder-style training.

Each registered pair is blended into two complementary pre-fused images;
the encoder and decoder (never the fusion layer) learn to reconstruct
each of them under the composite loss. Adam with the documented defaults
does the stepping; plain SGD is selectable for ablation.

A batch runs as one chunk per OpenBLAS thread, at most one per image,
inside :func:`~ivfuse.tensor.cores` (see :func:`train`), so a run is
bit-for-bit reproducible from (seed, config, corpus) and the OpenBLAS
thread count. With one thread it is the whole-batch step itself;
with more, it agrees with that step up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._files import write_atomic
from .dataset import PairDataset
from .errors import ConfigError, DivergenceError, DomainError, ShapeError
from .losses import LossConfig, composite_loss_parts
from .network import (FeedbackConfig, ModelParams, PreFusionConfig,
                      init_params, pre_fuse, reconstruct)
from .tensor import (Tensor, as_tensor, backward, cores, no_grad, run_parts,
                     split)

OPTIMIZERS = ("adam", "sgd")


@dataclass
class TrainConfig:
    # documented full-scale defaults; tests and the demo override these
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0
    pre_fusion: PreFusionConfig = field(default_factory=PreFusionConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dtype: type = np.float32
    # desk-scale controls: hard step cap and optional reconstruction target
    max_steps: int | None = None
    stop_rmse: float | None = None
    eval_interval: int = 50

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.adam_eps < np.inf:
            raise ConfigError(
                f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.eval_interval < 1:
            raise ConfigError(
                f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.stop_rmse is not None and not self.stop_rmse > 0:
            raise ConfigError(f"stop_rmse must be > 0, got {self.stop_rmse}")


class Adam:
    """Standard Adam with bias correction; deterministic and in-place."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SGD:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self):
        for p in self.params.values():
            p.data -= self.lr * p.grad


class TrainingLog:
    """Per-step loss records, serializable as ``epoch,step,L,L_p,L_ssim,L_ag``."""

    HEADER = "epoch,step,L,L_p,L_ssim,L_ag"

    def __init__(self):
        self.rows: list[tuple[int, int, float, float, float, float]] = []

    def record(self, epoch: int, step: int, parts: dict[str, float]) -> None:
        self.rows.append((epoch, step, parts["L"], parts["L_p"],
                          parts["L_ssim"], parts["L_ag"]))

    def lines(self) -> list[str]:
        out = [self.HEADER]
        for epoch, step, total, lp, ls, lag in self.rows:
            out.append(f"{epoch},{step},{total!r},{lp!r},{ls!r},{lag!r}")
        return out

    def save(self, path) -> None:
        write_atomic(path, ("\n".join(self.lines()) + "\n").encode("utf-8"))


def prefused_samples(dataset: PairDataset, cfg: PreFusionConfig
                     ) -> list[np.ndarray]:
    """Both complementary blends of every training pair, in corpus order.
    Raises DomainError naming the pair and the spectrum of an image with a
    NaN or infinite pixel."""
    samples = []
    for pair in dataset.train_pairs():
        for spectrum in ("infrared", "visible"):
            if not np.isfinite(getattr(pair, spectrum)).all():
                raise DomainError(f"training pair {pair.name!r}: {spectrum} "
                                  f"image has non-finite pixels")
        iw, vw = pre_fuse(pair.infrared, pair.visible, cfg)
        samples.append(iw)
        samples.append(vw)
    return samples


def reconstruction_rmse(params: ModelParams, samples: list[np.ndarray],
                        fb: FeedbackConfig) -> float:
    """Per-pixel RMSE of the clamped reconstructions over all samples."""
    total = 0.0
    count = 0
    for img in samples:
        x = as_tensor(img[np.newaxis, np.newaxis].astype(params.dtype))
        with no_grad():
            recon = reconstruct(x, params, fb)
        recon = np.clip(recon.data[0, 0], 0.0, 1.0)
        diff = recon.astype(np.float64) - img
        total += float(np.sum(diff * diff))
        count += diff.size
    return float(np.sqrt(total / count))


def _chunk_gradients(x: np.ndarray, params: ModelParams, cfg: TrainConfig
                     ) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Reconstruct the chunk ``x`` on leaves of its own that share the
    ``params`` arrays, score it, and return every leaf's gradient (by
    backward, when the loss is finite) and the logged parts. Only arrays
    and floats are returned, so the chunk's graph is freed on return."""
    leaves = ModelParams({name: Tensor(p.data)
                          for name, p in params.tensors.items()})
    xt = as_tensor(x)
    out = reconstruct(xt, leaves, cfg.feedback)
    loss, parts = composite_loss_parts(out, xt, cfg.loss)
    if np.isfinite(parts["L"]):   # else train() raises, before any step
        backward(loss)
    return {name: t.grad for name, t in leaves.tensors.items()}, parts


def _batch_step(x: np.ndarray, params: ModelParams,
                cfg: TrainConfig) -> dict[str, float]:
    """Set every ``params`` gradient to the batch's, and return the logged
    parts of the batch ``x``, running in :func:`cores` of B as the k
    chunks that :func:`split` bounds, each one part of :func:`run_parts`.

    Every loss term is a per-image mean over equal pixel and window
    counts, so up to rounding the batch's gradient and parts are the
    chunks' weighted by size, here summed in chunk order. One chunk (one
    thread, or B = 1) is the whole batch, at weight 1.0, which changes no
    bit.
    """
    B = len(x)

    def chunk(c):
        results[c] = _chunk_gradients(x[bounds[c]:bounds[c + 1]], params, cfg)

    with cores(B) as k:
        bounds = split(B, k)
        results: list = [None] * k
        run_parts(chunk, k)
    weights = [(hi - lo) / B for lo, hi in zip(bounds, bounds[1:])]
    for name, p in params.tensors.items():
        p.grad = weights[0] * results[0][0][name]
        for wc, (grads, _) in zip(weights[1:], results[1:]):
            p.grad += wc * grads[name]
    return {key: sum(wc * parts[key] for wc, (_, parts) in zip(weights, results))
            for key in results[0][1]}


def train(dataset: PairDataset, cfg: TrainConfig,
          params: ModelParams | None = None
          ) -> tuple[ModelParams, TrainingLog]:
    """Run the reconstruction training loop.

    Pre-fused samples are fixed up front; every epoch shuffles them with
    the seeded generator and walks them in batches. A batch of B images
    runs as k = min(B, w) chunks on k cores, w the OpenBLAS thread count
    (see :func:`_batch_step`), and one optimizer step takes the chunks'
    gradients weighted by size. Every step, k = 1 included, takes this
    one path; with k = 1 (one thread, or one image a batch) it is the
    whole batch's graph, and with more, results are bit-for-bit
    reproducible for a fixed w and agree with the k = 1 step up to
    rounding. Raises
    DomainError before any step if a training image has a non-finite
    pixel, ShapeError if batches would mix image sizes, and
    DivergenceError naming the epoch and step if the loss goes non-finite,
    or naming the first parameter too if an optimizer step leaves it
    non-finite.
    """
    samples = prefused_samples(dataset, cfg.pre_fusion)
    if not samples:
        raise ConfigError("training requires a nonempty train split")
    shapes = sorted({s.shape for s in samples})
    if cfg.batch_size > 1 and len(shapes) > 1:
        (h, w), (h2, w2) = shapes[:2]
        raise ShapeError(
            f"batch_size {cfg.batch_size} needs training images of one size, "
            f"got {h}x{w} and {h2}x{w2}; use one size or batch_size 1")
    h, w = min(shapes, key=min)
    if min(h, w) < cfg.loss.ssim_window:
        raise ConfigError(
            f"ssim_window ({cfg.loss.ssim_window}) is larger than a {h}x{w} "
            f"training image; raise image_size or lower ssim_window")
    if params is None:
        params = init_params(cfg.seed, dtype=cfg.dtype)
    if cfg.optimizer == "adam":
        opt = Adam(params.tensors, cfg.learning_rate, cfg.beta1, cfg.beta2,
                   cfg.adam_eps)
    else:
        opt = SGD(params.tensors, cfg.learning_rate)

    rng = np.random.default_rng(cfg.seed)
    log = TrainingLog()
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(samples))
        for lo in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[lo:lo + cfg.batch_size]]
            x = np.stack(batch)[:, np.newaxis].astype(cfg.dtype)
            parts = _batch_step(x, params, cfg)
            if not np.isfinite(parts["L"]):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}")
            with np.errstate(over="ignore", invalid="ignore"):
                opt.step()   # a diverging step is named below, not warned
            bad = next((name for name, p in params.tensors.items()
                        if not np.isfinite(p.data).all()), None)
            if bad is not None:
                raise DivergenceError(f"non-finite weights at epoch {epoch}, "
                                      f"step {step}: {bad}")
            log.record(epoch, step, parts)
            step += 1
            if cfg.max_steps is not None and step >= cfg.max_steps:
                return params, log
            if (cfg.stop_rmse is not None and step % cfg.eval_interval == 0
                    and reconstruction_rmse(params, samples, cfg.feedback)
                    < cfg.stop_rmse):
                return params, log
    return params, log
