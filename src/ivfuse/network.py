"""The fusion architecture: pre-fusion blend, Siamese residual-dense
encoder with tied weights, elementwise addition of the two feature maps,
and a decoder whose output is fed back through a projection conv for a
fixed number of refinement iterations.

Channel plan: 1 -> 16 -> 64 in the encoder (dense chain 16/32/48 -> 16,
then a 1x1 fusion conv to 64), and 64 -> 64 -> 32 -> 16 -> 1 in the
decoder, with a 1 -> 64 feedback projection. The residual skips bridge a
16-channel tensor onto a 64-channel one by tiling it four times along the
channel axis, which is parameter-free and collapses to an ordinary skip
when channel counts match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, concat_channels, conv2d, tile_channels

# name -> (out_channels, in_channels, kernel_h, kernel_w, relu follows)
LAYER_SPECS: dict[str, tuple[int, int, int, int, bool]] = {
    "encoder.c1": (16, 1, 3, 3, True),
    "encoder.rdb.conv1": (16, 16, 3, 3, True),
    "encoder.rdb.conv2": (16, 32, 3, 3, True),
    "encoder.rdb.conv3": (16, 48, 3, 3, True),
    "encoder.rdb.conv4": (64, 64, 1, 1, False),
    "decoder.c2": (64, 64, 3, 3, True),
    "decoder.c3": (32, 64, 3, 3, True),
    "decoder.c4": (16, 32, 3, 3, True),
    "decoder.c5": (1, 16, 3, 3, False),
    "decoder.c6": (64, 1, 3, 3, False),
}

# The channel-tiling factor used by both residual skips (16 -> 64).
SKIP_TILE = 4


def parameter_names() -> list[str]:
    """Canonical flat tensor names, in checkpoint payload order."""
    names = []
    for layer in LAYER_SPECS:
        names.append(layer + ".weight")
        names.append(layer + ".bias")
    return names


def expected_shape(tensor_name: str) -> tuple[int, ...]:
    layer, _, kind = tensor_name.rpartition(".")
    if layer not in LAYER_SPECS or kind not in ("weight", "bias"):
        raise KeyError(tensor_name)
    cout, cin, kh, kw, _ = LAYER_SPECS[layer]
    return (cout, cin, kh, kw) if kind == "weight" else (cout,)


class ModelParams:
    """All learnable tensors, keyed by flat name; one shared set.

    Both encoder channels run this single parameter set, which is what
    makes the architecture Siamese: there is physically one copy of the
    weights. Shapes are validated against the layer table on construction.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        expected = parameter_names()
        if list(tensors) != expected:
            missing = set(expected) - set(tensors)
            extra = set(tensors) - set(expected)
            raise ShapeError(
                f"parameter set mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
        for name, t in tensors.items():
            want = expected_shape(name)
            if t.shape != want:
                raise ShapeError(
                    f"{name} has shape {t.shape}, expected {want}")
        self.tensors = tensors

    def weight(self, layer: str) -> Tensor:
        return self.tensors[layer + ".weight"]

    def bias(self, layer: str) -> Tensor:
        return self.tensors[layer + ".bias"]

    @property
    def dtype(self):
        return self.tensors["encoder.c1.weight"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams({k: Tensor(t.data.copy()) for k, t in self.tensors.items()})

    def astype(self, dtype) -> "ModelParams":
        return ModelParams({k: Tensor(t.data.astype(dtype)) for k, t in self.tensors.items()})


def init_params(seed: int, dtype=np.float32) -> ModelParams:
    """Fan-in scaled normal weights, zero biases, deterministic in seed.

    Convs followed by ReLU get std sqrt(2 / fan_in); the linear ones
    (rdb.conv4, c5, c6) get std sqrt(1 / fan_in).
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for layer, (cout, cin, kh, kw, relu_after) in LAYER_SPECS.items():
        fan_in = cin * kh * kw
        std = np.sqrt((2.0 if relu_after else 1.0) / fan_in)
        w = rng.normal(0.0, std, size=(cout, cin, kh, kw))
        tensors[layer + ".weight"] = Tensor(w.astype(dtype))
        tensors[layer + ".bias"] = Tensor(np.zeros(cout, dtype=dtype))
    return ModelParams(tensors)


@dataclass(frozen=True)
class PreFusionConfig:
    """Weight of the dominant spectrum in the training-time blend.

    The complementary weight is always 1 - a1, never stored separately.
    """

    a1: float = 0.7

    def __post_init__(self):
        if not 0.5 <= self.a1 <= 1.0:
            raise ConfigError(f"a1 must be in [0.5, 1], got {self.a1}")

    @property
    def a2(self) -> float:
        return 1.0 - self.a1


@dataclass(frozen=True)
class FeedbackConfig:
    """Number of unrolled decoder refinement iterations (shared weights)."""

    n_iterations: int = 4

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ConfigError(
                f"n_iterations must be >= 1, got {self.n_iterations}")


def pre_fuse(infrared: np.ndarray, visible: np.ndarray,
             cfg: PreFusionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Blend a registered pair into two complementary weighted mixtures.

    Returns (a1*ir + a2*vis, a2*ir + a1*vis); with a1 = 1 this is the
    identity on both images.
    """
    if infrared.shape != visible.shape:
        raise ShapeError(
            f"pre_fuse needs a registered pair of equal size, got "
            f"{infrared.shape} and {visible.shape}")
    if cfg.a1 == 1.0:
        return infrared.copy(), visible.copy()
    iw = cfg.a1 * infrared + cfg.a2 * visible
    vw = cfg.a2 * infrared + cfg.a1 * visible
    return iw, vw


def rdb_forward(f0: Tensor, params: ModelParams) -> Tensor:
    """Residual dense block: three densely connected 3x3 convs, channel
    concatenation to 64, a 1x1 fusion conv, and a tiled local skip."""
    if f0.shape[1] != 16:
        raise ShapeError(f"rdb_forward expects 16 channels, got {f0.shape[1]}")
    d1 = conv2d(f0, params.weight("encoder.rdb.conv1"),
                params.bias("encoder.rdb.conv1")).relu()
    d2 = conv2d(concat_channels([f0, d1]), params.weight("encoder.rdb.conv2"),
                params.bias("encoder.rdb.conv2")).relu()
    d3 = conv2d(concat_channels([f0, d1, d2]), params.weight("encoder.rdb.conv3"),
                params.bias("encoder.rdb.conv3")).relu()
    stacked = concat_channels([f0, d1, d2, d3])
    fused = conv2d(stacked, params.weight("encoder.rdb.conv4"),
                   params.bias("encoder.rdb.conv4"))
    return fused + tile_channels(f0, SKIP_TILE)


def encode(img: Tensor, params: ModelParams) -> Tensor:
    """Rough 3x3 features, the dense block, and a tiled global skip."""
    if img.data.ndim != 4 or img.shape[1] != 1:
        raise ShapeError(
            f"encode expects a (B, 1, H, W) tensor, got {img.shape}")
    rough = conv2d(img, params.weight("encoder.c1"),
                   params.bias("encoder.c1")).relu()
    return rdb_forward(rough, params) + tile_channels(rough, SKIP_TILE)


def fuse_add(phi1: Tensor, phi2: Tensor) -> Tensor:
    """Elementwise addition of the two encoders' feature maps."""
    if phi1.shape != phi2.shape:
        raise ShapeError(
            f"fuse_add needs equal shapes, got {phi1.shape} and {phi2.shape}")
    return phi1 + phi2


def _decoder_pass(x: Tensor, params: ModelParams) -> Tensor:
    h = conv2d(x, params.weight("decoder.c2"), params.bias("decoder.c2")).relu()
    h = conv2d(h, params.weight("decoder.c3"), params.bias("decoder.c3")).relu()
    h = conv2d(h, params.weight("decoder.c4"), params.bias("decoder.c4")).relu()
    return conv2d(h, params.weight("decoder.c5"), params.bias("decoder.c5"))


def decode(y: Tensor, params: ModelParams,
           fb: FeedbackConfig = FeedbackConfig()) -> Tensor:
    """Run the decoder with feedback refinement.

    Iteration 1 decodes ``y`` directly; each later iteration decodes
    ``y + c6(previous output)``, re-injecting a 64-channel projection of
    the 1-channel output. All iterations share the decoder weights, and
    only the last output is returned (and supervised, during training).
    """
    if y.data.ndim != 4 or y.shape[1] != 64:
        raise ShapeError(f"decode expects a (B, 64, H, W) tensor, got {y.shape}")
    out = _decoder_pass(y, params)
    for _ in range(fb.n_iterations - 1):
        fed_back = conv2d(out, params.weight("decoder.c6"),
                          params.bias("decoder.c6"))
        out = _decoder_pass(y + fed_back, params)
    return out


def reconstruct(img: Tensor, params: ModelParams,
                fb: FeedbackConfig = FeedbackConfig()) -> Tensor:
    """Encoder straight into decoder; the training-time graph (no fusion)."""
    return decode(encode(img, params), params, fb)


def fuse_images(infrared: np.ndarray, visible: np.ndarray,
                params: ModelParams,
                fb: FeedbackConfig = FeedbackConfig(),
                pre_fusion: PreFusionConfig | None = None) -> np.ndarray:
    """Fuse a registered pair into one image in [0, 1].

    The test-time path feeds the raw pair to the tied-weight encoder,
    adds the feature maps, and decodes; pre-fusion is a training-time
    device, but passing ``pre_fusion`` re-enables it here for ablation.
    Addition fusion plus tied weights make the result independent of the
    argument order, bit for bit.
    """
    if infrared.ndim != 2 or visible.ndim != 2:
        raise ShapeError("fuse_images expects 2-d grayscale images")
    if infrared.shape != visible.shape:
        raise ShapeError(
            f"fuse_images needs a registered pair of equal size, got "
            f"{infrared.shape} and {visible.shape}")
    a, b = infrared, visible
    if pre_fusion is not None:
        a, b = pre_fuse(infrared, visible, pre_fusion)
    dtype = params.dtype
    ta = Tensor(a[np.newaxis, np.newaxis].astype(dtype))
    tb = Tensor(b[np.newaxis, np.newaxis].astype(dtype))
    fused = decode(fuse_add(encode(ta, params), encode(tb, params)), params, fb)
    return np.clip(fused.data[0, 0], 0.0, 1.0)
