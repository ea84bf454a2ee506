"""The fusion architecture: pre-fusion blend, Siamese residual-dense
encoder with tied weights, elementwise addition of the two feature maps,
and a decoder whose output is fed back through a projection conv for a
fixed number of refinement iterations.

Channel plan: 1 -> 16 -> 64 in the encoder (dense chain 16/32/48 -> 16,
then a 1x1 fusion conv to 64), and 64 -> 64 -> 32 -> 16 -> 1 in the
decoder, with a 1 -> 64 feedback projection. The residual skips bridge a
16-channel tensor onto a 64-channel one by adding it to each of the four
16-channel groups of the 1x1 fusion conv's output as its addend, with no
parameter and no tiled copy; ``encode`` adds both, which are the same
tensor, in one addend. The encoder's first four convs write their outputs
into channel slices of one (B, 64, H, W) buffer, so the dense block's
concatenations are views of it and none is copied. ``fuse_images`` adds
the two images' buffers and runs the 1x1 fusion conv once on the sum: by
linearity that is ``fuse_add(encode(a), encode(b))``, exact in real
arithmetic and at rounding level in floats. The decoder's first conv runs
on its input once; later iterations fold the projection into it, exactly,
as a 10 -> 64 conv on the output's 3x3 taps and a ones channel (see
``decode``). A fusion runs in stages over row strips, each computed on a
window with a halo of rows (see ``fuse_images``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .tensor import (Tensor, as_tensor, concat_on, conv2d, cores,
                     full_row_tiles, no_grad)

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

# The layers that each stage of a fusion runs in turn (see fuse_images): the
# encoders and decoder.c2's pre-activation, then a feedback pass, whose
# later runs begin with the taps conv (c6's kernel) and the folded c2.
_ENCODING = ("encoder.c1", "encoder.rdb.conv1", "encoder.rdb.conv2",
             "encoder.rdb.conv3", "encoder.rdb.conv4", "decoder.c2")
_PASS = ("decoder.c3", "decoder.c4", "decoder.c5")
_FED_BACK = ("decoder.c6", "decoder.c2") + _PASS

# A fusion computes each stage on windows of rows whose 64 channels fit
# STRIP_BYTES, as CONV_TILE_BYTES bounds one conv's scratch, but at least
# STRIP_HALOS halos high, which bounds the rows computed twice.
STRIP_BYTES = 8 << 20
STRIP_HALOS = 8

# flat tensor name -> shape, in checkpoint payload order
PARAM_SHAPES: dict[str, tuple[int, ...]] = {
    f"{layer}.{kind}": shape
    for layer, (cout, cin, kh, kw, _) in LAYER_SPECS.items()
    for kind, shape in (("weight", (cout, cin, kh, kw)), ("bias", (cout,)))}


def check_param_shapes(shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise ShapeError unless ``shapes`` names exactly the tensors of
    PARAM_SHAPES, in any order, each with its shape."""
    if shapes.keys() != PARAM_SHAPES.keys():
        missing = sorted(PARAM_SHAPES.keys() - shapes.keys())
        extra = sorted(shapes.keys() - PARAM_SHAPES.keys())
        raise ShapeError(
            f"tensor set mismatch, missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if shape != PARAM_SHAPES[name]:
            raise ShapeError(
                f"{name} has shape {shape}, expected {PARAM_SHAPES[name]}")


class ModelParams:
    """All learnable tensors, keyed by flat name; one shared set.

    Both encoder channels run this single parameter set, which is what
    makes the architecture Siamese: there is physically one copy of the
    weights. Construction checks the tensors against PARAM_SHAPES and
    stores them in its order.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        check_param_shapes({name: t.shape for name, t in tensors.items()})
        self.tensors = {name: tensors[name] for name in PARAM_SHAPES}

    def weight(self, layer: str) -> Tensor:
        return self.tensors[layer + ".weight"]

    def bias(self, layer: str) -> Tensor:
        return self.tensors[layer + ".bias"]

    @property
    def dtype(self):
        return self.tensors["encoder.c1.weight"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams({k: Tensor(t.data.copy()) for k, t in self.tensors.items()})


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
    iw = cfg.a1 * infrared + cfg.a2 * visible
    vw = cfg.a2 * infrared + cfg.a1 * visible
    return iw, vw


def _layer(name: str, x: Tensor, params: ModelParams,
           add: Tensor | None = None, out: np.ndarray | None = None) -> Tensor:
    """The conv ``name`` of LAYER_SPECS on ``x``, plus ``add``, with the
    ReLU fused into it where the table says so, written into ``out`` if
    given. Callers pass an input that nothing else reads (an activation)
    inline, so that under ``no_grad`` it is freed as soon as this call
    returns."""
    return conv2d(x, params.weight(name), params.bias(name),
                  relu=LAYER_SPECS[name][4], add=add, out=out)


def _dense_features(x: Tensor, params: ModelParams) -> tuple[Tensor, Tensor]:
    """``f0``, encoder.c1 on ``x``, and the dense chain's 64-channel
    concatenation [f0, d1, d2, d3].

    All four live in one (B, 64, H, W) buffer: each conv writes its 16
    channels into the next slice and reads the slices before it, which
    :func:`concat_on` takes as the concatenation's value, a view, so no
    concatenation is copied (Pleiss et al. 2017, arXiv 1707.06990). The
    values and the graph are those of concatenating copies, bit for bit."""
    B, _, H, W = x.shape
    buf = np.empty((B, 64, H, W), np.result_type(x.dtype, params.dtype))
    parts = [_layer("encoder.c1", x, params, out=buf[:, :16])]
    features = parts[0]
    for name in ("encoder.rdb.conv1", "encoder.rdb.conv2", "encoder.rdb.conv3"):
        c = features.shape[1]
        parts.append(_layer(name, features, params, out=buf[:, c:c + 16]))
        features = concat_on(parts, buf[:, :c + 16])
    return parts[0], features


def encode(img: Tensor, params: ModelParams) -> Tensor:
    """Rough 3x3 features, then the dense block, whose fusion conv adds
    the block's local skip and the encoder's global skip at once: both are
    the rough features, so its addend is ``rough * 2``. The rough features
    and the dense chain share one buffer (see :func:`_dense_features`);
    outputs and gradients are bit for bit those of concatenating copies."""
    if img.data.ndim != 4 or img.shape[1] != 1:
        raise ShapeError(
            f"encode expects a (B, 1, H, W) tensor, got {img.shape}")
    rough, features = _dense_features(img, params)
    return _layer("encoder.rdb.conv4", features, params, add=rough * 2.0)


def fuse_add(phi1: Tensor, phi2: Tensor) -> Tensor:
    """Elementwise addition of the two encoders' feature maps."""
    return phi1 + phi2


def _feedback_kernel(w2: Tensor, w6: Tensor, b6: Tensor) -> Tensor:
    """c6 folded into c2: ``M[o, t] = sum_c w2[o, c] * w6aug[c, t]``, where
    ``w6aug[c]`` is the 9 taps of ``w6[c, 0]`` followed by ``b6[c]``."""
    w2d, w6aug = w2.data, np.c_[w6.data.reshape(len(b6.data), -1), b6.data]

    def adjoint(g):   # optimize=True hands each product to BLAS
        g6 = np.einsum("otuv,ocuv->ct", g, w2d, optimize=True)
        return (np.einsum("otuv,ct->ocuv", g, w6aug, optimize=True),
                g6[:, :-1].reshape(w6.shape), g6[:, -1])

    return Tensor(np.einsum("ocuv,ct->otuv", w2d, w6aug, optimize=True),
                  _parents=(w2, w6, b6), _adjoint=adjoint)


def _feedback(params: ModelParams, dtype) -> tuple[Tensor, Tensor, Tensor]:
    """The taps conv's weight and bias and the folded c2 kernel that each
    feedback pass after the first runs (see :func:`decode`)."""
    m = _feedback_kernel(params.weight("decoder.c2"),
                         params.weight("decoder.c6"), params.bias("decoder.c6"))
    # filter t < 9 picks tap t; filter 9, zero with a bias of 1, gives ones
    return (as_tensor(np.eye(10, 9).reshape(10, 1, 3, 3), dtype),
            as_tensor(np.eye(10)[9], dtype), m)


def _decoder_pass(a: Tensor, out: Tensor | None, params: ModelParams,
                  feedback: tuple[Tensor, Tensor, Tensor] | None) -> Tensor:
    """One decoder pass on ``a``, decoder.c2's pre-activation of the
    decoder's input: the first (``out`` None) starts from ``a``'s ReLU, a
    later one from c2 folded onto the taps of ``out``, the last pass's
    output, through ``feedback`` (:func:`_feedback`); then c3, c4, c5."""
    if out is None:
        out = a.relu()
    else:
        taps_w, taps_b, m = feedback
        out = conv2d(conv2d(out, taps_w, taps_b), m, add=a, relu=True)
    for name in _PASS:
        out = _layer(name, out, params)
    return out


def decode(y: Tensor, params: ModelParams,
           fb: FeedbackConfig = FeedbackConfig()) -> Tensor:
    """Run the decoder with feedback refinement.

    Iteration 1 decodes ``y``; each later one decodes ``y + c6(out)``, a
    64-channel projection of the previous output re-injected. All share
    the decoder weights; only the last output is returned (and supervised).

    c2 runs on ``y`` once, as ``A = c2(y)`` before its ReLU; ``y`` is then
    dropped (callers pass it inline). A later c2 pre-activation,
    ``w2 * (y + w6 * out + b6) + b2``, is ``A + M * [taps(out), 1]``: the 9
    zero-padded 3x3 taps of ``out`` and a ones channel through
    :func:`_feedback_kernel` (structural re-parameterisation; Ding et al.
    2021, arXiv 2101.03697). c2 zero-pads c6's output, and the tap and ones
    channels are zero outside the image too, so this is exact at the
    borders. One 5x5 kernel ``w2 * w6`` on ``out`` is not: it pads c6's input.
    Each iteration is one :func:`_decoder_pass`, which :func:`fuse_images`
    runs too, on row strips of ``A``.
    """
    if y.data.ndim != 4 or y.shape[1] != 64:
        raise ShapeError(f"decode expects a (B, 64, H, W) tensor, got {y.shape}")
    a = conv2d(y, params.weight("decoder.c2"), params.bias("decoder.c2"))
    del y
    # for one iteration c6 takes no part in the graph
    feedback = _feedback(params, a.dtype) if fb.n_iterations > 1 else None
    out = None
    for _ in range(fb.n_iterations):
        out = _decoder_pass(a, out, params, feedback)
    return out


def reconstruct(img: Tensor, params: ModelParams,
                fb: FeedbackConfig = FeedbackConfig()) -> Tensor:
    """Encoder straight into decoder; the training-time graph (no fusion)."""
    return decode(encode(img, params), params, fb)


def _fused_encoding(a: Tensor, b: Tensor, params: ModelParams) -> Tensor:
    """``fuse_add(encode(a), encode(b))`` with one fusion conv: conv4 is
    1x1 with no ReLU, so the sum of its two outputs is conv4 on the summed
    dense features, with bias ``2 * b4`` and addend ``2 * (rough_a +
    rough_b)``. Exact in real arithmetic, so it moves the result at
    rounding level; both sums commute, so swapping ``a`` and ``b`` changes
    no bit. Only for :func:`fuse_images`, which runs it under ``no_grad``."""
    (rough_a, fa), (rough_b, fb) = (_dense_features(t, params) for t in (a, b))
    skips = (rough_a + rough_b) * 2.0   # before the sum: rough_a is in fa
    # In place, which no tensor of a graph may see: legal only because this
    # runs under no_grad and owns both buffers, which nothing else reads.
    fa.data += fb.data
    del rough_a, rough_b, fb   # b's buffer is freed before the conv runs
    name = "encoder.rdb.conv4"
    return conv2d(fa, params.weight(name), params.bias(name) * 2.0, add=skips)


def _in_strips(stage: Callable[..., Tensor], layers: tuple[str, ...],
               *maps: np.ndarray) -> np.ndarray:
    """``stage``, which runs ``layers`` in turn as "same" convs, on the (1,
    C, H, W) ``maps``, a strip of rows at a time. A strip is computed from
    the maps' rows from h above it to h below it, h the sum of the layers'
    kernel half heights, and keeps its own rows: a window edge inside the
    image reaches no row more than h in, and no conv row's bytes depend on
    the rows computed with it (see :func:`ivfuse.tensor._row_tiles`). A
    strip is the rows of a 64-channel map that fit STRIP_BYTES, and at
    least STRIP_HALOS halos; maps that fit one strip run with no copy."""
    halo = sum(LAYER_SPECS[name][2] // 2 for name in layers)
    H, W = maps[0].shape[2:]
    # an empty map runs as one window, whose conv2d names its shape
    rows = max(STRIP_BYTES // (64 * max(W, 1) * maps[0].itemsize),
               STRIP_HALOS * halo, 1)
    if rows >= H:
        return stage(*map(Tensor, maps)).data
    whole = None
    for r0 in range(0, H, rows):
        r1 = min(r0 + rows, H)
        lo, hi = max(r0 - halo, 0), min(r1 + halo, H)
        window = stage(*(Tensor(m[:, :, lo:hi]) for m in maps)).data
        if whole is None:
            whole = np.empty(window.shape[:2] + (H, W), window.dtype)
        whole[:, :, r0:r1] = window[:, :, r0 - lo:r1 - lo]
        del window   # freed before the next window is computed
    return whole


def fuse_images(infrared: np.ndarray, visible: np.ndarray,
                params: ModelParams,
                fb: FeedbackConfig = FeedbackConfig(),
                pre_fusion: PreFusionConfig | None = None) -> np.ndarray:
    """Fuse a registered pair into one image in [0, 1].

    The test-time path feeds the raw pair to the tied-weight encoder,
    adds the feature maps, and decodes; pre-fusion is a training-time
    device, but passing ``pre_fusion`` re-enables it here for ablation.
    Addition fusion plus tied weights make the result independent of the
    argument order, bit for bit. Runs under ``no_grad``: no graph is kept.
    The encoder's 1x1 fusion conv runs once, on the sum of the two dense
    buffers (see :func:`_fused_encoding`). That is
    ``decode(fuse_add(encode(a), encode(b)))`` up to rounding: before
    clipping, the two differ by at most 4e-6 in float32 and 1e-14 in
    float64 times the decoded image's largest magnitude, or times 1 if
    that is smaller. Pixels outside [0, 1], NaN included, are rejected
    with a DomainError, and so is a decoded image that is not finite
    (weights that overflow), before clipping could hide it.

    The fusion runs in 1 + n stages, n the feedback iterations, each on
    row strips with the halo of its layers (:func:`_in_strips`). Stage 0
    runs both encoders and decoder.c2 and keeps c2's pre-activation A;
    stage k runs :func:`decode`'s pass k on A and pass k - 1's output and
    keeps its 1-channel output. A, 256 bytes a pixel in float32, is the one
    whole 64-channel map; the others live in windows of about STRIP_BYTES.
    Up to 128 rows at 256 columns in float32, a stage is one window.

    The fusion runs in :func:`cores` of t, the whole row tiles that
    decoder.c2 fills at this size, and its strips one after another: each
    conv that fills k = min(t, w) tiles of its window, w the OpenBLAS
    thread count, runs as k bands of rows at once, with the bytes of the
    serial path. Below about 80x80 (t < 2) a fusion starts no thread and
    does not look OpenBLAS up.
    """
    if infrared.ndim != 2 or visible.ndim != 2:
        raise ShapeError("fuse_images expects 2-d grayscale images")
    if infrared.shape != visible.shape:
        raise ShapeError(
            f"fuse_images needs a registered pair of equal size, got "
            f"{infrared.shape} and {visible.shape}")
    for name, img in (("infrared", infrared), ("visible", visible)):
        if not ((img >= 0) & (img <= 1)).all():
            raise DomainError(f"fuse_images: {name} has pixels outside [0, 1]")
    a, b = infrared, visible
    if pre_fusion is not None:
        a, b = pre_fuse(infrared, visible, pre_fusion)
    c2 = PARAM_SHAPES["decoder.c2.weight"]
    tiles = full_row_tiles((1, c2[1]) + infrared.shape, params.dtype, c2)
    with no_grad(), np.errstate(over="ignore", invalid="ignore"), cores(tiles):
        pre = _in_strips(lambda ta, tb: conv2d(   # A
            _fused_encoding(ta, tb, params), params.weight("decoder.c2"),
            params.bias("decoder.c2")), _ENCODING,
            *(v[np.newaxis, np.newaxis].astype(params.dtype) for v in (a, b)))
        feedback = _feedback(params, pre.dtype) if fb.n_iterations > 1 else None
        out = _in_strips(lambda tp: _decoder_pass(tp, None, params, None),
                         _PASS, pre)
        for _ in range(1, fb.n_iterations):
            out = _in_strips(lambda tp, tout: _decoder_pass(
                tp, tout, params, feedback), _FED_BACK, pre, out)
        fused = out[0, 0]
    if not np.isfinite(fused).all():
        raise DomainError("fuse_images: the decoded image is not finite")
    return np.clip(fused, 0.0, 1.0)
