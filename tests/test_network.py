import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import ivfuse
import ivfuse.tensor
from ivfuse import _blas
from ivfuse.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ivfuse.errors import (CheckpointFormatError, CheckpointSchemaError,
                           ConfigError, DomainError, ShapeError)
from ivfuse.network import (LAYER_SPECS, PARAM_SHAPES, FeedbackConfig,
                            ModelParams, PreFusionConfig, decode, encode,
                            fuse_add, fuse_images, init_params, pre_fuse)
from ivfuse.network import _feedback_kernel
import ivfuse.network
from ivfuse.tensor import (Tensor, backward, conv2d, cores,
                           finite_diff_gradient, full_row_tiles, no_grad)
from oracles import decode_unrolled, decoder_pass, encode_concat

# Architecture table: kernel size, in channels, out channels, activation.
EXPECTED_LAYERS = {
    "encoder.c1": (3, 1, 16, True),
    "encoder.rdb.conv1": (3, 16, 16, True),
    "encoder.rdb.conv2": (3, 32, 16, True),
    "encoder.rdb.conv3": (3, 48, 16, True),
    "encoder.rdb.conv4": (1, 64, 64, False),
    "decoder.c2": (3, 64, 64, True),
    "decoder.c3": (3, 64, 32, True),
    "decoder.c4": (3, 32, 16, True),
    "decoder.c5": (3, 16, 1, False),
    "decoder.c6": (3, 1, 64, False),
}


def zero_params(dtype=np.float64):
    return ModelParams({name: Tensor(np.zeros(shape, dtype))
                        for name, shape in PARAM_SHAPES.items()})


def rand_image(seed, side=16):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (side, side))


def test_layer_table_matches_architecture():
    assert set(LAYER_SPECS) == set(EXPECTED_LAYERS)
    for name, (k, cin, cout, relu_after) in EXPECTED_LAYERS.items():
        got_cout, got_cin, kh, kw, got_relu = LAYER_SPECS[name]
        assert (kh, kw) == (k, k)
        assert (got_cin, got_cout) == (cin, cout)
        assert got_relu == relu_after


# -------------------------------------------------------------- pre_fuse

def test_pre_fuse_a1_one_is_identity():
    ir, vis = rand_image(0), rand_image(1)
    iw, vw = pre_fuse(ir, vis, PreFusionConfig(1.0))
    assert np.array_equal(iw, ir)
    assert np.array_equal(vw, vis)


def test_pre_fuse_a1_half_is_symmetric_mean():
    ir, vis = rand_image(2), rand_image(3)
    iw, vw = pre_fuse(ir, vis, PreFusionConfig(0.5))
    mean = (ir + vis) / 2.0
    assert np.array_equal(iw, vw)
    assert np.allclose(iw, mean, rtol=1e-15)


def test_pre_fuse_direct_evaluation():
    ir = np.zeros((8, 8))
    vis = np.ones((8, 8))
    iw, vw = pre_fuse(ir, vis, PreFusionConfig(0.7))
    assert np.allclose(iw, 0.3)
    assert np.allclose(vw, 0.7)


def test_pre_fuse_shape_mismatch():
    with pytest.raises(ShapeError):
        pre_fuse(np.zeros((4, 4)), np.zeros((4, 5)), PreFusionConfig())


def test_pre_fusion_config_validates_range():
    with pytest.raises(ConfigError):
        PreFusionConfig(0.3)
    with pytest.raises(ConfigError):
        PreFusionConfig(1.2)
    assert PreFusionConfig(0.7).a2 == pytest.approx(0.3)


# ----------------------------------------------------------- rdb, encode

def test_encode_with_a_zeroed_dense_block_reduces_to_the_tiled_skips():
    # with every rdb weight and bias zero, the fusion conv adds only its
    # addend, the local and the global skip: twice the rough features,
    # tiled over its four 16-channel groups
    params = init_params(5, dtype=np.float64)
    for name, t in params.tensors.items():
        if "rdb" in name:
            t.data[...] = 0.0
    img = Tensor(rand_image(5, side=8)[None, None])
    rough = conv2d(img, params.weight("encoder.c1"), params.bias("encoder.c1"),
                   relu=True)
    assert np.array_equal(encode(img, params).data,
                          np.tile(2 * rough.data, (1, 4, 1, 1)))


def test_encode_shape_and_tied_weights():
    params = init_params(1, dtype=np.float64)
    img = Tensor(rand_image(6)[None, None])
    a = encode(img, params)
    b = encode(img, params)
    assert a.shape == (1, 64, 16, 16)
    assert np.array_equal(a.data, b.data)  # one parameter set, tied


def test_encode_zero_everything_gives_zero():
    params = zero_params()
    out = encode(Tensor(np.zeros((1, 1, 8, 8))), params)
    assert np.all(out.data == 0.0)


def test_encode_rejects_multichannel():
    with pytest.raises(ShapeError):
        encode(Tensor(np.zeros((1, 3, 8, 8))), init_params(0))


@pytest.mark.parametrize("graph", [False, True])
def test_dense_block_reads_and_writes_one_buffer(monkeypatch, graph):
    inputs = {}

    def recording_conv2d(x, w, *args, **kwargs):
        inputs[next(k for k, t in params.tensors.items() if t is w)] = x.data
        return conv2d(x, w, *args, **kwargs)

    monkeypatch.setattr(ivfuse.network, "conv2d", recording_conv2d)
    params = init_params(3)
    img = Tensor(rand_image(7)[None, None].astype(np.float32))
    if graph:
        out = encode(img, params)
    else:
        with no_grad():
            out = encode(img, params)
    features = inputs["encoder.rdb.conv4.weight"]
    assert features.shape == (1, 64, 16, 16)
    for layer, channels in (("conv2", 32), ("conv3", 48)):
        x = inputs[f"encoder.rdb.{layer}.weight"]
        assert x.shape[1] == channels and np.shares_memory(x, features)
        assert np.array_equal(x, features[:, :channels])
    assert not np.shares_memory(out.data, features)


@pytest.mark.parametrize("dtype, side", [(np.float32, 32), (np.float64, 16)])
def test_encode_matches_the_concatenating_encoder_bit_for_bit(dtype, side):
    rng = np.random.default_rng(8)
    img = Tensor(rng.uniform(0, 1, (4, 1, side, side)).astype(dtype),
                 _parents=())
    weight = rng.standard_normal((4, 64, side, side)).astype(dtype)
    grads = []
    for encoder in (encode, encode_concat):
        params = init_params(4, dtype=dtype)
        out = encoder(img, params)
        backward((out * weight).sum())
        grads.append((out.data, {k: t.grad for k, t in params.tensors.items()}))
    (out, got), (want_out, want) = grads
    assert out.dtype == dtype and np.array_equal(out, want_out)
    for name in got:
        assert np.array_equal(got[name], want[name]), name


# -------------------------------------------------------------- fuse_add

def test_fuse_add_identity_and_commutative():
    rng = np.random.default_rng(7)
    phi = Tensor(rng.standard_normal((1, 64, 4, 4)))
    zeros = Tensor(np.zeros((1, 64, 4, 4)))
    other = Tensor(rng.standard_normal((1, 64, 4, 4)))
    assert np.array_equal(fuse_add(phi, zeros).data, phi.data)
    assert np.array_equal(fuse_add(phi, other).data, fuse_add(other, phi).data)
    assert np.array_equal(fuse_add(phi, phi).data, 2.0 * phi.data)


def test_fuse_add_shape_mismatch():
    with pytest.raises(ShapeError, match=r"\(1, 64, 4, 4\) and \(1, 64, 4, 5\)"):
        fuse_add(Tensor(np.zeros((1, 64, 4, 4))), Tensor(np.zeros((1, 64, 4, 5))))


# ---------------------------------------------------------------- decode

def test_decode_single_iteration_equals_plain_pass():
    params = init_params(2, dtype=np.float64)
    y = Tensor(np.random.default_rng(8).standard_normal((1, 64, 16, 16)))
    assert np.array_equal(decode(y, params, FeedbackConfig(1)).data,
                          decoder_pass(y, params).data)


def test_decode_output_single_channel_same_size():
    params = init_params(3, dtype=np.float64)
    y = Tensor(np.random.default_rng(9).standard_normal((2, 64, 12, 12)))
    out = decode(y, params, FeedbackConfig(2))
    assert out.shape == (2, 1, 12, 12)


def test_decode_zero_feedback_conv_is_noop():
    params = init_params(4, dtype=np.float64)
    params.tensors["decoder.c6.weight"].data[...] = 0.0
    params.tensors["decoder.c6.bias"].data[...] = 0.0
    y = Tensor(np.random.default_rng(10).standard_normal((1, 64, 16, 16)))
    one = decode(y, params, FeedbackConfig(1))
    four = decode(y, params, FeedbackConfig(4))
    assert np.array_equal(one.data, four.data)


def _decode_and_grads(decoder, y_data, params):
    """The output, y's gradient and every parameter gradient of a
    weighted sum of ``decoder(y)``."""
    y = Tensor(y_data.copy())
    out = decoder(y)
    r = np.random.default_rng(21).standard_normal(out.shape).astype(out.dtype)
    backward((out * Tensor(r)).sum())
    return ([out.data, y.grad]
            + [params.tensors[name].grad.copy() for name in PARAM_SHAPES])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("size", [(5, 7), (12, 13)])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_decode_matches_the_unrolled_decoder(dtype, tol, batch, size, n):
    # c2 runs once on y and c6 is folded into a 10-channel kernel; the
    # output and all gradients must match running c2 on y + c6(out) in
    # every pass, the borders of these small odd images included
    params = init_params(7, dtype=dtype)
    rng = np.random.default_rng(20)
    for name, t in params.tensors.items():
        if name.endswith(".bias"):
            t.data[...] = rng.normal(0.0, 0.1, t.shape)
    y_data = rng.standard_normal((batch, 64, *size)).astype(dtype)
    got = _decode_and_grads(lambda y: decode(y, params, FeedbackConfig(n)),
                            y_data, params)
    want = _decode_and_grads(lambda y: decode_unrolled(y, params, n),
                             y_data, params)
    names = ["output", "y.grad", *PARAM_SHAPES]   # the encoder's read 0
    for name, g, w in zip(names, got, want):
        assert g.dtype == dtype, name
        err, scale = np.abs(g - w).max(), np.abs(w).max()
        assert err <= tol * scale, (name, err, scale)
    assert all(np.abs(g).max() > 0 for g in got[-4:])   # c6 is reached


def test_feedback_kernel_gradients_match_finite_differences():
    # the kernel is linear in w2 and in (w6, b6) together
    rng = np.random.default_rng(22)
    w2 = Tensor(rng.standard_normal((3, 4, 3, 3)))
    w6 = Tensor(rng.standard_normal((4, 1, 3, 3)))
    b6 = Tensor(rng.standard_normal(4))
    r = Tensor(rng.standard_normal((3, 10, 3, 3)))
    args = [w2, w6, b6]
    backward((_feedback_kernel(*args) * r).sum())
    for i, t in enumerate(args):
        def f(v, i=i):
            return (_feedback_kernel(*args[:i], v, *args[i + 1:]) * r).sum()
        np.testing.assert_allclose(t.grad, finite_diff_gradient(f, t),
                                   rtol=1e-7, atol=1e-9)


def test_conv2d_addend_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((2, 3, 5, 4)))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    a = Tensor(rng.standard_normal((2, 4, 5, 4)))
    r = Tensor(rng.standard_normal((2, 4, 5, 4)))
    args = [x, w, a]

    def loss(x, w, a):
        return (conv2d(x, w, add=a, relu=True) * r).sum()

    backward(loss(*args))
    for i, t in enumerate(args):
        def f(v, i=i):
            return loss(*args[:i], v, *args[i + 1:])
        np.testing.assert_allclose(t.grad, finite_diff_gradient(f, t),
                                   rtol=1e-7, atol=1e-9)


def test_forward_applies_relu_where_the_layer_table_says(monkeypatch):
    params = init_params(5, dtype=np.float64)
    y = Tensor(np.random.default_rng(11).standard_normal((1, 64, 8, 8)))
    assert (decode(y, params).data < 0).any()
    monkeypatch.setitem(LAYER_SPECS, "decoder.c5", (1, 16, 3, 3, True))
    assert (decode(y, params).data >= 0).all()


def test_feedback_config_validation():
    with pytest.raises(ConfigError):
        FeedbackConfig(0)


# ----------------------------------------------------------- fuse_images

def test_fuse_images_shape_and_range():
    params = init_params(5)
    ir, vis = rand_image(11), rand_image(12)
    fused = fuse_images(ir, vis, params, FeedbackConfig(2))
    assert fused.shape == ir.shape
    assert fused.min() >= 0.0 and fused.max() <= 1.0


@pytest.mark.parametrize("seed", range(5))
def test_fuse_images_argument_order_invariance(seed):
    params = init_params(100 + seed)
    ir, vis = rand_image(2 * seed), rand_image(2 * seed + 1)
    ab = fuse_images(ir, vis, params, FeedbackConfig(2))
    ba = fuse_images(vis, ir, params, FeedbackConfig(2))
    assert np.array_equal(ab, ba)


def test_fuse_images_size_mismatch():
    with pytest.raises(ShapeError):
        fuse_images(np.zeros((8, 8)), np.zeros((8, 9)), init_params(0))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
def test_fuse_images_rejects_empty_images_naming_the_shape(shape):
    # an empty pair used to fail deep in the conv tiling (range() arg 3
    # must not be zero, or an unbound product buffer)
    empty = np.zeros(shape)
    with pytest.raises(ShapeError, match=f"no rows or columns.*{shape[0]}, {shape[1]}"):
        fuse_images(empty, empty, init_params(0), FeedbackConfig(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
@pytest.mark.parametrize("argument", ["infrared", "visible"])
def test_fuse_images_rejects_non_finite_pixels(argument, bad):
    images = {"infrared": rand_image(15), "visible": rand_image(16)}
    images[argument][3, 4] = bad
    with pytest.raises(DomainError, match=argument):
        fuse_images(images["infrared"], images["visible"], init_params(0),
                    FeedbackConfig(1))


def overflowing_params(signed: bool) -> ModelParams:
    """Finite float32 weights of magnitude 3e37, which a checkpoint accepts;
    with mixed signs the fusion is all NaN, all positive it overflows to inf."""
    params = init_params(3)
    for t in params.tensors.values():
        t.data[...] = (np.sign(t.data) if signed else 1.0) * np.float32(3e37)
    return params


@pytest.mark.parametrize("signed", [True, False])
def test_fuse_images_rejects_non_finite_output(signed):
    # clipping would turn NaN into black and inf into white without a word
    with pytest.raises(DomainError, match="not finite"):
        fuse_images(rand_image(3), rand_image(4), overflowing_params(signed),
                    FeedbackConfig(1))


# fuse_images folds the two fusion convs into one; before clipping it is
# within this much, times max(1, the largest decoded magnitude), of
# decode(fuse_add(encode(a), encode(b)))
FOLD_REL_TOL = {np.float32: 4e-6, np.float64: 1e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(64, 64), (256, 256), (37, 23)])
def test_fuse_images_matches_the_sum_of_two_encodings(dtype, shape):
    params = init_params(0, dtype=dtype)
    rng = np.random.default_rng(shape[1])
    ir, vis = rng.uniform(0, 1, (2,) + shape)
    fused = fuse_images(ir, vis, params)
    with no_grad():
        ta, tb = (Tensor(v[None, None].astype(dtype)) for v in (ir, vis))
        decoded = decode(fuse_add(encode(ta, params), encode(tb, params)),
                         params).data[0, 0]
    bound = FOLD_REL_TOL[dtype] * max(1.0, np.abs(decoded).max())
    assert np.abs(fused - np.clip(decoded, 0, 1)).max() <= bound
    assert np.array_equal(fused, fuse_images(vis, ir, params))


def test_fuse_images_keeps_no_graph_in_memory():
    # A recorded graph of one 128x128 fusion (4 feedback iterations) peaks
    # near 440 MiB of numpy buffers. Without one, only activations that a
    # later op reads and one conv tile of scratch are live: 13.8 MiB, 3.44
    # (1, 64, 128, 128) float32 maps, in the decoder. Dead ones (pre-ReLU
    # outputs, a tiled copy of a skip, a concatenation already used) took
    # it to 6.1, and copied concatenations and a second fusion conv, which
    # held one image's encoding while the other's was made, to 3.93.
    params = init_params(0)
    ir, vis = rand_image(17, side=128), rand_image(18, side=128)
    activation = 64 * 128 * 128 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        fuse_images(ir, vis, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14.5 * 2 ** 20, f"peak {peak / activation:.2f} activations"


def test_a_large_fusion_keeps_one_whole_64_channel_map():
    # 256x256 float32 runs each stage in two strips, and keeps one whole
    # (1, 64, 256, 256) map, 16 MiB, decoder.c2's pre-activation; the other
    # maps live in windows. The whole image at once peaked at 44.2 MiB,
    # with the folded feedback conv's and c3's whole outputs.
    params = init_params(0)
    ir, vis = rand_image(19, side=256), rand_image(20, side=256)
    tracemalloc.start()
    try:
        fuse_images(ir, vis, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


# strip heights per image shape: every height on the small images, and
# on the tall one only those that do not run hundreds of windows
STRIP_ROWS = {(37, 23): (1, 2, 5, 7, 11), (50, 33): (1, 2, 5, 7, 11),
              (96, 16): (2, 5, 7, 11), (300, 40): (7, 11)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", list(STRIP_ROWS))
@pytest.mark.parametrize("n_iterations", [1, 3, 4])
def test_fusion_in_row_strips_keeps_the_one_strip_bytes(monkeypatch, dtype,
                                                       shape, n_iterations):
    # strips of 1 to 11 rows, whose windows cut each stage's maps at its
    # halo, against one strip; c5 is scaled so that no pixel clips
    params = init_params(7, dtype=dtype)
    params.weight("decoder.c5").data *= dtype(0.12)
    params.bias("decoder.c5").data += dtype(0.3)
    ir, vis = np.random.default_rng(shape[0]).uniform(0, 1, (2,) + shape)
    heights = []   # of stage 0's windows, one per strip
    encoding = ivfuse.network._fused_encoding

    def spy(a, b, p):
        heights.append(a.shape[2])
        return encoding(a, b, p)

    monkeypatch.setattr(ivfuse.network, "_fused_encoding", spy)
    fb = FeedbackConfig(n_iterations)
    whole = fuse_images(ir, vis, params, fb)
    assert heights == [shape[0]] and 0 < whole.min() and whole.max() < 1
    monkeypatch.setattr(ivfuse.network, "STRIP_HALOS", 0)
    row_bytes = 64 * shape[1] * np.dtype(dtype).itemsize
    for rows in STRIP_ROWS[shape]:
        monkeypatch.setattr(ivfuse.network, "STRIP_BYTES", rows * row_bytes)
        heights.clear()
        assert np.array_equal(fuse_images(ir, vis, params, fb), whole), rows
        assert len(heights) == -(-shape[0] // rows)


def test_fuse_images_float32_tracks_float64():
    # The same weights at both precisions; the output conv is scaled so no
    # fused pixel clips, which would hide the difference.
    params = init_params(1, dtype=np.float32)
    params.weight("decoder.c5").data *= np.float32(0.12)
    params.bias("decoder.c5").data += np.float32(0.3)
    wide = ModelParams({name: Tensor(t.data.astype(np.float64))
                        for name, t in params.tensors.items()})
    ir, vis = rand_image(1, side=64), rand_image(2, side=64)
    f32 = fuse_images(ir, vis, params)
    f64 = fuse_images(ir, vis, wide)
    assert 0.0 < f64.min() and f64.max() < 1.0
    assert np.abs(f32 - f64).max() <= 2e-6


def test_fusion_bytes_do_not_depend_on_the_blas_thread_count(set_blas_threads):
    # c5 is scaled so that no fused pixel clips, which would hide a change
    params = init_params(0)
    params.weight("decoder.c5").data *= np.float32(0.12)
    params.bias("decoder.c5").data += np.float32(0.3)
    ir, vis = rand_image(21, side=256), rand_image(22, side=256)
    fused = []
    for threads in (1, 2):
        set_blas_threads(threads)
        fused.append(fuse_images(ir, vis, params))
    assert np.array_equal(*fused)


# ------------------------------------------------------ fusion row bands

def spy_bands(monkeypatch, each=None):
    """Record the band count of every conv forward, and call ``each(n)``
    before it runs, in the thread that calls the conv."""
    counts = []
    run_parts = ivfuse.tensor.run_parts

    def spy(band, n):
        counts.append(n)
        if each is not None:
            each(n)
        return run_parts(band, n)

    monkeypatch.setattr(ivfuse.tensor, "run_parts", spy)
    return counts


@pytest.fixture
def blas_and_threads(set_blas_threads):
    """A reader of the OpenBLAS thread count and the live thread count,
    with OpenBLAS set to two threads for the test."""
    set_blas_threads(2)
    return lambda: (_blas.threads(), threading.active_count())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(37, 23), (64, 64)])
@pytest.mark.parametrize("n_iterations", [1, 4])
@pytest.mark.parametrize("pre_fusion", [None, PreFusionConfig(0.7)])
def test_fusion_in_row_bands_keeps_the_serial_bytes(monkeypatch, dtype, shape,
                                                   n_iterations, pre_fusion):
    # a tile cap that splits both sizes; c5 is scaled so that no pixel clips
    monkeypatch.setattr(ivfuse.tensor, "CONV_TILE_BYTES", 1 << 19)
    params = init_params(7, dtype=dtype)
    params.weight("decoder.c5").data *= dtype(0.12)
    params.bias("decoder.c5").data += dtype(0.3)
    rng = np.random.default_rng(shape[1])
    ir, vis = rng.uniform(0, 1, (2,) + shape)
    fused = []
    for workers in (1, 2):
        monkeypatch.setattr(_blas, "threads", lambda: workers)
        counts = spy_bands(monkeypatch)
        fused.append(fuse_images(ir, vis, params, FeedbackConfig(n_iterations),
                                 pre_fusion))
        assert max(counts) == workers
    assert 0 < fused[0].min() and fused[0].max() < 1
    assert np.array_equal(*fused)


def test_a_fusion_in_row_bands_holds_openblas_once_and_joins_its_threads(
        monkeypatch, blas_and_threads):
    before = blas_and_threads()
    seen = []
    counts = spy_bands(monkeypatch, lambda n: seen.append(blas_and_threads()[0]))
    fuse_images(rand_image(23, side=128), rand_image(24, side=128),
                init_params(0), FeedbackConfig(2))
    assert before[0] == 2 and 2 in counts
    assert set(seen) == {1}   # every conv, split or not, runs at one thread
    assert blas_and_threads() == before


def test_fusion_bands_work_within_one_tile_of_scratch(monkeypatch):
    # every band's column and product buffers come from the caller, each
    # sized for CONV_TILE_BYTES // n, so a split conv keeps about the one
    # tile of scratch that a serial one does; the bound is the serial test's
    monkeypatch.setattr(_blas, "threads", lambda: 2)
    counts = spy_bands(monkeypatch)
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((1, 64, 128, 128)).astype(np.float32))
    w = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32))
    with no_grad(), cores(2):
        tracemalloc.start()
        try:
            out = conv2d(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert counts == [2]
    scratch = peak - out.data.nbytes
    assert scratch <= ivfuse.tensor.CONV_TILE_BYTES + (1 << 20), scratch


def test_a_fusion_on_more_cores_than_tiles_runs_one_band_per_tile(monkeypatch):
    # with three threads and a tile cap at which decoder.c2 fills exactly
    # two whole row tiles, a fusion runs its large convs in two bands
    # rather than serially; c5 is scaled so that no pixel clips
    c2 = PARAM_SHAPES["decoder.c2.weight"]
    x = np.broadcast_to(np.float32(0), (1, c2[1], 64, 64))
    lay = ivfuse.tensor._layout(x, np.broadcast_to(np.float32(0), c2), 1, 1)
    cap = lay.halo + 32 * (lay.col_row + lay.prod_row)   # 32 rows a tile
    monkeypatch.setattr(ivfuse.tensor, "CONV_TILE_BYTES", cap)
    assert full_row_tiles((1, c2[1], 64, 64), np.float32, c2) == 2
    params = init_params(7)
    params.weight("decoder.c5").data *= np.float32(0.12)
    params.bias("decoder.c5").data += np.float32(0.3)
    ir, vis = np.random.default_rng(64).uniform(0, 1, (2, 64, 64))
    fused = []
    for workers in (1, 3):
        monkeypatch.setattr(_blas, "threads", lambda: workers)
        counts = spy_bands(monkeypatch)
        fused.append(fuse_images(ir, vis, params, FeedbackConfig(2)))
        assert max(counts) == min(workers, 2)
    assert 0 < fused[0].min() and fused[0].max() < 1
    assert np.array_equal(*fused)


class BandFailure(Exception):
    pass


def test_an_error_in_a_band_reaches_the_caller_unchanged(
        monkeypatch, blas_and_threads):
    before = blas_and_threads()
    caller = threading.current_thread()
    raised = []
    row_tiles = ivfuse.tensor._row_tiles

    def fail_off_the_caller(*args):
        if threading.current_thread() is not caller:
            raised.append(BandFailure("band 1 failed"))
            raise raised[-1]
        return row_tiles(*args)

    monkeypatch.setattr(ivfuse.tensor, "_row_tiles", fail_off_the_caller)
    with pytest.raises(BandFailure, match="band 1 failed") as info:
        fuse_images(rand_image(25, side=128), rand_image(26, side=128),
                    init_params(0), FeedbackConfig(1))
    assert len(raised) == 1 and info.value is raised[0]
    assert blas_and_threads() == before


@pytest.mark.parametrize("signed", [True, False])
def test_an_overflowing_fusion_in_row_bands_warns_in_no_band(
        monkeypatch, blas_and_threads, signed):
    # a band thread starts with numpy's default error state, which warns
    # on overflow; the suite's pytest settings turn a RuntimeWarning into an
    # error, which the band would raise here in place of the DomainError
    before = blas_and_threads()
    counts = spy_bands(monkeypatch)
    with pytest.raises(DomainError, match="not finite"):
        fuse_images(rand_image(27, side=128), rand_image(28, side=128),
                    overflowing_params(signed), FeedbackConfig(1))
    assert 2 in counts
    assert blas_and_threads() == before


def test_a_small_fusion_starts_no_thread_and_leaves_openblas_alone(
        monkeypatch, blas_and_threads):
    before = blas_and_threads()
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda t: started.append(t))
    monkeypatch.setattr(_blas, "single_thread", None)   # fails if called
    counts = spy_bands(monkeypatch)
    fuse_images(rand_image(29, side=64), rand_image(30, side=64),
                init_params(0), FeedbackConfig(4))
    assert set(counts) == {1} and started == []
    assert blas_and_threads() == before


def test_a_small_fusion_does_not_import_the_openblas_lookup():
    code = ("import sys, numpy as np, ivfuse\n"
            "a = np.random.default_rng(0).uniform(0, 1, (2, 64, 64))\n"
            "ivfuse.fuse_images(a[0], a[1], ivfuse.init_params(0))\n"
            "print('ivfuse._blas' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivfuse.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_large_fusion_runs_its_convs_in_w_bands(monkeypatch, blas_and_threads):
    counts = spy_bands(monkeypatch)
    fuse_images(rand_image(31, side=256), rand_image(32, side=256),
                init_params(0))
    # at 256x256 each of the five stages runs in two strips, and in each
    # strip's window every conv fills two whole tiles of CONV_TILE_BYTES / 2
    # (rdb.conv1-3 twice, conv4 and c2; c3, c4 and c5 in every pass, and
    # the folded feedback conv in passes 2-4) but encoder.c1, twice, and
    # the feedback taps conv. c5 fills one tile of CONV_TILE_BYTES there.
    assert (counts.count(2), counts.count(1)) == (2 * (8 + 3 + 3 * 4),
                                                  2 * (2 + 3))


def test_a_fusion_inside_a_one_thread_block_takes_the_serial_path(
        monkeypatch, blas_and_threads):
    before = blas_and_threads()
    counts = spy_bands(monkeypatch)
    with _blas.single_thread():
        fuse_images(rand_image(33, side=256), rand_image(34, side=256),
                    init_params(0), FeedbackConfig(1))
    assert set(counts) == {1}
    assert blas_and_threads() == before


def test_fuse_images_optional_pre_fusion_changes_result():
    params = init_params(6)
    ir, vis = rand_image(13), rand_image(14)
    raw = fuse_images(ir, vis, params, FeedbackConfig(1))
    blended = fuse_images(ir, vis, params, FeedbackConfig(1),
                          pre_fusion=PreFusionConfig(0.7))
    assert not np.array_equal(raw, blended)


# ------------------------------------------------------------ init_params

def test_init_params_deterministic():
    a = init_params(42)
    b = init_params(42)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data)


def test_init_params_he_variance():
    # 3x3, 16 -> 16 conv: fan_in 144, expected weight variance 2/144
    params = init_params(7, dtype=np.float64)
    w = params.tensors["encoder.rdb.conv1.weight"].data
    assert w.size >= 2000
    want = 2.0 / 144.0
    assert abs(w.var() - want) / want < 0.20


def test_init_params_biases_zero():
    params = init_params(8)
    for name, t in params.tensors.items():
        if name.endswith(".bias"):
            assert np.all(t.data == 0.0)


def test_model_params_rejects_bad_shapes():
    params = init_params(9)
    tensors = dict(params.tensors)
    tensors["encoder.c1.weight"] = Tensor(np.zeros((8, 1, 3, 3)))
    with pytest.raises(ShapeError):
        ModelParams(tensors)
    tensors = dict(params.tensors)
    del tensors["decoder.c5.bias"]
    with pytest.raises(ShapeError):
        ModelParams(tensors)


# ------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = init_params(10)
    path = tmp_path / "model.hfn"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name].data,
                              params.tensors[name].data)
        assert loaded.tensors[name].dtype == np.float32


def test_checkpoint_in_reverse_order_loads_in_canonical_order(tmp_path):
    params = init_params(15)
    path = tmp_path / "model.hfn"
    save_checkpoint(params, path)
    head, payload = path.read_bytes().split(b"\n\n", 1)
    magic, *lines = head.split(b"\n")
    chunks, offset = [], 0
    for t in params.tensors.values():
        chunks.append(payload[offset:offset + t.data.nbytes])
        offset += t.data.nbytes
    path.write_bytes(b"\n".join([magic, *lines[::-1]]) + b"\n\n"
                     + b"".join(chunks[::-1]))
    loaded = load_checkpoint(path)
    assert list(loaded.tensors) == list(PARAM_SHAPES)
    for name, t in params.tensors.items():
        assert np.array_equal(loaded.tensors[name].data, t.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.hfn"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params(11)
    path = tmp_path / "model.hfn"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 100])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_wrong_shape_cites_expected(tmp_path):
    params = init_params(12)
    path = tmp_path / "model.hfn"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    # corrupt the manifest: claim c1 maps 1 -> 8 instead of 1 -> 16
    bad = blob.replace(b"encoder.c1.weight f32 16,1,3,3",
                       b"encoder.c1.weight f32 8,1,3,3", 1)
    assert bad != blob
    path.write_bytes(bad)
    with pytest.raises(CheckpointSchemaError, match=r"16, 1, 3, 3"):
        load_checkpoint(path)


def write_nan_checkpoint(path, params: ModelParams, name: str) -> None:
    """Save ``params``, then overwrite the first value of tensor ``name``
    in the file with NaN, which save_checkpoint itself refuses to write."""
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    at = blob.index(b"\n\n") + 2
    for key, t in params.tensors.items():
        if key == name:
            break
        at += 4 * t.data.size
    blob[at:at + 4] = np.float32(np.nan).astype("<f4").tobytes()
    path.write_bytes(bytes(blob))


def test_checkpoint_non_finite_weight_rejected(tmp_path):
    path = tmp_path / "model.hfn"
    write_nan_checkpoint(path, init_params(14), "decoder.c5.bias")
    with pytest.raises(CheckpointFormatError, match=r"decoder\.c5\.bias"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, 1e39])   # 1e39 overflows float32
def test_save_checkpoint_refuses_what_load_would_refuse(tmp_path, value):
    params = init_params(14, dtype=np.float64)
    params.tensors["decoder.c5.bias"].data[0] = value
    with pytest.raises(DomainError, match=r"decoder\.c5\.bias"):
        save_checkpoint(params, tmp_path / "model.hfn")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_magic_constant():
    assert MAGIC == b"HFN1"


def test_checkpoint_unknown_tensor_rejected(tmp_path):
    params = init_params(13)
    path = tmp_path / "model.hfn"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    bad = blob.replace(b"encoder.c1.weight", b"encoder.cX.weight", 1)
    path.write_bytes(bad)
    with pytest.raises(CheckpointSchemaError):
        load_checkpoint(path)
