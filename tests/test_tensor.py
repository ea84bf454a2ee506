import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivfuse.tensor
from ivfuse.errors import DomainError, ShapeError
from ivfuse.network import LAYER_SPECS
from ivfuse.tensor import (Tensor, as_tensor, backward,
                           concat_channels, conv2d, finite_diff_gradient,
                           narrow, no_grad)
from oracles import (conv2d_input_grad_loops, conv2d_loops,
                     conv2d_weight_grad_loops)


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


# ---------------------------------------------------------------- conv2d

def test_conv2d_zero_input_gives_bias():
    x = Tensor(np.zeros((2, 3, 4, 4)))
    w = Tensor(rand((5, 3, 3, 3), 1))
    b = Tensor(np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
    out = conv2d(x, w, b)
    for c in range(5):
        assert np.all(out.data[:, c] == b.data[c])


def test_conv2d_1x1_scalar_scaling():
    x = Tensor(rand((1, 1, 4, 4), 2))
    w = Tensor(np.array([[[[2.0]]]]))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b)
    assert np.allclose(out.data, 2.0 * x.data)


def test_conv2d_hand_computed_3x3():
    # 3x3 input 1..9 row-major, all-ones kernel, zero padding
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w)
    assert out.data[0, 0, 1, 1] == 45.0
    assert out.data[0, 0, 0, 0] == 12.0  # 1 + 2 + 4 + 5


def test_conv2d_identity_kernel_bit_exact():
    x = Tensor(rand((2, 1, 6, 6), 3))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = conv2d(x, w)
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    want = conv2d_loops(x, w, b, pad=1)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("B, Cin, Cout, H, W, kh, kw, padding", [
    (3, 2, 4, 7, 5, 3, 3, "same"),     # B=3
    (1, 3, 2, 9, 6, 3, 3, "valid"),    # valid padding
    (2, 4, 3, 7, 4, 1, 1, "same"),     # 1x1 kernel
    (2, 1, 5, 7, 6, 3, 3, "same"),     # Cin=1
    (3, 4, 1, 7, 5, 3, 3, "same"),     # Cout=1
    (1, 1, 1, 9, 8, 5, 1, "valid"),    # 1-d window, as in the SSIM loss
    (2, 3, 2, 9, 7, 5, 3, "valid"),    # 5x3 window, B=2
    (1, 1, 1, 8, 9, 1, 5, "valid"),    # the SSIM loss's second pass
    (2, 4, 1, 9, 6, 3, 1, "valid"),    # row-shifted GEMMs on the rows of x
])
def test_conv2d_row_tiles_match_loop_oracle(monkeypatch, dtype, tol, B, Cin,
                                            Cout, H, W, kh, kw, padding):
    rng = np.random.default_rng(24)
    x = rng.standard_normal((B, Cin, H, W)).astype(dtype)
    w = rng.standard_normal((Cout, Cin, kh, kw)).astype(dtype)
    b = rng.standard_normal(Cout).astype(dtype)
    pad = (kh - 1) // 2 if padding == "same" else 0
    want = conv2d_loops(x, w, b, pad=pad)
    Wo = want.shape[3]
    column_row = Cin * kh * kw * B * Wo * x.itemsize  # one output row's columns
    r = rng.standard_normal(want.shape).astype(dtype)
    want_gx = conv2d_input_grad_loops(r, w, pad)
    want_gw = conv2d_weight_grad_loops(x, r, kh, kw, pad)
    a = rng.standard_normal(want.shape).astype(dtype)   # the fused conv's addend
    pw = (kw - 1) // 2 if padding == "same" else 0
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)

    def transposed_conv(g):   # the input gradient, as the forward engine runs it
        return ivfuse.tensor._conv_forward(g, wflip, None, kh - 1 - pad, kw - 1 - pw)

    # the backward lowers Cout*kh*kw columns of g for each of x's H rows, and
    # both gradients run on those tiles
    grad_row = Cout * kh * kw * B * W * x.itemsize
    halo_row = (kh * Cin * kw + 2 * Cout) * B * Wo * x.itemsize
    # two rows per tile in the forward, and then in the backward (neither
    # divides the odd row counts); one output row with its kh - 1 halo rows
    # of horizontal taps and the product and output rows that sum the
    # kernel rows; one row per tile; and the default cap (every row in one
    # tile)
    for cap in (2 * column_row, 2 * grad_row, halo_row, 1,
                ivfuse.tensor.CONV_TILE_BYTES):
        monkeypatch.setattr(ivfuse.tensor, "CONV_TILE_BYTES", cap)
        xt, wt = Tensor(x), Tensor(w)
        out = conv2d(xt, wt, Tensor(b), padding=padding)
        got = out.data
        assert got.dtype == dtype
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=tol, atol=tol)
        backward((out * r).sum())
        assert xt.grad.dtype == dtype
        assert xt.grad.shape == x.shape
        assert np.allclose(xt.grad, want_gx, rtol=tol, atol=tol)
        assert wt.grad.dtype == dtype
        assert wt.grad.shape == w.shape
        assert np.allclose(wt.grad, want_gw, rtol=tol, atol=tol)
        assert np.array_equal(xt.grad, transposed_conv(r))
        # a trainable-weight conv on a constant input: the same lowering of
        # g without the input-gradient GEMMs, so the same weight gradient
        wc = Tensor(w)
        backward((conv2d(as_tensor(x), wc, Tensor(b), padding=padding) * r).sum())
        assert np.array_equal(wc.grad, wt.grad)
        # a fused add and ReLU: both gradients read the masked g
        xt, wt, at = Tensor(x), Tensor(w), Tensor(a)
        out = conv2d(xt, wt, Tensor(b), padding=padding, relu=True, add=at)
        assert np.allclose(out.data, np.maximum(want + a, 0), rtol=tol, atol=tol)
        backward((out * r).sum())
        g_masked = r * (out.data > 0)
        assert np.array_equal(xt.grad, transposed_conv(g_masked))
        assert np.allclose(xt.grad, conv2d_input_grad_loops(g_masked, w, pad),
                           rtol=tol, atol=tol)
        assert np.allclose(wt.grad, conv2d_weight_grad_loops(x, g_masked, kh, kw, pad),
                           rtol=tol, atol=tol)
        assert np.array_equal(at.grad, g_masked)


def test_conv2d_forward_scratch_stays_within_one_tile():
    # Beyond its output and the padded input, a forward keeps one column
    # buffer of at most CONV_TILE_BYTES and one product buffer; a fresh
    # tile per row block would hold two column tiles at once.
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((1, 64, 64, 64)).astype(np.float32))
    w = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32))
    b = Tensor(np.zeros(64, dtype=np.float32))
    out_bytes = x.data.nbytes
    padded_bytes = 64 * 66 * 66 * 4
    with no_grad():
        tracemalloc.start()
        try:
            out = conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.data.nbytes == out_bytes
    scratch = peak - out_bytes - padded_bytes
    assert scratch <= ivfuse.tensor.CONV_TILE_BYTES + (1 << 20), scratch


def test_conv2d_backward_scratch_stays_within_one_tile():
    # A backward lowers the output gradient a row tile at a time and runs
    # both gradients on each tile, so beyond the gradient arrays it keeps
    # about one tile of scratch. Lowering every tap of the whole padded
    # gradient at once would take 9 MiB more here.
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((1, 64, 64, 64)).astype(np.float32))
    w = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32))
    b = Tensor(np.zeros(64, dtype=np.float32))
    out = conv2d(x, w, b)
    loss = out.sum()
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = ivfuse.tensor.CONV_TILE_BYTES + 4 * out.data.nbytes + (1 << 20)
    assert peak <= bound, (peak, bound)


# every conv a fusion or a training step runs, as (Cout, Cin, kh, kw): the
# layers, the feedback taps conv and its input gradient's transposed conv
NETWORK_CONVS = sorted({spec[:4] for spec in LAYER_SPECS.values()}
                       | {(10, 1, 3, 3), (1, 10, 3, 3)})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [(160, 160), (37, 23)])
@pytest.mark.parametrize("shape", NETWORK_CONVS)
def test_conv2d_rows_do_not_depend_on_the_tile_cap_or_blas_threads(
        monkeypatch, set_blas_threads, shape, size, dtype):
    # OpenBLAS's gemv, which numpy calls for a one-row product, sums a
    # Cout=1 conv's rows differently with the product's width and thread
    # count (from 160x160 up, by up to 1.1e-5 in float32), and its small
    # GEMM kernels sum the last N mod 16 columns of an N-wide product unlike
    # the others (at 37x23, a tile of one row differs from one of all rows)
    rng = np.random.default_rng(sum(shape))
    x = Tensor(rng.standard_normal((1, shape[1]) + size).astype(dtype))
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    outs = []
    for threads in (1, 2):
        set_blas_threads(threads)
        for cap in (1, 1 << 20, 4 << 20, 1 << 40):
            monkeypatch.setattr(ivfuse.tensor, "CONV_TILE_BYTES", cap)
            with no_grad():
                outs.append(conv2d(x, w).data)
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_row_bands_past_the_core_count_keep_the_serial_bytes(monkeypatch):
    # five bands on two cores, each switching threads often, write disjoint
    # rows of one output with their own scratch: a band that wrote outside
    # its rows, or shared a buffer, would change bytes here
    monkeypatch.setattr(ivfuse.tensor, "CONV_TILE_BYTES", 1 << 16)
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((1, 16, 45, 37)).astype(np.float32))
    w = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32))
    b = Tensor(rng.standard_normal(16).astype(np.float32))
    add = Tensor(rng.standard_normal((1, 8, 45, 37)).astype(np.float32))
    live = threading.active_count()
    with no_grad():
        want = conv2d(x, w, b, relu=True, add=add).data
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                with ivfuse.tensor.row_bands(5):
                    got = conv2d(x, w, b, relu=True, add=add).data
                assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
    assert threading.active_count() == live


def test_conv2d_1x1_forward_makes_no_copies():
    # An unpadded 1-wide kernel needs neither a padded copy nor lowered
    # columns: its GEMMs read the input rows in place and write the output.
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, 64, 64, 64)).astype(np.float32))
    w = Tensor(rng.standard_normal((64, 64, 1, 1)).astype(np.float32))
    b = Tensor(np.zeros(64, dtype=np.float32))
    with no_grad():
        tracemalloc.start()
        try:
            out = conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    scratch = peak - out.data.nbytes
    assert scratch <= 64 << 10, scratch
    assert np.allclose(out.data, np.einsum("oc,bchw->bohw", w.data[:, :, 0, 0],
                                           x.data), rtol=1e-4, atol=1e-4)


def test_conv2d_is_linear():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    y = Tensor(rng.standard_normal((1, 2, 5, 5)))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    a, b = 1.7, -0.4
    lhs = conv2d(Tensor(a * x.data + b * y.data), w).data
    rhs = a * conv2d(x, w).data + b * conv2d(y, w).data
    assert np.allclose(lhs, rhs, rtol=1e-6)


def test_conv2d_channel_mismatch_rejected():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    w = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, w)


def test_conv2d_does_not_mutate_inputs():
    x = Tensor(rand((1, 2, 4, 4), 6))
    w = Tensor(rand((2, 2, 3, 3), 7))
    before = x.data.copy()
    conv2d(x, w)
    assert np.array_equal(x.data, before)


# ------------------------------------------------------------------ relu

def test_relu_definition():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(x.relu().data, [0.0, 0.0, 2.0])


def test_relu_all_negative():
    x = Tensor(-np.abs(rand((3, 4), 8)) - 0.1)
    assert np.all(x.relu().data == 0.0)


def test_relu_gradient_matches_finite_differences():
    x = Tensor(np.array([-1.0, 2.0]))
    loss = x.relu().sum()
    backward(loss)
    numeric = finite_diff_gradient(lambda t: t.relu().sum(), x)
    assert np.allclose(x.grad, [0.0, 1.0])
    assert np.allclose(x.grad, numeric, atol=1e-8)


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([0.0]))
    backward(x.relu().sum())
    assert x.grad[0] == 0.0


def _same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["random", "nan", "zero", "no_bias"])
def test_conv2d_fused_relu_matches_conv_then_relu_bitwise(dtype, case):
    # The fused op clamps the conv output in place and masks the gradient
    # by out > 0; both must equal a separate ReLU's, zero signs and NaN
    # included. Zero weights and bias make every pre-activation exactly 0.
    rng = np.random.default_rng(41)
    xs = rng.standard_normal((2, 3, 6, 5)).astype(dtype)
    ws = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    bs = rng.standard_normal(4).astype(dtype)
    if case == "nan":
        xs[1, 2, 3, 1] = np.nan
    if case == "zero":
        ws[...] = 0
        bs[...] = 0
    r = Tensor(rng.standard_normal((2, 4, 6, 5)).astype(dtype))
    results = []
    for fused in (False, True):
        x, w = Tensor(xs), Tensor(ws)
        b = None if case == "no_bias" else Tensor(bs)
        out = (conv2d(x, w, b, relu=True) if fused
               else conv2d(x, w, b).relu())
        backward((out * r).sum())
        results.append([out.data, x.grad, w.grad]
                       + ([] if b is None else [b.grad]))
    for separate, fused in zip(*results):
        assert _same_bits(fused, separate)


@pytest.mark.parametrize("bias", ["none", "constant", "leaf"])
@pytest.mark.parametrize("weights", ["constant", "leaf"])
def test_conv2d_holds_its_input_only_for_a_weight_gradient(weights, bias):
    # only the weight gradient reads the input, so with constant weights
    # (the SSIM windows, the decoder's tap filters) the adjoint keeps the
    # weights alone and a * b is freed once the caller drops it
    a = Tensor(rand((1, 1, 512, 512), 44).astype(np.float32))
    b = Tensor(rand((1, 1, 512, 512), 45).astype(np.float32))
    wdata = rand((1, 1, 3, 3), 46).astype(np.float32)
    w = as_tensor(wdata) if weights == "constant" else Tensor(wdata)
    bdata = np.full(1, 0.5, np.float32)
    bt = {"none": None, "constant": as_tensor(bdata), "leaf": Tensor(bdata)}[bias]
    nbytes = a.data.nbytes
    tracemalloc.start()
    try:
        y = conv2d(a * b, w, bt)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held_acts = 2.0 if weights == "leaf" else 1.0
    assert abs(held / nbytes - held_acts) < 0.05, held / nbytes
    backward(y.sum())
    x = Tensor(a.data * b.data)
    backward(conv2d(x, Tensor(wdata), Tensor(bdata)).sum())
    assert np.array_equal(a.grad, x.grad * b.data)
    if bias == "leaf":
        assert np.array_equal(bt.grad, np.full(1, 512 * 512, np.float32))


def test_conv2d_addend_feeding_four_consumers_gets_every_gradient():
    # As the decoder's c2 pre-activation does, one tensor is the addend of
    # three fused conv+add+ReLU ops and feeds a plain ReLU; one input feeds
    # the three convs. The fused adjoint masks its gradient in place, and
    # every gradient must match the unfused graph's.
    rng = np.random.default_rng(49)
    ys = rng.standard_normal((2, 3, 6, 5))
    xs = rng.standard_normal((2, 4, 6, 5))
    ws = [rng.standard_normal((3, c, 3, 3)) for c in (3, 4, 4, 4)]
    b0 = rng.standard_normal(3)
    rs = [rng.standard_normal((2, 3, 6, 5)) for _ in range(4)]
    results = []
    for fused in (True, False):
        y, x, b = Tensor(ys), Tensor(xs), Tensor(b0)
        w = [Tensor(v) for v in ws]
        a = conv2d(y, w[0], b)
        outs = [a.relu()] + [
            conv2d(x, wk, add=a, relu=True) if fused
            else (conv2d(x, wk) + a).relu() for wk in w[1:]]
        loss = sum(((o * r).sum() for o, r in zip(outs, rs)), as_tensor(0.0))
        backward(loss)
        results.append([o.data for o in outs]
                       + [y.grad, x.grad, b.grad] + [wk.grad for wk in w])
    for fused, separate in zip(*results):
        np.testing.assert_allclose(fused, separate, rtol=1e-12, atol=1e-14)
    assert np.abs(results[0][5]).max() > 0   # x's gradient is not all masked


def test_conv2d_rejects_a_misshapen_addend():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ShapeError, match=r"addend must be \(1, 3, 4, 4\)"):
        conv2d(x, w, add=Tensor(np.zeros((1, 3, 4, 5))))


def test_conv2d_grouped_addend_values_and_gradient():
    # a 2-channel addend goes once into each of the output's 3 groups of 2
    for dtype in (np.float32, np.float64):
        x = Tensor(rand((2, 3, 5, 4), 14).astype(dtype))
        w = Tensor(rand((6, 3, 3, 3), 15).astype(dtype))
        b = Tensor(rand((6,), 16).astype(dtype))
        s = Tensor(rand((2, 2, 5, 4), 35).astype(dtype))
        m = rand((2, 6, 5, 4), 42).astype(dtype)
        t = conv2d(x, w, b, add=s)
        assert t.dtype == dtype
        backward((t * Tensor(m)).sum())
        assert np.array_equal(s.grad, m[:, 0:2] + m[:, 2:4] + m[:, 4:6])
        grads = [x.grad, w.grad, b.grad]
        conv = conv2d(x, w, b)
        assert np.array_equal(t.data, conv.data + np.tile(s.data, (1, 3, 1, 1)))
        backward((conv * Tensor(m)).sum())   # the conv's own gradients
        for got, want in zip(grads, [x.grad, w.grad, b.grad]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("add_shape", [
    (1, 4, 4, 4),   # 4 channels do not divide the output's 6
    (2, 2, 4, 4),
    (1, 2, 4, 3),
    (2, 4, 4),
])
def test_conv2d_rejects_an_addend_that_does_not_tile_the_output(add_shape):
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((6, 2, 3, 3)))
    with pytest.raises(ShapeError, match=r"addend must be \(1, 6, 4, 4\)"):
        conv2d(x, w, add=Tensor(np.zeros(add_shape)))


@pytest.mark.parametrize("channels", [4, 2], ids=["full", "grouped"])
def test_conv2d_holds_no_addend_the_caller_dropped(channels):
    # the adjoint keeps only the addend's group count, so a skip that the
    # caller drops is freed although the graph still records the conv
    x = Tensor(rand((1, 2, 6, 6), 50))
    w = Tensor(rand((4, 2, 3, 3), 51))
    s = Tensor(rand((1, channels, 6, 6), 52))
    skip = s * 2.0   # an intermediate whose own adjoint reads only the 2
    freed = weakref.ref(skip.data)
    out = conv2d(x, w, add=skip)
    del skip
    assert freed() is None
    backward(out.sum())
    assert np.array_equal(s.grad, np.full(s.shape, 2.0 * 4 // channels))


# ---------------------------------------------------------------- concat

def test_concat_single_part_identity():
    x = Tensor(rand((1, 3, 4, 4), 9))
    out = concat_channels([x])
    assert np.array_equal(out.data, x.data)


def test_concat_16x4_gives_64_channels():
    parts = [Tensor(rand((2, 16, 3, 3), s)) for s in range(4)]
    assert concat_channels(parts).shape == (2, 64, 3, 3)


def test_concat_gradient_is_ones_on_every_part():
    parts = [Tensor(rand((1, c, 2, 2), 10 + c)) for c in (1, 2, 3)]
    backward(concat_channels(parts).sum())
    for p in parts:
        assert np.array_equal(p.grad, np.ones_like(p.data))
        numeric = finite_diff_gradient(
            lambda t, p=p: concat_channels(
                [t if q is p else q for q in parts]).sum(), p)
        assert np.allclose(p.grad, numeric, atol=1e-7)


def test_concat_of_adjacent_slices_is_a_view_with_the_copys_gradients():
    base = rand((2, 9, 3, 4), 11)
    bounds = [(1, 3), (3, 4), (4, 8)]
    views = [Tensor(base[:, c0:c1]) for c0, c1 in bounds]
    copies = [Tensor(base[:, c0:c1].copy()) for c0, c1 in bounds]
    r = rand((2, 7, 3, 4), 12)
    shared, copied = concat_channels(views), concat_channels(copies)
    assert np.shares_memory(shared.data, base)
    assert not np.shares_memory(copied.data, base)
    assert np.array_equal(shared.data, copied.data)
    backward((shared * r).sum())
    backward((copied * r).sum())
    for v, c in zip(views, copies):
        assert np.array_equal(v.grad, c.grad)


@pytest.mark.parametrize("case", ["reversed", "other array", "gap",
                                  "batch slice", "strided"])
def test_concat_copies_parts_that_do_not_tile_one_slice(case):
    base, other = rand((2, 8, 3, 3), 13), rand((2, 8, 3, 3), 14)
    parts = {"reversed": [base[:, 2:4], base[:, 0:2]],
             "other array": [base[:, 0:2], other[:, 2:4]],
             "gap": [base[:, 0:2], base[:, 3:5]],
             "batch slice": [base[:1, 0:2], base[:1, 2:4]],
             "strided": [base[:, 0:2, ::2], base[:, 2:4, ::2]]}[case]
    out = concat_channels([Tensor(p) for p in parts])
    assert not np.shares_memory(out.data, base)
    assert np.array_equal(out.data, np.concatenate(parts, axis=1))


def test_conv2d_writes_into_a_given_slice():
    x, w, b = rand((2, 3, 5, 4), 15), rand((4, 3, 3, 3), 16), rand(4, 17)
    buf = np.zeros((2, 9, 5, 4))
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), relu=True,
                 add=Tensor(rand((2, 2, 5, 4), 18)), out=buf[:, 3:7])
    assert np.shares_memory(out.data, buf)
    assert not buf[:, :3].any() and not buf[:, 7:].any()
    assert np.array_equal(buf[:, 3:7], conv2d(
        Tensor(x), Tensor(w), Tensor(b), relu=True,
        add=Tensor(rand((2, 2, 5, 4), 18))).data)
    with pytest.raises(ShapeError, match="out must be"):
        conv2d(Tensor(x), Tensor(w), out=buf[:, :3])
    with pytest.raises(ShapeError, match="out must be"):
        conv2d(Tensor(x), Tensor(w), out=buf[:, :4].astype(np.float32))


def test_concat_mismatched_spatial_rejected():
    a = Tensor(np.zeros((1, 2, 3, 3)))
    b = Tensor(np.zeros((1, 2, 4, 3)))
    with pytest.raises(ShapeError):
        concat_channels([a, b])
    # the first part is checked too, also when it is the only one
    with pytest.raises(ShapeError, match=r"4-d.*\(2, 3, 4\)"):
        concat_channels([Tensor(np.zeros((2, 3, 4)))])
    with pytest.raises(ShapeError, match=r"4-d.*\(5,\)"):
        concat_channels([Tensor(np.zeros(5))])


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_concat_then_slice_roundtrip(widths, seed):
    rng = np.random.default_rng(seed)
    parts = [Tensor(rng.standard_normal((1, c, 3, 2))) for c in widths]
    whole = concat_channels(parts)
    c0 = 0
    for p in parts:
        c1 = c0 + p.shape[1]
        assert np.array_equal(narrow(whole, 1, c0, c1).data, p.data)
        c0 = c1


# ----------------------------------------------------- elementwise suite

def test_add_zeros_identity():
    x = Tensor(rand((3, 3), 11))
    out = x + Tensor(np.zeros((3, 3)))
    assert np.array_equal(out.data, x.data)


def test_mean_2x2():
    assert Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])).mean().item() == 2.5


def test_grad_sum_square():
    x = Tensor(np.array([3.0]))
    backward(x.square().sum())
    assert np.allclose(x.grad, [6.0])
    numeric = finite_diff_gradient(lambda t: t.square().sum(), x)
    assert np.allclose(x.grad, numeric, atol=1e-7)


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        Tensor(np.array([-1.0])).sqrt()


def test_elementwise_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2))) + Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2))) * Tensor(np.zeros(4))
    # only a constant broadcasts: a rank-0 leaf must match like any operand
    with pytest.raises(ShapeError):
        Tensor(np.zeros(())) + Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2))) * Tensor(np.zeros(()))


def test_scalar_broadcast_allowed():
    x = Tensor(rand((2, 3), 12))
    assert np.allclose((x * 2.0).data, 2.0 * x.data)
    assert np.allclose((x + 1.5).data, x.data + 1.5)
    assert np.allclose((1.0 / (x + 3.0)).data, 1.0 / (x.data + 3.0))
    # a rank-0 array is a constant too, on either side
    assert np.array_equal((x * np.array(2.0)).data, 2.0 * x.data)
    assert np.array_equal((as_tensor(np.array(1.5)) - x).data, 1.5 - x.data)
    backward((x * np.array(2.0) - np.array(1.0)).sum())
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_sqrt_guarded_adjoint_at_zero_is_finite():
    x = Tensor(np.array([0.0, 4.0]))
    backward(x.sqrt().sum())
    assert np.all(np.isfinite(x.grad))
    assert np.isclose(x.grad[1], 0.25)


# ------------------------------------------------------ narrow and tile

def test_narrow_and_gradient_scatter():
    x = Tensor(rand((1, 4, 3, 3), 13))
    sl = narrow(x, 1, 1, 3)
    assert np.array_equal(sl.data, x.data[:, 1:3])
    backward(sl.sum())
    want = np.zeros_like(x.data)
    want[:, 1:3] = 1.0
    assert np.array_equal(x.grad, want)


# -------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = Tensor(rand((2, 3, 4), 15))
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_backward_mean_square_closed_form():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((3, 4)))
    c = rng.standard_normal((3, 4))
    loss = (x - Tensor(c)).square().mean()
    backward(loss)
    closed = 2.0 * (x.data - c) / x.size
    assert np.allclose(x.grad, closed, rtol=1e-12)
    numeric = finite_diff_gradient(
        lambda t: (t - Tensor(c)).square().mean(), x)
    assert np.allclose(x.grad, numeric, atol=1e-8)


def test_backward_requires_rank0_loss():
    x = Tensor(rand((2, 2), 17))
    with pytest.raises(ShapeError):
        backward(x + x)


def test_backward_rejects_a_loss_without_a_graph():
    # a constant loss reaches no parameter, so backward would leave every
    # grad as the previous step set it; it must not touch the loss either,
    # which would turn the constant into a leaf
    w = Tensor(rand((2, 2), 18))
    backward((w * w).sum())
    before = w.grad.copy()
    k = as_tensor(3.0)
    with no_grad():
        frozen = (w * w).sum()
    for loss in (k, frozen, as_tensor(np.ones(3)).sum()):
        with pytest.raises(ValueError, match="constant.*no_grad"):
            backward(loss)
        assert loss.grad is None
    assert np.array_equal(w.grad, before)
    leaf = Tensor(2.0)   # a rank-0 leaf is its own loss, with gradient 1
    backward(leaf)
    assert leaf.grad == 1.0


def test_backward_repeat_is_bitwise_identical():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)))
    loss = conv2d(x, w).relu().square().mean()
    backward(loss)
    gx, gw = x.grad.copy(), w.grad.copy()
    backward(loss)
    assert np.array_equal(x.grad, gx)
    assert np.array_equal(w.grad, gw)


def test_dead_branch_gradient_exactly_zero():
    x = Tensor(rand((2, 2), 19))
    y = Tensor(rand((2, 2), 20))
    dead = x * y  # never feeds the loss
    backward(x.sum())
    assert np.array_equal(y.grad, np.zeros_like(y.data))
    assert dead is not None


def test_gradient_accumulates_over_consumers():
    x = Tensor(np.array([2.0]))
    loss = (x * 3.0 + x.square()).sum()
    backward(loss)
    assert np.allclose(x.grad, [3.0 + 2.0 * 2.0])


# ------------------------------------------------ no_grad, lazy grads

def _every_op(x, w):
    y = conv2d(x, w).relu()
    z = concat_channels([y, conv2d(y, w, relu=True, add=narrow(y, 1, 0, 1))])
    return (z.square().sqrt().abs() * 2.0 - z / 3.0).reshape((-1,)).mean()


def test_no_grad_records_no_graph():
    x = Tensor(rand((1, 2, 4, 4), 25))
    w = Tensor(rand((2, 2, 3, 3), 26))
    with no_grad():
        y = conv2d(x, w).relu()
        z = concat_channels([y, conv2d(y, w, relu=True, add=narrow(y, 1, 0, 1))])
        outs = [y, z, z.square(), z.sqrt(), z.abs(), z + 1.0, z - z, z * z,
                z / 2.0, z.sum(axis=1), z.mean(), z.reshape((-1,))]
    for out in outs:
        assert out._node is None
        assert out._backward is None
    # the same ops record again once the block is left
    assert _every_op(x, w)._backward is not None


def test_no_grad_values_match_recorded_values():
    x = Tensor(rand((1, 2, 4, 4), 27))
    w = Tensor(rand((2, 2, 3, 3), 28))
    with no_grad():
        quiet = _every_op(x, w).item()
    assert quiet == _every_op(x, w).item()


def test_no_grad_nests_and_restores_after_exception():
    x = Tensor(rand((2, 2), 29))
    with no_grad():
        with no_grad():
            assert (x * 2.0)._backward is None
        assert (x * 2.0)._backward is None
    assert (x * 2.0)._backward is not None
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert (x * 2.0)._node._parents == (x,)


def test_no_grad_is_per_thread():
    x = Tensor(rand((2, 2), 34))
    seen = []
    worker = threading.Thread(target=lambda: seen.append((x * 2.0)._backward))
    with no_grad():
        worker.start()
        worker.join()
    assert seen[0] is not None


def test_constants_have_no_gradient_and_ops_on_them_no_node():
    # as_tensor of an array and a tensor built under no_grad are constants:
    # no gradient and no node, and an op whose inputs are all constants
    # records nothing
    c = as_tensor(rand((1, 2, 4, 4), 49))
    with no_grad():
        k = Tensor(rand((2, 2, 3, 3), 50))
    assert c.grad is None and c._node is None
    assert k.grad is None and k._node is None
    for out in (c * 2.0, c - c, 1.0 / (c + 3.0), conv2d(c, k, relu=True),
                concat_channels([c, c]).mean(axis=1), narrow(c, 1, 0, 1)):
        assert out._node is None and out.grad is None
    # next to a leaf, a constant gets no parent slot and no gradient
    x = Tensor(rand((1, 2, 4, 4), 51))
    y = x * c
    assert y._node._parents == (x,)
    backward(conv2d(y, k).sum())
    assert c.grad is None and k.grad is None
    assert x.grad.shape == x.shape


def test_backward_of_a_conv_on_a_constant_input_lowers_once(monkeypatch):
    # backward lowers only g, once, for both gradients: a constant x skips
    # the input-gradient GEMMs, and its weight gradient is the leaf-input one
    lowered = []
    row_tiles = ivfuse.tensor._row_tiles

    def counted(*args):
        lowered.append(args[0].shape)
        return row_tiles(*args)

    monkeypatch.setattr(ivfuse.tensor, "_row_tiles", counted)
    x = rand((2, 3, 6, 6), 52)
    grads = []
    for make in (as_tensor, Tensor):
        w = Tensor(rand((4, 3, 3, 3), 53))
        b = Tensor(rand((4,), 54))
        loss = conv2d(make(x), w, b, relu=True).sum()
        lowered.clear()
        backward(loss)
        grads.append((len(lowered), w.grad, b.grad))
    (n_constant, gw, gb), (n_leaf, gw_leaf, gb_leaf) = grads
    assert (n_constant, n_leaf) == (1, 1)
    assert np.array_equal(gw, gw_leaf) and np.array_equal(gb, gb_leaf)


def test_op_output_grad_is_none_before_and_after_backward():
    x = Tensor(rand((1, 2, 4, 4), 30))
    w = Tensor(rand((2, 2, 3, 3), 31))
    y = conv2d(x, w)
    loss = y.relu().sum()
    assert y.grad is None and loss.grad is None
    assert np.array_equal(x.grad, np.zeros_like(x.data))  # leaves keep zeros
    backward(loss)
    assert y.grad is None and loss.grad is None
    assert x.grad.shape == x.shape and x.grad.dtype == x.dtype
    assert w.grad.shape == w.shape and w.grad.dtype == w.dtype


def test_first_gradient_write_owns_its_array():
    # concat passes slices of its gradient, reshape a view, and x + x the
    # same array to both operands; every leaf must get an array of its own
    a = Tensor(rand((1, 2, 3, 3), 32))
    b = Tensor(rand((1, 1, 3, 3), 33))
    c = Tensor(rand((3, 9), 36))
    x = Tensor(rand((1, 3, 3, 3), 37))
    m = rand((1, 3, 3, 3), 38)
    whole = concat_channels([a, b]) + c.reshape((1, 3, 3, 3)) + (x + x)
    backward((whole * Tensor(m)).sum())
    grads = [a.grad, b.grad, c.grad, x.grad]
    for i, g in enumerate(grads):
        assert g.flags.owndata
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)
    assert np.array_equal(a.grad, m[:, :2])
    assert np.array_equal(b.grad, m[:, 2:])
    assert np.array_equal(c.grad, m.reshape(3, 9))
    assert np.array_equal(x.grad, 2.0 * m)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_gradient_write_turns_negative_zero_positive(dtype):
    # _accumulate's first write adds 0, so an adjoint of -0.0 lands in the
    # leaf as +0.0, exactly as accumulating it into zeros would
    x = Tensor(rand((2, 3), 40).astype(dtype))
    backward((x * -0.0).sum())
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, np.zeros((2, 3)))
    assert not np.signbit(x.grad).any()


def test_backward_drops_each_adjoint_once_passed_on():
    # An op output's adjoint is freed as soon as its closure has passed it
    # on, so a chain keeps a few activation-sized arrays alive during the
    # backward, not one per op, and only the leaf holds a gradient after it.
    x = Tensor(rand((1, 8, 64, 64), 39))
    nbytes = x.data.nbytes
    outs, y = [], x
    for _ in range(16):
        scaled = y * 1.01
        y = scaled.relu()
        outs += [scaled, y]
    loss = y.sum()
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * nbytes, peak / nbytes
    assert all(t.grad is None for t in outs + [loss])
    assert x.grad.shape == x.shape


def test_forward_holds_no_value_that_no_adjoint_reads():
    # add's adjoint reads no values, nor does a conv's by constant weights
    # read its input or its addend, so an intermediate the caller has
    # dropped is freed although the graph still records its op
    x = Tensor(rand((1, 8, 64, 64), 41))
    c = Tensor(rand((1, 8, 64, 64), 42))
    s = Tensor(rand((1, 2, 64, 64), 43))
    identity = as_tensor(np.eye(8).reshape(8, 8, 1, 1))
    nbytes = x.data.nbytes
    tracemalloc.start()
    try:
        y = x
        for _ in range(16):
            y = conv2d(y + c, identity, add=s)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 3 * nbytes, held / nbytes
    backward(y.sum())
    assert np.array_equal(x.grad, np.ones_like(x.data))
    assert np.array_equal(c.grad, np.full_like(c.data, 16.0))
    assert np.array_equal(s.grad, np.full_like(s.data, 64.0))


@pytest.mark.parametrize("op, held_acts, grad_a", [
    (lambda y, c: y * 2.0, 1, lambda b, c: 2.0 * b),
    (lambda y, c: y / 2.0, 1, lambda b, c: 0.5 * b),
    (lambda y, c: -y, 1, lambda b, c: -b),
    (lambda y, c: y + 2.0, 1, lambda b, c: b),
    (lambda y, c: 2.0 / y, 2, None),   # its adjoint reads y
    (lambda y, c: y * c, 1, lambda b, c: c * b),
    (lambda y, c: y / c, 1, lambda b, c: (1.0 / c) * b),
    (lambda y, c: y - c, 1, lambda b, c: b),
], ids=["mul", "div", "neg", "add", "rdiv", "mul_array", "div_array",
        "sub_array"])
def test_scalar_operand_ops_hold_only_what_their_adjoint_reads(op, held_acts,
                                                               grad_a):
    # a scalar or an array operand is a constant, whose gradient is never
    # asked for: the adjoint reads only the constant, so the product a * b
    # is freed once the caller drops it
    a = Tensor(rand((512, 512), 44).astype(np.float32))
    b = Tensor(rand((512, 512), 45).astype(np.float32))
    c = rand((512, 512), 46, lo=0.5, hi=1.5).astype(np.float32)
    nbytes = a.data.nbytes
    tracemalloc.start()
    try:
        y = op(a * b, c)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(held / nbytes - held_acts) < 0.05, held / nbytes
    backward(y.sum())
    if grad_a is not None:
        assert np.array_equal(a.grad, grad_a(b.data, c))


def _every_op_kept(x, w, b, held):
    """A loss through every op; ``held`` gets each intermediate."""
    def keep(t):
        held.append(t)
        return t
    y = keep(conv2d(x, w, b, relu=True))
    tiled = keep(conv2d(y, w, add=keep(narrow(y, 1, 0, 1))))
    z = keep(conv2d(keep(narrow(keep(concat_channels([y, tiled])), 1, 1, 3)), w))
    u = keep(keep(keep(keep(z.relu()).square()).sqrt()).abs())
    v = keep(keep(keep(u * 2.0) - keep(z / 3.0)) * keep(1.0 - keep(z * z)))
    r = keep(keep(1.0 / keep(keep(v.square()) + 1.0)) + keep(v / keep(u + 2.0)))
    means = keep(keep(r.reshape((2, -1))).mean(axis=1))
    return keep(means.sum()) - keep(keep(z.sum(axis=(2, 3))).mean())


def test_backward_reads_nothing_the_caller_dropped():
    # every adjoint keeps what it reads, so dropping every intermediate
    # before backward() gives the gradients of a run that holds them all
    grads = []
    for hold in (True, False):
        x = Tensor(rand((1, 2, 5, 5), 44))
        w = Tensor(rand((2, 2, 3, 3), 45))
        b = Tensor(rand((2,), 46))
        held = []
        loss = _every_op_kept(x, w, b, held)
        if not hold:
            held.clear()
        backward(loss)
        grads.append([x.grad, w.grad, b.grad])
    for kept, dropped in zip(*grads):
        assert np.array_equal(kept, dropped)


def test_backward_calls_the_closure_assigned_to_an_output():
    # tracers and deliberately broken adjoints wrap ``out._backward``
    x = Tensor(rand((1, 2, 4, 4), 47))
    w = Tensor(rand((3, 2, 3, 3), 48))
    out = conv2d(x, w, relu=True)
    inner = out._backward
    seen = []

    def wrapped(g):
        seen.append(g.shape)
        inner(g * 2.0)

    out._backward = wrapped
    assert out._backward is wrapped
    backward(out.sum())
    assert seen == [out.shape]
    doubled = x.grad.copy()
    backward(conv2d(x, w, relu=True).sum())
    assert np.array_equal(doubled, 2.0 * x.grad)


# ------------------------------------------------- finite_diff_gradient

def test_finite_diff_sum_is_ones():
    x = Tensor(rand((2, 3), 21))
    g = finite_diff_gradient(lambda t: t.sum(), x)
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_square_at_3():
    x = Tensor(np.array([3.0]))
    g = finite_diff_gradient(lambda t: t.square().sum(), x, h=1e-5)
    assert abs(g[0] - 6.0) < 1e-8


def test_finite_diff_rejects_bad_step():
    for h in (0.0, -1e-5, np.nan, np.inf):   # a NaN step used to pass
        with pytest.raises(ValueError, match="finite and > 0"):
            finite_diff_gradient(lambda t: t.sum(), Tensor(np.zeros(2)), h=h)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_forward_ops_keep_finite_inputs_finite(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-10, 10, size=(1, 2, 4, 4)))
    w = Tensor(rng.uniform(-2, 2, size=(3, 2, 3, 3)))
    y = conv2d(x, w).relu()
    z = (y.square() + 1.0).sqrt() * 0.5 + y.abs()
    out = concat_channels([z, y, conv2d(narrow(y, 1, 0, 2), w,
                                        add=narrow(z, 1, 0, 1))])
    assert np.all(np.isfinite(out.data))
    assert np.isfinite(out.mean().item())


def test_dtype_flag_float32_and_float64_same_path():
    for dtype in (np.float32, np.float64):
        x = Tensor(rand((1, 1, 4, 4), 22).astype(dtype))
        w = Tensor(rand((2, 1, 3, 3), 23).astype(dtype))
        out = conv2d(x, w)
        assert out.dtype == dtype
        backward(out.square().mean())
        assert x.grad.dtype == dtype
