import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivfuse.tensor
from ivfuse.errors import DomainError, ShapeError
from ivfuse.tensor import (Tensor, backward, concat_channels, conv2d,
                           finite_diff_gradient, narrow, no_grad,
                           tile_channels)
from oracles import conv2d_input_grad_loops, conv2d_loops


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
    # the input gradient lowers Cout*kh*kw columns for each of the H rows
    grad_row = Cout * kh * kw * B * W * x.itemsize
    # two rows per tile in the forward and then in the input gradient
    # (neither divides the odd row counts), one row per tile, and the
    # default cap (every row in one tile)
    for cap in (2 * column_row, 2 * grad_row, 1,
                ivfuse.tensor.CONV_TILE_BYTES):
        monkeypatch.setattr(ivfuse.tensor, "CONV_TILE_BYTES", cap)
        xt = Tensor(x)
        out = conv2d(xt, Tensor(w), Tensor(b), padding=padding)
        got = out.data
        assert got.dtype == dtype
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=tol, atol=tol)
        backward((out * r).sum())
        assert xt.grad.dtype == dtype
        assert xt.grad.shape == x.shape
        assert np.allclose(xt.grad, want_gx, rtol=tol, atol=tol)


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


def test_concat_mismatched_spatial_rejected():
    a = Tensor(np.zeros((1, 2, 3, 3)))
    b = Tensor(np.zeros((1, 2, 4, 3)))
    with pytest.raises(ShapeError):
        concat_channels([a, b])


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


def test_scalar_broadcast_allowed():
    x = Tensor(rand((2, 3), 12))
    assert np.allclose((x * 2.0).data, 2.0 * x.data)
    assert np.allclose((x + 1.5).data, x.data + 1.5)
    assert np.allclose((1.0 / (x + 3.0)).data, 1.0 / (x.data + 3.0))


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


def test_tile_channels_values_and_gradient():
    x = Tensor(rand((1, 2, 2, 2), 14))
    t = tile_channels(x, 3)
    assert t.shape == (1, 6, 2, 2)
    for k in range(3):
        assert np.array_equal(t.data[:, 2 * k:2 * k + 2], x.data)
    backward(t.sum())
    assert np.array_equal(x.grad, np.full_like(x.data, 3.0))


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
    z = concat_channels([y, tile_channels(narrow(y, 1, 0, 1), 2)])
    return (z.square().sqrt().abs() * 2.0 - z / 3.0).reshape((-1,)).mean()


def test_no_grad_records_no_graph():
    x = Tensor(rand((1, 2, 4, 4), 25))
    w = Tensor(rand((2, 2, 3, 3), 26))
    with no_grad():
        y = conv2d(x, w).relu()
        z = concat_channels([y, tile_channels(narrow(y, 1, 0, 1), 2)])
        outs = [y, z, z.square(), z.sqrt(), z.abs(), z + 1.0, z - z, z * z,
                z / 2.0, z.sum(axis=1), z.mean(), z.reshape((-1,))]
    for out in outs:
        assert out._parents == ()
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
    assert (x * 2.0)._parents == (x,)


def test_no_grad_is_per_thread():
    x = Tensor(rand((2, 2), 34))
    seen = []
    worker = threading.Thread(target=lambda: seen.append((x * 2.0)._backward))
    with no_grad():
        worker.start()
        worker.join()
    assert seen[0] is not None


def test_op_output_grad_is_none_until_backward():
    x = Tensor(rand((1, 2, 4, 4), 30))
    w = Tensor(rand((2, 2, 3, 3), 31))
    y = conv2d(x, w)
    loss = y.relu().sum()
    assert y.grad is None and loss.grad is None
    assert np.array_equal(x.grad, np.zeros_like(x.data))  # leaves keep zeros
    backward(loss)
    assert y.grad.shape == y.shape and y.grad.dtype == y.dtype


def test_first_gradient_write_owns_its_array():
    # concat passes slices of its gradient, reshape passes a view
    x = Tensor(rand((1, 2, 3, 3), 32))
    a, b = x * 1.0, x * 2.0
    whole = concat_channels([a, b])
    flat = whole.reshape((-1,))
    backward((flat * Tensor(rand(flat.shape, 33))).sum())
    assert not np.shares_memory(a.grad, whole.grad)
    assert not np.shares_memory(b.grad, whole.grad)
    assert not np.shares_memory(whole.grad, flat.grad)
    assert np.array_equal(a.grad, whole.grad[:, :2])


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
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda t: t.sum(), Tensor(np.zeros(2)), h=0.0)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_forward_ops_keep_finite_inputs_finite(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-10, 10, size=(1, 2, 4, 4)))
    w = Tensor(rng.uniform(-2, 2, size=(3, 2, 3, 3)))
    y = conv2d(x, w).relu()
    z = (y.square() + 1.0).sqrt() * 0.5 + y.abs()
    out = concat_channels([z, y, tile_channels(narrow(z, 1, 0, 1), 3)])
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
