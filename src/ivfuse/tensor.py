"""Dense tensors with reverse-mode automatic differentiation.

Just enough operations for the fusion network and its losses: 2-D
convolution, ReLU, channel concatenation, axis slicing, channel tiling,
reshaping, elementwise arithmetic, square root, and sum and mean over all
or some axes. Tensors are float32 for training and float64 for gradient
checking; the code path is identical, only the dtype differs.

Values are immutable by convention: no operation writes into its inputs,
so tensors can be shared freely. The optimizer mutates parameter ``data``
in place between graph builds, which is safe because every step records a
fresh graph. Inside :func:`no_grad` ops record no graph at all, which is
how inference runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError

# Guard for the sqrt adjoint: d sqrt(x)/dx = 1/(2 max(sqrt(x), eps)). The
# average-gradient loss takes sqrt of sums of squared differences that are
# exactly zero on flat image regions; the unguarded adjoint would be inf.
SQRT_GRAD_EPS = 1e-12

# Cap on the bytes of the one im2col column buffer that each conv2d forward
# and input gradient allocates and reuses. Rows of output are lowered into it
# and multiplied a block at a time, so the working set stays near this size
# however large the image is.
CONV_TILE_BYTES = 4 << 20

Scalar = (int, float, np.integer, np.floating)


class _GradMode(threading.local):
    recording = True   # every thread starts out recording


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph inside the block (in the calling thread).

    Ops return plain results: no parents and no backward closure are
    recorded, so each intermediate is freed as soon as its consumers have
    run. Nests, and restores the previous state on exit, also when the
    block raises.
    """
    previous = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = previous


class Tensor:
    """An n-d float array plus the bookkeeping reverse mode needs.

    A leaf (a tensor built from data, such as a parameter) starts with a
    zero ``grad``, so a leaf that does not lie on a path to the loss
    reports exactly zero. An op output's ``grad`` is None until
    :func:`backward` first writes to it.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = np.zeros_like(arr) if _backward is None else None
        if _grad_mode.recording:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- elementwise arithmetic (identical shapes, or one true scalar) ----

    def __add__(self, other):
        return _binary(self, other, np.add,
                       lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract,
                       lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return as_tensor(other, dtype=self.dtype) - self

    def __mul__(self, other):
        return _binary(self, other, np.multiply,
                       lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.divide,
                       lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))

    def __rtruediv__(self, other):
        return as_tensor(other, dtype=self.dtype) / self

    def __neg__(self):
        return self * -1.0

    def relu(self):
        """max(0, x); gradient passes where x > 0 and is zero at x == 0."""
        def backward(g):
            _accumulate(self, g * (self.data > 0))

        return Tensor(np.maximum(self.data, 0), _parents=(self,),
                      _backward=backward)

    def square(self):
        def backward(g):
            _accumulate(self, g * (2.0 * self.data))

        return Tensor(self.data * self.data, _parents=(self,),
                      _backward=backward)

    def sqrt(self):
        if np.any(self.data < 0):
            raise DomainError("sqrt of a negative value")
        root = np.sqrt(self.data)

        def backward(g):
            _accumulate(self, g / (2.0 * np.maximum(root, SQRT_GRAD_EPS)))

        return Tensor(root, _parents=(self,), _backward=backward)

    def abs(self):
        """|x|; the subgradient at x == 0 is 0."""
        def backward(g):
            _accumulate(self, g * np.sign(self.data))

        return Tensor(np.abs(self.data), _parents=(self,), _backward=backward)

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        """Sum over ``axis`` (an int or a tuple of ints), or over everything."""
        def backward(g):
            _accumulate(self, g if axis is None else np.expand_dims(g, axis))

        return Tensor(np.sum(self.data, axis=axis), _parents=(self,),
                      _backward=backward)

    def mean(self, axis=None):
        """Mean over ``axis`` (an int or a tuple of ints), or over everything."""
        data = np.mean(self.data, axis=axis)
        n = self.data.size // data.size

        def backward(g):
            _accumulate(self, (g if axis is None else np.expand_dims(g, axis)) / n)

        return Tensor(data, _parents=(self,), _backward=backward)

    def reshape(self, shape):
        def backward(g):
            _accumulate(self, g.reshape(self.data.shape))

        return Tensor(self.data.reshape(shape), _parents=(self,),
                      _backward=backward)

    def item(self):
        return float(self.data)

    def backward(self):
        backward(self)


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _binary(a: Tensor, other, fwd, grad_a, grad_b) -> Tensor:
    """Elementwise op on identical shapes; scalars broadcast, nothing else."""
    scalar_rhs = isinstance(other, Scalar)
    b = other if scalar_rhs else as_tensor(other, dtype=a.dtype)
    if not scalar_rhs and a.shape != b.shape and b.shape != () and a.shape != ():
        raise ShapeError(
            f"elementwise operands must share a shape, got {a.shape} and {b.shape}")
    bdata = b if scalar_rhs else b.data
    parents = (a,) if scalar_rhs else (a, b)

    def backward(g):
        _accumulate(a, _reduce_to(grad_a(g, a.data, bdata), a.shape))
        if not scalar_rhs:
            _accumulate(b, _reduce_to(grad_b(g, a.data, bdata), b.shape))

    return Tensor(fwd(a.data, bdata), _parents=parents, _backward=backward)


def _reduce_to(g, shape):
    """Collapse a gradient onto a rank-0 operand; identity otherwise."""
    if shape == () and np.ndim(g) != 0:
        return np.sum(g)
    return g


def _accumulate(t: Tensor, g) -> None:
    """Add ``g`` into ``t.grad``; the first write allocates ``t``'s own array.

    ``g`` may be a slice or a view of another tensor's gradient, so it is
    never stored as is. Adding 0 into a fresh array casts and broadcasts
    ``g`` to ``t`` exactly as accumulating it into zeros would, signed
    zeros included.
    """
    if t.grad is None:
        t.grad = np.add(g, 0, out=np.empty_like(t.data))
    else:
        t.grad += g


# -- structural operations -------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           padding: str = "same") -> Tensor:
    """2-D cross-correlation, stride 1.

    ``x`` is (B, Cin, H, W), ``w`` is (Cout, Cin, kh, kw), ``b`` is (Cout,)
    or None. ``padding="same"`` zero-pads so the spatial size is preserved
    (odd kernels only); ``"valid"`` keeps only fully covered windows.
    Differentiable with respect to all three arguments.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-d, got shape {x.shape}")
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d weights must be 4-d, got shape {w.shape}")
    B, Cin, H, W = x.shape
    Cout, Cin_w, kh, kw = w.shape
    if Cin != Cin_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {Cin}, weights expect {Cin_w}")
    if b is not None and b.shape != (Cout,):
        raise ShapeError(f"conv2d bias must be ({Cout},), got {b.shape}")
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError("same padding requires odd kernel sizes")
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    elif padding == "valid":
        if H < kh or W < kw:
            raise ShapeError(
                f"valid conv2d needs input at least {kh}x{kw}, got {H}x{W}")
        ph = pw = 0
    else:
        raise ValueError(f"unknown padding mode {padding!r}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if b is not None:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        _accumulate(w, np.einsum("bohw,bchwuv->ocuv", g, cols, optimize=True))
        # Input gradient: the conv forward of the (re)padded output gradient
        # with the spatially flipped kernel, swapping the channel roles.
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1 - ph,) * 2, (kw - 1 - pw,) * 2))
        gcols = sliding_window_view(gp, (kh, kw), axis=(2, 3))
        wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        _accumulate(x, _conv_forward(gcols, wflip, None))

    return Tensor(_conv_forward(cols, w.data, None if b is None else b.data),
                  _parents=parents, _backward=backward)


def _conv_forward(cols: np.ndarray, w: np.ndarray, b: np.ndarray | None
                  ) -> np.ndarray:
    """Row-tiled im2col GEMM over the (B, Cin, Ho, Wo, kh, kw) window view.

    Each block of output rows is lowered into one (Cin*kh*kw, B*rows*Wo)
    column buffer of at most ``CONV_TILE_BYTES`` and multiplied by the
    (Cout, Cin*kh*kw) weight matrix into one product buffer. Both buffers
    are allocated once per call and reused for every block, so the memory
    is not handed back to the allocator and faulted in again between
    blocks; the bias is added in place at the end.
    """
    B, Cin, Ho, Wo, kh, kw = cols.shape
    Cout = w.shape[0]
    k = Cin * kh * kw
    wmat = w.reshape(Cout, k)
    pdtype = np.result_type(cols, w)
    dtype = pdtype if b is None else np.result_type(pdtype, b)
    out = np.empty((B, Cout, Ho, Wo), dtype=dtype)
    rows = min(Ho, max(1, CONV_TILE_BYTES // (k * B * Wo * cols.itemsize)))
    colbuf = np.empty(k * B * rows * Wo, dtype=cols.dtype)
    prodbuf = np.empty(Cout * B * rows * Wo, dtype=pdtype)
    for r0 in range(0, Ho, rows):
        r = min(rows, Ho - r0)
        n = B * r * Wo
        tile = colbuf[:k * n].reshape(Cin, kh, kw, B, r, Wo)
        np.copyto(tile, cols[:, :, r0:r0 + r].transpose(1, 4, 5, 0, 2, 3))
        prod = np.matmul(wmat, tile.reshape(k, n),
                         out=prodbuf[:Cout * n].reshape(Cout, n))
        out[:, :, r0:r0 + r] = prod.reshape(Cout, B, r, Wo).swapaxes(0, 1)
    if b is not None:
        out += b.reshape(1, Cout, 1, 1)
    return out


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate (B, C_i, H, W) tensors along the channel axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels needs at least one part")
    first = parts[0].shape
    for p in parts[1:]:
        if p.data.ndim != 4 or p.shape[0] != first[0] or p.shape[2:] != first[2:]:
            raise ShapeError(
                f"concat_channels parts must share batch and spatial dims, "
                f"got {first} and {p.shape}")
    widths = [p.shape[1] for p in parts]

    def backward(g):
        c0 = 0
        for p, width in zip(parts, widths):
            _accumulate(p, g[:, c0:c0 + width])
            c0 += width

    return Tensor(np.concatenate([p.data for p in parts], axis=1),
                  _parents=tuple(parts), _backward=backward)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Slice ``x`` to [start, stop) along one axis (step 1)."""
    if not 0 <= axis < x.data.ndim:
        raise ShapeError(f"narrow axis {axis} out of range for shape {x.shape}")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError(
            f"narrow range [{start}, {stop}) invalid for axis of extent "
            f"{x.shape[axis]}")
    index = tuple(slice(start, stop) if d == axis else slice(None)
                  for d in range(x.data.ndim))

    def backward(g):
        scatter = np.zeros_like(x.data)
        scatter[index] = g
        _accumulate(x, scatter)

    return Tensor(x.data[index].copy(), _parents=(x,), _backward=backward)


def tile_channels(x: Tensor, reps: int) -> Tensor:
    """Repeat the channel axis ``reps`` times: (B, C, H, W) -> (B, reps*C, H, W)."""
    if x.data.ndim != 4:
        raise ShapeError(f"tile_channels input must be 4-d, got {x.shape}")
    B, C, H, W = x.shape

    def backward(g):
        _accumulate(x, g.reshape(B, reps, C, H, W).sum(axis=1))

    return Tensor(np.tile(x.data, (1, reps, 1, 1)), _parents=(x,),
                  _backward=backward)


# -- reverse pass ----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every ancestor of ``loss`` with dloss/dvalue.

    The graph is replayed in reverse topological order, visiting each node
    once and accumulating over consumers. All reachable gradients are reset
    first (leaves to zeros, op outputs to None until first written), so
    repeated calls on the same graph give identical results.
    """
    if loss.data.shape != ():
        raise ShapeError(
            f"backward needs a rank-0 loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    for t in order:
        t.grad = np.zeros_like(t.data) if t._backward is None else None
    loss.grad = np.ones_like(loss.data)
    for t in reversed(order):
        if t._backward is not None:
            t._backward(t.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS postorder; inputs always precede their consumers."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


# -- independent numeric oracle --------------------------------------------

def finite_diff_gradient(f: Callable[[Tensor], "Tensor | float"],
                         x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x, per element.

    Deliberately oblivious to the autodiff machinery: it re-evaluates f on
    perturbed copies, under :func:`no_grad`, which makes it a fair oracle
    for backward().
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    base = x.data
    grad = np.zeros(base.shape, dtype=np.float64)
    flat = grad.ravel()
    for i in range(base.size):
        plus = base.copy()
        plus.flat[i] += h
        minus = base.copy()
        minus.flat[i] -= h
        with no_grad():
            fp = _scalar_value(f(Tensor(plus)))
            fm = _scalar_value(f(Tensor(minus)))
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def _scalar_value(v) -> float:
    if isinstance(v, Tensor):
        return float(v.data)
    return float(v)
