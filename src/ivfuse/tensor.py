"""Dense tensors with reverse-mode automatic differentiation.

Just enough operations for the fusion network and its losses: 2-D
convolution, ReLU, channel concatenation, axis slicing, channel tiling,
reshaping, elementwise arithmetic, square root, and sum and mean over all
or some axes. Tensors are float32 for training and float64 for gradient
checking; the code path is identical, only the dtype differs.

Values are immutable by convention: no operation writes into its inputs,
so tensors can be shared freely. The optimizer mutates parameter ``data``
in place between graph builds, which is safe because every step records a
fresh graph.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError

# Guard for the sqrt adjoint: d sqrt(x)/dx = 1/(2 max(sqrt(x), eps)). The
# average-gradient loss takes sqrt of sums of squared differences that are
# exactly zero on flat image regions; the unguarded adjoint would be inf.
SQRT_GRAD_EPS = 1e-12

Scalar = (int, float, np.integer, np.floating)


class Tensor:
    """An n-d float array plus the bookkeeping reverse mode needs.

    ``grad`` starts as zeros and is filled by :func:`backward`; nodes that
    do not lie on a path to the loss therefore report exactly zero.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = np.zeros_like(arr)
        self._parents = _parents
        self._backward = _backward

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
        out = Tensor(np.maximum(self.data, 0), _parents=(self,))

        def backward(g):
            self.grad += g * (self.data > 0)

        out._backward = backward
        return out

    def square(self):
        out = Tensor(self.data * self.data, _parents=(self,))

        def backward(g):
            self.grad += g * (2.0 * self.data)

        out._backward = backward
        return out

    def sqrt(self):
        if np.any(self.data < 0):
            raise DomainError("sqrt of a negative value")
        root = np.sqrt(self.data)
        out = Tensor(root, _parents=(self,))

        def backward(g):
            self.grad += g / (2.0 * np.maximum(root, SQRT_GRAD_EPS))

        out._backward = backward
        return out

    def abs(self):
        """|x|; the subgradient at x == 0 is 0."""
        out = Tensor(np.abs(self.data), _parents=(self,))

        def backward(g):
            self.grad += g * np.sign(self.data)

        out._backward = backward
        return out

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        """Sum over ``axis`` (an int or a tuple of ints), or over everything."""
        out = Tensor(np.sum(self.data, axis=axis), _parents=(self,))

        def backward(g):
            self.grad += g if axis is None else np.expand_dims(g, axis)

        out._backward = backward
        return out

    def mean(self, axis=None):
        """Mean over ``axis`` (an int or a tuple of ints), or over everything."""
        out = Tensor(np.mean(self.data, axis=axis), _parents=(self,))
        n = self.data.size // out.data.size

        def backward(g):
            self.grad += (g if axis is None else np.expand_dims(g, axis)) / n

        out._backward = backward
        return out

    def reshape(self, shape):
        out = Tensor(self.data.reshape(shape), _parents=(self,))

        def backward(g):
            self.grad += g.reshape(self.data.shape)

        out._backward = backward
        return out

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
    out = Tensor(fwd(a.data, bdata), _parents=parents)

    def backward(g):
        ga = grad_a(g, a.data, bdata)
        a.grad += _reduce_to(ga, a.shape)
        if not scalar_rhs:
            gb = grad_b(g, a.data, bdata)
            b.grad += _reduce_to(gb, b.shape)

    out._backward = backward
    return out


def _reduce_to(g, shape):
    """Collapse a gradient onto a rank-0 operand; identity otherwise."""
    if shape == () and np.ndim(g) != 0:
        return np.sum(g)
    return g


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
    out_data = np.einsum("bchwuv,ocuv->bohw", cols, w.data, optimize=True)
    if b is not None:
        out_data = out_data + b.data.reshape(1, Cout, 1, 1)
    parents = (x, w) if b is None else (x, w, b)
    out = Tensor(np.ascontiguousarray(out_data), _parents=parents)

    def backward(g):
        if b is not None:
            b.grad += g.sum(axis=(0, 2, 3))
        w.grad += np.einsum("bohw,bchwuv->ocuv", g, cols, optimize=True)
        # Input gradient: correlate the (re)padded output gradient with the
        # spatially flipped kernel, swapping the channel roles.
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1 - ph,) * 2, (kw - 1 - pw,) * 2))
        gcols = sliding_window_view(gp, (kh, kw), axis=(2, 3))
        wflip = w.data[:, :, ::-1, ::-1]
        x.grad += np.einsum("bohwuv,ocuv->bchw", gcols, wflip, optimize=True)

    out._backward = backward
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
    out = Tensor(np.concatenate([p.data for p in parts], axis=1),
                 _parents=tuple(parts))
    widths = [p.shape[1] for p in parts]

    def backward(g):
        c0 = 0
        for p, width in zip(parts, widths):
            p.grad += g[:, c0:c0 + width]
            c0 += width

    out._backward = backward
    return out


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
    out = Tensor(x.data[index].copy(), _parents=(x,))

    def backward(g):
        scatter = np.zeros_like(x.data)
        scatter[index] = g
        x.grad += scatter

    out._backward = backward
    return out


def tile_channels(x: Tensor, reps: int) -> Tensor:
    """Repeat the channel axis ``reps`` times: (B, C, H, W) -> (B, reps*C, H, W)."""
    if x.data.ndim != 4:
        raise ShapeError(f"tile_channels input must be 4-d, got {x.shape}")
    B, C, H, W = x.shape
    out = Tensor(np.tile(x.data, (1, reps, 1, 1)), _parents=(x,))

    def backward(g):
        x.grad += g.reshape(B, reps, C, H, W).sum(axis=1)

    out._backward = backward
    return out


# -- reverse pass ----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every ancestor of ``loss`` with dloss/dvalue.

    The graph is replayed in reverse topological order, visiting each node
    once and accumulating over consumers. All reachable gradients are reset
    first, so repeated calls on the same graph give identical results.
    """
    if loss.data.shape != ():
        raise ShapeError(
            f"backward needs a rank-0 loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    for t in order:
        t.grad = np.zeros_like(t.data)
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
    perturbed copies, which makes it a fair oracle for backward().
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
        fp = _scalar_value(f(Tensor(plus)))
        fm = _scalar_value(f(Tensor(minus)))
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def _scalar_value(v) -> float:
    if isinstance(v, Tensor):
        return float(v.data)
    return float(v)
