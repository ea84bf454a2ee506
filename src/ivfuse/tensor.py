"""Dense tensors with reverse-mode automatic differentiation.

Just enough operations for the fusion network and its losses: 2-D
convolution (with a fused skip add, which may repeat a narrower tensor
along the channel axis, and an optional fused ReLU), ReLU, channel
concatenation, axis slicing, reshaping, elementwise arithmetic, square
root, and sum and mean over all or some axes. Tensors are float32 for
training and float64 for gradient checking; the code path is identical,
only the dtype differs.

Values are immutable by convention: no operation writes into its inputs,
so tensors can be shared freely. A conv may write its output into a slice
of a caller's array (``out``), and a concatenation of adjacent slices of
one array is a view of it, so a dense block builds its concatenations in
one buffer: each slice is written once, before any tensor reads it. The
optimizer mutates parameter ``data`` in place between graph builds, which
is safe because every step records a fresh graph. A constant (an
:func:`as_tensor` scalar or array, or any tensor made inside
:func:`no_grad`, as inference runs) has no gradient and no graph node; an
op records a node only when some input is not one.

The graph is kept apart from the values. A recorded op's output holds
its value and a small node; the node holds the nodes of the op's inputs
and an adjoint that captured, when the op ran, only the arrays it reads:
conv its weights, its input unless the weights are a constant, and its
output when the ReLU is fused; mul and div their operands, or only the
right one when it is a constant; relu and sqrt their result; square and
abs their input; add, sub, concat, narrow, reshape, sum and mean shapes
only. A leaf is its own node. So an intermediate that the caller drops
is freed unless some adjoint reads it, and a graph lives until the
caller drops its loss and every output of it that it kept.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeError

# Guard for the sqrt adjoint: d sqrt(x)/dx = 1/(2 max(sqrt(x), eps)). The
# average-gradient loss takes sqrt of sums of squared differences that are
# exactly zero on flat image regions; the unguarded adjoint would be inf.
SQRT_GRAD_EPS = 1e-12

# Cap on the scratch bytes that each conv2d pass (the forward, or the backward,
# whose two gradients share one lowering) works in: the column buffer plus,
# when kernel rows are summed, the product buffer and the output rows it is
# added into. Rows are lowered a tile at a time, so this bounds the working
# set at any image size.
CONV_TILE_BYTES = 4 << 20

# OpenBLAS's small-matrix GEMM kernels (SkylakeX; products of up to about
# 1e6 multiply-adds) sum a product's last N mod 16 columns unlike its
# others, so a column's bytes would depend on the product's width N. Each
# conv GEMM runs on a multiple of this many columns (see _product).
GEMM_LANES = 16


class _GradMode(threading.local):
    recording = True   # every thread starts out recording


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph inside the block (in the calling thread).

    Every tensor made inside is a constant, so each intermediate is freed
    as soon as its consumers have run. Nests, and restores the previous
    state on exit, also when the block raises.
    """
    previous = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = previous


class _Bands(threading.local):
    count = 1   # every thread starts out running each conv as one band


_bands = _Bands()


@contextmanager
def row_bands(n: int):
    """Inside the block (in the calling thread), run each conv forward
    whose output fills at least ``n`` full row tiles as ``n`` bands of rows
    at once, on ``n`` threads (see :func:`_conv_forward`); the result is
    the same, bit for bit. Meant for a block that holds OpenBLAS to one
    thread. Nests, and restores the previous count on exit, also when the
    block raises.
    """
    previous = _bands.count
    _bands.count = n
    try:
        yield
    finally:
        _bands.count = previous


class Tensor:
    """An n-d float array plus the bookkeeping reverse mode needs.

    A leaf (built from data outside :func:`no_grad`, such as a parameter)
    starts with a zero ``grad``, so a leaf that does not lie on a path to
    the loss reports exactly zero. Only leaves hold gradients; an op
    output's and a constant's ``grad`` is None. A recorded op's output
    points to its graph node, whose ``_backward`` it shows as its own: the
    closure that :func:`backward` calls with the output's adjoint.
    Assigning ``_backward`` replaces that closure, so a wrapper can time or
    alter one op's backward. Outside a graph (a leaf or a constant) it
    reads None, and assigning it does nothing.
    """

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, dtype=None, _parents=None, _adjoint=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data, self.grad, self._node = arr, None, None
        if _grad_mode.recording and _parents is None:   # a leaf
            self.grad = np.zeros_like(arr)
        elif _grad_mode.recording and not all(map(_is_constant, _parents)):
            self._node = _Node(arr, _parents, _adjoint)

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        if self._node is not None:   # outside a graph there is none to replace
            self._node._backward = fn

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

    # -- elementwise arithmetic (identical shapes, or a rank-0 constant) --

    def __add__(self, other):
        return _binary(self, other, np.add,
                       lambda g, a, b: g, lambda g, a, b: g, saves=False)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract,
                       lambda g, a, b: g, lambda g, a, b: -g, saves=False)

    def __rsub__(self, other):
        return as_tensor(other, self.dtype) - self

    def __mul__(self, other):
        return _binary(self, other, np.multiply,
                       lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.divide,
                       lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))

    def __rtruediv__(self, other):
        return as_tensor(other, self.dtype) / self

    def __neg__(self):
        return self * -1.0

    def relu(self):
        """max(0, x); gradient passes where x > 0 (read off the result)."""
        out = np.maximum(self.data, 0)
        return Tensor(out, _parents=(self,),
                      _adjoint=lambda g: (g * (out > 0),))

    def square(self):
        x = self.data
        return Tensor(x * x, _parents=(self,),
                      _adjoint=lambda g: (g * (2.0 * x),))

    def sqrt(self):
        if np.any(self.data < 0):
            raise DomainError("sqrt of a negative value")
        root = np.sqrt(self.data)
        return Tensor(root, _parents=(self,), _adjoint=lambda g: (
            g / (2.0 * np.maximum(root, SQRT_GRAD_EPS)),))

    def abs(self):
        """|x|; the subgradient at x == 0 is 0."""
        x = self.data
        return Tensor(np.abs(x), _parents=(self,),
                      _adjoint=lambda g: (g * np.sign(x),))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        """Sum over ``axis`` (an int or a tuple of ints), or over everything."""
        return Tensor(np.sum(self.data, axis=axis), _parents=(self,),
                      _adjoint=lambda g: (_unreduce(g, axis),))

    def mean(self, axis=None):
        """Mean over ``axis`` (an int or a tuple of ints), or over everything."""
        data = np.mean(self.data, axis=axis)
        n = self.data.size // data.size
        return Tensor(data, _parents=(self,),
                      _adjoint=lambda g: (_unreduce(g, axis) / n,))

    def reshape(self, shape):
        src = self.data.shape
        return Tensor(self.data.reshape(shape), _parents=(self,),
                      _adjoint=lambda g: (g.reshape(src),))

    def item(self):
        return float(self.data)


def as_tensor(x, dtype=None) -> Tensor:
    """``x`` if a Tensor, else ``x`` as a constant: an op with no inputs."""
    return x if isinstance(x, Tensor) else Tensor(x, dtype, _parents=())


def _is_constant(t: Tensor) -> bool:
    return t._node is None and t.grad is None


def _unreduce(g, axis):
    """The adjoint of a reduction over ``axis``, shaped to broadcast back."""
    return g if axis is None else np.expand_dims(g, axis)


def _binary(a: Tensor, other, fwd, grad_a, grad_b, saves=True) -> Tensor:
    """Elementwise op on identical shapes, or with a rank-0 constant on
    either side, which broadcasts; ``other`` goes through :func:`as_tensor`.
    ``grad_a`` and ``grad_b`` map (g, a, b) to each operand's gradient;
    only ``grad_b`` reads ``a``, and with ``saves=False`` both read only g,
    so the graph keeps no operand. A constant ``b``'s gradient is never
    asked for, so then ``a`` is not kept either."""
    b = as_tensor(other, a.dtype)
    if a.shape != b.shape and not any(
            t.data.ndim == 0 and _is_constant(t) for t in (a, b)):
        raise ShapeError(
            f"elementwise operands must share a shape, got {a.shape} and {b.shape}")
    adata, bdata = a.data, b.data
    out = fwd(adata, bdata)
    if not saves:
        adata = bdata = None
    elif _is_constant(b):
        adata = None

    def adjoint(g):
        yield grad_a(g, adata, bdata)
        yield grad_b(g, adata, bdata)

    return Tensor(out, _parents=(a, b), _adjoint=adjoint)


class _Node:
    """A recorded op: what :func:`backward` needs of it and nothing more.

    ``_parents`` are the nodes of the op's inputs (a leaf input is its own
    node, a constant None). ``_backward(g)`` calls the op's adjoint on ``g``,
    the output's adjoint; that yields one gradient per input, in input
    order, and each is added into its parent's ``grad``. Trailing constants
    get no slot, so their gradients are never asked for. ``grad`` holds the
    output's adjoint while :func:`backward` runs, and ``shape`` and
    ``dtype`` are the output's. The output's value itself is not kept.
    """

    __slots__ = ("shape", "dtype", "grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray, parents, adjoint):
        self.shape, self.dtype, self.grad = data.shape, data.dtype, None
        parents = [p._node if p.grad is None else p for p in parents]
        while parents[-1] is None:
            parents.pop()
        self._parents = parents = tuple(parents)

        def backward(g):   # each gradient is freed before the next is made
            grads = iter(adjoint(g))
            for p in parents:
                _accumulate(p, next(grads))

        self._backward = backward


def _accumulate(t, g) -> None:
    """Add ``g`` into ``t.grad`` (a leaf or a node; a constant's None slot
    takes nothing); the first write allocates ``t``'s own array.

    ``g`` may be a slice or a view of another node's gradient, so it is
    never stored as is. Adding 0 into a fresh array casts and broadcasts
    ``g`` to ``t`` exactly as accumulating it into zeros would, signed
    zeros included.
    """
    if t is None:
        return
    if t.grad is None:
        t.grad = np.add(g, 0, out=np.empty(t.shape, t.dtype))
    else:
        t.grad += g


# -- structural operations -------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           padding: str = "same", relu: bool = False,
           add: Tensor | None = None, out: np.ndarray | None = None) -> Tensor:
    """2-D cross-correlation, stride 1, plus ``add``, optionally with ReLU.

    ``x`` is (B, Cin, H, W), ``w`` is (Cout, Cin, kh, kw), ``b`` is (Cout,)
    or None, ``add`` is (B, C, Ho, Wo) with C dividing Cout, or None.
    ``padding="same"`` zero-pads so the spatial size is preserved (odd
    kernels only); ``"valid"`` keeps only fully covered windows.
    Differentiable in every argument. Backward lowers only the output
    gradient, once, and its taps give both the input and the weight
    gradient. The adjoint reads ``w``, and ``x`` only for the weight
    gradient, which a constant ``w`` does not get; a constant ``x`` gets
    no input gradient. ``add`` goes into the conv's own output, once into
    each group of C channels, so a residual skip from C channels onto Cout
    costs no second array and no tiled copy. Its gradient is the output's
    summed over the groups; the adjoint keeps the group count, not ``add``.

    ``relu=True`` gives ``(conv2d(x, w, b) + add).relu()`` bit for bit, with
    no pre-activation array: the ReLU clamps the output in place, and
    backward masks the gradient in place by ``out > 0``, which holds
    exactly where the pre-activation was > 0, NaN included (in-place
    activation; Rota Bulo et al. 2018, arXiv 1712.02616).

    ``out``, if given, is an array of the output's shape and dtype, such as
    a channel slice of a larger buffer; the result is written into it, and
    it is the returned tensor's value. The arithmetic is the same.

    The forward computes its output rows in row tiles (:func:`_row_tiles`),
    in one band of rows or, under :func:`row_bands`, in several at once;
    bias, addend and ReLU go into each band's rows once its tiles are
    written, while they are fresh. The bytes are the same either way.
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

    wd, x_const = w.data, _is_constant(x)
    Ho, Wo = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    reps = 0   # the addend's channel groups, all the adjoint keeps of it
    if add is not None:
        C = add.shape[1] if add.data.ndim == 4 else 0
        if not C or add.shape != (B, C, Ho, Wo) or Cout % C:
            raise ShapeError(
                f"conv2d addend must be {(B, Cout, Ho, Wo)} or ({B}, C, {Ho}, "
                f"{Wo}) with C dividing {Cout}, got {add.shape}")
        reps = Cout // C
    out = _conv_forward(x.data, wd, None if b is None else b.data, ph, pw, out,
                        None if add is None else add.data, relu)
    relu_out = out if relu else None   # what the fused ReLU's mask reads
    xd = None if _is_constant(w) else x.data   # what the weight gradient reads

    def adjoint(g):   # g is the output's own array, so it is masked in place
        if relu_out is not None:
            np.multiply(g, relu_out > 0, out=g)
        gx = None if x_const else np.empty((B, Cin, H, W), np.result_type(g, wd))
        gw = _conv_backward(g, wd, xd, ph, pw, gx)   # fills gx
        yield gx
        del gx                          # freed before the addend's copy
        yield gw                        # None for a constant w's None slot
        if b is not None:
            yield g.sum(axis=(0, 2, 3))
        if reps:                        # the addend's
            yield g if reps == 1 else g.reshape(B, reps, -1, Ho, Wo).sum(axis=1)

    return Tensor(out, _parents=(x, w, *(t for t in (b, add) if t is not None)),
                  _adjoint=adjoint)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                  ph: int, pw: int, out: np.ndarray | None = None,
                  add: np.ndarray | None = None, relu: bool = False
                  ) -> np.ndarray:
    """Stride-1 conv of ``x`` zero-padded by ``ph`` and ``pw``, plus ``b``
    and ``add`` (once into each group of its C channels), clamped at 0 if
    ``relu``, written into ``out``, or into a new array if that is None.

    The output rows are computed in n contiguous bands, where n is the
    :func:`row_bands` count if the output fills that many whole row tiles
    (:func:`full_row_tiles`), else 1. Each band runs its row tiles and
    then the bias, addend and ReLU on its own rows; the caller runs band 0
    and one thread each runs the others (:func:`_run_bands`). A band tiles
    with ``CONV_TILE_BYTES // n``, and every band's scratch is allocated
    here, so a split conv works in one CONV_TILE_BYTES as a serial one
    does. No element's bytes depend on the tiling (see :func:`_row_tiles`),
    so the result does not depend on n.
    """
    B, Cout = x.shape[0], w.shape[0]
    lay = _layout(x, w, ph, pw)
    shape = (B, Cout, lay.Ho, lay.Wo)
    dtype = lay.pdtype if b is None else np.result_type(lay.pdtype, b)
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"conv2d out must be a {dtype} array of shape "
                         f"{shape}, got {out.dtype} {out.shape}")
    n = _bands.count
    if n > 1 and _full_tiles(lay) < n:
        n = 1
    bounds = [lay.Ho * i // n for i in range(n + 1)]
    scratch = [_tile_scratch(x, lay, CONV_TILE_BYTES // n, hi - lo)
               for lo, hi in zip(bounds, bounds[1:])]

    def band(i):
        lo, hi = bounds[i], bounds[i + 1]
        for _ in _row_tiles(x, w, ph, pw, out, lo, hi, scratch[i]):
            pass
        rows = out[:, :, lo:hi]
        if b is not None:
            rows += b.reshape(1, Cout, 1, 1)
        if add is not None:
            C = add.shape[1]
            groups = rows.reshape(B, Cout // C, C, hi - lo, lay.Wo, copy=False)
            groups += add[:, None, :, lo:hi]
        if relu:
            np.maximum(rows, 0, out=rows)

    _run_bands(band, n)
    return out


def _run_bands(band: Callable[[int], None], n: int) -> None:
    """``band(0)`` in the caller and ``band(i)``, i = 1 .. n - 1, in one new
    thread each, under the caller's numpy error state (which a thread does
    not inherit). All are joined before this returns or raises; the
    caller's exception goes first, then the first band's in band order."""
    errors: list = [None] * n
    errstate = np.geterr()

    def work(i):
        try:
            with np.errstate(**errstate):
                band(i)
        except BaseException as exc:   # raised in the caller after the join
            errors[i] = exc

    threads = []
    try:
        for i in range(1, n):
            t = threading.Thread(target=work, args=(i,))
            t.start()
            threads.append(t)
        band(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _conv_backward(g: np.ndarray, w: np.ndarray, x: np.ndarray | None,
                   ph: int, pw: int, gx: np.ndarray | None) -> np.ndarray | None:
    """Both gradients of a stride-1 conv of ``x`` by ``w`` zero-padded by
    ``ph`` and ``pw``, from its output gradient ``g``, which alone is lowered.

    The input gradient, written into ``gx`` unless that is None, is the
    conv of ``g`` padded by the rest of the kernel, with the flipped kernel
    and channel roles swapped. Its output grid is ``x``'s, so each tile's
    taps of ``g`` against those rows of ``x``, read in place, also give the
    weight gradient, returned unless ``x`` is None: ``gw[o, c, a, d]`` sums
    ``x[b, c, p]`` times tap (kh-1-a, kw-1-d) of ``g[b, o, p]`` (the
    lowered-matrix weight gradient; Chetlur et al. 2014, arXiv 1410.0759).
    """
    kh, kw = w.shape[2:]
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    gwflip = None if x is None else np.zeros(wflip.shape, w.dtype)
    ph, pw = kh - 1 - ph, kw - 1 - pw
    lay = _layout(g, wflip, ph, pw)
    scratch = _tile_scratch(g, lay, CONV_TILE_BYTES, lay.Ho)
    for r0, r, views in _row_tiles(g, wflip, ph, pw, gx, 0, lay.Ho, scratch):
        if gwflip is not None:
            xt = x[:, :, r0:r0 + r].reshape(x.shape[0], x.shape[1], -1)
            for u, view in enumerate(views):   # kernel rows u to u + kl
                gu = gwflip[:, :, u:u + kh - len(views) + 1]
                gu += (xt @ view.transpose(0, 2, 1)).sum(0).reshape(gu.shape)
    return None if gwflip is None else gwflip.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


class _Layout(NamedTuple):
    """How :func:`_row_tiles` lowers a stride-1 conv with an (Ho, Wo)
    output and a ``kw``-wide kernel: ``shifts`` GEMM blocks of ``kl``
    kernel rows each, whose operands have ``k`` rows, taps copied into a
    column buffer if ``lower``, and ``m`` weight rows, Cout or, for
    Cout = 1, 2, whose products are ``pdtype``. One output row takes
    ``col_row`` bytes of column buffer and ``prod_row`` of product buffer
    and the output row it is added into; a tile's extra rows take ``halo``
    bytes of column buffer."""
    Ho: int
    Wo: int
    kw: int
    kl: int
    shifts: int
    k: int
    m: int
    lower: bool
    pdtype: np.dtype
    col_row: int
    prod_row: int
    halo: int


def _layout(x: np.ndarray, w: np.ndarray, ph: int, pw: int) -> _Layout:
    """The :class:`_Layout` of a stride-1 conv of ``x``, zero-padded by
    ``ph`` and ``pw``, by ``w``. Reads only shapes and dtypes."""
    (B, Cin, H, W), (Cout, _, kh, kw) = x.shape, w.shape
    Wo = W + 2 * pw - kw + 1
    kl = kh if Cin * kw < 2 * Cout else 1
    shifts, k, m = kh - kl + 1, Cin * kl * kw, max(Cout, 2)
    lower = kl * kw > 1 or ph > 0      # else each kernel row is rows of x
    col_row = B * k * Wo * x.itemsize if lower else 0
    pdtype = np.result_type(x, w)
    prod = shifts > 1 or m > Cout      # a product buffer, and its output rows
    prod_row = B * (m + Cout) * Wo * pdtype.itemsize * prod
    return _Layout(H + 2 * ph - kh + 1, Wo, kw, kl, shifts, k, m, lower, pdtype,
                   col_row, prod_row, (shifts - 1) * col_row)


def _tile_rows(lay: _Layout, budget: int) -> int:
    """Output rows per tile so that a tile's scratch fits ``budget``
    bytes, at least 1; all of them for a conv that needs no scratch."""
    row = lay.col_row + lay.prod_row
    return max(1, (budget - lay.halo) // row) if row else lay.Ho


def _full_tiles(lay: _Layout) -> int:
    """The whole CONV_TILE_BYTES tiles that the output rows fill; a conv
    that needs no scratch counts each row as one."""
    if not lay.col_row + lay.prod_row:
        return lay.Ho
    return lay.Ho // _tile_rows(lay, CONV_TILE_BYTES)


def full_row_tiles(x_shape: tuple[int, int, int, int], dtype,
                   w_shape: tuple[int, int, int, int]) -> int:
    """How many whole row tiles of CONV_TILE_BYTES the output of a "same"
    conv of a ``dtype`` input of ``x_shape`` by ``dtype`` weights of
    ``w_shape`` fills; a conv that needs no scratch counts each row as
    one. Under :func:`row_bands` a forward splits into n bands only when
    this is at least n."""
    x = np.broadcast_to(np.zeros((), dtype), x_shape)   # shapes only
    w = np.broadcast_to(np.zeros((), dtype), w_shape)
    return _full_tiles(_layout(x, w, (w_shape[2] - 1) // 2, (w_shape[3] - 1) // 2))


class _Scratch(NamedTuple):
    """What :func:`_row_tiles` works in: its conv's layout, output rows
    per tile, the zeroed column buffer of a tile's lowered taps (None when
    ``x``'s rows are read in place), the flat product buffer (None when
    each tile is one GEMM into the output rows), and the GEMM_LANES-wide
    operand and product of :func:`_product` (None when no tile needs
    them)."""
    lay: _Layout
    rows: int
    colbuf: np.ndarray | None
    prodbuf: np.ndarray | None
    pad: tuple[np.ndarray, np.ndarray] | None


def _tile_scratch(x: np.ndarray, lay: _Layout, budget: int,
                  rows: int) -> _Scratch:
    """The :class:`_Scratch` of tiles that fit ``budget`` bytes, on at most
    ``rows`` output rows of a conv of ``x`` laid out as ``lay``."""
    B, Cin = x.shape[:2]
    rows = min(rows, _tile_rows(lay, budget))
    colbuf = prodbuf = pad = None
    if lay.lower:
        colbuf = np.zeros((B, Cin, lay.kl, lay.kw, rows + lay.shifts - 1,
                           lay.Wo), x.dtype)
    if lay.prod_row:
        prodbuf = np.empty(B * lay.m * rows * lay.Wo, lay.pdtype)
    if lay.Wo % GEMM_LANES:
        pad = (np.empty((B, lay.k, GEMM_LANES), x.dtype),
               np.empty((B, lay.m, GEMM_LANES), lay.pdtype))
    return _Scratch(lay, rows, colbuf, prodbuf, pad)


def _product(wmat: np.ndarray, view: np.ndarray, out: np.ndarray, pad) -> None:
    """``out = wmat @ view`` (batched over the leading axis), each column
    in a GEMM whose width is a multiple of GEMM_LANES: the whole lanes in
    place, and the rest through ``pad``, a GEMM_LANES-wide operand and
    product, the operand's unused columns zeroed."""
    n = view.shape[-1]
    body = n - n % GEMM_LANES
    if body:
        np.matmul(wmat, view[..., :body], out=out[..., :body])
    if body < n:
        cols, prod = pad
        cols[..., :n - body] = view[..., body:]
        cols[..., n - body:] = 0
        np.matmul(wmat, cols, out=prod)
        out[..., body:] = prod[:, :out.shape[1], :n - body]


def _row_tiles(x: np.ndarray, w: np.ndarray, ph: int, pw: int,
               out: np.ndarray | None, lo: int, hi: int, scratch: _Scratch):
    """Lower ``x`` zero-padded by ``ph`` and ``pw`` for a stride-1 conv by
    ``w``, a tile of output rows at a time from row ``lo`` to ``hi``, and
    write the conv's rows into ``out`` unless that is None: one GEMM per
    view, each tile's later blocks added into its first, in the caller's
    ``scratch`` (:func:`_tile_scratch`). No row of ``out`` outside [lo,
    hi) is written, and bias, addend and ReLU are the caller's to add.
    Yields ``(r0, r, views)`` once a tile's rows are written: output rows
    r0 to r0 + r, and ``views[u]``, the (B, Cin*kl*kw, r*Wo) GEMM operand
    of kernel rows u to u + kl. A forward runs on the tiles of its input,
    and a backward on those of its output gradient, which give both
    gradients (:func:`_conv_backward`).

    A tile lowers only the ``kw`` horizontal taps of its rows and its
    ``shifts - 1`` halo rows into the column buffer, and ``views[u]`` is
    that tile ``u`` rows down (MEC; Cho & Brand 2017, arXiv 1706.06873).
    Summing a product costs about twice what lowering a tap does per
    channel, so when Cin*kw < 2*Cout all taps form one block, as im2col.
    The buffer holds the zero padding, so ``x`` is never copied padded, and
    an unpadded 1-wide kernel's views are rows of ``x`` in place. It is
    zeroed once, and each tile takes a prefix of its row axis.

    An output element's bytes do not depend on the tiling, so neither on
    CONV_TILE_BYTES nor on the rows a caller gives, nor on OpenBLAS's
    thread count: every GEMM runs on whole GEMM_LANES columns
    (:func:`_product`), and a Cout = 1 conv multiplies by its weights with
    a zero second row and keeps the first, since numpy hands a one-row
    product to gemv, whose sums change with the product's width and with
    the thread count.
    """
    (B, Cin, _, _), (Cout, _, kh, kw) = x.shape, w.shape
    lay, rows, colbuf, prodbuf, pad = scratch
    shifts, k, m, Wo = lay.shifts, lay.k, lay.m, lay.Wo
    wmats = w.reshape(Cout, Cin, shifts, lay.kl, kw).transpose(2, 0, 1, 3, 4)
    wmats = wmats.reshape(shifts, Cout, k)
    if m > Cout:
        wmats = np.concatenate([wmats, np.zeros((shifts, m - Cout, k), w.dtype)], 1)
    for r0 in range(lo, hi, rows):
        r = min(rows, hi - r0)
        if lay.lower:
            src = colbuf[..., :r + shifts - 1, :]
            _lower_taps(x, src, r0 - ph, pw)
        else:
            src = x[:, :, r0:r0 + r + kh - 1][:, :, None, None]
        views = [src[..., u:u + r, :].reshape(B, k, r * Wo, copy=False)
                 for u in range(shifts)]
        if out is not None:
            dst = out[:, :, r0:r0 + r].reshape(B, Cout, -1, copy=False)
            if prodbuf is not None:
                prod = prodbuf[:B * m * r * Wo].reshape(B, m, -1)
            for u in range(shifts):
                if u == 0 and m == Cout:   # the first block's rows are the output's
                    _product(wmats[0], views[0], dst, pad)
                    continue
                _product(wmats[u], views[u], prod, pad)
                if u:
                    dst += prod[:, :Cout]
                else:
                    dst[...] = prod[:, :Cout]
        yield r0, r, views


def _lower_taps(x: np.ndarray, tile: np.ndarray, top: int, pw: int) -> None:
    """Fill the (B, Cin, kl, kw, R, Wo) tile with taps of ``x`` zero-padded
    by ``pw`` columns a side: ``tile[:, :, i, v, s, j]`` is input row
    ``top + i + s``, column ``j + v - pw``, and zero outside the image.
    ``tile`` is a prefix of one buffer, zeroed once, that each tile of a
    conv reuses with a larger ``top``. A tap writes only its block inside
    the image and zeroes the rows below it, which an earlier tile filled.
    The padding columns and the rows above the image are never written,
    so they stay zero: no earlier tile wrote at those places.
    """
    H, W = x.shape[2:]
    _, _, kl, kw, R, Wo = tile.shape
    for i in range(kl):
        y = top + i
        s0 = min(R, max(0, -y))
        s1 = max(s0, min(R, H - y))
        for v in range(kw):
            j0 = min(Wo, max(0, pw - v))
            j1 = max(j0, min(Wo, W + pw - v))
            slab = tile[:, :, i, v]
            slab[:, :, s0:s1, j0:j1] = x[:, :, y + s0:y + s1,
                                         j0 + v - pw:j1 + v - pw]
            if s1 < R:
                slab[:, :, s1:] = 0


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate (B, C_i, H, W) tensors along the channel axis.

    Parts that are adjacent channel slices of one array, in order, are not
    copied: the result is the slice of that array they make up, a view
    (the shared-buffer concatenation of Pleiss et al. 2017, arXiv
    1707.06990). Any other parts are copied into a new array."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels needs at least one part")
    first = parts[0].shape
    for p in parts:
        if p.data.ndim != 4 or p.shape[0] != first[0] or p.shape[2:] != first[2:]:
            raise ShapeError(
                f"concat_channels parts must be 4-d and share batch and "
                f"spatial dims, got {first} and {p.shape}")
    bounds = list(accumulate((p.shape[1] for p in parts), initial=0))
    data = _channel_view([p.data for p in parts], bounds)
    if data is None:
        data = np.concatenate([p.data for p in parts], axis=1)
    return Tensor(data, _parents=tuple(parts), _adjoint=lambda g: (
        g[:, c0:c1] for c0, c1 in zip(bounds, bounds[1:])))


def _channel_view(arrays: list[np.ndarray], bounds: list[int]
                  ) -> np.ndarray | None:
    """``base[:, c0:c0 + bounds[-1]]`` if ``arrays`` are the slices
    ``base[:, c0 + bounds[i]:c0 + bounds[i + 1]]`` of their common base,
    else None. Each must have the base's dtype, strides, batch and spatial
    dims, and start where the one before ends; then every element of it is
    the base's element at the same address."""
    base = arrays[0].base
    if not isinstance(base, np.ndarray) or base.ndim != 4 or not base.strides[1]:
        return None
    step, origin = base.strides[1], _address(base)
    c0, rem = divmod(_address(arrays[0]) - origin, step)
    if rem or c0 < 0 or c0 + bounds[-1] > base.shape[1]:
        return None
    for a, c in zip(arrays, bounds):
        if (a.base is not base or a.dtype != base.dtype
                or a.strides != base.strides
                or a.shape[:1] + a.shape[2:] != base.shape[:1] + base.shape[2:]
                or _address(a) != origin + (c0 + c) * step):
            return None
    return base[:, c0:c0 + bounds[-1]]


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


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
    shape, dtype = x.shape, x.dtype

    def adjoint(g):
        scatter = np.zeros(shape, dtype)
        scatter[index] = g
        return (scatter,)

    return Tensor(x.data[index].copy(), _parents=(x,), _adjoint=adjoint)


# -- reverse pass ----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Set ``grad`` on every leaf ancestor of ``loss`` to dloss/dleaf.

    The graph is replayed in reverse topological order, visiting each node
    once and accumulating over consumers. Every reachable ``grad`` is reset
    to None first, so repeated calls on the same graph give identical
    results. A node's adjoint is dropped as soon as its closure has passed
    it on to its parents, so afterwards only leaves hold gradients. The
    graph is not consumed: the arrays its adjoints read stay held until
    the caller drops ``loss`` and every other output of it, which a
    training loop does before it builds the next graph.
    """
    if loss.data.shape != ():
        raise ShapeError(
            f"backward needs a rank-0 loss, got shape {loss.data.shape}")
    if _is_constant(loss):
        raise ValueError("backward needs a loss with a graph, got a constant "
                         "(built under no_grad or from arrays only)")
    root = loss if loss._node is None else loss._node
    order = _topo_order(root)
    for t in order:
        t.grad = None
    root.grad = np.ones_like(loss.data)
    for t in reversed(order):
        if t._backward is not None:
            t._backward(t.grad)
            t.grad = None


def _topo_order(root) -> list:
    """Iterative DFS postorder over nodes and leaves; inputs always precede
    their consumers."""
    order: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in () if isinstance(node, Tensor) else node._parents:
            if parent is not None and id(parent) not in visited:
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
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"finite difference step must be finite and > 0, "
                         f"got {h}")
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
