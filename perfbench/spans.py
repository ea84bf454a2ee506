"""Spans and counts recorded around the calls into each ivfuse module.

``install`` replaces each public function where its caller looks it up
(``ivfuse.network.conv2d``, ``ivfuse.losses.conv2d``, ...) with a wrapper
that records a span: name, start, end, parent span and op id. Spans stay
in memory until the run writes them out. The program itself is not
changed; everything here lives in the benchmark.

This module imports nothing heavy, so the CLI runner can time the import
of ``ivfuse`` on its own.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict

SSIM_WINDOW = "ssim_window"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: list[dict[str, int]] = []   # one dict per op
        self.peaks: dict[str, float] = {}        # name -> bytes, memory pass
        self.op = None      # None: not inside an op; -1: the memory pass
        self._stack: list[int] = []
        self._layers: dict[int, tuple[str, object]] = {}

    # -- ops ---------------------------------------------------------------

    @property
    def memory(self) -> bool:
        return self.op == -1

    def begin_op(self, memory: bool = False) -> None:
        self.op = -1 if memory else len(self.counts)
        if not memory:
            self.counts.append(defaultdict(int))

    def end_op(self) -> None:
        self.op = None

    # -- spans and counts --------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        if self.op is not None and self.op >= 0:
            self.counts[self.op][name] += amount

    def wrap(self, name: str, fn, nbytes=None, peak: bool = False):
        """``fn`` inside a span; ``nbytes(args, result)`` counts bytes."""
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if peak and self.memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if peak and self.memory:
                self.peaks[name] = tracemalloc.get_traced_memory()[1] - base
            if nbytes is not None:
                self.count(name + ".bytes", nbytes(args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- conv layers, identified by their weight tensor ---------------------

    def register_params(self, params) -> None:
        """Map each weight tensor to its layer; holds the tensors alive so
        their ids cannot be reused by other tensors."""
        self._layers = {id(t): (name.rsplit(".", 1)[0], t)
                        for name, t in params.tensors.items()
                        if name.endswith(".weight")}

    def layer_of(self, w) -> str:
        hit = self._layers.get(id(w))
        if hit is not None:
            return hit[0]
        shape = w.shape
        if shape[:2] == (1, 1) and 1 in shape[2:]:
            return SSIM_WINDOW
        return "unregistered"

    def wrap_conv2d(self, conv2d):
        def wrapper(x, w, *args, **kwargs):
            if self.op is None:
                return conv2d(x, w, *args, **kwargs)
            name = "tensor.conv2d." + self.layer_of(w)
            index = self.begin(name + ".fwd")
            try:
                out = conv2d(x, w, *args, **kwargs)
            finally:
                self.end(index)
            batch, cin = x.shape[:2]
            cout, _, kh, kw = w.shape
            flop = 2 * batch * cout * out.shape[2] * out.shape[3] * cin * kh * kw
            self.count("tensor.conv2d.calls", 1)
            self.count(name + ".fwd_flop", flop)
            self.count(name + ".fwd_bytes",
                       x.data.nbytes + w.data.nbytes + out.data.nbytes)
            backward = out._backward
            if backward is not None:
                def timed_backward(g):
                    index = self.begin(name + ".bwd")
                    try:
                        backward(g)
                    finally:
                        self.end(index)
                    # weight and input gradients: two GEMMs of forward size
                    self.count(name + ".bwd_flop", 2 * flop)
                out._backward = timed_backward
            return out
        wrapper.__wrapped__ = conv2d
        return wrapper

    def wrap_narrow(self, narrow):
        def wrapper(x, *args, **kwargs):
            out = narrow(x, *args, **kwargs)
            backward = out._backward
            if self.op is None or backward is None:
                return out

            def counted_backward(g):
                backward(g)
                # the seed's narrow backward scatters into a zero array the
                # size of the whole parent
                self.count("tensor.narrow.bwd_scatter_bytes", x.data.nbytes)
            out._backward = counted_backward
            return out
        wrapper.__wrapped__ = narrow
        return wrapper

    def wrap_tensor_init(self, init):
        def wrapper(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            self.count("tensor.tensors_created", 1)
            grad = getattr(tensor, "grad", None)
            self.count("tensor.grad_bytes_alloc", getattr(grad, "nbytes", 0))
        wrapper.__wrapped__ = init
        return wrapper


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every measured function where its caller looks it up."""
    import ivfuse.checkpoint
    import ivfuse.cli
    import ivfuse.images
    import ivfuse.losses
    import ivfuse.metrics
    import ivfuse.network
    import ivfuse.tensor
    import ivfuse.training
    from ivfuse.tensor import Tensor
    from ivfuse.training import Adam

    cli, images, losses = ivfuse.cli, ivfuse.images, ivfuse.losses
    metrics, network, training = ivfuse.metrics, ivfuse.network, ivfuse.training

    conv2d = tracer.wrap_conv2d(ivfuse.tensor.conv2d)
    network.conv2d = conv2d
    losses.conv2d = conv2d
    losses.narrow = tracer.wrap_narrow(ivfuse.tensor.narrow)
    Tensor.__init__ = tracer.wrap_tensor_init(Tensor.__init__)
    training.backward = tracer.wrap(
        "training.backward", tracer.wrap("tensor.backward", ivfuse.tensor.backward))

    for name in ("encode", "fuse_add", "decode"):
        setattr(network, name, tracer.wrap("network." + name, getattr(network, name)))
    fuse = tracer.wrap("network.fuse_images", network.fuse_images, peak=True)
    network.fuse_images = fuse
    cli.fuse_images = fuse

    ssim = tracer.wrap("losses.ssim", losses.ssim)
    losses.ssim = ssim
    metrics._ssim_graph = ssim
    losses.avg_gradient = tracer.wrap("losses.avg_gradient", losses.avg_gradient)
    training.composite_loss_parts = tracer.wrap(
        "losses.composite_loss_parts", training.composite_loss_parts)

    training.train = tracer.wrap("training.train", training.train, peak=True)
    for name in ("prefused_samples", "reconstruct"):
        setattr(training, name, tracer.wrap("training." + name, getattr(training, name)))
    Adam.step = tracer.wrap("training.adam_step", Adam.step)

    for name in ("entropy", "qabf", "ssim_metric", "psnr"):
        setattr(metrics, name, tracer.wrap("metrics." + name, getattr(metrics, name)))

    def load_and_register(path):
        params = ivfuse.checkpoint.load_checkpoint(path)
        tracer.register_params(params)
        return params
    cli.load_checkpoint = tracer.wrap("checkpoint.load_checkpoint",
                                      load_and_register, nbytes=_file_bytes)
    images.read_pgm = tracer.wrap("images.read_pgm", images.read_pgm,
                                  nbytes=_file_bytes)
    cli.write_pgm = tracer.wrap("images.write_pgm", cli.write_pgm,
                                nbytes=_file_bytes)


# -- turning spans into numbers --------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def span_totals(spans: list[list]) -> tuple[dict, dict]:
    """Per name: summed duration and summed self time, over the spans of
    counted ops (the memory pass has op id -1)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, parent, op = span
        if op is None or op < 0:
            continue
        total[name] += end - start
        own[name] += self_s
    return total, own


def step_times(spans: list[list]) -> list[float]:
    """Training step latencies: each ``training.reconstruct`` start to the
    end of the ``training.adam_step`` that follows it."""
    steps = []
    start = None
    for name, s, e, parent, op in spans:
        if op is None or op < 0:
            continue
        if name == "training.reconstruct":
            start = s
        elif name == "training.adam_step" and start is not None:
            steps.append(e - start)
            start = None
    return steps
