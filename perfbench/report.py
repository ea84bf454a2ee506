"""Metric names, units and the arithmetic that turns samples into them."""

from __future__ import annotations

import re
import statistics

import inputs
import spans

# End-to-end metrics, measured with tracing off. failed_ratio is printed
# but not declared in BENCHMARK.json: it is 0 on a correct program, and a
# declared metric must never be 0. The result line carries it as
# attempted/failed instead.
E2E: dict[str, str] = {
    "setup_s": "s",
    "p50_s": "s",
    "tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

CONV_LAYERS = [*inputs.LAYERS, spans.SSIM_WINDOW]

# Functions whose inclusive time per op is reported as ``<name>.s``.
TIMED = (
    "network.encode", "network.fuse_add", "network.decode", "network.fuse_images",
    "losses.composite_loss_parts", "losses.ssim", "losses.avg_gradient",
    "training.train", "training.prefused_samples", "training.reconstruct",
    "training.backward", "training.adam_step",
    "metrics.entropy", "metrics.qabf", "metrics.ssim_metric", "metrics.psnr",
    "checkpoint.load_checkpoint", "images.read_pgm", "images.write_pgm",
    "cli.import",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CONV_LAYERS:
        base = f"tensor.conv2d.{layer}"
        units[base + ".fwd_s"] = "s"
        units[base + ".bwd_s"] = "s"
        units[base + ".fwd_gflop"] = "GFLOP"
        units[base + ".fwd_mb"] = "MiB"
    units.update({
        "tensor.conv2d.calls": "count",
        "tensor.conv2d.fwd_gflop": "GFLOP",
        "tensor.conv2d.bwd_gflop": "GFLOP",
        "tensor.conv2d.fwd_gflop_per_s": "GFLOP/s",
        "tensor.conv2d.bwd_gflop_per_s": "GFLOP/s",
        "tensor.tensors_created": "count",
        "tensor.grad_bytes_alloc": "bytes",
        "tensor.narrow.bwd_scatter_bytes": "bytes",
        "tensor.backward.s": "s",
    })
    units.update({name + ".s": "s" for name in TIMED})
    units.update({
        "network.fuse_images.peak_traced_mb": "MiB",
        "training.step.p50_s": "s",
        "training.train.peak_traced_mb": "MiB",
        "checkpoint.load_checkpoint.bytes": "bytes",
        "images.read_pgm.bytes": "bytes",
        "images.write_pgm.bytes": "bytes",
        "cli.main.self_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER: dict[str, str] = _per_layer_units()

# Per-layer counts computed from tensor shapes rather than measured.
COMPUTED = ("_gflop", ".fwd_mb", ".bwd_scatter_bytes")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bad_names(names) -> list[str]:
    return [n for n in names if not NAME_RE.fullmatch(n)]


# -- end to end ------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest order statistic with at least ten
    samples above it. Below twenty samples that would not be a tail at
    all, so the maximum (percentile 100) is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return round(100.0 * (n - 10) / n, 1), ordered[n - 11]


def end_to_end(setups: list[float], latencies: list[float],
               units_per_op: int, peak_rss_mb: float
               ) -> tuple[dict[str, float], float]:
    """The E2E metrics, and the percentile that tail_s reports."""
    pct, tail_s = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "p50_s": statistics.median(latencies),
        "tail_s": tail_s,
        "throughput_per_s": units_per_op * len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }, pct


# -- per layer ---------------------------------------------------------------

def per_layer(span_list: list[list], counts: list[dict], peaks: dict,
              overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, per op (one fusion, job or request).

    Counts repeat exactly from op to op, so their mean is every op's
    count. FLOPs, conv bytes and narrow scatter bytes are computed from
    tensor shapes; the other counts are measured."""
    n = len(counts)
    total, own = spans.span_totals(span_list)
    count = {}
    for key in set().union(*counts):
        summed = sum(c.get(key, 0) for c in counts)
        count[key] = summed // n if summed % n == 0 else summed / n
    out = {}
    fwd_flop = bwd_flop = fwd_s = bwd_s = 0.0
    for layer in CONV_LAYERS:
        base = f"tensor.conv2d.{layer}"
        out[base + ".fwd_s"] = total.get(base + ".fwd", 0.0) / n
        out[base + ".bwd_s"] = total.get(base + ".bwd", 0.0) / n
        out[base + ".fwd_gflop"] = count.get(base + ".fwd_flop", 0) / 1e9
        out[base + ".fwd_mb"] = count.get(base + ".fwd_bytes", 0) / 2 ** 20
        fwd_flop += count.get(base + ".fwd_flop", 0)
        bwd_flop += count.get(base + ".bwd_flop", 0)
        fwd_s += out[base + ".fwd_s"]
        bwd_s += out[base + ".bwd_s"]
    out["tensor.conv2d.calls"] = count.get("tensor.conv2d.calls", 0)
    out["tensor.conv2d.fwd_gflop"] = fwd_flop / 1e9
    out["tensor.conv2d.bwd_gflop"] = bwd_flop / 1e9
    out["tensor.conv2d.fwd_gflop_per_s"] = fwd_flop / 1e9 / fwd_s if fwd_s else 0.0
    out["tensor.conv2d.bwd_gflop_per_s"] = bwd_flop / 1e9 / bwd_s if bwd_s else 0.0
    for key in ("tensor.tensors_created", "tensor.grad_bytes_alloc",
                "tensor.narrow.bwd_scatter_bytes"):
        out[key] = count.get(key, 0)
    out["tensor.backward.s"] = own.get("tensor.backward", 0.0) / n
    for name in TIMED:
        out[name + ".s"] = total.get(name, 0.0) / n
    for key in ("checkpoint.load_checkpoint", "images.read_pgm", "images.write_pgm"):
        out[key + ".bytes"] = count.get(key + ".bytes", 0)
    out["network.fuse_images.peak_traced_mb"] = \
        peaks.get("network.fuse_images", 0) / 2 ** 20
    out["training.train.peak_traced_mb"] = peaks.get("training.train", 0) / 2 ** 20
    steps = spans.step_times(span_list)
    out["training.step.p50_s"] = statistics.median(steps) if steps else 0.0
    out["cli.main.self_s"] = own.get("cli.main", 0.0) / n
    out["trace.overhead_s"] = overhead_s
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(out) ^ set(PER_LAYER)}")
    return out
