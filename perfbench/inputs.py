"""Benchmark inputs, made by the benchmark's own code.

Nothing here calls into ``ivfuse``: the image pairs, the model weights and
the PGM and HFN1 files are generated and written with code that a change
to the program cannot touch. Each workload draws from a fixed bank of
cases, so the float64 references under ``refs/`` cover every input a run
can use; the run seed picks the order in which the cases are visited.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The architecture table the HFN1 file must match, in payload order:
# name -> weight shape (out, in, kh, kw).
LAYERS: dict[str, tuple[int, int, int, int]] = {
    "encoder.c1": (16, 1, 3, 3),
    "encoder.rdb.conv1": (16, 16, 3, 3),
    "encoder.rdb.conv2": (16, 32, 3, 3),
    "encoder.rdb.conv3": (16, 48, 3, 3),
    "encoder.rdb.conv4": (64, 64, 1, 1),
    "decoder.c2": (64, 64, 3, 3),
    "decoder.c3": (32, 64, 3, 3),
    "decoder.c4": (16, 32, 3, 3),
    "decoder.c5": (1, 16, 3, 3),
    "decoder.c6": (64, 1, 3, 3),
}
# Layers with a ReLU after them get He scaling; the linear ones do not.
_LINEAR = {"encoder.rdb.conv4", "decoder.c5", "decoder.c6"}

# Case banks. Sizes are fixed because every case has a stored reference.
BANKS = {"fuse-256": 4, "train-32": 8, "cli-fuse-64": 16}
TRAIN_PAIRS = 4          # per training job: 8 blends, two B=4 steps
MODEL_SEED = 20080049    # the one weight set every workload uses


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, edges clamped."""
    radius = max(1, int(3.0 * sigma))
    idx = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(idx ** 2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    padded = np.pad(img, radius, mode="edge")
    rows = sliding_window_view(padded, kernel.size, axis=1) @ kernel
    return sliding_window_view(rows, kernel.size, axis=0) @ kernel


def render_pair(rng: np.random.Generator, size: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """A registered (infrared, visible) pair in [0, 1].

    Like the program's synthetic corpus: the infrared image is a smooth,
    intensity-shifted warm blob on a dark background, the visible one a
    darker face on a lighter textured background.
    """
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    cx, cy = rng.uniform(0.4, 0.6, size=2)
    ax, ay = rng.uniform(0.26, 0.34), rng.uniform(0.32, 0.42)
    head = np.clip(1.0 - ((xx - cx) / ax) ** 2 - ((yy - cy) / ay) ** 2,
                   0.0, 1.0)
    f1, f2 = rng.uniform(6.0, 14.0, size=2)
    p1, p2 = rng.uniform(0.0, 2 * np.pi, size=2)
    stripes = (0.05 * np.sin(2 * np.pi * f1 * xx + p1)
               + 0.04 * np.sin(2 * np.pi * f2 * yy + p2))
    grain = 0.14 * _blur(rng.standard_normal((size, size)), 0.8)
    visible = np.clip(0.45 - 0.28 * head + stripes + grain, 0.0, 1.0)
    shift = rng.uniform(0.02, 0.08)
    infrared = np.clip(_blur(shift + 0.62 * head, 0.035 * size), 0.0, 1.0)
    return infrared, visible


def case_rng(workload: str, case: int) -> np.random.Generator:
    key = hashlib.sha256(f"{workload}/{case}".encode()).digest()
    return np.random.default_rng(int.from_bytes(key[:8], "little"))


def fuse_case(workload: str, case: int, size: int
              ) -> tuple[np.ndarray, np.ndarray]:
    return render_pair(case_rng(workload, case), size)


def train_case(case: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = case_rng("train-32", case)
    return [render_pair(rng, 32) for _ in range(TRAIN_PAIRS)]


def model_weights() -> dict[str, np.ndarray]:
    """Fan-in scaled float32 weights in checkpoint order.

    Biases are small but non-zero so the reference check covers them. The
    output conv gets a small gain and a mid-grey bias so that fused images
    sit inside (0, 1) rather than clipping, which keeps the reference
    comparison informative.
    """
    rng = np.random.default_rng(MODEL_SEED)
    out = {}
    for name, (cout, cin, kh, kw) in LAYERS.items():
        gain = 1.0 if name in _LINEAR else 2.0
        std = np.sqrt(gain / (cin * kh * kw))
        if name == "decoder.c5":
            std *= 0.12
        out[name + ".weight"] = rng.normal(0.0, std, (cout, cin, kh, kw)
                                           ).astype(np.float32)
        bias = rng.normal(0.0, 0.02, cout)
        if name == "decoder.c5":
            bias += 0.3
        out[name + ".bias"] = bias.astype(np.float32)
    return out


def write_hfn1(path, weights: dict[str, np.ndarray]) -> None:
    lines = [f"{name} f32 {','.join(str(d) for d in arr.shape)}"
             for name, arr in weights.items()]
    with open(path, "wb") as fh:
        fh.write(b"HFN1\n" + ("\n".join(lines) + "\n\n").encode())
        for arr in weights.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def quantize(img: np.ndarray) -> np.ndarray:
    return np.floor(255.0 * np.clip(img, 0.0, 1.0) + 0.5).astype(np.uint8)


def write_pgm(path, levels: np.ndarray) -> None:
    h, w = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode() + levels.tobytes())


def read_pgm(path) -> np.ndarray:
    """uint8 levels of a P5 file with a plain ``P5\\nW H\\n255\\n`` header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    w, h = (int(t) for t in dims.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != w * h:
        raise ValueError(f"{path}: not a {w}x{h} 8-bit P5 file")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def digest(*arrays: np.ndarray) -> str:
    """Fingerprint of generated inputs; floats are rounded first so that a
    last-bit difference in a vectorised sin or exp does not change it."""
    h = hashlib.sha256()
    for a in arrays:
        if a.dtype.kind == "f":
            a = np.round(a, 9)
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
