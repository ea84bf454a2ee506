"""Compute the float64 references under ``refs/`` from the program.

    python3 perfbench/make_refs.py

Run once, on the commit that defined the benchmark. The references are
data from then on: regenerating them with a later version of ``src/``
would let a changed program vouch for itself. The script also prints how
far the float32 program lands from each reference, which is what the
tolerances in workloads.py are set from.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import env  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from ivfuse import (ImagePair, PairDataset, TrainConfig, fuse_images,  # noqa: E402
                    load_checkpoint, measure_triple, train)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "model.hfn")
        inputs.write_hfn1(ckpt, inputs.model_weights())
        p32 = load_checkpoint(ckpt)
    p64 = p32.astype(np.float64)
    deviation = {}

    name = "fuse-256"
    pairs = [inputs.fuse_case(name, k, 256) for k in range(inputs.BANKS[name])]
    fused = np.stack([fuse_images(ir, vis, p64) for ir, vis in pairs])
    deviation[name] = max(float(np.max(np.abs(fuse_images(ir, vis, p32) - ref)))
                          for (ir, vis), ref in zip(pairs, fused))
    np.savez_compressed(os.path.join(workloads.REFS, name),
                        fused=fused.astype(np.float32),
                        digests=np.array([inputs.digest(*p) for p in pairs]))

    name = "train-32"
    cases = [inputs.train_case(k) for k in range(inputs.BANKS[name])]
    losses, first_dev, last_dev = [], 0.0, 0.0
    for k, case in enumerate(cases):
        ds = PairDataset([ImagePair(f"p{i}", ir, vis) for i, (ir, vis) in enumerate(case)])
        rows = {}
        for dtype, params in ((np.float64, p64), (np.float32, p32)):
            cfg = TrainConfig(seed=k, dtype=dtype, **workloads.TRAIN_CONFIG)
            _, log = train(ds, cfg, params=params.copy())
            rows[dtype] = np.array([r[2:] for r in log.rows], dtype=np.float64)
        ref, got = rows[np.float64], rows[np.float32]
        first_dev = max(first_dev, abs(got[0, 0] - ref[0, 0]) / ref[0, 0])
        last_dev = max(last_dev, abs(got[-1, 0] - ref[-1, 0]) / ref[-1, 0])
        losses.append(ref)
    deviation[name] = {"first_rel": first_dev, "last_rel": last_dev}
    np.savez_compressed(os.path.join(workloads.REFS, name),
                        losses=np.stack(losses),
                        digests=np.array([inputs.digest(*[a for pair in c for a in pair])
                                          for c in cases]))

    name = "cli-fuse-64"
    levels, metrics, digests = [], [], []
    level_dev, metric_dev = 0, np.zeros(4)
    for k in range(inputs.BANKS[name]):
        lv = [inputs.quantize(a) for a in inputs.fuse_case(name, k, 64)]
        ir, vis = (a.astype(np.float64) / 255.0 for a in lv)
        f64 = fuse_images(ir, vis, p64)
        f32 = fuse_images(ir, vis, p32)
        ref = np.array(measure_triple(ir, vis, f64).values())
        got = np.array(measure_triple(ir, vis, f32).values())
        level_dev = max(level_dev, int(np.max(np.abs(
            inputs.quantize(f64).astype(int) - inputs.quantize(f32)))))
        metric_dev = np.maximum(metric_dev, np.abs(got - ref))
        levels.append(inputs.quantize(f64))
        metrics.append(ref)
        digests.append(inputs.digest(*lv))
    deviation[name] = {"levels": level_dev,
                       **dict(zip(workloads.CLI_METRIC_TOL, metric_dev.tolist()))}
    np.savez_compressed(os.path.join(workloads.REFS, name),
                        levels=np.stack(levels), metrics=np.stack(metrics),
                        digests=np.array(digests))

    manifest = {
        "computed_with": "src/ivfuse in float64 (weights are the float32 "
                         "checkpoint values, widened)",
        "src_sha256": env.src_sha256(os.getcwd()),
        "numpy": np.__version__,
        "float32_deviation": deviation,
    }
    with open(os.path.join(workloads.REFS, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(json.dumps(deviation, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
