"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers. Run with ``pytest -s`` to see them.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ivfuse as iv
from ivfuse.gradcheck import run_gradient_checks
from ivfuse.tensor import Tensor
from ivfuse.training import TrainConfig, prefused_samples, reconstruction_rmse
from oracles import (decoder_pass, entropy_loops, psnr_loops, qabf_loops,
                     ssim_loops)

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# 1 ------------------------------------------------------------------------

@pytest.mark.slow
def test_gradient_fidelity():
    """Loss and whole-pipeline gradients match central finite differences
    (64-bit, h = 1e-5, 20 seeds, inputs <= 1x1x16x16, rel err < 1e-4)."""
    t0 = time.perf_counter()
    results = run_gradient_checks(
        seed=0, n_seeds=20, h=1e-5, tolerance=1e-4,
        components=["pixel_loss", "ssim_loss", "avg_gradient",
                    "composite_sharpness", "pipeline"])
    elapsed = time.perf_counter() - t0
    for r in results:
        assert r.passed, r.line()
    assert elapsed < 120.0, f"gradient fidelity took {elapsed:.0f}s"
    worst = max(r.worst_rel_err for r in results)
    report("gradient-fidelity",
           f"worst rel err {worst:.2e} over {len(results)} components, "
           f"{elapsed:.0f}s")


# 2 ------------------------------------------------------------------------

def test_architecture_conformance(tmp_path):
    """Checkpoint tensors match the layer table exactly; deviant shapes,
    unknown tensors, and truncation are rejected."""
    t0 = time.perf_counter()
    params = iv.init_params(0)
    path = tmp_path / "model.hfn"
    iv.save_checkpoint(params, path)
    loaded = iv.load_checkpoint(path)

    expected = {
        "encoder.c1.weight": (16, 1, 3, 3),
        "encoder.rdb.conv1.weight": (16, 16, 3, 3),
        "encoder.rdb.conv2.weight": (16, 32, 3, 3),
        "encoder.rdb.conv3.weight": (16, 48, 3, 3),
        "encoder.rdb.conv4.weight": (64, 64, 1, 1),
        "decoder.c2.weight": (64, 64, 3, 3),
        "decoder.c3.weight": (32, 64, 3, 3),
        "decoder.c4.weight": (16, 32, 3, 3),
        "decoder.c5.weight": (1, 16, 3, 3),
        "decoder.c6.weight": (64, 1, 3, 3),
    }
    for name, shape in expected.items():
        assert loaded.tensors[name].shape == shape
        bias = name.replace(".weight", ".bias")
        assert loaded.tensors[bias].shape == (shape[0],)
    assert len(loaded.tensors) == 20

    blob = path.read_bytes()
    deviant = blob.replace(b"decoder.c3.weight f32 32,64,3,3",
                           b"decoder.c3.weight f32 64,64,3,3", 1)
    bad = tmp_path / "bad.hfn"
    bad.write_bytes(deviant)
    with pytest.raises(iv.CheckpointSchemaError):
        iv.load_checkpoint(bad)
    bad.write_bytes(blob[:200])
    with pytest.raises((iv.CheckpointFormatError, iv.CheckpointSchemaError)):
        iv.load_checkpoint(bad)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("architecture-conformance",
           f"20 tensors validated, deviants rejected, {elapsed * 1e3:.0f}ms")


# 3 ------------------------------------------------------------------------

def test_structural_reductions():
    """n_iterations=1 is the plain decoder; zero feedback conv is a no-op;
    zero dense convs reduce encode to the tiled skips; a1=1 pre-fusion is
    identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    params = iv.init_params(1, dtype=np.float64)
    y = Tensor(rng.standard_normal((1, 64, 16, 16)))
    assert np.array_equal(iv.decode(y, params, iv.FeedbackConfig(1)).data,
                          decoder_pass(y, params).data)

    params.tensors["decoder.c6.weight"].data[...] = 0.0
    params.tensors["decoder.c6.bias"].data[...] = 0.0
    assert np.array_equal(iv.decode(y, params, iv.FeedbackConfig(4)).data,
                          iv.decode(y, params, iv.FeedbackConfig(1)).data)

    zeroed = iv.init_params(2, dtype=np.float64)
    for name, t in zeroed.tensors.items():
        if "rdb" in name:
            t.data[...] = 0.0
    img = Tensor(rng.uniform(0, 1, (1, 1, 8, 8)))
    rough = iv.conv2d(img, zeroed.weight("encoder.c1"),
                      zeroed.bias("encoder.c1"), relu=True)
    assert np.array_equal(iv.encode(img, zeroed).data,
                          np.tile(2 * rough.data, (1, 4, 1, 1)))

    ir = rng.uniform(0, 1, (12, 12))
    vis = rng.uniform(0, 1, (12, 12))
    iw, vw = iv.pre_fuse(ir, vis, iv.PreFusionConfig(1.0))
    assert np.array_equal(iw, ir)
    assert np.array_equal(vw, vis)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("structural-reductions", f"4 reductions bitwise, {elapsed:.1f}s")


# 4 ------------------------------------------------------------------------

def test_pipeline_symmetry():
    """fuse_images(A, B) == fuse_images(B, A) bitwise, 10 random models."""
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        params = iv.init_params(seed)
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        ab = iv.fuse_images(a, b, params)
        ba = iv.fuse_images(b, a, params)
        assert np.array_equal(ab, ba), f"asymmetry at seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("pipeline-symmetry", f"10 parameter sets bitwise, {elapsed:.1f}s")


# 5 ------------------------------------------------------------------------

@pytest.mark.slow
def test_overfit_convergence():
    """4 synthetic 32x32 pairs, <= 2000 steps, reconstruction RMSE < 0.05
    on the training pre-fused images (desk-scale stand-in for the full
    training run, whose corpora are license-restricted)."""
    t0 = time.perf_counter()
    corpus = iv.synth_corpus(4, 32, seed=7)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=10 ** 6,
                      seed=7, max_steps=2000, stop_rmse=0.05,
                      eval_interval=25)
    params, log = iv.train(corpus, cfg)
    assert len(log.rows) <= 2000
    samples = prefused_samples(corpus, cfg.pre_fusion)
    rmse = reconstruction_rmse(params, samples, cfg.feedback)
    elapsed = time.perf_counter() - t0
    assert rmse < 0.05, f"reconstruction RMSE {rmse:.4f}"
    assert elapsed < 300.0, f"overfit took {elapsed:.0f}s"
    report("overfit-convergence",
           f"RMSE {rmse:.4f} after {len(log.rows)} steps, {elapsed:.0f}s")


# 6 ------------------------------------------------------------------------

def test_metric_oracle_equivalence():
    """EN and PSNR within 1e-9, SSIM and Qabf within 1e-6 of brute-force
    oracles on 20 random 16x16 triples, plus the closed-form anchors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = {"en": 0.0, "qabf": 0.0, "ssim": 0.0, "psnr": 0.0}
    for _ in range(20):
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        f = rng.uniform(0, 1, (16, 16))
        worst["en"] = max(worst["en"], abs(iv.entropy(f) - entropy_loops(f)))
        worst["qabf"] = max(worst["qabf"],
                            abs(iv.qabf(a, b, f) - qabf_loops(a, b, f)))
        want_ssim = (ssim_loops(f, a) + ssim_loops(f, b)) / 2.0
        worst["ssim"] = max(worst["ssim"],
                            abs(iv.ssim_metric(f, a, b) - want_ssim))
        worst["psnr"] = max(worst["psnr"],
                            abs(iv.psnr(f, a, b) - psnr_loops(f, a, b)))
    assert worst["en"] < 1e-9
    assert worst["psnr"] < 1e-9
    assert worst["ssim"] < 1e-6
    assert worst["qabf"] < 1e-6

    # anchors
    assert iv.entropy(np.full((16, 16), 0.4)) == 0.0
    half = np.zeros((16, 16))
    half[:, 8:] = 1.0
    assert iv.entropy(half) == pytest.approx(1.0, abs=1e-12)
    base = rng.uniform(0, 1, (16, 16)) * (1 - 16 / 255)
    shifted = base + 16 / 255
    assert iv.psnr(shifted, base, base.copy()) == pytest.approx(
        20 * math.log10(255 / 16), abs=0.01)
    x = rng.uniform(0, 1, (16, 16))
    assert iv.ssim_metric(x, x.copy(), x.copy()) == pytest.approx(1.0, abs=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("metric-oracle-equivalence",
           f"worst: en {worst['en']:.1e}, psnr {worst['psnr']:.1e}, "
           f"ssim {worst['ssim']:.1e}, qabf {worst['qabf']:.1e}, {elapsed:.0f}s")


# 7 & 8 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Run the CLI demo twice with one seed; also reload its corpus.

    Every test that uses it is marked ``slow``, so ``-m "not slow"``
    skips the two demo runs."""
    dirs = []
    t0 = time.perf_counter()
    for run in range(2):
        out_dir = tmp_path_factory.mktemp(f"demo{run}")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "ivfuse", "demo", "--seed", "7",
             "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=900)
        assert proc.returncode == 0, proc.stderr
        dirs.append(out_dir)
    return dirs, time.perf_counter() - t0


@pytest.mark.slow
def test_reference_targets_documented_and_demo_substitute(demo_runs):
    """The published benchmark targets are recorded (they need the
    license-restricted corpora); the live check is that demo fusions land
    in the metrics' valid ranges and preserve histogram entropy."""
    assert iv.metrics.REFERENCE_RESULTS["CASIA"] == {
        "en": 7.2022, "qabf": 0.5913, "ssim": 0.9514, "psnr": 23.06}
    assert iv.metrics.REFERENCE_RESULTS["QFIRE"] == {
        "en": 7.7522, "qabf": 0.5463, "ssim": 0.9386, "psnr": 21.03}

    (out_dir, _), _ = demo_runs
    params = iv.load_checkpoint(out_dir / "checkpoint.hfn")
    corpus = iv.synth_corpus(6, 32, seed=7)  # the demo corpus
    en_ok = 0
    for pair in corpus.pairs:
        fused = iv.fuse_images(pair.infrared, pair.visible, params)
        row = iv.measure_triple(pair.infrared, pair.visible, fused, pair.name)
        assert 0.0 < row.en <= 8.0
        assert 0.0 <= row.qabf <= 1.0
        assert 0.0 < row.ssim <= 1.0
        assert math.isfinite(row.psnr)
        assert not np.array_equal(fused, pair.infrared)
        assert not np.array_equal(fused, pair.visible)
        if row.en >= min(iv.entropy(pair.infrared), iv.entropy(pair.visible)):
            en_ok += 1
    frac = en_ok / len(corpus.pairs)
    assert frac >= 0.8, f"EN >= min(EN sources) only on {frac:.0%} of pairs"
    report("reference-targets-and-demo-substitute",
           f"targets documented; EN preserved on {en_ok}/{len(corpus.pairs)} "
           f"demo pairs, all metrics in range")


@pytest.mark.slow
def test_demo_determinism_bitwise(demo_runs):
    """Two runs of ``demo --seed 7`` produce bitwise-identical
    checkpoints, fused images, and reports."""
    (d0, d1), elapsed = demo_runs
    names = sorted(p.name for p in d0.iterdir())
    assert names == sorted(p.name for p in d1.iterdir())
    assert "checkpoint.hfn" in names
    assert "report.txt" in names and "report.csv" in names
    assert any(n.endswith("_fused.pgm") for n in names)
    for name in names:
        a = (d0 / name).read_bytes()
        b = (d1 / name).read_bytes()
        assert a == b, f"demo artifact {name} differs between runs"
    assert elapsed < 1200.0
    report("demo-determinism",
           f"{len(names)} artifacts bitwise identical, two runs in "
           f"{elapsed:.0f}s")


# extra: demo "between the spectra" property from the demo contract ---------

@pytest.mark.slow
def test_demo_fusion_lies_between_spectra(demo_runs):
    """Fused output is closer to the source mean than the sources are to
    each other, for every demo test pair."""
    (out_dir, _), _ = demo_runs
    params = iv.load_checkpoint(out_dir / "checkpoint.hfn")
    corpus = iv.synth_corpus(6, 32, seed=7)
    checked = 0
    for pair in corpus.test_pairs():
        fused = iv.fuse_images(pair.infrared, pair.visible, params)
        mean_src = (pair.infrared + pair.visible) / 2.0
        rmse_fused = float(np.sqrt(np.mean((fused - mean_src) ** 2)))
        rmse_cross = float(np.sqrt(np.mean((pair.infrared - pair.visible) ** 2)))
        assert rmse_fused < rmse_cross, pair.name
        checked += 1
    assert checked >= 1
    report("demo-fusion-betweenness", f"{checked} test pairs")
