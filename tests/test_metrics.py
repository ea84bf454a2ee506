import math
import re

import numpy as np
import pytest

from ivfuse.dataset import synth_corpus
from ivfuse.errors import DomainError, ShapeError
from ivfuse.losses import ssim as ssim_graph
from ivfuse.metrics import (REFERENCE_RESULTS, MetricReport, MetricRow,
                            entropy, evaluate_corpus, measure_triple, psnr,
                            qabf, ssim_metric)
from ivfuse.network import FeedbackConfig, init_params
from oracles import entropy_loops, psnr_loops, qabf_loops, ssim_loops

# Ceiling of the edge-fidelity score when every edge is perfectly
# preserved: the two sigmoids evaluated at ratio 1 and alignment 1.
# Frozen from the loop oracle (and the closed form) -- the sigmoid
# constants saturate near, not at, 1.
QABF_PERFECT = 0.9747936249694964


def img(seed, side=16):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (side, side))


# --------------------------------------------------------------- entropy

@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
@pytest.mark.parametrize("metric", [entropy, qabf, ssim_metric, psnr])
def test_metrics_reject_empty_images_naming_the_shape(metric, shape):
    # entropy used to read 0.0, psnr NaN, and qabf failed in the conv
    # tiling
    empty = np.zeros(shape)
    args = (empty,) if metric is entropy else (empty, empty, empty)
    with pytest.raises(ShapeError, match=re.escape(str(shape))):
        metric(*args)


def test_entropy_constant_image_zero():
    assert entropy(np.full((16, 16), 0.5)) == 0.0


def test_entropy_half_black_half_white_one_bit():
    x = np.zeros((16, 16))
    x[:, 8:] = 1.0
    assert entropy(x) == pytest.approx(1.0, abs=1e-12)


def test_entropy_uniform_ramp_eight_bits():
    x = (np.arange(256, dtype=np.float64) / 255.0).reshape(16, 16)
    assert entropy(x) == pytest.approx(8.0, abs=1e-12)
    assert entropy(x) == pytest.approx(entropy_loops(x), abs=1e-12)


def test_entropy_permutation_invariant():
    x = img(0)
    shuffled = x.ravel().copy()
    np.random.default_rng(1).shuffle(shuffled)
    assert entropy(x) == entropy(shuffled.reshape(x.shape))


def test_entropy_matches_oracle():
    for seed in range(5):
        x = img(seed)
        assert entropy(x) == pytest.approx(entropy_loops(x), abs=1e-9)


# ------------------------------------------------------------------ qabf

def test_qabf_perfect_preservation_ceiling():
    x = img(2)
    got = qabf(x, x, x)
    assert got == pytest.approx(qabf_loops(x, x, x), abs=1e-6)
    assert got == pytest.approx(QABF_PERFECT, abs=1e-9)


def test_qabf_constant_fused_scores_near_zero():
    # Zero-padded Sobel borders leave residual edge weight on small
    # images, so "no edges preserved" is checked at 64x64 where the
    # border share is immaterial; the oracle agrees at small sizes too.
    a, b = img(3, 64), img(4, 64)
    f = np.full_like(a, 0.5)
    assert qabf(a, b, f) < 0.05
    a16, b16 = img(3), img(4)
    f16 = np.full_like(a16, 0.5)
    assert qabf(a16, b16, f16) == pytest.approx(
        qabf_loops(a16, b16, f16), abs=1e-6)


def test_qabf_range_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.uniform(0, 1, (12, 12))
        b = rng.uniform(0, 1, (12, 12))
        f = rng.uniform(0, 1, (12, 12))
        assert 0.0 <= qabf(a, b, f) <= 1.0


def test_qabf_reference_symmetry():
    a, b, f = img(6), img(7), img(8)
    assert abs(qabf(a, b, f) - qabf(b, a, f)) < 1e-12


def test_qabf_matches_oracle():
    for seed in range(5):
        a, b, f = img(3 * seed), img(3 * seed + 1), img(3 * seed + 2)
        assert qabf(a, b, f) == pytest.approx(qabf_loops(a, b, f), abs=1e-6)
    rng = np.random.default_rng(7)
    a, b, f = rng.uniform(0, 1, (3, 12, 19))   # non-square
    assert qabf(a, b, f) == pytest.approx(qabf_loops(a, b, f), abs=1e-6)
    # 8-bit levels constant along each row: the horizontal Sobel response is
    # exactly 0 inside, and must stay so for the orientation to be pi/2
    rows = np.repeat(np.round(rng.uniform(0, 1, (2, 14, 1)) * 255) / 255, 17,
                     axis=2)
    f = np.round(rng.uniform(0, 1, (14, 17)) * 255) / 255
    assert qabf(rows[0], f, rows[1]) == pytest.approx(
        qabf_loops(rows[0], f, rows[1]), abs=1e-6)


def test_qabf_all_zero_triple_is_zero():
    # only an all-zero triple has no gradient weight anywhere (a nonzero
    # flat image still has zero-padding edges at the border)
    zero = np.zeros((8, 8))
    assert qabf(zero, zero.copy(), zero.copy()) == 0.0


def test_qabf_shape_mismatch():
    with pytest.raises(ShapeError):
        qabf(np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 9)))


# ----------------------------------------------------------- ssim metric

def test_ssim_metric_identical_triple_is_one():
    x = img(9)
    assert ssim_metric(x, x.copy(), x.copy()) == pytest.approx(1.0, abs=1e-9)


def test_ssim_metric_duplicate_reference():
    f, a = img(10), img(11)
    got = ssim_metric(f, a, a.copy())
    assert abs(got - float(ssim_graph(f, a).data)) < 1e-12


def test_ssim_metric_reference_symmetric():
    f, a, b = img(12), img(13), img(14)
    assert abs(ssim_metric(f, a, b) - ssim_metric(f, b, a)) < 1e-12


def test_ssim_metric_matches_oracle():
    f, a, b = img(15, 32), img(16, 32), img(17, 32)
    want = (ssim_loops(f, a) + ssim_loops(f, b)) / 2.0
    assert ssim_metric(f, a, b) == pytest.approx(want, abs=1e-6)


# ------------------------------------------------------------------ psnr

def test_psnr_constant_offset_closed_form():
    a = img(18) * (1.0 - 16.0 / 255.0)
    f = a + 16.0 / 255.0
    want = 20.0 * math.log10(255.0 / 16.0)  # about 24.03 dB
    assert psnr(f, a, a.copy()) == pytest.approx(want, abs=0.01)


def test_psnr_identical_triple_is_infinite():
    x = img(19)
    assert psnr(x, x.copy(), x.copy()) == math.inf


def test_psnr_matches_oracle():
    for seed in range(5):
        f, a, b = img(seed), img(seed + 50), img(seed + 100)
        assert psnr(f, a, b) == pytest.approx(psnr_loops(f, a, b), abs=1e-9)


def test_psnr_monotone_under_growing_noise():
    base = img(20)
    a, b = img(21), img(22)
    rng = np.random.default_rng(23)
    for _ in range(20):
        noise = rng.standard_normal(base.shape)
        small = np.clip(base + 0.02 * noise, 0, 1)
        large = np.clip(base + 0.2 * noise, 0, 1)
        assert psnr(large, a, b) <= psnr(small, a, b)


# ----------------------------------------------------------------- report

def test_reference_results_documented():
    for corpus in ("CASIA", "QFIRE"):
        row = REFERENCE_RESULTS[corpus]
        assert set(row) == {"en", "qabf", "ssim", "psnr"}
    assert REFERENCE_RESULTS["CASIA"]["en"] == 7.2022
    assert REFERENCE_RESULTS["CASIA"]["qabf"] == 0.5913
    assert REFERENCE_RESULTS["CASIA"]["ssim"] == 0.9514
    assert REFERENCE_RESULTS["CASIA"]["psnr"] == 23.06
    assert REFERENCE_RESULTS["QFIRE"]["en"] == 7.7522
    assert REFERENCE_RESULTS["QFIRE"]["qabf"] == 0.5463
    assert REFERENCE_RESULTS["QFIRE"]["ssim"] == 0.9386
    assert REFERENCE_RESULTS["QFIRE"]["psnr"] == 21.03


def test_single_pair_report_mean_equals_row():
    corpus = synth_corpus(1, 16, seed=0)
    params = init_params(0)
    report = evaluate_corpus(corpus.pairs, params, FeedbackConfig(1))
    assert len(report.rows) == 1
    assert report.means() == pytest.approx(report.rows[0].values())


def test_report_sorted_and_means_match_hand_average():
    rows = [MetricRow("b", 1.0, 0.5, 0.9, 20.0),
            MetricRow("a", 3.0, 0.1, 0.8, 10.0),
            MetricRow("c", 2.0, 0.3, 0.7, 30.0)]
    report = MetricReport("x", "m", rows)
    assert [r.pair_id for r in report.rows] == ["a", "b", "c"]
    want = np.array([r.values() for r in rows]).mean(axis=0)
    assert report.means() == pytest.approx(tuple(want), abs=1e-9)


def test_report_csv_format():
    report = MetricReport("x", "m", [MetricRow("p0", 1.5, 0.25, 0.75, 12.0)])
    lines = report.csv_lines()
    assert lines[0] == "pair_id,en,qabf,ssim,psnr"
    assert lines[1] == "p0,1.500000,0.250000,0.750000,12.000000"


def test_report_table_column_order():
    report = MetricReport("x", "m", [MetricRow("p0", 1.0, 0.2, 0.3, 4.0)])
    header = report.table_text().splitlines()[1]
    assert header.split() == ["pair", "EN", "Qabf", "SSIM", "PSNR"]


def test_evaluate_corpus_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_corpus([], init_params(0))


def test_measure_triple_all_finite_on_random_inputs():
    row = measure_triple(img(24), img(25), img(26))
    for v in row.values():
        assert math.isfinite(v)


@pytest.mark.parametrize("metric, names", [
    (entropy, ("img",)),
    (qabf, ("a", "b", "f")),
    (ssim_metric, ("f", "a", "b")),
    (psnr, ("f", "a", "b")),
    (measure_triple, ("a", "b", "f")),
], ids=["entropy", "qabf", "ssim_metric", "psnr", "measure_triple"])
def test_metrics_reject_a_nan_pixel_naming_the_argument(metric, names):
    for k, name in enumerate(names):
        args = [img(30 + j) for j in range(len(names))]
        args[k][3, 5] = np.nan
        with pytest.raises(DomainError,
                           match=rf"^{metric.__name__}: {name} has non-finite"):
            metric(*args)
