import numpy as np
import pytest

import ivfuse.tensor
from ivfuse.errors import ConfigError, ShapeError
from ivfuse.losses import (LossConfig, _gradient_magnitude, avg_gradient,
                           composite_loss_parts, pixel_loss, ssim,
                           ssim_loss)
from ivfuse.tensor import Tensor, backward, finite_diff_gradient
from oracles import avg_gradient_loops, ssim_loops


def img(seed, side=16):
    return np.random.default_rng(seed).uniform(0.05, 0.95, (side, side))


# -------------------------------------------------------------- pixel_loss

def test_pixel_loss_zero_when_equal():
    x = img(0)
    assert pixel_loss(x, x.copy()).item() == 0.0


def test_pixel_loss_closed_forms():
    o = np.full((2, 2), 0.75)
    i = np.full((2, 2), 0.25)
    assert pixel_loss(o, i, "norm").item() == pytest.approx(1.0, abs=1e-12)
    assert pixel_loss(o, i, "mse").item() == pytest.approx(0.25, abs=1e-12)


def test_pixel_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        pixel_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_pixel_loss_bad_mode():
    with pytest.raises(ConfigError):
        pixel_loss(np.zeros((2, 2)), np.zeros((2, 2)), "l1")


# -------------------------------------------------------------------- ssim

def test_ssim_self_similarity_is_one():
    for seed in range(3):
        x = img(seed)
        assert abs(ssim(x, x.copy()).item() - 1.0) < 1e-9


def test_ssim_anticorrelated_is_negative():
    x = np.zeros((16, 16))
    x[:, 8:] = 1.0
    value = ssim(x, 1.0 - x).item()
    assert value < 0.0
    assert value == pytest.approx(ssim_loops(x, 1.0 - x), abs=1e-12)


def test_ssim_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(0, 1, (32, 32))
        b = rng.uniform(0, 1, (32, 32))
        assert ssim(a, b).item() == pytest.approx(ssim_loops(a, b), abs=1e-6)
    # a non-square batch scores the mean of its per-image values
    a, b = rng.uniform(0, 1, (2, 3, 1, 14, 19))
    want = np.mean([ssim_loops(x, y) for x, y in zip(a[:, 0], b[:, 0])])
    assert ssim(a, b).item() == pytest.approx(want, abs=1e-6)


def test_ssim_symmetry():
    a, b = img(2), img(3)
    assert abs(ssim(a, b).item() - ssim(b, a).item()) < 1e-12


def test_ssim_window_larger_than_image_rejected():
    with pytest.raises(ShapeError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))  # default window is 11


def test_ssim_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(ssim_window=4)
    with pytest.raises(ConfigError):
        LossConfig(ag_mode="bogus")
    for sigma in (0.0, -1.5, float("nan")):
        with pytest.raises(ConfigError, match="ssim_sigma"):
            LossConfig(ssim_sigma=sigma)
    for key in ("ssim_weight", "ag_weight"):
        for bad in (-1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=key):
                LossConfig(**{key: bad})
        LossConfig(**{key: 0.0})


# --------------------------------------------------------------- ssim_loss

def test_ssim_loss_zero_when_equal():
    x = img(4)
    assert abs(ssim_loss(x, x.copy()).item()) < 1e-9


def test_ssim_loss_range():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        value = ssim_loss(a, b).item()
        assert 0.0 <= value <= 2.0


def test_ssim_loss_gradient_matches_finite_differences():
    o = Tensor(img(6))
    target = img(7)
    backward(ssim_loss(o, target))
    numeric = finite_diff_gradient(lambda t: ssim_loss(t, target), o)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(o.grad - numeric).max() / scale < 1e-4


def test_ssim_backward_lowers_only_what_leads_to_the_output(monkeypatch):
    # The windows and an array target are constants: backward makes no
    # window weight gradient, and the target's two window means make no
    # node at all. Left are the input gradients of the six convs on the
    # output's path (mu_o, o * o and o * t, two passes each).
    lowered = []
    row_tiles = ivfuse.tensor._row_tiles

    def counted(*args):
        lowered.append(args[0].shape)
        return row_tiles(*args)

    monkeypatch.setattr(ivfuse.tensor, "_row_tiles", counted)
    o = Tensor(img(8))
    value = ssim(o, img(9))
    lowered.clear()
    backward(value)
    assert len(lowered) == 6
    assert o.grad.shape == o.shape


# ------------------------------------------------------------ avg_gradient

def test_avg_gradient_constant_is_zero():
    assert avg_gradient(np.full((8, 8), 0.37)).item() == 0.0


def test_avg_gradient_horizontal_ramp_closed_form():
    c = 0.01
    o = np.tile(np.arange(16) * c, (16, 1))
    want = c / np.sqrt(2.0)
    assert avg_gradient(o).item() == pytest.approx(want, rel=1e-12)


def test_avg_gradient_matches_loop_oracle():
    for seed in range(5):
        x = img(seed, 16)
        assert avg_gradient(x).item() == pytest.approx(
            avg_gradient_loops(x), abs=1e-9)
    # non-square images, where dx and dy taken along the wrong axes would
    # show, each image of a batch on its own; and the smallest image
    batch = np.random.default_rng(5).uniform(0.05, 0.95, (3, 1, 9, 14))
    per_image = _gradient_magnitude(Tensor(batch)).data.mean(axis=(1, 2))
    for x, value in zip(batch[:, 0], per_image):
        assert value == pytest.approx(avg_gradient_loops(x), abs=1e-9)
    tiny = np.array([[0.1, 0.7], [0.4, 0.2]])
    assert avg_gradient(tiny).item() == pytest.approx(
        avg_gradient_loops(tiny), abs=1e-9)


def test_avg_gradient_translation_invariant():
    x = img(8)
    a = avg_gradient(x).item()
    b = avg_gradient(x + 0.111).item()
    assert abs(a - b) < 1e-12


def test_avg_gradient_too_small_rejected():
    with pytest.raises(ShapeError):
        avg_gradient(np.zeros((1, 5)))


def test_avg_gradient_gradient_matches_finite_differences():
    o = Tensor(img(9, 12))
    backward(avg_gradient(o))
    numeric = finite_diff_gradient(avg_gradient, o)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(o.grad - numeric).max() / scale < 1e-4


# ---------------------------------------------------------- composite_loss

def test_composite_zero_iff_equal_in_sharpness_mode():
    x = img(10)
    for lam, gam in ((100.0, 0.1), (7.0, 3.0)):
        cfg = LossConfig(ssim_weight=lam, ag_weight=gam)
        assert abs(composite_loss_parts(x, x.copy(), cfg)[0].item()) < 1e-9
    y = img(11)
    assert composite_loss_parts(x, y)[0].item() > 0.0


def test_composite_reduces_to_pixel_loss():
    cfg = LossConfig(ssim_weight=0.0, ag_weight=0.0)
    o, i = img(12), img(13)
    assert (composite_loss_parts(o, i, cfg)[0].item()
            == pixel_loss(o, i).item())


def test_composite_components_nonnegative():
    cfg = LossConfig()
    _, parts = composite_loss_parts(img(14), img(15), cfg)
    assert parts["L_p"] >= 0.0
    assert parts["L_ssim"] >= 0.0
    assert parts["L_ag"] >= 0.0
    assert parts["L"] == pytest.approx(
        cfg.ssim_weight * parts["L_ssim"] + parts["L_p"]
        + cfg.ag_weight * parts["L_ag"], rel=1e-6)


@pytest.mark.parametrize("mode", ["literal", "sharpness_match"])
def test_composite_gradient_matches_finite_differences(mode):
    cfg = LossConfig(ag_mode=mode)
    o = Tensor(img(16))
    target = img(17)
    backward(composite_loss_parts(o, target, cfg)[0])
    numeric = finite_diff_gradient(
        lambda t: composite_loss_parts(t, target, cfg)[0], o)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(o.grad - numeric).max() / scale < 1e-4


def test_composite_literal_mode_uses_output_gradient_only():
    cfg = LossConfig(ssim_weight=0.0, ag_weight=1.0, ag_mode="literal")
    o, i = img(18), img(19)
    want = pixel_loss(o, i).item() + avg_gradient(o).item()
    got = composite_loss_parts(o, i, cfg)[0].item()
    assert got == pytest.approx(want, rel=1e-12)


def test_composite_batch_averages_per_image_losses():
    rng = np.random.default_rng(20)
    o = rng.uniform(0, 1, (3, 1, 16, 16))
    t = rng.uniform(0, 1, (3, 1, 16, 16))
    cfg = LossConfig()
    batch = composite_loss_parts(o, t, cfg)[0].item()
    singles = [composite_loss_parts(o[b, 0], t[b, 0], cfg)[0].item()
               for b in range(3)]
    assert batch == pytest.approx(np.mean(singles), rel=1e-9)


def test_composite_shape_mismatch():
    with pytest.raises(ShapeError):
        composite_loss_parts(np.zeros((16, 16)), np.zeros((16, 17)))


@pytest.mark.parametrize("pixel_mode", ["mse", "norm"])
@pytest.mark.parametrize("ag_mode", ["literal", "sharpness_match"])
def test_composite_batch_gradient_matches_finite_differences(ag_mode,
                                                             pixel_mode):
    cfg = LossConfig(ag_mode=ag_mode, pixel_mode=pixel_mode)
    rng = np.random.default_rng(21)
    o = Tensor(rng.uniform(0.05, 0.95, (2, 1, 12, 12)))
    target = rng.uniform(0.05, 0.95, (2, 1, 12, 12))
    backward(composite_loss_parts(o, target, cfg)[0])
    numeric = finite_diff_gradient(
        lambda t: composite_loss_parts(t, target, cfg)[0], o)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(o.grad - numeric).max() / scale < 1e-4


@pytest.mark.parametrize("dtype, rel", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("pixel_mode", ["mse", "norm"])
@pytest.mark.parametrize("ag_mode", ["literal", "sharpness_match"])
def test_composite_parts_match_per_image_loop(ag_mode, pixel_mode, dtype, rel):
    # the batch graph against a loop over single images, each part
    # averaged in Python
    cfg = LossConfig(ag_mode=ag_mode, pixel_mode=pixel_mode)
    rng = np.random.default_rng(22)
    o = rng.uniform(0, 1, (4, 1, 32, 32)).astype(dtype)
    t = rng.uniform(0, 1, (4, 1, 32, 32)).astype(dtype)
    _, batch = composite_loss_parts(o, t, cfg)
    singles = [composite_loss_parts(o[b, 0], t[b, 0], cfg)[1] for b in range(4)]
    for key in ("L", "L_p", "L_ssim", "L_ag"):
        want = np.mean([s[key] for s in singles])
        assert batch[key] == pytest.approx(want, rel=rel), key
