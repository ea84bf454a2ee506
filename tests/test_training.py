import tracemalloc

import numpy as np
import pytest

import ivfuse.network
import ivfuse.training
from ivfuse.checkpoint import save_checkpoint
from ivfuse.dataset import ImagePair, PairDataset, synth_corpus
from ivfuse.errors import ConfigError, DivergenceError, DomainError, ShapeError
from ivfuse.losses import LossConfig
from ivfuse.network import FeedbackConfig, init_params
from ivfuse.tensor import Tensor
from ivfuse.training import (Adam, SGD, TrainConfig, TrainingLog,
                             prefused_samples, reconstruction_rmse, train)


def desk_config(**kw):
    base = dict(learning_rate=1e-3, batch_size=4, epochs=10 ** 6,
                seed=1, max_steps=4)
    base.update(kw)
    return TrainConfig(**base)


def test_adam_step_matches_hand_computation():
    w = Tensor(np.array([1.0, 2.0], dtype=np.float64))
    opt = Adam({"w": w}, lr=0.01)
    g = np.array([0.5, -1.0])
    w.grad = g.copy()
    opt.step()
    # first step: m_hat = g, v_hat = g^2
    want = np.array([1.0, 2.0]) - 0.01 * g / (np.sqrt(g * g) + 1e-8)
    assert np.abs(w.data - want).max() < 1e-10


def test_adam_second_step_matches_hand_computation():
    w = Tensor(np.array([0.5], dtype=np.float64))
    opt = Adam({"w": w}, lr=0.1)
    g1, g2 = 0.3, -0.2
    w.grad = np.array([g1])
    opt.step()
    w.grad = np.array([g2])
    opt.step()
    m = 0.9 * (0.1 * g1) + 0.1 * g2
    v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
    m_hat = m / (1 - 0.9 ** 2)
    v_hat = v / (1 - 0.999 ** 2)
    first = 0.5 - 0.1 * g1 / (np.sqrt(g1 * g1) + 1e-8)
    want = first - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(w.data[0] - want) < 1e-10


def test_sgd_step():
    w = Tensor(np.array([1.0, -1.0]))
    opt = SGD({"w": w}, lr=0.5)
    w.grad = np.array([0.2, 0.4])
    opt.step()
    assert np.allclose(w.data, [0.9, -1.2])


def test_zero_learning_rate_leaves_params_bitwise_unchanged():
    corpus = synth_corpus(2, 16, seed=2)
    cfg = desk_config(learning_rate=0.0, seed=2, max_steps=3)
    params, _ = train(corpus, cfg)
    init = init_params(2, dtype=np.float32)
    for name in params.tensors:
        assert np.array_equal(params.tensors[name].data,
                              init.tensors[name].data)


def test_one_epoch_changes_every_parameter_tensor():
    corpus = synth_corpus(1, 16, seed=3)
    cfg = desk_config(seed=3, max_steps=1)
    params, log = train(corpus, cfg)
    assert len(log.rows) == 1
    init = init_params(3, dtype=np.float32)
    for name in params.tensors:
        assert not np.array_equal(params.tensors[name].data,
                                  init.tensors[name].data), name


def test_training_is_deterministic_bitwise(tmp_path):
    corpus = synth_corpus(2, 16, seed=4)
    outs = []
    for run in range(2):
        cfg = desk_config(seed=4, max_steps=6)
        params, log = train(corpus, cfg)
        path = tmp_path / f"run{run}.hfn"
        save_checkpoint(params, path)
        outs.append((path.read_bytes(), log.lines()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_a_step_frees_the_previous_steps_graph():
    # train() drops each step's graph once backward has run, so a second
    # step's forward never runs alongside the first step's tape: two steps
    # peak no higher than one (B=4, 32x32, 8 blends an epoch)
    corpus = synth_corpus(5, 32, seed=8)
    peaks = []
    for steps in (1, 2):
        tracemalloc.start()
        try:
            train(corpus, desk_config(seed=8, max_steps=steps))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0], [p / 2 ** 20 for p in peaks]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_location():
    corpus = synth_corpus(2, 16, seed=5)
    cfg = desk_config(learning_rate=1e10, seed=5, max_steps=40)
    with pytest.raises(DivergenceError, match=r"epoch \d+, step \d+"):
        train(corpus, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_weights_that_overflow_abort_with_the_tensor_named():
    # the loss of the one step is finite; the Adam update overflows float32
    corpus = synth_corpus(4, 16, seed=0)
    cfg = desk_config(learning_rate=1e39, seed=0, max_steps=1,
                      loss=LossConfig(ssim_window=3))
    with pytest.raises(DivergenceError,
                       match=r"epoch 1, step 0: encoder\.c1\.weight"):
        train(corpus, cfg)


@pytest.mark.parametrize("spectrum", ["infrared", "visible"])
def test_a_non_finite_training_pixel_is_refused_before_any_step(
        monkeypatch, spectrum):
    corpus = synth_corpus(4, 16, seed=0)
    pair = corpus.train_pairs()[1]
    getattr(pair, spectrum)[3, 3] = np.nan

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(ivfuse.training, "reconstruct", no_step)
    with pytest.raises(DomainError, match=f"{pair.name}.*{spectrum}"):
        train(corpus, desk_config(loss=LossConfig(ssim_window=3)))


def test_fusion_layer_never_invoked_during_training(monkeypatch):
    calls = []
    fuse_add = ivfuse.network.fuse_add

    def counting_fuse_add(phi1, phi2):
        calls.append(1)
        return fuse_add(phi1, phi2)

    monkeypatch.setattr(ivfuse.network, "fuse_add", counting_fuse_add)
    corpus = synth_corpus(2, 16, seed=6)
    train(corpus, desk_config(seed=6, max_steps=2))
    assert len(calls) == 0


def test_epoch_means_non_increasing_after_epoch_20():
    # default optimizer config: batch 32 covers the whole desk corpus,
    # so each epoch is one step and its mean is that full-batch loss
    corpus = synth_corpus(4, 32, seed=7)
    cfg = TrainConfig(epochs=30, seed=7)
    _, log = train(corpus, cfg)
    assert [row[0] for row in log.rows] == list(range(1, 31))
    means = [row[2] for row in log.rows]
    tail = means[19:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_training_log_format():
    log = TrainingLog()
    log.record(1, 0, {"L": 1.5, "L_p": 0.5, "L_ssim": 0.25, "L_ag": 0.1})
    lines = log.lines()
    assert lines[0] == "epoch,step,L,L_p,L_ssim,L_ag"
    fields = lines[1].split(",")
    assert fields[:2] == ["1", "0"]
    assert [float(f) for f in fields[2:]] == [1.5, 0.5, 0.25, 0.1]


def test_ssim_window_larger_than_images_is_config_error(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(ivfuse.training, "reconstruct", no_step)
    corpus = synth_corpus(2, 16, seed=0)
    cfg = desk_config(loss=LossConfig(ssim_window=17))
    with pytest.raises(ConfigError, match="ssim_window.*16x16.*image_size"):
        train(corpus, cfg)


def test_mixed_image_sizes_rejected_before_any_batched_step(monkeypatch):
    pairs = [ImagePair(f"p{side}", np.full((side, side), 0.25),
                       np.full((side, side), 0.75)) for side in (16, 20)]
    corpus = PairDataset(pairs)
    reconstruct = ivfuse.training.reconstruct

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(ivfuse.training, "reconstruct", no_step)
    with pytest.raises(ShapeError, match="16x16 and 20x20"):
        train(corpus, desk_config(batch_size=2))
    monkeypatch.setattr(ivfuse.training, "reconstruct", reconstruct)
    _, log = train(corpus, desk_config(batch_size=1, max_steps=4))
    assert len(log.rows) == 4   # one image a step takes any size


def test_early_stop_on_reconstruction_target():
    corpus = synth_corpus(2, 16, seed=8)
    cfg = desk_config(seed=8, max_steps=50, stop_rmse=10.0, eval_interval=2)
    _, log = train(corpus, cfg)
    assert len(log.rows) == 2  # stopped at the first evaluation


def test_reconstruction_rmse_zero_for_perfect_model():
    # an identity check is impossible for a random net, but rmse must be
    # finite, nonnegative, and deterministic
    corpus = synth_corpus(1, 16, seed=9)
    params = init_params(9, dtype=np.float32)
    samples = prefused_samples(corpus, TrainConfig().pre_fusion)
    a = reconstruction_rmse(params, samples, TrainConfig().feedback)
    b = reconstruction_rmse(params, samples, TrainConfig().feedback)
    assert a == b
    assert 0.0 <= a < 10.0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="adagrad")
    for bad in (dict(learning_rate=float("nan")),
                dict(learning_rate=float("inf")), dict(stop_rmse=0.0),
                dict(max_steps=0), dict(eval_interval=0),
                dict(adam_eps=-1.0), dict(adam_eps=0.0),
                dict(adam_eps=float("inf")), dict(adam_eps=float("nan")),
                dict(beta1=1.0), dict(beta1=-0.1), dict(beta2=1.0),
                dict(beta2=float("nan")), dict(seed=-1)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_train_rejects_empty_train_split():
    corpus = synth_corpus(2, 16, seed=10)
    for p in corpus.pairs:
        p.split = "test"
    with pytest.raises(ConfigError):
        train(corpus, desk_config())


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_unreached_parameter_survives_a_step_unchanged(optimizer):
    # with one feedback iteration decoder.c6 takes no part in the graph,
    # so its gradient stays the zero a leaf starts with
    corpus = synth_corpus(1, 16, seed=12)
    cfg = desk_config(seed=12, optimizer=optimizer, max_steps=1,
                      feedback=FeedbackConfig(1))
    params, log = train(corpus, cfg)
    assert len(log.rows) == 1
    init = init_params(12, dtype=np.float32)
    for name, t in params.tensors.items():
        assert np.all(np.isfinite(t.data)), name
        unchanged = np.array_equal(t.data, init.tensors[name].data)
        assert unchanged == name.startswith("decoder.c6."), name


def test_sgd_selectable():
    corpus = synth_corpus(1, 16, seed=11)
    cfg = desk_config(seed=11, optimizer="sgd", max_steps=2,
                      learning_rate=1e-4)
    params, log = train(corpus, cfg)
    assert len(log.rows) == 2
    init = init_params(11, dtype=np.float32)
    assert not np.array_equal(params.tensors["decoder.c2.weight"].data,
                              init.tensors["decoder.c2.weight"].data)
