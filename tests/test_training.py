import threading
import tracemalloc

import numpy as np
import pytest

import ivfuse.network
import ivfuse.tensor
import ivfuse.training
from ivfuse import _blas
from ivfuse.checkpoint import save_checkpoint
from ivfuse.dataset import ImagePair, PairDataset, synth_corpus
from ivfuse.errors import ConfigError, DivergenceError, DomainError, ShapeError
from ivfuse.losses import LossConfig
from ivfuse.network import FeedbackConfig, init_params
from ivfuse.tensor import Tensor, split
from ivfuse.training import (Adam, SGD, TrainConfig, TrainingLog,
                             prefused_samples, reconstruction_rmse, train)


def desk_config(**kw):
    base = dict(learning_rate=1e-3, batch_size=4, epochs=10 ** 6,
                seed=1, max_steps=4)
    base.update(kw)
    return TrainConfig(**base)


def use_workers(monkeypatch, workers):
    """Make train() split each batch as if OpenBLAS ran ``workers`` threads."""
    monkeypatch.setattr(_blas, "threads", lambda: workers)


def spy_reconstruct(monkeypatch, each):
    """Call ``each(img, params)`` before every training reconstruct."""
    reconstruct = ivfuse.training.reconstruct

    def spy(img, params, fb):
        each(img, params)
        return reconstruct(img, params, fb)

    monkeypatch.setattr(ivfuse.training, "reconstruct", spy)


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


def _run_bytes(path, corpus, cfg):
    params, log = train(corpus, cfg)
    save_checkpoint(params, path)
    return path.read_bytes(), log.lines()


def test_training_is_deterministic_bitwise(tmp_path, monkeypatch):
    # for one thread count, and for two: the chunked step, whatever the
    # machine's core count
    corpus = synth_corpus(2, 16, seed=4)
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        outs = [_run_bytes(tmp_path / f"w{workers}run{run}.hfn", corpus,
                           desk_config(seed=4, max_steps=6))
                for run in range(2)]
        assert outs[0][0] == outs[1][0], workers
        assert outs[0][1] == outs[1][1], workers


def test_one_image_batches_keep_their_bytes_at_any_thread_count(
        tmp_path, monkeypatch):
    corpus = synth_corpus(2, 16, seed=4)
    outs = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        outs.append(_run_bytes(tmp_path / f"w{workers}.hfn", corpus,
                               desk_config(seed=4, batch_size=1, max_steps=3)))
    assert outs[0] == outs[1]


def _first_step(monkeypatch, workers, batch_size, dtype):
    """Every parameter gradient, the logged row and the chunk sizes of one
    step, which leaves the weights as they were (SGD at learning rate 0)."""
    use_workers(monkeypatch, workers)
    sizes = []
    spy_reconstruct(monkeypatch, lambda img, p: sizes.append(img.shape[0]))
    corpus = synth_corpus(3, 16, seed=13)   # 2 training pairs: 4 blends
    cfg = desk_config(seed=13, batch_size=batch_size, max_steps=1,
                      optimizer="sgd", learning_rate=0.0, dtype=dtype)
    params, log = train(corpus, cfg)
    grads = {n: t.grad for n, t in params.tensors.items()}
    return grads, log.rows[0][2:], sorted(sizes, reverse=True)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-4), (np.float64, 1e-12)])
@pytest.mark.parametrize("batch_size, workers", [(4, 2), (3, 2), (4, 3)])
def test_chunked_step_agrees_with_the_whole_batch(monkeypatch, dtype, tol,
                                                  batch_size, workers):
    # B=4 as 2+2, B=3 as 2+1, B=4 as 2+1+1; each gradient against its
    # tensor's largest entry, each logged part against its own size
    whole, whole_parts, sizes = _first_step(monkeypatch, 1, batch_size, dtype)
    chunked, chunked_parts, chunk_sizes = _first_step(monkeypatch, workers,
                                                      batch_size, dtype)
    assert sizes == [batch_size]
    assert chunk_sizes == list(np.diff(split(batch_size, workers)))
    for name, g in whole.items():
        assert chunked[name].dtype == dtype, name
        assert np.abs(chunked[name] - g).max() <= tol * np.abs(g).max(), name
    assert np.allclose(chunked_parts, whole_parts, rtol=tol, atol=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_step_builds_its_graphs_on_leaves_over_the_params(monkeypatch,
                                                               workers):
    # one step path at any thread count: one set of leaves per chunk, on
    # the parameter arrays themselves, and a one-thread step is one chunk
    corpus = synth_corpus(2, 16, seed=14)
    seen = []
    spy_reconstruct(monkeypatch, lambda img, p: seen.append(p))
    use_workers(monkeypatch, workers)
    params = init_params(14)
    train(corpus, desk_config(seed=14, max_steps=1), params)
    assert len(seen) == workers and all(p is not params for p in seen)
    for leaves in seen:
        for name, t in leaves.tensors.items():
            assert t is not params.tensors[name]
            assert t.data is params.tensors[name].data, name


def test_chunks_run_under_the_callers_numpy_error_state(monkeypatch):
    use_workers(monkeypatch, 2)
    seen = []
    spy_reconstruct(monkeypatch, lambda img, p: seen.append(np.geterr()))
    with np.errstate(divide="ignore"):
        want = np.geterr()
        train(synth_corpus(2, 16, seed=15), desk_config(seed=15, max_steps=1))
    assert seen == [want, want]


def test_a_chunk_never_bands(monkeypatch):
    # a step on two cores runs two chunks, each of whose convs runs as one
    # band: chunk 0, in the caller, does not see the caller's band count
    use_workers(monkeypatch, 2)
    chunks, bands = [], []
    spy_reconstruct(monkeypatch, lambda img, p: chunks.append(img.shape[0]))
    run_parts = ivfuse.tensor.run_parts

    def spy(part, n):   # every conv forward's runner
        bands.append(n)
        return run_parts(part, n)

    monkeypatch.setattr(ivfuse.tensor, "run_parts", spy)
    train(synth_corpus(2, 128, seed=18),
          desk_config(seed=18, batch_size=2, max_steps=1))
    assert chunks == [1, 1] and bands and set(bands) == {1}


class ChunkFailure(Exception):
    pass


@pytest.fixture
def blas_and_threads(monkeypatch):
    """A reader of the OpenBLAS thread count and the live thread count,
    with OpenBLAS set to two threads for the test (so that a count left
    at one shows) and train() splitting batches as for two."""
    read = _blas.threads   # the real reader, not the one patched below
    fns = _blas._functions()
    before = read()
    if fns is not None:
        fns[1](2)
    use_workers(monkeypatch, 2)
    yield lambda: (read(), threading.active_count())
    if fns is not None:
        fns[1](before)


def test_train_restores_the_blas_threads_and_joins_its_threads(
        monkeypatch, blas_and_threads):
    before = blas_and_threads()
    inside = []
    spy_reconstruct(monkeypatch,
                    lambda img, p: inside.append(blas_and_threads()[0]))
    corpus = synth_corpus(2, 16, seed=16)
    _, log = train(corpus, desk_config(seed=16, max_steps=2))
    assert len(log.rows) == 2 and len(inside) == 4   # two chunks a step
    if before[0] is not None:   # OpenBLAS is held to one thread per chunk
        assert before[0] == 2 and inside == [1] * 4
    assert blas_and_threads() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_chunked_run_restores_the_blas_threads(blas_and_threads):
    before = blas_and_threads()
    corpus = synth_corpus(2, 16, seed=5)
    cfg = desk_config(learning_rate=1e10, seed=5, max_steps=40)
    with pytest.raises(DivergenceError, match=r"epoch \d+, step \d+"):
        train(corpus, cfg)
    assert blas_and_threads() == before


def test_an_error_in_a_chunk_reaches_the_caller_unchanged(
        monkeypatch, blas_and_threads):
    before = blas_and_threads()
    caller = threading.current_thread()
    raised = []

    def fail_off_the_caller(img, params):
        if threading.current_thread() is not caller:
            raised.append(ChunkFailure("chunk 1 failed"))
            raise raised[-1]

    spy_reconstruct(monkeypatch, fail_off_the_caller)
    corpus = synth_corpus(2, 16, seed=17)
    with pytest.raises(ChunkFailure, match="chunk 1 failed") as info:
        train(corpus, desk_config(seed=17, max_steps=2))
    assert len(raised) == 1 and info.value is raised[0]
    assert blas_and_threads() == before


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


def test_weights_that_overflow_abort_with_the_tensor_named():
    # the loss of the one step is finite; the Adam update overflows float32,
    # which must end in the error, not in numpy's RuntimeWarning (the suite
    # turns that into an error)
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
