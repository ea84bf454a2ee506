import numpy as np
import pytest

from ivfuse import dataset
from ivfuse.dataset import load_dataset, split_counts, synth_corpus
from ivfuse.errors import ConfigError, DomainError, IngestionError, ShapeError
from ivfuse.images import quantize_u8, read_pgm, resize_bilinear, write_pgm
from ivfuse.metrics import entropy


# ------------------------------------------------------------------ images

def test_pgm_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(13, 17)).astype(np.float64) / 255.0
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (13, 17)
    assert np.array_equal(back, img)


def test_pgm_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 1] == 128 / 255.0


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(IngestionError):
        read_pgm(path)


def test_pgm_rejects_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(IngestionError):
        read_pgm(path)


def test_quantize_ties_away_from_zero():
    # 0.5/255 is exactly half way between levels 0 and 1
    assert quantize_u8(np.array([[0.5 / 255.0]]))[0, 0] == 1
    assert quantize_u8(np.array([[1.0]]))[0, 0] == 255
    assert quantize_u8(np.array([[0.0]]))[0, 0] == 0


def test_resize_identity_when_same_size():
    img = np.random.default_rng(1).uniform(0, 1, (12, 12))
    assert np.array_equal(resize_bilinear(img, 12, 12), img)


def test_resize_constant_stays_constant():
    img = np.full((10, 10), 0.375)
    out = resize_bilinear(img, 23, 7)
    assert out.shape == (23, 7)
    assert np.allclose(out, 0.375)


def test_write_pgm_rejects_bad_rank(tmp_path):
    with pytest.raises(ShapeError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_pgm_refuses_non_finite_pixels(tmp_path, value):
    img = np.full((3, 4), 0.5)
    img[1, 2] = value
    path = tmp_path / "x.pgm"
    with pytest.raises(DomainError, match="x.pgm"):
        write_pgm(path, img)
    assert list(tmp_path.iterdir()) == []
    img[1, 2] = 7.0   # finite values outside [0, 1] still clip
    write_pgm(path, img)
    assert read_pgm(path)[1, 2] == 1.0


# ------------------------------------------------------------------ split

@pytest.mark.parametrize("n,want_train,want_test", [
    (8, 6, 2), (4, 3, 1), (12, 9, 3), (5, 4, 1), (6, 4, 2), (1, 1, 0),
])
def test_split_counts_ratio(n, want_train, want_test):
    assert split_counts(n) == (want_train, want_test)


def test_load_dataset_pairs_and_split(tmp_path):
    ir_dir = tmp_path / "ir"
    vis_dir = tmp_path / "vis"
    ir_dir.mkdir()
    vis_dir.mkdir()
    rng = np.random.default_rng(2)
    for k in range(8):
        write_pgm(ir_dir / f"s{k}.pgm", rng.uniform(0, 1, (16, 16)))
        write_pgm(vis_dir / f"s{k}.pgm", rng.uniform(0, 1, (16, 16)))
    ds = load_dataset(ir_dir, vis_dir, image_size=16, seed=3)
    assert len(ds.pairs) == 8
    assert len(ds.train_pairs()) == 6
    assert len(ds.test_pairs()) == 2


def test_load_dataset_same_seed_same_split(tmp_path):
    ir_dir = tmp_path / "ir"
    vis_dir = tmp_path / "vis"
    ir_dir.mkdir()
    vis_dir.mkdir()
    rng = np.random.default_rng(4)
    for k in range(8):
        write_pgm(ir_dir / f"s{k}.pgm", rng.uniform(0, 1, (8, 8)))
        write_pgm(vis_dir / f"s{k}.pgm", rng.uniform(0, 1, (8, 8)))
    a = load_dataset(ir_dir, vis_dir, image_size=8, seed=5)
    b = load_dataset(ir_dir, vis_dir, image_size=8, seed=5)
    assert [p.split for p in a.pairs] == [p.split for p in b.pairs]


def test_load_dataset_passthrough_when_already_sized(tmp_path):
    ir_dir = tmp_path / "ir"
    vis_dir = tmp_path / "vis"
    ir_dir.mkdir()
    vis_dir.mkdir()
    img = np.random.default_rng(6).integers(0, 256, (16, 16)) / 255.0
    write_pgm(ir_dir / "a.pgm", img)
    write_pgm(vis_dir / "a.pgm", img)
    ds = load_dataset(ir_dir, vis_dir, image_size=16, seed=0)
    # 8-bit quantization is the only permitted change; here it is exact
    assert np.array_equal(ds.pairs[0].infrared, img)
    assert ds.pairs[0].infrared.min() >= 0.0
    assert ds.pairs[0].infrared.max() <= 1.0


def test_load_dataset_orphan_named(tmp_path):
    ir_dir = tmp_path / "ir"
    vis_dir = tmp_path / "vis"
    ir_dir.mkdir()
    vis_dir.mkdir()
    write_pgm(ir_dir / "a.pgm", np.zeros((4, 4)))
    write_pgm(ir_dir / "b.pgm", np.zeros((4, 4)))
    write_pgm(vis_dir / "a.pgm", np.zeros((4, 4)))
    with pytest.raises(IngestionError, match="b.pgm"):
        load_dataset(ir_dir, vis_dir, image_size=4, seed=0)


def test_load_dataset_undecodable_file(tmp_path):
    ir_dir = tmp_path / "ir"
    vis_dir = tmp_path / "vis"
    ir_dir.mkdir()
    vis_dir.mkdir()
    (ir_dir / "a.pgm").write_bytes(b"garbage")
    write_pgm(vis_dir / "a.pgm", np.zeros((4, 4)))
    with pytest.raises(IngestionError):
        load_dataset(ir_dir, vis_dir, image_size=4, seed=0)


def test_load_dataset_missing_dir(tmp_path):
    with pytest.raises(IngestionError, match="nothere"):
        load_dataset(tmp_path / "nothere", tmp_path, image_size=4, seed=0)


# ----------------------------------------------------------- synth_corpus

def test_synth_corpus_deterministic():
    a = synth_corpus(3, 16, seed=7)
    b = synth_corpus(3, 16, seed=7)
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.infrared, pb.infrared)
        assert np.array_equal(pa.visible, pb.visible)
        assert pa.split == pb.split


def test_synth_corpus_values_in_unit_interval():
    ds = synth_corpus(4, 16, seed=8)
    for p in ds.pairs:
        for img in (p.infrared, p.visible):
            assert img.min() >= 0.0
            assert img.max() <= 1.0
            assert img.shape == (16, 16)


def test_synth_corpus_visible_has_more_entropy_on_average():
    ds = synth_corpus(20, 32, seed=9)
    en_vis = np.mean([entropy(p.visible) for p in ds.pairs])
    en_ir = np.mean([entropy(p.infrared) for p in ds.pairs])
    assert en_vis > en_ir


def test_synth_corpus_rejects_zero_pairs():
    with pytest.raises(ValueError):
        synth_corpus(0, 16, seed=0)


@pytest.mark.parametrize("n_pairs, size, key", [
    (0, 16, "synthetic"), (-2, 16, "synthetic"), (4, 0, "image_size"),
    (4, -3, "image_size"),
])
def test_synth_corpus_bad_sizes_are_config_errors(n_pairs, size, key):
    with pytest.raises(ConfigError, match=key):
        synth_corpus(n_pairs, size, seed=0)


def test_negative_seed_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        synth_corpus(2, 16, seed=-1)
    with pytest.raises(ConfigError, match="seed"):  # before reading dirs
        load_dataset(tmp_path / "ir", tmp_path / "vis", 16, seed=-1)


def _smooth_with_own_kernel(img, sigma):
    """The generator's blur with its kernel built inline, as it was before
    it shared ``gaussian_window_1d`` with the SSIM loss."""
    radius = max(1, int(3.0 * sigma))
    idx = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(idx ** 2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    padded = np.pad(img, radius, mode="edge")
    rows = np.apply_along_axis(
        lambda r: np.convolve(r, kernel, mode="valid"), 1, padded)
    return np.apply_along_axis(
        lambda c: np.convolve(c, kernel, mode="valid"), 0, rows)


@pytest.mark.parametrize("n_pairs, size, seed", [(3, 16, 7), (2, 32, 0),
                                                 (4, 27, 11)])
def test_synth_corpus_unchanged_by_shared_window(monkeypatch, n_pairs, size,
                                                 seed):
    shared = synth_corpus(n_pairs, size, seed)
    monkeypatch.setattr(dataset, "_smooth", _smooth_with_own_kernel)
    own = synth_corpus(n_pairs, size, seed)
    for a, b in zip(shared.pairs, own.pairs):
        assert a.infrared.tobytes() == b.infrared.tobytes()
        assert a.visible.tobytes() == b.visible.tobytes()


def test_load_dataset_rejects_non_positive_size(tmp_path):
    # checked before the directories are read
    with pytest.raises(ConfigError, match="image_size"):
        load_dataset(tmp_path / "ir", tmp_path / "vis", 0, seed=0)
