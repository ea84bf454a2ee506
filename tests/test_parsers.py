"""Property tests of the file parsers (PGM, HFN1, config): whatever bytes
they are given, they return a valid result or raise their own error class,
never another exception (which the CLI would report as a traceback)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ivfuse.checkpoint import load_checkpoint, save_checkpoint
from ivfuse.cli import CONFIG_SCHEMA, parse_config_file
from ivfuse.errors import (CheckpointFormatError, CheckpointSchemaError,
                           ConfigError, IngestionError)
from ivfuse.images import quantize_u8, read_pgm, write_pgm
from ivfuse.network import init_params

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# a tiny valid PGM: 3 wide, 2 high
PGM = b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 255])

# any integer a header could spell, including 0, negatives and overflow
DIMS = st.one_of(st.integers(-3, 70000), st.integers(-2 ** 70, 2 ** 70))


def _read_pgm_or_ingestion_error(path, blob):
    path.write_bytes(blob)
    try:
        img = read_pgm(path)
    except IngestionError:
        return
    assert img.ndim == 2 and img.size > 0
    assert img.min() >= 0.0 and img.max() <= 1.0


@FUZZ
@given(cut=st.integers(0, len(PGM) - 1))
def test_read_pgm_truncated(tmp_path, cut):
    _read_pgm_or_ingestion_error(tmp_path / "t.pgm", PGM[:cut])


@FUZZ
@given(junk=st.binary(max_size=40), tail=st.binary(max_size=40))
def test_read_pgm_header_junk(tmp_path, junk, tail):
    _read_pgm_or_ingestion_error(tmp_path / "j.pgm", junk + tail)
    _read_pgm_or_ingestion_error(tmp_path / "j.pgm", b"P5\n" + junk + tail)


@FUZZ
@given(width=DIMS, height=DIMS, maxval=DIMS, payload=st.binary(max_size=64))
def test_read_pgm_extreme_dimensions(tmp_path, width, height, maxval, payload):
    blob = f"P5\n{width} {height}\n{maxval}\n".encode() + payload
    _read_pgm_or_ingestion_error(tmp_path / "d.pgm", blob)


@pytest.mark.parametrize("dims", [b"-2 -3", b"0 0", b"0 6"])
def test_read_pgm_rejects_non_positive_dimensions(tmp_path, dims):
    # (-2) x (-3) = 6 bytes is exactly the payload length
    path = tmp_path / "n.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(6))
    with pytest.raises(IngestionError, match="dimensions"):
        read_pgm(path)


def test_read_pgm_rejects_a_comment_right_after_maxval(tmp_path):
    # the byte after maxval must be whitespace; skipping '#' unchecked read
    # the comment "c\n" as the levels 99 and 10. '#' is the one byte that
    # reaches this check: the header tokenizer keeps every other
    # non-whitespace byte inside the maxval token, which then fails to parse
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n2 1\n255#c\n" + bytes([7, 9]))
    with pytest.raises(IngestionError, match="c.pgm: .*whitespace"):
        read_pgm(path)


def _pgm_samples(draw, maxval):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, maxval), min_size=height * width,
                         max_size=height * width))
    return np.array(flat, dtype=np.int64).reshape(height, width)


# the six bytes that bytes.isspace() and a bytes regex's \s agree on
WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# what may stand between two header tokens: runs of whitespace and '#'
# comments, which run to a newline; a separator that opens with a comment
# ends the token before it directly at its '#'
HEADER_SEPARATORS = st.lists(st.one_of(
    st.lists(WHITESPACE, min_size=1, max_size=3).map(b"".join),
    st.binary(max_size=6).map(lambda c: b"#" + c.replace(b"\n", b"") + b"\n")),
    min_size=1, max_size=3).map(b"".join)


@st.composite
def pgm_files(draw):
    """A valid P5 file at any maxval, and the samples it holds."""
    maxval = draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    levels = _pgm_samples(draw, maxval)
    dtype = np.uint8 if maxval < 256 else ">u2"
    header = b"P5"
    for n in (levels.shape[1], levels.shape[0], maxval):
        header += draw(HEADER_SEPARATORS) + str(n).encode()
    header += draw(WHITESPACE)   # exactly one byte ends maxval
    return header + levels.astype(dtype).tobytes(), levels, maxval


@FUZZ
@example(blob_levels_maxval=(b"P5\n2 1\n65535\n\x01\x02\xff\xff",
                             np.array([[258, 65535]]), 65535))
@given(blob_levels_maxval=pgm_files())
def test_read_pgm_any_maxval_scales_by_maxval(tmp_path, blob_levels_maxval):
    # two-byte samples are big-endian: 0x01 0x02 is 258
    blob, levels, maxval = blob_levels_maxval
    path = tmp_path / "m.pgm"
    path.write_bytes(blob)
    img = read_pgm(path)
    assert img.dtype == np.float64
    assert np.array_equal(img, levels / maxval)


@FUZZ
@given(maxval=st.one_of(st.integers(1, 254), st.integers(256, 65534)),
       data=st.data())
def test_read_pgm_rejects_sample_above_maxval(tmp_path, maxval, data):
    levels = _pgm_samples(data.draw, maxval)
    at = data.draw(st.integers(0, levels.size - 1))
    levels.flat[at] = data.draw(
        st.integers(maxval + 1, 255 if maxval < 256 else 65535))
    dtype = np.uint8 if maxval < 256 else ">u2"
    path = tmp_path / "o.pgm"
    path.write_bytes(f"P5\n{levels.shape[1]} {levels.shape[0]}\n{maxval}\n"
                     .encode() + levels.astype(dtype).tobytes())
    with pytest.raises(IngestionError, match="exceeds maxval"):
        read_pgm(path)


@FUZZ
@given(blob_levels_maxval=pgm_files())
def test_write_pgm_stays_8_bit_and_byte_stable(tmp_path, blob_levels_maxval):
    # whatever maxval an image was read at, it is written at 255, and
    # writing what was read back gives the same bytes
    blob, levels, maxval = blob_levels_maxval
    src, first, second = (tmp_path / n for n in ("s.pgm", "1.pgm", "2.pgm"))
    src.write_bytes(blob)
    write_pgm(first, read_pgm(src))
    write_pgm(second, read_pgm(first))
    h, w = levels.shape
    header = f"P5\n{w} {h}\n255\n".encode()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == header + quantize_u8(levels / maxval).tobytes()


@pytest.mark.parametrize("maxval", [b"0", b"65536", b"-1"])
def test_read_pgm_rejects_maxval_out_of_range(tmp_path, maxval):
    path = tmp_path / "r.pgm"
    path.write_bytes(b"P5\n1 1\n" + maxval + b"\n" + bytes(2))
    with pytest.raises(IngestionError, match="maxval"):
        read_pgm(path)


# ---------------------------------------------------------------- HFN1

@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("hfn") / "valid.hfn"
    save_checkpoint(init_params(0), path)
    return path.read_bytes()


def _load_or_checkpoint_error(path, blob):
    path.write_bytes(blob)
    try:
        params = load_checkpoint(path)
    except (CheckpointFormatError, CheckpointSchemaError):
        return
    for t in params.tensors.values():
        assert np.all(np.isfinite(t.data))


@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_load_checkpoint_truncated(tmp_path, checkpoint_bytes, cut):
    blob = checkpoint_bytes[:int(cut * len(checkpoint_bytes))]
    _load_or_checkpoint_error(tmp_path / "t.hfn", blob)


@FUZZ
@given(where=st.floats(0.0, 1.0), junk=st.binary(min_size=1, max_size=24))
def test_load_checkpoint_header_junk(tmp_path, checkpoint_bytes, where, junk):
    blob = checkpoint_bytes
    at = int(where * blob.index(b"\n\n"))
    _load_or_checkpoint_error(tmp_path / "j.hfn", blob[:at] + junk + blob[at:])


@FUZZ
@given(line=st.integers(0, 19), dims=st.lists(DIMS, min_size=0, max_size=5))
def test_load_checkpoint_extreme_dimensions(tmp_path, checkpoint_bytes, line,
                                           dims):
    head, payload = checkpoint_bytes.split(b"\n\n", 1)
    lines = head.split(b"\n")
    name, dtype, _ = lines[1 + line].split(b" ")
    lines[1 + line] = b" ".join(
        [name, dtype, ",".join(str(d) for d in dims).encode()])
    _load_or_checkpoint_error(tmp_path / "d.hfn",
                              b"\n".join(lines) + b"\n\n" + payload)


def test_load_checkpoint_rejects_undecodable_manifest(tmp_path, checkpoint_bytes):
    path = tmp_path / "u.hfn"
    path.write_bytes(checkpoint_bytes.replace(
        b"encoder.c1.weight", b"encoder.c1.\xffeight", 1))
    with pytest.raises(CheckpointFormatError, match="manifest"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_duplicate_tensor(tmp_path, checkpoint_bytes):
    head, payload = checkpoint_bytes.split(b"\n\n", 1)
    lines = head.split(b"\n")
    bias = next(i for i, ln in enumerate(lines) if ln.startswith(b"decoder.c5.bias"))
    lines.insert(bias, lines[bias])  # listed twice, with 4 more payload bytes
    path = tmp_path / "dup.hfn"
    path.write_bytes(b"\n".join(lines) + b"\n\n" + payload + bytes(4))
    with pytest.raises(CheckpointSchemaError, match="decoder.c5.bias"):
        load_checkpoint(path)


# -------------------------------------------------------------- config

# raw bytes, or a schema key set to raw bytes or to a plausible value
CONFIG_LINE = st.one_of(
    st.binary(max_size=30),
    st.builds(lambda key, value: key.encode() + b" = " + value,
              st.sampled_from(sorted(CONFIG_SCHEMA)),
              st.one_of(st.binary(max_size=12), st.sampled_from(
                  [b"3", b"-1", b"0.5", b"1e999", b"nan", b"yes", b"off",
                   b"literal", b"7 # note", b"\xc3\xa9"]))))


@FUZZ
@example(lines=[b"seed = 5", b"\xff\xfe = 1"])
@given(lines=st.lists(CONFIG_LINE, max_size=6))
def test_parse_config_file_any_bytes(tmp_path, lines):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"\n".join(lines))
    try:
        values = parse_config_file(path)
    except ConfigError:
        return
    for key, value in values.items():
        assert type(value) is CONFIG_SCHEMA[key][0]


def test_parse_config_file_names_undecodable_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed = 5\nag_mode = lit\xe9ral\n")
    with pytest.raises(ConfigError, match="latin1.cfg"):
        parse_config_file(path)
