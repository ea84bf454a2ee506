"""Artifact writers replace whole files: a write that fails partway leaves
the previous file as it was and no temporary file behind."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ivfuse
from ivfuse.checkpoint import save_checkpoint
from ivfuse.images import write_pgm
from ivfuse.metrics import MetricReport, MetricRow
from ivfuse.network import PARAM_SHAPES, init_params
from ivfuse.training import TrainingLog


class Boom(Exception):
    pass


class Unencodable:
    """A value that fails as soon as a writer tries to encode it."""

    def __float__(self):
        raise Boom

    def __repr__(self):
        raise Boom

    def __format__(self, spec):
        raise Boom


def _checkpoint(paths, seed, bad):
    params = init_params(seed)
    if bad:  # the last tensor, after every other one was encoded
        last = params.tensors[list(PARAM_SHAPES)[-1]]
        last.data = np.array([Unencodable()] * last.data.size)
    save_checkpoint(params, paths[0])


def _training_log(paths, seed, bad):
    log = TrainingLog()
    parts = {"L": 1.5 + seed, "L_p": 0.5, "L_ssim": 0.25, "L_ag": 0.1}
    log.record(1, 0, parts)
    log.record(1, 1, dict(parts, L_ag=Unencodable()) if bad else parts)
    log.save(paths[0])


def _report(paths, seed, bad):
    rows = [MetricRow("a", 1.0 + seed, 0.5, 0.9, 20.0),
            MetricRow("b", Unencodable() if bad else 2.0, 0.4, 0.8, 21.0)]
    MetricReport("x", "m", rows).save(paths[0], paths[1])


def _pgm(paths, seed, bad):
    write_pgm(paths[0], np.full((4, 5), seed / 4.0))


@pytest.mark.parametrize("writer, names, failure", [
    (_checkpoint, ["model.hfn"], "content"),
    (_checkpoint, ["model.hfn"], "rename"),
    (_training_log, ["training_log.csv"], "content"),
    (_training_log, ["training_log.csv"], "rename"),
    (_report, ["report.txt", "report.csv"], "content"),
    (_report, ["report.txt", "report.csv"], "rename"),
    (_pgm, ["fused.pgm"], "rename"),
])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer,
                                          names, failure):
    paths = [tmp_path / name for name in names]
    writer(paths, 0, bad=False)
    before = [p.read_bytes() for p in paths]
    if failure == "rename":
        # the new bytes are all written; only the final step fails
        def boom(src, dst):
            raise Boom

        monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(Boom):
        writer(paths, 1, bad=failure == "content")
    assert [p.read_bytes() for p in paths] == before
    assert sorted(os.listdir(tmp_path)) == sorted(names)


@pytest.mark.parametrize("writer, names", [
    (_checkpoint, ["model.hfn"]),
    (_training_log, ["training_log.csv"]),
    (_report, ["report.txt", "report.csv"]),
    (_pgm, ["fused.pgm"]),
])
def test_write_replaces_previous_file(tmp_path, writer, names):
    paths = [tmp_path / name for name in names]
    writer(paths, 0, bad=False)
    first = [p.read_bytes() for p in paths]
    writer(paths, 1, bad=False)
    second = [p.read_bytes() for p in paths]
    fresh = [tmp_path / "fresh" / name for name in names]
    fresh[0].parent.mkdir()
    writer(fresh, 1, bad=False)
    assert second != first
    assert second == [p.read_bytes() for p in fresh]
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["fresh"])


def test_cli_import_loads_no_hashing_modules():
    # write_atomic names its temporary file from os.urandom, the source
    # secrets.token_hex reads, without the import subtree of secrets that
    # every CLI process would load
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivfuse.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, ivfuse.cli; print(sorted({'secrets', 'hmac', "
            "'hashlib', '_hashlib', 'base64'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
