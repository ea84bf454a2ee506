"""Whole-file replacement shared by every artifact writer."""

from __future__ import annotations

import os


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and ``os.replace``.

    A reader sees the previous file or the complete new one, never a
    partial write, and the temporary file is removed if anything fails.
    Its name is 21 bytes long whatever ``path``'s is, so any name the
    filesystem takes can be written; an OSError names ``path``.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):   # not the temporary file's name
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
