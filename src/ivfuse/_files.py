"""Whole-file replacement shared by every artifact writer."""

from __future__ import annotations

import os
import secrets


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and ``os.replace``.

    A reader sees the previous file or the complete new one, never a
    partial write, and the temporary file is removed if anything fails.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
