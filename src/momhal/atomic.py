"""Atomic file writes: a reader of the target path sees either the old
file or the complete new one, never a partial write."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file in the directory of ``path``, then
    rename it over ``path``.  On any failure the temporary file is removed
    and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fp:
            fp.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
