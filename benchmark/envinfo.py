"""Where a result was measured: interpreter, numpy and BLAS, CPUs, thread
variables, commit and seed."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_", "MOMHAL_THREADS")


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from the files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(root: Path, seed: int, inherited: dict[str, str]) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(THREAD_VARS)},
        "thread_env_inherited": inherited,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "seed": seed,
    }
