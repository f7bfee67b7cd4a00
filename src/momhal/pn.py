"""Power normalization operators.

MaxExp pools a count-like vector in [0, 1] via g = 1 - (1 - psi)^eta.
SigmE is its smooth, sign-preserving extension for real-valued inputs:
g = 2 / (1 + exp(-eta * psi / (||psi||_2 + eps))) - 1, which equals
tanh(eta * psi / (2 * (||psi||_2 + eps))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PnConfig:
    eta: float = 20.0          # SigmE slope eta'
    epsilon: float = 1e-12     # norm guard eps'

    def __post_init__(self):
        for name in ("eta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


def sigme(psi: np.ndarray, cfg: PnConfig) -> np.ndarray:
    """SigmE normalization along the last axis.

    For the all-zero vector the denominator is eps and the output is
    exactly zero by odd symmetry; no special-casing needed.
    """
    psi = np.asarray(psi, dtype=np.float64)
    norm = _row_norm(psi)
    # a non-finite entry makes its row norm non-finite, so only then scan psi
    if not np.all(np.isfinite(norm)) and not np.all(np.isfinite(psi)):
        raise ValueError("sigme input must be finite")
    return np.tanh(cfg.eta * psi / (2.0 * (norm + cfg.epsilon)))


def _row_norm(psi: np.ndarray) -> np.ndarray:
    """||psi||_2 along the last axis, kept as a length-1 axis; the same bits
    as np.linalg.norm, without its conj() copy of a real array."""
    return np.sqrt(np.add.reduce(psi * psi, axis=-1, keepdims=True))


def sigme_grad(psi: np.ndarray, upstream: np.ndarray, cfg: PnConfig) -> np.ndarray:
    """Vector-Jacobian product of :func:`sigme`, including the dependence
    of the normalizing ||psi||_2 on psi. Batched along leading axes."""
    psi = np.asarray(psi, dtype=np.float64)
    return sigme_vjp(psi, sigme(psi, cfg), np.asarray(upstream, dtype=np.float64), cfg)


def sigme_vjp(psi: np.ndarray, g: np.ndarray, upstream: np.ndarray, cfg: PnConfig) -> np.ndarray:
    """:func:`sigme_grad` given the forward output g = sigme(psi, cfg), so a
    backward pass that kept g skips the tanh: d tanh = 1 - g^2."""
    if psi.shape != upstream.shape or g.shape != psi.shape:
        raise ValueError(f"shape mismatch: psi {psi.shape}, g {g.shape}, upstream {upstream.shape}")
    norm = _row_norm(psi)
    n = norm + cfg.epsilon
    sech2 = 1.0 - g * g
    half_eta = 0.5 * cfg.eta
    direct = half_eta * sech2 * upstream / n
    # Norm term: d(psi_i/n)/dpsi_j has -psi_i*psi_j/(n^2*norm).  A zero norm
    # means psi = 0 up to underflow, so guarding it by 1 gives that row's term 0.
    inner = (upstream * sech2 * psi).sum(axis=-1, keepdims=True)
    safe_norm = np.where(norm > 0.0, norm, 1.0)
    return direct - half_eta * inner * psi / (n * n * safe_norm)


def maxexp(psi: np.ndarray, eta: float) -> np.ndarray:
    """MaxExp pooling g = 1 - (1 - psi)^eta for psi in [0, 1] and eta > 1."""
    if not eta > 1:
        raise ValueError(f"maxexp eta must be > 1, got {eta}")
    psi = np.asarray(psi, dtype=np.float64)
    if not np.all(np.isfinite(psi)):
        raise ValueError("maxexp input must be finite")
    if psi.size and (psi.min() < 0.0 or psi.max() > 1.0):
        raise ValueError("maxexp input must lie in [0, 1]")
    return 1.0 - (1.0 - psi) ** eta
