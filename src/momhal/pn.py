"""Power normalization operators.

MaxExp pools a count-like vector in [0, 1] via g = 1 - (1 - psi)^eta.
SigmE is its smooth, sign-preserving extension for real-valued inputs:
g = 2 / (1 + exp(-eta * psi / (||psi||_2 + eps))) - 1, which equals
tanh(eta * psi / (2 * (||psi||_2 + eps))).  The slope eta' is a setting
(default ETA); the norm guard eps' is the constant EPSILON.
"""

from __future__ import annotations

import numpy as np

ETA = 20.0         # the default SigmE slope eta'
EPSILON = 1e-12    # the norm guard eps'


def sigme(psi: np.ndarray, eta: float, norm: np.ndarray | None = None) -> np.ndarray:
    """SigmE normalization along the last axis.  ``norm`` is ``row_norm(psi)``
    when the caller keeps it for the backward pass.

    For the all-zero vector the denominator is eps and the output is
    exactly zero by odd symmetry; no special-casing needed.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if norm is None:
        norm = row_norm(psi)
    # a non-finite entry makes its row norm non-finite, so only then scan psi
    if not np.all(np.isfinite(norm)) and not np.all(np.isfinite(psi)):
        raise ValueError("sigme input must be finite")
    return np.tanh(eta * psi / (2.0 * (norm + EPSILON)))


def row_norm(psi: np.ndarray) -> np.ndarray:
    """||psi||_2 along the last axis, kept as a length-1 axis; the same bits
    as np.linalg.norm, without its conj() copy of a real array."""
    return np.sqrt(np.add.reduce(psi * psi, axis=-1, keepdims=True))


def sigme_grad(psi: np.ndarray, upstream: np.ndarray, eta: float) -> np.ndarray:
    """Vector-Jacobian product of :func:`sigme`, including the dependence
    of the normalizing ||psi||_2 on psi. Batched along leading axes."""
    psi = np.asarray(psi, dtype=np.float64)
    norm = row_norm(psi)
    return sigme_vjp(psi, norm, sigme(psi, eta, norm), np.asarray(upstream, dtype=np.float64), eta)


def sigme_vjp(
    psi: np.ndarray, norm: np.ndarray, g: np.ndarray, upstream: np.ndarray, eta: float,
) -> np.ndarray:
    """:func:`sigme_grad` given the forward pass's row norms ``row_norm(psi)``
    and output g = sigme(psi, eta), so a backward pass that kept them skips
    the norms and the tanh: d tanh = 1 - g^2."""
    if psi.shape != upstream.shape or g.shape != psi.shape or norm.shape != psi.shape[:-1] + (1,):
        raise ValueError(f"shape mismatch: psi {psi.shape}, norm {norm.shape}, g {g.shape}, "
                         f"upstream {upstream.shape}")
    n = norm + EPSILON
    sech2 = 1.0 - g * g
    half_eta = 0.5 * eta
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
