"""Gaussian feature maps over fixed pivots on the unit interval or unit ring.

A scalar in [0, 1] is embedded as its Gaussian responses at Z equally
spaced pivots.  The inner product of two such embeddings, scaled by a
fitted constant, approximates a Gaussian RBF kernel between the scalars,
which is what makes these maps usable as positional encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTERVAL_UNIT = "interval_unit"
RING_UNIT = "ring_unit"


@dataclass(frozen=True)
class FeatureMapConfig:
    """Pivot layout and bandwidth of a 1-d Gaussian feature map.

    ``sigma`` is the bandwidth of the kernel being approximated; the map's
    Gaussians use sigma/sqrt(2), i.e. entries are exp(-(x - pivot)^2 / sigma^2).
    """

    pivot_count: int = 7
    sigma: float = 0.5
    domain: str = INTERVAL_UNIT

    def __post_init__(self):
        if self.pivot_count < 1:
            raise ValueError(f"pivot_count must be >= 1, got {self.pivot_count}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.domain not in (INTERVAL_UNIT, RING_UNIT):
            raise ValueError(f"unknown domain {self.domain!r}")

    def pivots(self) -> np.ndarray:
        """Pivot locations. Interval: endpoints included (center for Z=1);
        ring: spacing 1/Z with the duplicate endpoint excluded."""
        z = self.pivot_count
        if self.domain == RING_UNIT:
            return np.arange(z) / z
        if z == 1:
            return np.array([0.5])
        return np.arange(z) / (z - 1)


def _distances(x: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    d = np.abs(x[..., None] - cfg.pivots())
    if cfg.domain == RING_UNIT:
        np.minimum(d, 1.0 - d, out=d)
    return d


def feature_map(x: float, cfg: FeatureMapConfig) -> np.ndarray:
    """Embed a scalar as its Gaussian responses at the pivots.

    Returns a vector of length ``cfg.pivot_count`` with entries
    exp(-dist(x, pivot)^2 / sigma^2), where dist wraps around on the ring.
    """
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("feature_map input must be finite")
    if cfg.domain == RING_UNIT:
        if not 0.0 <= x < 1.0:
            raise ValueError(f"ring input must lie in [0, 1), got {x}")
    elif not 0.0 <= x <= 1.0:
        raise ValueError(f"interval input must lie in [0, 1], got {x}")
    return feature_map_batch(x, cfg)


def feature_map_batch(xs: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Vectorized :func:`feature_map`: maps shape (...,) to (..., Z).

    Assumes inputs already lie in the domain; used on bulk data such as
    per-pixel orientations where the range is guaranteed by construction.
    """
    d = _distances(np.asarray(xs, dtype=np.float64), cfg)
    d *= d   # in place: exp(-(d * d) / sigma^2) with one buffer, as big stacks need
    np.negative(d, out=d)
    d /= cfg.sigma * cfg.sigma
    return np.exp(d, out=d)
