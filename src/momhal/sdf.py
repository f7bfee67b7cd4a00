"""Saliency detection features.

Each saliency frame is reduced to 556 numbers: a 300-dim spatio-angular
gradient block (12 orientation pivots x 5 x-position pivots x 5 y-position
pivots, amplitude-weighted, l2-normalized) plus a 256-dim low-resolution
intensity gist (16x16 area-weighted average pooling, l1-normalized).  A
video's frames are then summarized by the multi-moment descriptor.

Pixel indexing convention: i is the column (x position, normalized by
W-1), j is the row (y position, normalized by H-1).  The gradient block is
laid out angular-major: index = a*25 + x*5 + y.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import INTERVAL_UNIT, RING_UNIT, FeatureMapConfig, feature_map_batch
from .keyvalue import read_lines
from .moments import FeatureBag, MultiMomentDescriptor, multi_moment

_PIXEL_BUDGET = 1 << 14   # pixels per stacked encode: (F, H, W, 12) temporaries of 1.5 MB
ANGULAR_MAP = FeatureMapConfig(12, 0.5, RING_UNIT)      # orientation pivots
SPATIAL_MAP = FeatureMapConfig(5, 0.5, INTERVAL_UNIT)   # x- and y-position pivots
GIST_SIZE = 16
NORM_GUARD = 1e-12   # floor of the block norms a frame is divided by
GRADIENT_DIM = ANGULAR_MAP.pivot_count * SPATIAL_MAP.pivot_count**2   # 300
FRAME_DIM = GRADIENT_DIM + GIST_SIZE**2                               # 556
N_DAGGER = 3   # leading eigenvectors a descriptor keeps: encode-sdf's default and synth's


@dataclass
class SaliencyFrame:
    """One grayscale saliency map with values in [0, 1]."""

    values: np.ndarray  # (H, W)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("saliency frame must be 2-d")
        h, w = self.values.shape
        if h < 2 or w < 2:
            raise ValueError(f"frame must be at least 2x2, got {h}x{w}")
        # A NaN fails both comparisons, so only a frame that fails a bound is
        # scanned for non-finite values.
        if not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            if not np.all(np.isfinite(self.values)):
                raise ValueError("frame contains non-finite values")
            raise ValueError("frame values must lie in [0, 1]")


def gradients(frames: SaliencyFrame | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered-difference gradients with replicate boundary.

    ``frames`` is one SaliencyFrame or the values of frames stacked as
    (..., H, W).  Returns (amplitude, orientation) maps of that shape;
    orientation is atan2(gy, gx) mapped to [0, 1) as a fraction of a full
    turn, with 0 wherever the amplitude vanishes.
    """
    v = frames.values if isinstance(frames, SaliencyFrame) else np.asarray(frames, np.float64)
    gx = np.empty_like(v)
    gx[..., 1:-1] = v[..., 2:] - v[..., :-2]
    gx[..., 0] = v[..., 1] - v[..., 0]
    gx[..., -1] = v[..., -1] - v[..., -2]
    gy = np.empty_like(v)
    gy[..., 1:-1, :] = v[..., 2:, :] - v[..., :-2, :]
    gy[..., 0, :] = v[..., 1, :] - v[..., 0, :]
    gy[..., -1, :] = v[..., -1, :] - v[..., -2, :]

    amplitude = np.hypot(gx, gy)
    orientation = np.arctan2(gy, gx)
    orientation[orientation < 0.0] += 2.0 * np.pi
    orientation /= 2.0 * np.pi
    orientation[(orientation >= 1.0) | (amplitude == 0.0)] = 0.0
    return amplitude, orientation


def encode_gradient_field(amplitude: np.ndarray, orientation: np.ndarray) -> np.ndarray:
    """Amplitude-weighted sum over pixels of
    phi_ring(orientation) (x) phi(x position) (x) phi(y position), for one
    (H, W) map pair or a (..., H, W) stack; returns (..., 300)."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    orientation = np.asarray(orientation, dtype=np.float64)
    if amplitude.shape != orientation.shape or amplitude.ndim < 2:
        raise ValueError("amplitude and orientation must be equal-shape (..., H, W) maps")
    *stack, h, w = amplitude.shape
    ang = feature_map_batch(orientation, ANGULAR_MAP)               # (..., H, W, A)
    phi_x = feature_map_batch(np.arange(w) / (w - 1), SPATIAL_MAP)  # (W, X)
    phi_y = feature_map_batch(np.arange(h) / (h - 1), SPATIAL_MAP)  # (H, Y)
    ang *= amplitude[..., None]
    weighted = ang.swapaxes(-1, -2) @ phi_x                         # (..., H, A, X)
    # Contract H as one (A*X, H) @ (H, Y) product per frame: (..., A, X, Y).
    flat = weighted.reshape(*stack, h, -1).swapaxes(-1, -2) @ phi_y
    return flat.reshape(*stack, -1)


@functools.lru_cache(maxsize=64)
def _pool_weights(n_pixels: int, n_bins: int) -> np.ndarray:
    """(n_bins, n_pixels) area weights; each row averages one uniform bin,
    splitting pixels fractionally at bin borders.  Cached per size and
    read-only, since every frame of that size shares the one matrix."""
    width = n_pixels / n_bins
    weights = np.zeros((n_bins, n_pixels))
    for b in range(n_bins):
        lo, hi = b * width, (b + 1) * width
        for p in range(int(np.floor(lo)), min(int(np.ceil(hi)), n_pixels)):
            overlap = min(p + 1.0, hi) - max(float(p), lo)
            if overlap > 0:
                weights[b, p] = overlap / width
    weights.flags.writeable = False
    return weights


def gist(values: np.ndarray, size: int) -> np.ndarray:
    """Area-weighted average pooling of an (H, W) frame or an (..., H, W)
    stack to a size x size grid, row-major flat: (..., size**2)."""
    *stack, h, w = values.shape
    rows = _pool_weights(h, size)
    cols = _pool_weights(w, size)
    return (rows @ values @ cols.T).reshape(*stack, -1)


def encode_frame(frames: SaliencyFrame | np.ndarray) -> np.ndarray:
    """Per-frame feature [gradient block / max(l2, guard); gist / max(l1, guard)]:
    (556,) for one SaliencyFrame, (F, 556) for stacked (F, H, W) values."""
    if isinstance(frames, SaliencyFrame):
        return encode_frame(frames.values[None])[0]
    grad = encode_gradient_field(*gradients(frames))
    pooled = gist(frames, GIST_SIZE)
    for g, p in zip(grad, pooled):   # one 1-d reduce per frame, as for a lone frame
        g /= max(float(np.linalg.norm(g)), NORM_GUARD)
        p /= max(float(np.abs(p).sum()), NORM_GUARD)
    return np.concatenate([grad, pooled], axis=1)


def sdf_descriptor(frames: list[SaliencyFrame], n_dagger: int = N_DAGGER) -> MultiMomentDescriptor:
    """Multi-moment descriptor over per-frame features (one group per frame),
    encoded in stacks of one frame size and at most ``_PIXEL_BUDGET`` pixels."""
    if not frames:
        raise ValueError("no saliency frames")
    encoded = np.empty((len(frames), FRAME_DIM))
    for h, w in dict.fromkeys(frame.values.shape for frame in frames):
        index = [i for i, frame in enumerate(frames) if frame.values.shape == (h, w)]
        step = max(1, _PIXEL_BUDGET // (h * w))
        for lo in range(0, len(index), step):
            chunk = index[lo:lo + step]
            encoded[chunk] = encode_frame(np.stack([frames[i].values for i in chunk]))
    return multi_moment(FeatureBag(encoded, [1] * len(frames)), n_dagger)


_TOKEN = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)")


def read_pgm(path) -> SaliencyFrame:
    """Read a binary (P5) PGM that ends with its raster; values are rescaled
    to [0, 1] by maxval.  16-bit samples are big-endian per the PNM convention."""
    with open(path, "rb", buffering=0) as fp:   # unbuffered; readall sizes its read by fstat
        data = fp.readall()
    try:
        pos = 0
        tokens = []
        while len(tokens) < 4:
            m = _TOKEN.match(data, pos)
            if m is None:
                raise ValueError("truncated header")
            tokens.append(m.group(1))
            pos = m.end()
        if tokens[0] != b"P5":
            raise ValueError(f"unsupported PNM type {tokens[0]!r}, expected P5")
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if width < 2 or height < 2:
            raise ValueError(f"frame must be at least 2x2, got {height}x{width}")
        if not 0 < maxval < 65536:
            raise ValueError(f"maxval {maxval} outside [1, 65535]")
        pos += 1  # single whitespace byte separates header from raster
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        extra = len(data) - pos - count * dtype.itemsize
        if extra:
            raise ValueError("truncated raster" if extra < 0 else f"{extra} bytes after the raster")
        raster = np.frombuffer(data, dtype, count, pos)
        # One true divide gives the float64 quotients of the samples; they are
        # at least +0.0, so only samples above maxval need clipping.
        values = raster.reshape(height, width) / maxval
        return SaliencyFrame(np.minimum(values, 1.0, out=values))
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt PGM: {exc}") from exc


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write a binary (P5) PGM from values in [0, 1]."""
    values = np.asarray(values, dtype=np.float64)
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")
    quant = np.rint(np.clip(values, 0.0, 1.0) * maxval)
    h, w = values.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode()
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    Path(path).write_bytes(header + quant.astype(dtype).tobytes())


def read_saliency_manifest(path) -> dict[tuple[str, str], list[Path]]:
    """Read a manifest of saliency frames.

    Each non-comment line holds three whitespace-separated fields:
    video id, saliency source id, frame path (relative to the manifest).
    Line order defines frame order within each (video, source) group.
    """
    path = Path(path)
    groups: dict[tuple[str, str], list[Path]] = {}

    def frame(line: str) -> None:
        if line.startswith("#"):
            return
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("expected 'video source path'")
        groups.setdefault((parts[0], parts[1]), []).append(path.parent / parts[2])

    with open(path, "rb") as fp:
        read_lines(fp, str(path), frame)
    return groups
