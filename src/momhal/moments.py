"""Multi-moment descriptors of bags of feature vectors.

A bag holds per-frame groups of d-dimensional vectors.  Its descriptor
concatenates the l2-normalized mean, the leading left singular vectors of
the frame-weighted centered matrix, element-wise skewness and kurtosis,
and the trace-normalized squared-singular-value spectrum, for a flat
length of d * (4 + n_leading).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"MMD1"
_HEADER = struct.Struct("<4sII")   # magic, d, n'; then the f32 body
GUARD = 1e-12   # floor of every norm, variance and mass a descriptor divides by


class EmptyBagError(ValueError):
    """Raised when a descriptor is requested for a bag with no vectors."""


@dataclass(eq=False)
class FeatureBag:
    """Per-frame groups of feature vectors, kept as one frame-major matrix
    and the number of rows in each frame; frames may be empty."""

    data: np.ndarray    # (N, dim): frame j's K_j rows follow those of frames 1..j-1
    counts: np.ndarray  # (J,) per-frame row counts K_j, summing to N

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.data.ndim != 2 or self.counts.ndim != 1 or self.counts.size == 0
                or (self.counts < 0).any() or self.counts.sum() != len(self.data)):
            raise ValueError(f"a bag needs at least one frame, and frame counts {self.counts} "
                             f"that split its matrix of shape {self.data.shape}")

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_frames(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        return len(self.data)

    @property
    def frames(self) -> list[np.ndarray]:
        """Frame j's (K_j, dim) rows, as views of the matrix."""
        return np.split(self.data, np.cumsum(self.counts[:-1]))


@dataclass
class MultiMomentDescriptor:
    mean_dir: np.ndarray      # (d,), unit norm or exactly zero
    eigvecs: np.ndarray       # (n_prime, d), unit rows or zero rows
    skewness: np.ndarray      # (d,)
    kurtosis: np.ndarray      # (d,)
    eig_spectrum: np.ndarray  # (d,), nonnegative, sums to 1 or all zero
    n_prime: int

    @property
    def dim(self) -> int:
        return self.mean_dir.shape[0]

    def flat(self) -> np.ndarray:
        """Concatenation [mean_dir; eigvec_1; ...; eigvec_n'; skew; kurt;
        spectrum], length d * (4 + n_prime)."""
        return np.concatenate(
            [self.mean_dir, self.eigvecs.ravel(), self.skewness, self.kurtosis, self.eig_spectrum]
        )


def assemble_upsilon(bag: FeatureBag, mu: np.ndarray) -> np.ndarray:
    """Frame-weighted centered matrix, a C-contiguous (d, N) array: the column
    for detection i of frame j is (v_ij - mu) / (J * K_j), frame-major.  Empty
    frames contribute no columns but still count toward J."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (bag.dim,):
        raise ValueError(f"mu must have length {bag.dim}")
    upsilon = np.subtract(bag.data.T, mu[:, None], out=np.empty((bag.dim, bag.total)))
    upsilon /= np.repeat(bag.n_frames * bag.counts, bag.counts)
    return upsilon


def _fix_sign(u: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude component made positive.
    j = int(np.argmax(np.abs(u)))
    return -u if u[j] < 0 else u


def rank_tolerance(lam2: np.ndarray, d: int, n: int) -> float:
    """Singular-value cutoff below which a direction counts as rank noise,
    given the squared singular values ``lam2`` (descending, nonnegative).

    Eigenvalues of the squared problem carry a noise floor of about
    machine-eps times the top eigenvalue; after the square root that is
    ~1e-8 times the top singular value, so an absolute guard alone cannot
    separate true rank from noise.
    """
    s_max = float(np.sqrt(lam2[0]))
    return max(GUARD, s_max * np.sqrt(max(d, n) * np.finfo(np.float64).eps))


def _leading_subspace(upsilon: np.ndarray, n_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_prime leading left singular vectors of the d x N matrix (N >= 1)
    as sign-fixed rows, and all of its squared singular values, descending.

    One eigendecomposition of the smaller Gram matrix: upsilon^T upsilon
    when N < d, whose eigenvectors v map back to left vectors as
    upsilon v / s (only the kept ones are formed), else upsilon upsilon^T,
    whose eigenvectors are the left vectors themselves.  In that case the
    eigen-solve needs only the d x d Gram matrix, so Υ is dropped before it:
    callers pass Υ without keeping a reference, and its (d, N) buffer is
    freed while ``eigh`` runs.
    Rows past the rank or at or below ``rank_tolerance`` are zero.
    """
    d, n = upsilon.shape
    if n < d:
        gram = upsilon.T @ upsilon
    else:
        gram = upsilon @ upsilon.T
        upsilon = None
    w, v = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1]
    lam2 = np.clip(w[order], 0.0, None)
    sv = np.sqrt(lam2[:n_prime])
    kept = int(np.count_nonzero(sv > rank_tolerance(lam2, d, n)))
    lead = v[:, order[:kept]]
    if n < d:
        lead = (upsilon @ lead) / sv[:kept]
    vecs = np.zeros((n_prime, d))
    for i in range(kept):
        vecs[i] = _fix_sign(lead[:, i])
    return vecs, lam2


def multi_moment(bag: FeatureBag, n_prime: int) -> MultiMomentDescriptor:
    """Compute the multi-moment descriptor of a bag.

    Skewness and kurtosis are the element-wise cumulant ratios
    kappa3 / kappa2^1.5 and kappa4 / kappa2^2 over the plain (unweighted)
    centered vectors, not the 1/(J*K_j) frame weighting of the singular
    subspace.  The subspace and spectrum come from a single eigendecomposition
    (``_leading_subspace``), cut once at ``rank_tolerance``.
    Degenerate quantities (zero mean, deficient rank, zero variance) come out
    as exact zeros via ``GUARD``.
    """
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    n = bag.total
    if n == 0:
        raise EmptyBagError("bag holds no vectors")
    if bag.dim == 0:
        raise ValueError("bag vectors have no coordinates")
    data = bag.data
    if not np.all(np.isfinite(data)):
        raise ValueError("bag contains non-finite values")

    d = bag.dim
    mu = data.mean(axis=0)
    mu_norm = float(np.linalg.norm(mu))
    mean_dir = mu / mu_norm if mu_norm >= GUARD else np.zeros(d)

    eigvecs, lam2 = _leading_subspace(assemble_upsilon(bag, mu), n_prime)

    centered = data - mu    # formed only once upsilon is released
    sq = centered * centered
    k2 = sq.mean(axis=0)
    k3 = np.multiply(centered, sq, out=centered).mean(axis=0)
    k4 = np.multiply(sq, sq, out=sq).mean(axis=0)
    guard = np.maximum(k2, GUARD)
    skewness = k3 / guard**1.5
    kurtosis = k4 / guard**2

    spectrum = np.zeros(d)
    spectrum[: lam2.size] = lam2
    spectrum /= max(float(spectrum.sum()), GUARD)

    return MultiMomentDescriptor(mean_dir, eigvecs, skewness, kurtosis, spectrum, n_prime)


def descriptor_to_bytes(desc: MultiMomentDescriptor) -> bytes:
    """Serialize: magic "MMD1", u32 d, u32 n', then the five blocks as
    little-endian f32 in flat() order."""
    return _HEADER.pack(MAGIC, desc.dim, desc.n_prime) + desc.flat().astype("<f4").tobytes()


def descriptor_from_bytes(data: bytes) -> MultiMomentDescriptor:
    """Parse what ``descriptor_to_bytes`` writes; any other input raises a
    ValueError starting ``MMD1:``."""
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("MMD1: bad magic")
    if len(data) < _HEADER.size:
        raise ValueError(f"MMD1: expected at least {_HEADER.size} bytes, got {len(data)}")
    _, d, n_prime = _HEADER.unpack_from(data)
    if d < 1:
        raise ValueError(f"MMD1: d must be at least 1, got {d}")
    if n_prime < 1:
        raise ValueError(f"MMD1: n' must be at least 1, got {n_prime}")
    size = _HEADER.size + 4 * d * (4 + n_prime)
    if len(data) != size:
        raise ValueError(f"MMD1: expected {size} bytes, got {len(data)}")
    body = np.frombuffer(data, "<f4", d * (4 + n_prime), _HEADER.size).astype(np.float64)
    blocks = body.reshape(4 + n_prime, d)
    return MultiMomentDescriptor(
        mean_dir=blocks[0],
        eigvecs=blocks[1 : 1 + n_prime].copy(),
        skewness=blocks[1 + n_prime],
        kurtosis=blocks[2 + n_prime],
        eig_spectrum=blocks[3 + n_prime],
        n_prime=n_prime,
    )
