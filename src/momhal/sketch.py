"""Count sketches: signed random bucket projections for dimensionality reduction.

A sketch maps R^d to R^d' by routing coordinate i to bucket h_i with sign
s_i, so the projection matrix has exactly one +-1 per column.  Inner
products survive in expectation, with variance shrinking as 1/d', which is
why each modality gets its own independent sketch.

Randomness comes from a fixed splitmix64 generator so that a given
(d, d', seed) triple yields the same sketch on every platform.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MAGIC = b"CSK1"
_HEADER = struct.Struct("<4sIIQ")   # magic, d, d', seed; then u32[d] h and i8[d] s


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 stream of ``seed``."""
    ks = np.uint64(seed & _MASK64) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (ks ^ (ks >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_stream_seed(base_seed: int, name: str, role: str = "gt") -> int:
    """Stable per-modality seed: hash of (base_seed, role, name).

    ``role`` separates ground-truth sketches from hallucination-stream
    sketches of the same modality.
    """
    payload = (base_seed & _MASK64).to_bytes(8, "little") + f"{role}:{name}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class CountSketch:
    """Hash/sign pair defining the projection; immutable once built."""

    input_dim: int
    output_dim: int
    h: np.ndarray  # uint32, 1-based bucket indices, length input_dim
    s: np.ndarray  # int8 signs in {-1, +1}, length input_dim
    seed: int

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError(f"dimensions must be >= 1, got d={self.input_dim}, d'={self.output_dim}")
        if len(self.h) != self.input_dim or len(self.s) != self.input_dim:
            raise ValueError("h and s must have length input_dim")
        if self.h.min() < 1 or self.h.max() > self.output_dim:
            raise ValueError("h entries must lie in [1, output_dim]")
        if not np.all(np.abs(self.s.astype(np.int64)) == 1):
            raise ValueError("s entries must be +-1")

    def dense(self) -> np.ndarray:
        """Dense d' x d projection matrix; for tests and inspection only."""
        p = np.zeros((self.output_dim, self.input_dim))
        p[self.h.astype(np.int64) - 1, np.arange(self.input_dim)] = self.s
        return p


def sketch_new(d: int, d_prime: int, seed: int) -> CountSketch:
    """Draw a sketch: h uniform on [1, d'], s uniform on {-1, +1}."""
    if d < 1 or d_prime < 1:
        raise ValueError(f"dimensions must be >= 1, got d={d}, d'={d_prime}")
    z = splitmix64(seed, 2 * d)
    h = (z[:d] % np.uint64(d_prime)).astype(np.uint32) + np.uint32(1)
    s = ((z[d:] >> np.uint64(63)).astype(np.int8) * 2 - 1).astype(np.int8)
    return CountSketch(d, d_prime, h, s, seed & _MASK64)


def project(sk: CountSketch, psi: np.ndarray) -> np.ndarray:
    """Apply the sketch: out[j] = sum over {i : h_i = j} of s_i * psi_i."""
    psi = np.asarray(psi, dtype=np.float64)
    if psi.shape != (sk.input_dim,):
        raise ValueError(f"expected vector of length {sk.input_dim}, got shape {psi.shape}")
    return np.bincount(sk.h.astype(np.int64) - 1, weights=sk.s * psi, minlength=sk.output_dim)


def project_rows(sk: CountSketch, psis: np.ndarray) -> np.ndarray:
    """Row-wise projection of a (batch, d) matrix to (batch, d')."""
    psis = np.asarray(psis, dtype=np.float64)
    if psis.ndim != 2 or psis.shape[1] != sk.input_dim:
        raise ValueError(f"expected (batch, {sk.input_dim}) matrix, got shape {psis.shape}")
    return SketchStack([sk]).project(psis[None])[0]


def project_transpose_rows(sk: CountSketch, vs: np.ndarray) -> np.ndarray:
    """Row-wise P^T v: gather each bucket back to its source coordinate."""
    vs = np.asarray(vs, dtype=np.float64)
    if vs.ndim < 1 or vs.shape[-1] != sk.output_dim:
        raise ValueError(f"expected rows of length {sk.output_dim}, got shape {vs.shape}")
    flat = vs.reshape(1, -1, sk.output_dim)
    return SketchStack([sk]).transpose(flat).reshape(vs.shape[:-1] + (sk.input_dim,))


class SketchStack:
    """S count sketches of one shape, applied together: slab k of a
    (S, rows, .) array goes through sketch k.  The bucket and sign tables
    are built once; the flat (sketch, row, coordinate) -> output index is
    built once per row count.  ``sketches`` keeps the S sketches."""

    def __init__(self, sketches: list[CountSketch]):
        self.sketches = tuple(sketches)
        self.input_dim, self.output_dim = sketches[0].input_dim, sketches[0].output_dim
        if any((sk.input_dim, sk.output_dim) != (self.input_dim, self.output_dim)
               for sk in sketches):
            raise ValueError("stacked sketches must share one (d, d') shape")
        self.buckets = np.stack([sk.h.astype(np.int64) - 1 for sk in sketches])   # (S, d)
        self.signs = np.stack([sk.s.astype(np.float64) for sk in sketches])       # (S, d)
        self._index: dict[int, np.ndarray] = {}

    def _flat_index(self, rows: int) -> np.ndarray:
        index = self._index.get(rows)
        if index is None:
            if len(self._index) >= 4:
                self._index.clear()
            slabs = np.arange(len(self.buckets) * rows).reshape(-1, rows, 1)
            index = self._index[rows] = slabs * self.output_dim + self.buckets[:, None, :]
        return index

    def project(self, psis: np.ndarray) -> np.ndarray:
        """(S, rows, d) -> (S, rows, d'): out[k, r, j] = sum over {i : h_ki = j}
        of s_ki * psis[k, r, i]."""
        n_sk, rows, _ = psis.shape
        # bincount adds each bucket's terms in input order, as np.add.at does
        out = np.bincount(self._flat_index(rows).ravel(),
                          weights=(psis * self.signs[:, None, :]).ravel(),
                          minlength=n_sk * rows * self.output_dim)
        return out.reshape(n_sk, rows, self.output_dim)

    def transpose(self, vs: np.ndarray) -> np.ndarray:
        """(S, rows, d') -> (S, rows, d): P_k^T applied to every row of slab k."""
        out = np.take(vs, self._flat_index(vs.shape[1]))
        out *= self.signs[:, None, :]
        return out


def sketch_to_bytes(sk: CountSketch) -> bytes:
    """Serialize: magic "CSK1", u32 d, u32 d', u64 seed, u32[d] h, i8[d] s
    (all little-endian)."""
    header = _HEADER.pack(MAGIC, sk.input_dim, sk.output_dim, sk.seed)
    return header + sk.h.astype("<u4").tobytes() + sk.s.astype("i1").tobytes()


def sketch_from_bytes(data: bytes) -> CountSketch:
    """Parse a CSK1 sketch; any defect raises a ValueError starting ``CSK1:``."""
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("CSK1: bad magic")
    if len(data) < _HEADER.size:
        raise ValueError(f"CSK1: expected at least {_HEADER.size} bytes, got {len(data)}")
    _, d, d_prime, seed = _HEADER.unpack_from(data)
    if len(data) != _HEADER.size + 5 * d:
        raise ValueError(f"CSK1: expected {_HEADER.size + 5 * d} bytes, got {len(data)}")
    h = np.frombuffer(data, "<u4", d, _HEADER.size).astype(np.uint32)
    s = np.frombuffer(data, "i1", d, _HEADER.size + 4 * d).astype(np.int8)
    try:
        return CountSketch(d, d_prime, h, s, seed)
    except ValueError as exc:
        raise ValueError(f"CSK1: {exc}") from None
