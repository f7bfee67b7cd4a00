"""Stream reweighting, hierarchical pooling, and golden-section tuning.

Streams are weighted by the ratios r_i = max(w'_i^beta, rho) / sum_j
max(w'_j^beta, rho) where w' are raw per-stream scores normalized so the
group maximum is 1, so each group pools to a convex weighted mean.
beta = 0 equalizes the ratios at 1/|T|; large beta approaches
winner-takes-all with losers held at the floor rho.

Pooling runs on three levels, fixed by the streams' kinds: detector
streams pool into "det", saliency streams into "sal", and the top level
combines the auxiliary streams, "det", "sal", and the pass-through stream,
whose weight is fixed rather than exponent-scaled, under an outer
1/(|top members| + 1) factor.  One exponent beta applies to every group.

The exponent is tuned by golden-section search over ``BETA_BRACKET`` on a
1-d score function; the bracket state carries over between steps so a
training loop can advance one elimination per epoch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .keyvalue import format_key_values, parse_key_values

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
BETA_BRACKET = (0.0, 50.0)   # the exponent range searched by train and search-beta

AUX_STREAMS = ("fv1", "fv2", "bow", "off")
DET_STREAMS = ("det1", "det2", "det3", "det4")
SAL_STREAMS = ("sal1", "sal2")
STREAM_ORDER = AUX_STREAMS + DET_STREAMS + SAL_STREAMS

GROUP_DET = "D"
GROUP_SAL = "S"
GROUP_TOP = "TOP"
HAF_ID = "haf"
SLOT_GROUPS = {"det": GROUP_DET, "sal": GROUP_SAL}   # top-level slot -> pooled group


def eq9_ratios(w_prime: np.ndarray, beta: float, rho: float) -> np.ndarray:
    """Normalized ratios r_i = max(w'_i^beta, rho) / sum_j max(w'_j^beta, rho).

    Expects w' scaled so its maximum is 1; r sums to 1 for every beta, rho.
    """
    w_prime = np.asarray(w_prime, dtype=np.float64)
    if w_prime.size == 0:
        raise ValueError("empty weight list")
    if w_prime.min() < 0.0:
        raise ValueError("weights must be nonnegative")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    vals = np.maximum(np.power(w_prime, beta), rho)
    return vals / vals.sum()


@dataclass(frozen=True)
class FusionSpec:
    """The pooling of a model's hallucination streams: raw per-stream
    scores, one exponent and the floor.  Exponent-scaled members are
    weighted by the bare ratios r_i (see notes/decisions.md, "Pooling with
    bare ratios").

    ``raw_weights`` holds one score per stream and per present "det"/"sal"
    slot (1.0 each by default) and is read-only.  The groups, the fixed
    pass-through weight 1/(|top members| + 1), the leaf ``coefficients`` and
    ``tot_scale`` (the inverse coefficient mass at beta = 0, which no raw
    weight moves) follow from the fields and are computed once, here.
    ``tot_scale`` is the head's fixed input gain: it undoes the nested
    1/|group| factors, so the head's inputs are O(1) whatever the stream count.
    """

    streams: tuple[str, ...]
    raw_weights: Mapping[str, float] | None = None
    beta: float = 0.0
    rho: float = 0.1

    def __post_init__(self):
        streams = tuple(self.streams)
        if streams != tuple(s for s in STREAM_ORDER if s in streams):
            raise ValueError(f"streams {streams} are not distinct members of {STREAM_ORDER}, "
                             "in that order")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        det = tuple(s for s in streams if s in DET_STREAMS)
        sal = tuple(s for s in streams if s in SAL_STREAMS)
        slots = tuple(slot for slot, members in (("det", det), ("sal", sal)) if members)
        top = (*(s for s in streams if s in AUX_STREAMS), *slots, HAF_ID)
        raw = (dict.fromkeys((*streams, *slots), 1.0) if self.raw_weights is None
               else dict(self.raw_weights))
        if raw.keys() != {*streams, *slots}:
            raise ValueError(f"raw weights for {sorted(raw)}, but these streams need "
                             f"{sorted({*streams, *slots})}")
        for sid, w in raw.items():
            if not 0.0 <= w < math.inf:
                raise ValueError(f"raw weight for {sid} must be finite and >= 0, got {w}")
        # frozen: the fields are normalized and the derived values set once, here
        self.__dict__.update(
            streams=streams, beta=float(self.beta), rho=float(self.rho),
            raw_weights=MappingProxyType({sid: float(w) for sid, w in raw.items()}),
            groups=MappingProxyType({GROUP_DET: det, GROUP_SAL: sal, GROUP_TOP: top}),
            haf_weight=1.0 / len(top))
        coeffs = effective_coefficients(self)
        self.__dict__.update(coefficients=MappingProxyType(coeffs),
                             tot_scale=(1.0 / sum(coeffs.values()) if self.beta == 0.0
                                        else _tot_scale(streams)))


@functools.lru_cache(maxsize=None)
def _tot_scale(streams: tuple[str, ...]) -> float:
    """``tot_scale`` of every spec on ``streams``, which no raw weight or rho moves."""
    return FusionSpec(streams).tot_scale


def _group_weights(spec: FusionSpec, group: str) -> dict[str, float]:
    """Eq-9 ratios of a group's exponent-scaled members (the fixed
    pass-through stream is excluded), from their raw weights scaled so the
    maximum is 1."""
    members = [sid for sid in spec.groups[group] if sid != HAF_ID]
    if not members:
        return {}
    w = np.array([spec.raw_weights[sid] for sid in members], dtype=np.float64)
    top = w.max()
    w = w / top if top > 0.0 else np.ones_like(w)
    return dict(zip(members, eq9_ratios(w, spec.beta, spec.rho).tolist()))


def effective_coefficients(spec: FusionSpec) -> dict[str, float]:
    """Scalar coefficient of each leaf stream in the top-level pooled vector,
    flattening the three pooling levels."""
    top_w = _group_weights(spec, GROUP_TOP)
    outer = 1.0 / len(spec.groups[GROUP_TOP])
    coeffs: dict[str, float] = {}
    for sid in spec.groups[GROUP_TOP]:
        if sid == HAF_ID:
            coeffs[sid] = spec.haf_weight * outer
        elif sid in SLOT_GROUPS:
            for leaf, w in _group_weights(spec, SLOT_GROUPS[sid]).items():
                coeffs[leaf] = top_w[sid] * outer * w
        else:
            coeffs[sid] = top_w[sid] * outer
    return coeffs


@dataclass
class Bracket:
    """Search interval tracked as (lo, width) so successive widths shrink by
    exactly one float multiply per step."""

    lo: float
    width: float

    @property
    def hi(self) -> float:
        return self.lo + self.width

    @property
    def mid(self) -> float:
        return self.lo + 0.5 * self.width


def golden_step(f: Callable[[float], float], bracket: Bracket) -> Bracket:
    """One elimination maximizing f over the interior points c < d; shrinks
    the width by the inverse golden ratio regardless of tie-breaking.

    Ties keep the left interval: exponent objectives go flat once every
    losing weight hits the floor, so plateaus extend to the right and the
    peak (or the smallest exponent attaining it) lies leftward.
    """
    w_next = INV_PHI * bracket.width
    c, d = bracket.lo + (bracket.width - w_next), bracket.lo + w_next
    fc, fd = float(f(c)), float(f(d))
    if not (math.isfinite(fc) and math.isfinite(fd)):
        raise ValueError(f"non-finite objective at {c} or {d}")
    return Bracket(bracket.lo, w_next) if fc >= fd else Bracket(c, w_next)


class GoldenResult(NamedTuple):
    beta_star: float
    f_star: float
    bracket: tuple[float, float]
    widths: list[float]


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, iters: int
) -> GoldenResult:
    """Golden-section maximization on [lo, hi]; returns the midpoint of the
    final bracket, f there, the surviving bracket, and the per-step widths."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    bracket = Bracket(lo, hi - lo)
    widths = [bracket.width]
    for _ in range(iters):
        bracket = golden_step(f, bracket)
        widths.append(bracket.width)
    beta_star = bracket.mid
    return GoldenResult(beta_star, float(f(beta_star)), (bracket.lo, bracket.hi), widths)


def ridge_fit(x: np.ndarray, y: np.ndarray, n_classes: int, l2: float = 1e-3) -> np.ndarray:
    """One-vs-all least-squares classifier on [x, 1]; returns (dim+1, classes)."""
    x = np.asarray(x, dtype=np.float64)
    a = np.hstack([x, np.ones((x.shape[0], 1))])
    targets = np.zeros((x.shape[0], n_classes))
    targets[np.arange(x.shape[0]), np.asarray(y, dtype=np.int64)] = 1.0
    gram = a.T @ a + l2 * np.eye(a.shape[1])
    return np.linalg.solve(gram, a.T @ targets)


def ridge_predict(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    a = np.hstack([x, np.ones((x.shape[0], 1))])
    return np.argmax(a @ weights, axis=1)


def ridge_accuracy(
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    n_classes: int,
    l2: float = 1e-3,
) -> float:
    """Validation accuracy of the deterministic linear stand-in classifier."""
    weights = ridge_fit(train_x, train_y, n_classes, l2)
    pred = ridge_predict(weights, val_x)
    return float(np.mean(pred == np.asarray(val_y)))


def spec_to_text(spec: FusionSpec) -> str:
    """Render as a human-readable key-value document."""
    pairs = [
        ("rho", spec.rho),
        ("haf_weight", spec.haf_weight),
        ("haf_id", HAF_ID),         # the only pass-through name and the only
        ("ratio_weights", "true"),  # pooling form, written so HAL1 bytes stay put
    ]
    pairs += [(f"group.{g}", ",".join(spec.groups[g])) for g in sorted(spec.groups)]
    pairs += [(f"beta.{g}", spec.beta) for g in sorted(spec.groups)]
    pairs += [(f"weight.{sid}", spec.raw_weights[sid]) for sid in sorted(spec.raw_weights)]
    return format_key_values(pairs)


def spec_from_text(text: str, streams: tuple[str, ...], origin: str = "<string>") -> FusionSpec:
    """The spec of ``streams`` that ``text`` holds.  Only ``rho``,
    ``beta.TOP`` and the weights are read; the text must then be exactly what
    ``spec_to_text`` writes for that spec, and the first line that differs
    (a group, exponent or pass-through weight other than the streams give, a
    missing or extra weight) is refused as ``origin: line N: <line> ...``."""
    values: dict[str, float] = {}

    def setting(key: str, value: str) -> None:
        if key in ("rho", "beta.TOP") or key.startswith("weight."):
            values[key] = float(value)

    parse_key_values(text, origin, setting)
    try:
        keys = FusionSpec(streams).raw_weights
        spec = FusionSpec(streams, {k: values.get(f"weight.{k}", 1.0) for k in keys},
                          values.get("beta.TOP", 0.0), values.get("rho", 0.1))
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None
    lines = zip_longest(text.split("\n"), spec_to_text(spec).split("\n"), fillvalue="")
    for lineno, (got, want) in enumerate(lines, start=1):
        if got != want:
            raise ValueError(f"{origin}: line {lineno}: {got or '(empty)'} is not supported; "
                             f"the spec of these streams has {want or '(nothing)'!r} there")
    return spec
