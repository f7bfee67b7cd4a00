"""Stream reweighting, hierarchical pooling, and golden-section tuning.

Streams are weighted by the ratios r_i = max(w'_i^beta, rho) / sum_j
max(w'_j^beta, rho) where w' are raw per-stream scores normalized so the
group maximum is 1, so each group pools to a convex weighted mean.
beta = 0 equalizes the ratios at 1/|T|; large beta approaches
winner-takes-all with losers held at the floor rho.  The paper's
w_i = r_i / |T| form is kept as ``eq9_weights``.

Pooling runs on three levels: detector streams pool into "det", saliency
streams into "sal", and the top level combines the auxiliary streams,
"det", "sal", and the pass-through stream, whose weight is fixed rather
than exponent-scaled, under an outer 1/(|top members| + 1) factor.

The exponent beta is tuned by golden-section search on a 1-d score
function; the bracket state carries over between steps so a training loop
can advance one elimination per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .keyvalue import format_key_values, parse_bool, parse_key_values

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def eq9_weights(w_prime: np.ndarray, beta: float, rho: float) -> np.ndarray:
    """Stream weights w_i = r_i / |T| (the ratios carry an extra 1/|T|)."""
    r = eq9_ratios(w_prime, beta, rho)
    return r / r.size


@dataclass
class FusionSpec:
    """Groups, raw stream scores, per-group exponent, floor, and the fixed
    pass-through weight.  Exponent-scaled members are weighted by the bare
    ratios r_i (see notes/decisions.md, "Pooling with bare ratios").
    """

    groups: dict[str, list[str]]
    raw_weights: dict[str, float]
    beta: dict[str, float]
    rho: float = 0.1
    haf_weight: float = 1.0
    _coefficients: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        for g, b in self.beta.items():
            if b < 0.0:
                raise ValueError(f"beta[{g}] must be >= 0, got {b}")
        for sid, w in self.raw_weights.items():
            if w < 0.0:
                raise ValueError(f"raw weight for {sid} must be >= 0, got {w}")

    def weighted_members(self, group: str) -> list[str]:
        """Group members that receive exponent-scaled weights (the fixed
        pass-through stream is excluded)."""
        return [sid for sid in self.groups[group] if sid != HAF_ID]

    def normalized_weights(self, group: str) -> np.ndarray:
        """Raw weights of the weighted members scaled so the maximum is 1."""
        members = self.weighted_members(group)
        w = np.array([self.raw_weights[sid] for sid in members], dtype=np.float64)
        top = w.max() if w.size else 0.0
        if top <= 0.0:
            return np.ones_like(w)
        return w / top

    def group_weights(self, group: str) -> dict[str, float]:
        members = self.weighted_members(group)
        if not members:
            return {}
        w = eq9_ratios(self.normalized_weights(group), self.beta[group], self.rho)
        return dict(zip(members, w.tolist()))

    def set_beta(self, value: float) -> None:
        for g in self.beta:
            self.beta[g] = value

    def coefficients(self) -> dict[str, float]:
        """``effective_coefficients(self)``, recomputed only when a field the
        coefficients read has changed since the last call."""
        state = (tuple(self.beta.items()), tuple(self.raw_weights.items()),
                 tuple((g, tuple(m)) for g, m in self.groups.items()),
                 self.rho, self.haf_weight)
        if not self._coefficients or self._coefficients[0] != state:
            self._coefficients = (state, effective_coefficients(self))
        return dict(self._coefficients[1])


def pooled(streams: dict[str, np.ndarray], spec: FusionSpec, group: str) -> np.ndarray:
    """Weighted mean of a group's stream vectors.

    Non-top groups return the convex mean sum r_i psi_i.  The top group
    adds the pass-through term with its fixed weight and divides by
    |members| + 1.
    """
    if group not in spec.groups:
        raise ValueError(f"unknown group {group!r}")
    members = spec.groups[group]
    if not members:
        raise ValueError(f"group {group!r} has no members")
    missing = [sid for sid in members if sid not in streams]
    if missing:
        raise ValueError(f"missing streams {missing} for group {group}")
    dim = None
    for sid in members:
        v = np.asarray(streams[sid], dtype=np.float64)
        if dim is None:
            dim = v.shape
        elif v.shape != dim:
            raise ValueError(f"stream {sid} has shape {v.shape}, expected {dim}")

    weights = spec.group_weights(group)
    n = len(weights)
    acc = np.zeros(dim)
    for sid, w in weights.items():
        acc += w * np.asarray(streams[sid], dtype=np.float64)
    if HAF_ID in members:
        acc += spec.haf_weight * np.asarray(streams[HAF_ID], dtype=np.float64)
        return acc / (n + 1)
    if n == 0:
        raise ValueError(f"group {group!r} has no members")
    return acc


def pooled_total(streams: dict[str, np.ndarray], spec: FusionSpec) -> np.ndarray:
    """Three-level pooling: detector and saliency groups first, then the top
    group over auxiliary streams, "det", "sal", and the pass-through."""
    combined = dict(streams)
    if spec.groups.get(GROUP_DET):
        combined["det"] = pooled(streams, spec, GROUP_DET)
    if spec.groups.get(GROUP_SAL):
        combined["sal"] = pooled(streams, spec, GROUP_SAL)
    return pooled(combined, spec, GROUP_TOP)


def effective_coefficients(spec: FusionSpec) -> dict[str, float]:
    """Scalar coefficient of each leaf stream in the top-level pooled vector,
    flattening the three pooling levels."""
    top_w = spec.group_weights(GROUP_TOP)
    outer = 1.0 / (len(spec.weighted_members(GROUP_TOP)) + 1)
    coeffs: dict[str, float] = {}
    for sid in spec.groups[GROUP_TOP]:
        group = SLOT_GROUPS.get(sid)
        if sid == HAF_ID:
            coeffs[sid] = spec.haf_weight * outer
        elif group and spec.groups.get(group):
            for leaf, w in spec.group_weights(group).items():
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
    """One interior-point elimination maximizing f; shrinks the width by the
    inverse golden ratio regardless of tie-breaking.

    Ties keep the left interval: exponent objectives go flat once every
    losing weight hits the floor, so plateaus extend to the right and the
    peak (or the smallest exponent attaining it) lies leftward.
    """
    w_next = INV_PHI * bracket.width
    c = bracket.lo + (bracket.width - w_next)
    d = bracket.lo + w_next
    fc, fd = float(f(c)), float(f(d))
    if not (math.isfinite(fc) and math.isfinite(fd)):
        raise ValueError(f"non-finite objective at {c} or {d}")
    if fc >= fd:
        return Bracket(bracket.lo, w_next)
    return Bracket(c, w_next)


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
    pairs += [(f"beta.{g}", spec.beta[g]) for g in sorted(spec.beta)]
    pairs += [(f"weight.{sid}", spec.raw_weights[sid]) for sid in sorted(spec.raw_weights)]
    return format_key_values(pairs)


def spec_from_text(text: str, origin: str = "<string>") -> FusionSpec:
    groups: dict[str, list[str]] = {}
    beta: dict[str, float] = {}
    raw: dict[str, float] = {}
    scalars: dict = {}

    def setting(key: str, value: str) -> None:
        if key in ("rho", "haf_weight"):
            scalars[key] = float(value)
        elif key == "haf_id":
            if value != HAF_ID:
                raise ValueError(f"haf_id = {value} is not supported: the pass-through "
                                 f"stream is always {HAF_ID!r}")
        elif key == "ratio_weights":
            if not parse_bool(value):
                raise ValueError("ratio_weights = false (the r_i/|T| pooling form) is not supported")
        elif key.startswith("group."):
            groups[key[6:]] = [s for s in value.split(",") if s]
        elif key.startswith("beta."):
            beta[key[5:]] = float(value)
        elif key.startswith("weight."):
            raw[key[7:]] = float(value)
        else:
            raise ValueError(f"unknown key {key!r}")

    parse_key_values(text, origin, setting)
    return FusionSpec(groups=groups, raw_weights=raw, beta=beta, **scalars)
