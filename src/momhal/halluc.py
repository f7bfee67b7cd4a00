"""Hallucination streams, combined objective, and gradient-descent training.

Each stream unit maps temporally mean-pooled backbone features through an
affine layer, SigmE power normalization, and a fixed count sketch.  During
training every enabled stream is pulled toward its pre-sketched
ground-truth descriptor by an MSE term while the pooled combination of all
streams (plus the pass-through unit) feeds an affine prediction head
trained by cross-entropy.  At test time the ground truth is absent and the
streams' own outputs stand in for it.

All gradients are written by hand and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .atomic import write_atomic
from .fusion import (
    BETA_BRACKET,
    HAF_ID,
    SLOT_GROUPS,
    STREAM_ORDER,
    Bracket,
    FusionSpec,
    golden_step,
    ridge_accuracy,
    spec_from_text,
    spec_to_text,
)
from .pn import ETA, EPSILON, sigme, sigme_vjp
from .sketch import (
    SketchStack,
    derive_stream_seed,
    sketch_from_bytes,
    sketch_new,
    sketch_to_bytes,
)

CHECKPOINT_MAGIC = b"HAL1"
_BLOCK_ROWS = 32   # rows per block of a forward pass that keeps no backward state
INIT_SCALE = 0.2   # the initial weights' standard deviation times sqrt(fan-in)


class TrainingDivergedError(RuntimeError):
    """Raised when the objective becomes non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1.0               # MSE/classification trade-off
    learning_rate: float = 0.05
    epochs: int = 30
    seed: int = 0
    pre_sketch_dim: int = 128
    sketch_dim: int = 128
    streams: tuple[str, ...] = STREAM_ORDER   # kept in STREAM_ORDER, without repeats
    batch_size: int = 32
    val_fraction: float = 0.25
    rho: float = 0.1
    eta: float = ETA                 # SigmE slope eta'
    warmup_epochs: int = 10          # epochs at beta = 0 before the golden-section search
    ridge_l2: float = 1e-3

    def __post_init__(self):
        for name in ("alpha", "learning_rate", "val_fraction", "ridge_l2", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("alpha", "ridge_l2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        for name in ("learning_rate", "eta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("pre_sketch_dim", "sketch_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.val_fraction < 0:
            raise ValueError(f"val_fraction must be >= 0, got {self.val_fraction}")
        if not self.val_fraction < 1:
            raise ValueError(f"val_fraction {self.val_fraction} leaves no training videos")
        for name in ("epochs", "seed", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        unknown = [s for s in self.streams if s not in STREAM_ORDER]
        if unknown:
            raise ValueError(f"unknown streams {unknown}; valid: {STREAM_ORDER}")
        object.__setattr__(self, "streams", tuple(s for s in STREAM_ORDER if s in self.streams))


@dataclass
class SyntheticVideo:
    """Training sample: fixed backbone features, pre-sketched per-stream
    ground-truth descriptors, class label."""

    backbone_features: np.ndarray          # (b, t)
    ground_truth: dict[str, np.ndarray]    # stream id -> (d',)
    label: int                             # class id


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges of _BLOCK_ROWS to 2 * _BLOCK_ROWS - 1 rows that cover n rows,
    so a long pass allocates no temporaries larger than a training batch's,
    and no block is small enough for BLAS to switch kernels (notes/decisions.md,
    "Stacked stream units")."""
    starts = list(range(0, n - _BLOCK_ROWS + 1, _BLOCK_ROWS)) or [0]
    return list(zip(starts, starts[1:] + [n]))


@dataclass
class PredNet:
    weight: np.ndarray  # (classes, d')
    bias: np.ndarray    # (classes,)


@dataclass
class Model:
    """Every unit as stacked arrays, pass-through unit last: one (U+1, m, b)
    ``weight`` and one (U+1, m) ``bias`` slab and one ``SketchStack``.  The
    backbone width b is the weight's, so the features set it.  No
    other object holds a unit, so passes and checkpoints read whatever the
    slabs hold, whether written in place or rebound.  The U hallucination
    streams are the spec's, which must be the config's."""

    config: TrainConfig
    weight: np.ndarray         # (U+1, m, b)
    bias: np.ndarray           # (U+1, m)
    sketches: SketchStack      # U+1 count sketches m -> d'
    prednet: PredNet
    spec: FusionSpec
    n_classes: int

    def __post_init__(self):
        if self.weight.shape[2] < 1:
            raise ValueError(f"backbone_dim must be >= 1, got {self.weight.shape[2]}")
        if (self.spec.streams, self.spec.rho) != (self.config.streams, self.config.rho):
            raise ValueError(f"a fusion spec of streams {self.spec.streams} at rho {self.spec.rho}, "
                             f"but the config has {self.config.streams} at {self.config.rho}")
        got = (len(self.sketches.sketches), self.sketches.input_dim, self.sketches.output_dim)
        want = (len(self.streams) + 1, self.weight.shape[1], self.config.sketch_dim)
        if got != want:
            raise ValueError("{} count sketches of {} -> {}, but the model needs {} of {} -> {}"
                             .format(*got, *want))

    @property
    def streams(self) -> tuple[str, ...]:
        return self.spec.streams

    @property
    def tot_scale(self) -> float:
        """The head's fixed input gain: dividing by the coefficient mass, whose
        nested 1/|group| factors shrink the pooled vector, gives O(1) inputs and
        SGD conditioning independent of how many streams are enabled."""
        return self.spec.tot_scale

    def chain(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine map, SigmE and count sketch of every stacked unit on the rows
        of ``z``: (S, n, m) pre-activations, (S, n, m) SigmE outputs and
        (S, n, d') sketched outputs.  numpy's matmul runs one GEMM per unit."""
        acts = np.matmul(z, self.weight.transpose(0, 2, 1))
        acts += self.bias[:, None, :]
        pres = sigme(acts, self.config.eta)
        return acts, pres, self.sketches.project(pres)

    def outputs(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Every unit's sketched outputs (U+1, n, d') of the rows of ``z``,
        into ``out`` if given, a row block at a time."""
        blocks = _row_blocks(z.shape[0])
        if out is None:
            if len(blocks) == 1:
                return self.chain(z)[2]
            out = np.empty((len(self.weight), z.shape[0], self.sketches.output_dim))
        for lo, hi in blocks:
            out[:, lo:hi] = self.chain(z[lo:hi])[2]
        return out


@dataclass
class VideoArrays:
    """Videos converted once for the array-level paths: time-pooled
    backbone features, stacked ground-truth targets and labels."""

    z: np.ndarray         # (N, b)
    targets: np.ndarray   # (U, N, d'), one contiguous (N, d') slab per requested stream
    labels: np.ndarray    # (N,) class ids

    def take(self, idx: np.ndarray) -> VideoArrays:
        return VideoArrays(self.z[idx], self.targets[:, idx], self.labels[idx])


def _time_pool(features: list[np.ndarray]) -> np.ndarray:
    """Time-pooled (N, b) features of N videos' (b, t) backbone features."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3:
        raise ValueError(f"expected (b, t) features, got {feats.shape[1:]}")
    return feats.mean(axis=2)


def video_arrays(
    videos: list[SyntheticVideo], cfg: TrainConfig, streams: tuple[str, ...] = ()
) -> VideoArrays:
    """Convert videos to arrays.  Only the targets of ``streams`` are read,
    so inference (no streams) never touches the ground truth."""
    if not videos:
        raise ValueError("no videos")
    try:
        targets = np.array([[v.ground_truth[s] for v in videos] for s in streams],
                           dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"video lacks ground truth for enabled stream {exc.args[0]!r}") from None
    if not streams:
        targets = targets.reshape(0, len(videos), cfg.sketch_dim)
    labels = np.array([int(v.label) for v in videos])
    return VideoArrays(_time_pool([v.backbone_features for v in videos]), targets, labels)


def _pool(spec: FusionSpec, outs: np.ndarray) -> np.ndarray:
    """tot_scale * sum_i c_i out_i of the stacked (U+1, n, d') outputs,
    summed from zero in coefficient order."""
    index = {name: k for k, name in enumerate((*spec.streams, HAF_ID))}
    pooled, term = np.zeros(outs.shape[1:]), np.empty(outs.shape[1:])
    for name, c in spec.coefficients.items():
        pooled += np.multiply(c, outs[index[name]], out=term)
    pooled *= spec.tot_scale
    return pooled


@dataclass
class _Pass:
    """One forward pass over a batch of time-pooled features.  The unit
    axis of the stacked arrays follows ``Model.weight``: pass-through last."""

    acts: np.ndarray | None       # (U+1, n, m) affine pre-activations, kept for the backward pass
    pres: np.ndarray | None       # (U+1, n, m) SigmE outputs, kept for the backward pass
    outs: np.ndarray              # (U+1, n, d') sketched outputs
    pooled: np.ndarray            # tot_scale * sum_i c_i out_i, the head's input
    scores: np.ndarray


def _forward(
    model: Model, z: np.ndarray, backward: bool = False, out: np.ndarray | None = None,
) -> _Pass:
    """The forward pass over the rows of ``z``.  ``backward`` keeps the
    activations the gradients need; otherwise the pass runs in row blocks
    and writes the sketched outputs into ``out`` if given."""
    if z.shape[1] != (width := model.weight.shape[2]):
        raise ValueError(f"features of width {z.shape[1]}, but the model reads width {width}")
    if backward:
        acts, pres, outs = model.chain(z)
    else:
        acts = pres = None
        outs = model.outputs(z, out)
    pooled = _pool(model.spec, outs)
    scores = pooled @ model.prednet.weight.T + model.prednet.bias
    return _Pass(acts, pres, outs, pooled, scores)


def _class_loss_and_grad(scores: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch against one-hot ``y``, and
    d(loss)/d(scores)."""
    b = scores.shape[0]
    shifted = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = float(-(logp * y).sum(axis=1).mean())
    prob = np.exp(logp)
    return loss, (prob - y) / b


def _losses(
    model: Model, sq_norms: np.ndarray, scores: np.ndarray, data: VideoArrays,
    rows: slice | np.ndarray = slice(None),
) -> tuple[float, dict[str, float], float, np.ndarray]:
    """Total loss, per-stream MSE, classification loss and d(class loss)/d(scores)
    on ``rows``, from a forward pass's scores and the (U, n) squared norms of
    its residuals outs - targets on all rows of ``data``."""
    cfg = model.config
    y = np.eye(model.n_classes)[data.labels[rows]]
    class_loss, d_scores = _class_loss_and_grad(scores[rows], y)
    # one 1-D mean per stream: a 2-D mean along axis 1 sums in another order
    per_stream_mse = {name: float(sq.mean()) for name, sq in zip(model.streams, sq_norms[:, rows])}
    n_units = len(model.streams)
    mse_term = (cfg.alpha / n_units) * sum(per_stream_mse.values()) if n_units else 0.0
    return mse_term + class_loss, per_stream_mse, class_loss, d_scores


def _squared_residuals(outs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row squared norms (U, n) of the residuals outs[:U] - targets, a
    row block at a time."""
    n_units, n = targets.shape[:2]
    sq_norms = np.empty((n_units, n))
    for lo, hi in _row_blocks(n):
        resid = outs[:n_units, lo:hi] - targets[:, lo:hi]
        sq_norms[:, lo:hi] = np.square(resid, out=resid).sum(axis=2)
    return sq_norms


def objective(model: Model, batch: list[SyntheticVideo]) -> tuple[float, dict[str, float], float]:
    """Combined loss of ``model`` on a batch: (total loss, per-stream mean
    squared error, classification loss) with total = (alpha / |streams|) *
    sum of per-stream MSE plus the classification loss, exactly."""
    data = video_arrays(batch, model.config, model.streams)
    fwd = _forward(model, data.z)
    return _losses(model, _squared_residuals(fwd.outs, data.targets), fwd.scores, data)[:3]


@dataclass
class _Grads:
    weight: np.ndarray        # (U+1, m, b), laid out as Model.weight
    bias: np.ndarray          # (U+1, m)
    prednet: tuple[np.ndarray, np.ndarray]


def _loss_and_grads(model: Model, data: VideoArrays) -> tuple[float, _Grads]:
    """Loss and hand-derived parameter gradients, back through the cached
    forward pass, for all units at once."""
    cfg = model.config
    fwd = _forward(model, data.z, backward=True)
    n_units, b = len(model.streams), data.z.shape[0]
    resids = fwd.outs[:n_units] - data.targets
    loss, _, _, d_scores = _losses(model, (resids ** 2).sum(axis=2), fwd.scores, data)
    d_tot = model.tot_scale * (d_scores @ model.prednet.weight)
    coeffs = np.array([model.spec.coefficients[name] for name in (*model.streams, HAF_ID)])
    d_out = coeffs[:, None, None] * d_tot
    if n_units:
        d_out[:n_units] += np.multiply((cfg.alpha / n_units) * (2.0 / b), resids, out=resids)
    d_pre = model.sketches.transpose(d_out)
    d_a = sigme_vjp(fwd.acts, fwd.pres, d_pre, cfg.eta)
    weight = np.matmul(d_a.transpose(0, 2, 1), data.z)
    return loss, _Grads(weight, d_a.sum(axis=1), (d_scores.T @ fwd.pooled, d_scores.sum(axis=0)))


def _apply_grads(model: Model, grads: _Grads, lr: float) -> None:
    """One SGD step; scales the gradient arrays in place."""
    for layer, dw, db in [(model, grads.weight, grads.bias), (model.prednet, *grads.prednet)]:
        layer.weight -= np.multiply(lr, dw, out=dw)
        layer.bias -= np.multiply(lr, db, out=db)


def init_model(cfg: TrainConfig, n_classes: int, backbone_dim: int) -> Model:
    """Build a model at its deterministic initialization (no training) that
    reads backbone features of width ``backbone_dim``."""
    if backbone_dim < 1:
        raise ValueError(f"backbone_dim must be >= 1, got {backbone_dim}")
    rng = np.random.default_rng((cfg.seed, 0xC0))
    units = (*cfg.streams, HAF_ID)
    # one draw of U+1 (m, b) blocks gives the bits of U+1 draws in unit order
    weight = rng.normal(0.0, INIT_SCALE / np.sqrt(backbone_dim),
                        size=(len(units), cfg.pre_sketch_dim, backbone_dim))
    sketches = SketchStack([sketch_new(cfg.pre_sketch_dim, cfg.sketch_dim,
                                       derive_stream_seed(cfg.seed, name, "stream"))
                            for name in units])
    wp = rng.normal(0.0, INIT_SCALE / np.sqrt(cfg.sketch_dim),
                    size=(n_classes, cfg.sketch_dim))
    return Model(cfg, weight, np.zeros(weight.shape[:2]), sketches,
                 PredNet(wp, np.zeros(n_classes)), FusionSpec(cfg.streams, rho=cfg.rho), n_classes)


def infer(model: Model, video_features: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Test-time pass on raw backbone features only: hallucinate every
    stream, pool, and score.  No ground-truth descriptors are consumed."""
    fwd = _forward(model, _time_pool([video_features]))
    return fwd.scores[0], {name: out[0] for name, out in zip(model.streams, fwd.outs)}


def predict_scores(model: Model, videos: list[SyntheticVideo]) -> np.ndarray:
    """Batched inference scores; reads only features, never ground truth."""
    return _forward(model, _time_pool([v.backbone_features for v in videos])).scores


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float((scores.argmax(axis=1) == labels).mean())


def evaluate(model: Model, videos: list[SyntheticVideo]) -> float:
    """Classification accuracy under the inference path (no ground truth)."""
    if not videos:
        return 0.0
    data = video_arrays(videos, model.config)
    return _accuracy(_forward(model, data.z).scores, data.labels)


def _split(n: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The trainer's (validation, training) index split: a permutation
    drawn from (seed, 0x5E), with the first val_fraction as validation."""
    perm = np.random.default_rng((cfg.seed, 0x5E)).permutation(n)
    n_val = int(round(cfg.val_fraction * n)) if n > 1 else 0
    return perm[:n_val], perm[n_val:]


def beta_objective(model: Model, data: VideoArrays) -> Callable[[float], float]:
    """The pooling-exponent score used by ``train`` and ``search-beta``.

    One forward pass over ``data``; then a candidate beta (applied to every
    group) scores the ridge validation accuracy of the pooled vector
    tot_scale * sum_i c_i(beta) out_i on the trainer's split, with the
    model's ``ridge_l2``.  A split without validation videos scores every
    beta as 0.
    """
    return _beta_score(model, _forward(model, data.z).outs, data.labels)


def _beta_score(model: Model, outs: np.ndarray, labels: np.ndarray) -> Callable[[float], float]:
    """``beta_objective`` from every unit's sketched outputs (U+1, N, d')
    over all videos."""
    cfg = model.config
    val_idx, train_idx = _split(len(labels), cfg)
    if not len(val_idx):
        return lambda _beta: 0.0

    def score(beta: float) -> float:
        tot = _pool(replace(model.spec, beta=beta), outs)
        return ridge_accuracy(
            tot[train_idx], labels[train_idx], tot[val_idx], labels[val_idx],
            model.n_classes, cfg.ridge_l2,
        )

    return score


def _initial_weights(
    model: Model,
    data: VideoArrays,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
) -> None:
    """Set raw stream weights from the validation accuracy of a linear
    classifier trained on each stream's ground-truth descriptors."""
    if len(train_idx) == 0 or len(val_idx) == 0:
        return  # keep the uniform defaults
    y = data.labels

    def accuracy(x: np.ndarray) -> float:
        return ridge_accuracy(x[train_idx], y[train_idx], x[val_idx], y[val_idx],
                              model.n_classes, model.config.ridge_l2)

    gt = {name: data.targets[k] for k, name in enumerate(model.streams)}
    accs = {name: accuracy(x) for name, x in gt.items()}
    for slot, gid in SLOT_GROUPS.items():
        members = model.spec.groups[gid]
        if members:
            accs[slot] = accuracy(np.mean([gt[m] for m in members], axis=0))
    model.spec = replace(model.spec, raw_weights=accs)


def train(dataset: list[SyntheticVideo], cfg: TrainConfig) -> tuple[Model, list[dict]]:
    """Gradient-descent training with the warmup-then-search exponent
    schedule.  Deterministic for a fixed seed (single-threaded numpy).

    Returns the trained model and one metrics row per epoch: loss,
    per-stream MSE, classification loss, validation accuracy, and the
    exponent bracket.
    """
    data = video_arrays(dataset, cfg, cfg.streams)
    model = init_model(cfg, int(data.labels.max()) + 1, data.z.shape[1])

    val_idx, train_idx = _split(len(dataset), cfg)
    if not len(train_idx):
        raise ValueError(f"val_fraction {cfg.val_fraction} leaves no training videos")
    train_data = data.take(train_idx)
    _initial_weights(model, data, train_idx, val_idx)

    metrics: list[dict] = []
    bracket = Bracket(BETA_BRACKET[0], BETA_BRACKET[1] - BETA_BRACKET[0])
    # every unit's sketched outputs over all videos at the current weights,
    # rewritten by each epoch's end
    outs = np.empty((len(model.weight), len(dataset), cfg.sketch_dim))
    for epoch in range(1, cfg.epochs + 1):
        if epoch <= cfg.warmup_epochs:   # the spec starts at beta = 0
            beta_lo = beta_hi = 0.0
        else:
            if epoch == 1:   # no epoch has ended yet
                _forward(model, data.z, out=outs)
            bracket = golden_step(_beta_score(model, outs, data.labels), bracket)
            model.spec = replace(model.spec, beta=bracket.mid)
            beta_lo, beta_hi = bracket.lo, bracket.hi

        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_idx))
        for start in range(0, len(order), cfg.batch_size):
            batch = train_data.take(order[start : start + cfg.batch_size])
            loss, grads = _loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            _apply_grads(model, grads, cfg.learning_rate)

        loss, per_mse, class_loss, val_acc = _epoch_end(model, data, train_idx, val_idx, outs)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss after epoch {epoch}")
        row = {"epoch": epoch, "loss": loss, "class_loss": class_loss}
        row.update({f"mse_{name}": per_mse[name] for name in model.streams})
        row.update({"val_acc": val_acc, "beta_lo": beta_lo, "beta_hi": beta_hi})
        metrics.append(row)
    return model, metrics


def _epoch_end(
    model: Model, data: VideoArrays, train_idx: np.ndarray, val_idx: np.ndarray,
    outs: np.ndarray,
) -> tuple[float, dict[str, float], float, float]:
    """One forward pass over all videos: its sketched outputs go into
    ``outs`` (for the next beta search); returns the loss terms of the
    training rows and the validation accuracy.  The slices equal separate
    passes over the splits only while BLAS gives a row the same bits at any
    row count (notes/decisions.md, "One forward pass at the end of each epoch")."""
    fwd = _forward(model, data.z, out=outs)
    sq_norms = _squared_residuals(outs, data.targets)
    loss, per_mse, class_loss, _ = _losses(model, sq_norms, fwd.scores, data, train_idx)
    val_acc = (_accuracy(fwd.scores[val_idx], data.labels[val_idx])
               if len(val_idx) else 0.0)
    return loss, per_mse, class_loss, val_acc


def metrics_to_csv(metrics: list[dict], stream_names: tuple[str, ...]) -> str:
    """Render per-epoch metrics as CSV with a stable column order."""
    cols = ["epoch", "loss", "class_loss"]
    cols += [f"mse_{name}" for name in stream_names]
    cols += ["val_acc", "beta_lo", "beta_hi"]
    lines = [",".join(cols)]
    for row in metrics:
        lines.append(",".join(repr(row[c]) if c != "epoch" else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _write_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    buf.write(arr.astype("<f4").tobytes())


class _CheckpointReader:
    """Reads a HAL1 checkpoint front to back; reading past the end is an error."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ValueError(f"HAL1: expected at least {end} bytes, got {len(self.data)}")
        chunk, self.pos = self.data[self.pos : end], end
        return chunk

    def array(self, dtype: str, count: int = 1) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype, count)

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.array("<f4", math.prod(shape)).astype(np.float64).reshape(shape)

    def text(self, n: int) -> str:
        start = self.pos
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise ValueError(f"HAL1: byte {start + exc.start}: text is not UTF-8") from None


def save_checkpoint(model: Model, path) -> None:
    """Versioned binary checkpoint: all weights as little-endian f32 with
    the sketch tables and fusion spec embedded."""
    cfg = model.config
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(np.uint32(1).tobytes())
    buf.write(np.uint64(cfg.seed & ((1 << 64) - 1)).tobytes())
    for v in (model.weight.shape[2], cfg.pre_sketch_dim, cfg.sketch_dim, model.n_classes):
        buf.write(np.uint32(v).tobytes())
    for v in (cfg.eta, EPSILON, cfg.alpha, model.tot_scale):
        buf.write(np.float64(v).tobytes())
    buf.write(np.uint8(0).tobytes())   # the multi_label flag of format v1, always 0

    buf.write(np.uint32(len(model.weight)).tobytes())
    units = zip((*model.streams, HAF_ID), model.weight, model.bias, model.sketches.sketches)
    for name, w, b, sketch in units:
        raw = name.encode()
        buf.write(np.uint16(len(raw)).tobytes())
        buf.write(raw)
        _write_array(buf, w)
        _write_array(buf, b)
        sk = sketch_to_bytes(sketch)
        buf.write(np.uint32(len(sk)).tobytes())
        buf.write(sk)
    _write_array(buf, model.prednet.weight)
    _write_array(buf, model.prednet.bias)

    raw = spec_to_text(model.spec).encode()
    buf.write(np.uint32(len(raw)).tobytes())
    buf.write(raw)
    write_atomic(path, buf.getvalue())


def load_checkpoint(path) -> Model:
    """Read a HAL1 checkpoint.  Any defect in the file raises a ValueError
    that starts with ``HAL1:`` and, past the header, names a byte offset."""
    with open(path, "rb") as fp:
        r = _CheckpointReader(fp.read())
    try:
        return _read_checkpoint(r, path)
    except ValueError as exc:
        if str(exc).startswith("HAL1:"):
            raise
        raise ValueError(f"HAL1: byte {r.pos}: {exc}") from None


def _read_checkpoint(r: _CheckpointReader, path) -> Model:
    if r.data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("HAL1: bad magic")
    r.take(4)
    version = int(r.array("<u4")[0])
    if version != 1:
        raise ValueError(f"HAL1: unsupported version {version}")
    seed = int(r.array("<u8")[0])
    b, m, d_prime, n_classes = (int(v) for v in r.array("<u4", 4))
    eta, eps, alpha, tot_scale = (float(v) for v in r.array("<f8", 4))   # tot_scale at byte 56
    if eps != EPSILON:
        raise ValueError(f"HAL1: byte 40: SigmE norm guard {eps!r}, but it is fixed at {EPSILON!r}")
    if (multi_label := int(r.array("u1")[0])) != 0:
        raise ValueError(f"HAL1: byte 64: multi_label flag {multi_label}, "
                         "but only single-label models exist")

    n_units = int(r.array("<u4")[0])
    # a unit block holds at least its f32 arrays, two lengths and a CSK1 header
    least = r.pos + n_units * (4 * (m * b + m) + 26)
    if least > len(r.data):
        raise ValueError(f"HAL1: expected at least {least} bytes, got {len(r.data)}")
    names, sketches, weight, bias = [], [], np.empty((n_units, m, b)), np.empty((n_units, m))
    for k in range(n_units):
        at = r.pos + 2   # the name, after its u16 length
        name = r.text(int(r.array("<u2")[0]))
        if name in names:
            raise ValueError(f"HAL1: byte {at}: repeated unit {name!r}")
        names.append(name)
        weight[k], bias[k] = r.floats((m, b)), r.floats((m,))
        at = r.pos + 4
        sk = sketch_from_bytes(r.take(int(r.array("<u4")[0])))
        if (sk.input_dim, sk.output_dim) != (m, d_prime):
            raise ValueError(f"HAL1: byte {at}: count sketch {sk.input_dim} -> {sk.output_dim}, "
                             f"but the header says {m} -> {d_prime}")
        sketches.append(sk)
    if HAF_ID not in names:
        raise ValueError("HAL1: no pass-through unit")
    order = sorted(range(n_units), key=lambda k: names[k] == HAF_ID)   # pass-through last
    wp, bp = r.floats((n_classes, d_prime)), r.floats((n_classes,))
    streams = tuple(names[k] for k in order[:-1])
    spec = spec_from_text(r.text(int(r.array("<u4")[0])), streams, origin=str(path))
    if r.pos != len(r.data):
        raise ValueError(f"HAL1: expected {r.pos} bytes, got {len(r.data)}")
    if tot_scale != spec.tot_scale:
        raise ValueError(f"HAL1: byte 56: tot_scale {tot_scale!r}, but the fusion spec "
                         f"gives {spec.tot_scale!r}")

    cfg = TrainConfig(alpha=alpha, seed=seed, pre_sketch_dim=m, sketch_dim=d_prime,
                      streams=streams, rho=spec.rho, eta=eta)
    return Model(cfg, weight[order], bias[order], SketchStack([sketches[k] for k in order]),
                 PredNet(wp, bp), spec, n_classes)
