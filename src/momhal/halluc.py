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

import math
import mmap
import os
import select
import signal
import struct
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, NoReturn

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
from .pn import ETA, EPSILON, row_norm, sigme, sigme_vjp
from .sketch import (
    SketchStack,
    derive_stream_seed,
    sketch_from_bytes,
    sketch_new,
    sketch_to_bytes,
)

CHECKPOINT_MAGIC = b"HAL1"
# v1 header: magic, version, seed, backbone width b, m, d', classes, SigmE eta and
# epsilon (byte 40), alpha, tot_scale (byte 56), multi-label flag (byte 64), units
_HEADER = struct.Struct("<4sIQ4I4dBI")
_POLL_S = 10e-3    # how long a wait on the other training process polls before it sleeps
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
        if self.seed >= 1 << 64:   # HAL1 stores it in 8 bytes
            raise ValueError(f"seed must be < 2**64, got {self.seed}")
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
    def n_classes(self) -> int:
        return self.prednet.weight.shape[0]


@dataclass
class VideoArrays:
    """A dataset as ``load_dataset`` gives it and ``train`` takes it:
    time-pooled backbone features, stacked ground-truth targets and labels."""

    z: np.ndarray         # (N, b)
    targets: np.ndarray   # (U, N, d'), one contiguous (N, d') slab per stream of ``streams``
    labels: np.ndarray    # (N,) class ids
    streams: tuple[str, ...]   # the streams of ``targets``, in order


def time_pool(features) -> np.ndarray:
    """Time-pooled (N, b) features of N videos' (b, t) backbone features."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[2] < 1:
        raise ValueError(f"expected (b, t) features with t >= 1, got {feats.shape[1:]}")
    return feats.mean(axis=2)


def _pool(spec: FusionSpec, outs: np.ndarray) -> np.ndarray:
    """tot_scale * sum_i c_i out_i of the stacked (U+1, n, d') outputs,
    summed from zero in coefficient order."""
    index = {name: k for k, name in enumerate((*spec.streams, HAF_ID))}
    pooled, term = np.zeros(outs.shape[1:]), np.empty(outs.shape[1:])
    for name, c in spec.coefficients.items():
        pooled += np.multiply(c, outs[index[name]], out=term)
    pooled *= spec.tot_scale
    return pooled


def _head(model: Model, outs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pooled head input and the scores of every unit's outputs."""
    pooled = _pool(model.spec, outs)
    return pooled, pooled @ model.prednet.weight.T + model.prednet.bias


def _forward(model: Model, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every unit's sketched outputs (U+1, n, d') of the rows of ``z``, in
    row blocks, pass-through last, and their scores."""
    outs = _Units(model, 0, len(model.weight)).outputs(z)
    return outs, _head(model, outs)[1]


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
    model: Model, sq_norms: np.ndarray, scores: np.ndarray, labels: np.ndarray,
) -> tuple[float, dict[str, float], float, np.ndarray]:
    """Total loss, per-stream MSE, classification loss and d(class loss)/d(scores)
    of n rows, from their scores, the (U, n) squared norms of their residuals
    outs - targets and their labels."""
    cfg = model.config
    y = np.eye(model.n_classes)[labels]
    class_loss, d_scores = _class_loss_and_grad(scores, y)
    # One 1-D sum per stream, then the division np.mean makes, without its
    # call overhead; a 2-D mean along axis 1 sums in another order.
    per_stream_mse = {name: float(np.add.reduce(sq)) / len(sq)
                      for name, sq in zip(model.streams, sq_norms)}
    n_units = len(model.streams)
    mse_term = (cfg.alpha / n_units) * sum(per_stream_mse.values()) if n_units else 0.0
    return mse_term + class_loss, per_stream_mse, class_loss, d_scores


def objective(model: Model, data: VideoArrays) -> tuple[float, dict[str, float], float]:
    """Combined loss of ``model`` on the rows of ``data``: (total loss, per-stream
    mean squared error, classification loss) with total = (alpha / |streams|) *
    sum of per-stream MSE plus the classification loss, exactly."""
    return _Trainer(model, data, fork=False).batch(np.arange(len(data.labels)))[:3]


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
                 PredNet(wp, np.zeros(n_classes)), FusionSpec(cfg.streams, rho=cfg.rho))


def infer(model: Model, video_features: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Test-time pass on raw backbone features only: hallucinate every
    stream, pool, and score.  No ground-truth descriptors are consumed."""
    outs, scores = _forward(model, time_pool([video_features]))
    return scores[0], {name: out[0] for name, out in zip(model.streams, outs)}


def predict_scores(model: Model, videos: list[SyntheticVideo]) -> np.ndarray:
    """Batched inference scores; reads only features, never ground truth."""
    return _forward(model, time_pool([v.backbone_features for v in videos]))[1]


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float((scores.argmax(axis=1) == labels).mean())


def evaluate(model: Model, videos: list[SyntheticVideo]) -> float:
    """Classification accuracy under the inference path (no ground truth)."""
    if not videos:
        return 0.0
    return _accuracy(predict_scores(model, videos), np.array([int(v.label) for v in videos]))


def accuracy(model: Model, data: VideoArrays) -> float:
    """``evaluate`` of the rows of ``data``; reads no targets."""
    return _accuracy(_forward(model, data.z)[1], data.labels)


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
    return _beta_score(model, _forward(model, data.z)[0], data.labels)


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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork_pays(n_units: int) -> bool:
    """Whether ``train`` forks a worker for half of ``n_units`` units: fork
    exists, the affinity mask holds two CPUs, the process runs one OS thread
    (a fork copies only the calling thread, so locks that another holds would
    stay held in the child, and a BLAS thread pool would contend with the
    worker for the two CPUs), and there are two units to split.  Where the
    threads cannot be listed, training runs in one process."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return hasattr(os, "fork") and usable_cpus() >= 2 and threads == 1 and n_units >= 2


def _shared_array(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping: made before a fork,
    parent and child read and write the same memory."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _sgd(weight: np.ndarray, bias: np.ndarray, dw: np.ndarray, db: np.ndarray, lr: float) -> None:
    """One SGD step of a layer, in place; scales the gradient arrays in place."""
    weight -= np.multiply(lr, dw, out=dw)
    bias -= np.multiply(lr, db, out=db)


class _Shared:
    """The arrays that the units of a training step read and write, sized
    for all N rows of the data: in shared memory when a worker is forked
    (``fork``), so that both processes see them, and private otherwise.  A
    batch of n rows uses the first n slots of ``outs`` and ``sq_norms`` and
    an epoch's end all N; the beta score reads ``outs`` only between an
    epoch's end and the next batch."""

    def __init__(self, n_units: int, data: VideoArrays, fork: bool):
        n_streams, n, d = data.targets.shape
        new = _shared_array if fork else np.zeros
        self.rows = new((1 + n,), np.int64)   # a batch's row count, then its rows
        self.outs = new((n_units, n, d))      # sketched outputs, by slot
        self.sq_norms = new((n_streams, n))   # the streams' squared residual norms, by slot
        self.d_pooled = new((n, d))           # d(loss)/d(pooled head input) of a batch
        self.coeffs = new((n_units,))         # the pooling coefficients by unit


class _Units:
    """Units [lo, hi) of a model, pass-through last when hi = S: the one
    code that runs the unit chain, for inference on all S units and for
    either process of ``train``.  In training each step works on the arrays
    of a ``_Shared``: a batch's pass and its backward pass with the SGD
    step, and every row's pass at an epoch's end."""

    def __init__(self, model: Model, lo: int, hi: int,
                 data: VideoArrays | None = None, shared: _Shared | None = None):
        self.model, self.data, self.shared = model, data, shared
        self.units = slice(lo, hi)
        self.n_streams = max(0, min(hi, len(model.streams)) - lo)
        self.streams = slice(lo, lo + self.n_streams)
        # all S units keep the model's stack, and so its per-row-count index cache
        self.sketches = (model.sketches if (lo, hi) == (0, len(model.weight))
                         else SketchStack(list(model.sketches.sketches[lo:hi])))
        self.kept: tuple[np.ndarray, ...] = ()   # what the backward pass reads

    def chain(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """Affine map, SigmE and count sketch of the units on the rows of
        ``z``: (S, n, m) pre-activations, their (S, n, 1) row norms, (S, n, m)
        SigmE outputs and (S, n, d') sketched outputs.  numpy's matmul runs
        one GEMM per unit, SigmE works row by row and each unit has its own
        buckets, so a unit's bits do not depend on which units share the
        stack."""
        model = self.model
        if z.shape[1] != (width := model.weight.shape[2]):
            raise ValueError(f"features of width {z.shape[1]}, but the model reads width {width}")
        acts = np.matmul(z, model.weight[self.units].transpose(0, 2, 1))
        acts += model.bias[self.units, None, :]
        norms = row_norm(acts)
        pres = sigme(acts, model.config.eta, norms)
        return acts, norms, pres, self.sketches.project(pres)

    def outputs(self, z: np.ndarray) -> np.ndarray:
        """The units' (hi - lo, n, d') sketched outputs of the rows of ``z``,
        a row block at a time."""
        blocks = _row_blocks(len(z))
        if len(blocks) == 1:
            return self.chain(z)[3]
        out = np.empty((len(self.sketches.sketches), len(z), self.sketches.output_dim))
        for lo, hi in blocks:
            out[:, lo:hi] = self.chain(z[lo:hi])[3]
        return out

    def write(self, rows: np.ndarray | slice, slots: slice) -> tuple[np.ndarray, ...]:
        """The pass over ``rows`` of the data: their sketched outputs and
        squared residual norms go to ``slots`` of the shared arrays, and
        what the backward pass reads comes back."""
        z = self.data.z[rows]
        acts, norms, pres, outs = self.chain(z)
        self.shared.outs[self.units, slots] = outs
        resids = outs[: self.n_streams] - self.data.targets[self.streams][:, rows]
        self.shared.sq_norms[self.streams, slots] = (resids ** 2).sum(axis=2)
        return z, acts, norms, pres, resids

    def forward(self) -> None:
        rows = self.shared.rows[1 : 1 + self.shared.rows[0]]
        self.kept = self.write(rows, slice(0, len(rows)))

    def grads(self) -> tuple[np.ndarray, np.ndarray]:
        """The hand-derived gradients of the units' weight and bias slabs,
        back through the kept forward pass."""
        z, acts, norms, pres, resids = self.kept
        cfg = self.model.config
        d_out = self.shared.coeffs[self.units, None, None] * self.shared.d_pooled[: len(z)]
        if self.n_streams:
            scale = (cfg.alpha / len(self.model.streams)) * (2.0 / len(z))
            d_out[: self.n_streams] += np.multiply(scale, resids, out=resids)
        d_a = sigme_vjp(acts, norms, pres, self.sketches.transpose(d_out), cfg.eta)
        return np.matmul(d_a.transpose(0, 2, 1), z), d_a.sum(axis=1)

    def step(self) -> None:
        model = self.model
        _sgd(model.weight[self.units], model.bias[self.units], *self.grads(),
             model.config.learning_rate)

    def epoch_end(self) -> None:
        for lo, hi in _row_blocks(len(self.data.z)):
            self.write(slice(lo, hi), slice(lo, hi))


def _read_byte(fd: int) -> bytes:
    """One byte from the non-blocking pipe end ``fd``, or b"" at end of
    file.  Polls for up to _POLL_S before it sleeps in ``poll`` (which,
    unlike ``select``, takes any descriptor number): an epoch's longest wait,
    the worker's through the parent's beta step, is shorter, and on a 2-core
    x86_64 VM a round trip to a process that slept took 45-63 us against
    9-10 us to one that polled (notes/decisions.md, "Two processes do")."""
    end = time.perf_counter() + _POLL_S
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            if time.perf_counter() > end:
                sleeper = select.poll()
                sleeper.register(fd, select.POLLIN)
                sleeper.poll()


def _serve(units: _Units, commands: int, replies: int, unused: tuple[int, ...]) -> NoReturn:
    """The worker process: closes the pipe ends it does not use, then runs
    each one-byte command on ``units`` and answers it, until end of file.
    Leaves by ``os._exit`` on every path, so nothing unwinds into the
    parent's frames that the fork copied."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent ends the worker
        for fd in unused:
            os.close(fd)
        run = {b"F": units.forward, b"B": units.step, b"E": units.epoch_end}
        while command := _read_byte(commands):
            run[command]()
            os.write(replies, b".")
        code = 0
    except BaseException:   # reported; the process then ends
        os.write(2, f"momhal training worker {os.getpid()}:\n{traceback.format_exc()}".encode())
    finally:
        os._exit(code)


class _Worker:
    """A forked process that runs one ``_Units``, and the two pipes that
    carry its commands and answers."""

    def __init__(self, units: _Units):
        commands, self.commands = os.pipe()
        self.replies, replies = os.pipe()
        for fd in (commands, self.replies):   # the ends that _read_byte reads
            os.set_blocking(fd, False)
        try:
            self.pid: int | None = os.fork()
        except OSError:
            for fd in (commands, self.commands, self.replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(units, commands, replies, unused=(self.commands, self.replies))
        os.close(commands)
        os.close(replies)

    def send(self, command: bytes) -> None:
        try:
            os.write(self.commands, command)
        except BrokenPipeError:
            self._died()

    def wait(self) -> None:
        if _read_byte(self.replies) != b".":
            self._died()

    def _died(self) -> NoReturn:
        pid, status = self.pid, self._reap()
        code = os.waitstatus_to_exitcode(status)
        how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
        raise RuntimeError(f"the training worker (pid {pid}) {how}")

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status

    def close(self, kill: bool) -> None:
        """End of file on the commands, SIGKILL too if ``kill``; then reap."""
        os.close(self.commands)
        try:
            if self.pid is not None:
                if kill:
                    os.kill(self.pid, signal.SIGKILL)
                self._reap()
        finally:
            os.close(self.replies)


class _Trainer:
    """A model's unit stack in training, on the arrays of a ``_Shared``.
    With ``fork``, those arrays and the slabs go into shared memory and a
    forked worker runs units [S // 2, S), pass-through included, while this
    process runs [0, S // 2) and the serial work, the beta score included;
    otherwise this process runs every unit and maps nothing.  Every unit
    step is one ``_run`` and returns when both halves are done
    (notes/decisions.md, "Two processes do").  Leaving the context ends the
    worker on every path and gives the model private slabs again."""

    def __init__(self, model: Model, data: VideoArrays, fork: bool):
        if data.streams != model.streams:
            raise ValueError(f"targets of streams {data.streams}, but the model has {model.streams}")
        n_units = len(model.weight)
        if fork:
            for name in ("weight", "bias"):
                slab = _shared_array(getattr(model, name).shape)
                slab[...] = getattr(model, name)
                setattr(model, name, slab)
        self.model, self.data = model, data
        self.shared = _Shared(n_units, data, fork)
        split = n_units // 2 if fork else n_units
        self.units = _Units(model, 0, split, data, self.shared)
        self.worker = _Worker(_Units(model, split, n_units, data, self.shared)) if fork else None

    def __enter__(self) -> _Trainer:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.worker is not None:
            self.worker.close(kill=exc_type is not None)
            self.model.weight, self.model.bias = self.model.weight.copy(), self.model.bias.copy()

    def _run(self, command: bytes, *own: Callable[[], None]) -> None:
        """``command`` in the worker while this process runs ``own``."""
        if self.worker is not None:
            self.worker.send(command)
        for step in own:
            step()
        if self.worker is not None:
            self.worker.wait()

    def batch(self, rows: np.ndarray) -> tuple[float, dict[str, float], float,
                                               tuple[np.ndarray, np.ndarray]]:
        """The forward pass over ``rows`` of the data: the ``_losses`` terms
        and the head's gradients; d(loss)/d(pooled) goes to the shared arrays."""
        model, shared, n = self.model, self.shared, len(rows)
        shared.coeffs[:] = [model.spec.coefficients[name] for name in (*model.streams, HAF_ID)]
        shared.rows[0], shared.rows[1 : 1 + n] = n, rows
        self._run(b"F", self.units.forward)
        pooled, scores = _head(model, shared.outs[:, :n])
        loss, per_mse, class_loss, d_scores = _losses(model, shared.sq_norms[:, :n], scores,
                                                      self.data.labels[rows])
        shared.d_pooled[:n] = model.spec.tot_scale * (d_scores @ model.prednet.weight)
        return loss, per_mse, class_loss, (d_scores.T @ pooled, d_scores.sum(axis=0))

    def step(self, head_grads: tuple[np.ndarray, np.ndarray]) -> None:
        """The SGD step of every unit and of the head, after ``batch``."""
        prednet, lr = self.model.prednet, self.model.config.learning_rate
        self._run(b"B", self.units.step,
                  lambda: _sgd(prednet.weight, prednet.bias, *head_grads, lr))

    def epoch_end(self) -> None:
        """Every row's outputs and the streams' squared residual norms, in
        all N slots of ``shared.outs`` and ``shared.sq_norms``."""
        self._run(b"E", self.units.epoch_end)


@dataclass
class _Grads:
    weight: np.ndarray        # (U+1, m, b), laid out as Model.weight
    bias: np.ndarray          # (U+1, m)
    prednet: tuple[np.ndarray, np.ndarray]


def _loss_and_grads(model: Model, data: VideoArrays) -> tuple[float, _Grads]:
    """The loss and hand-derived gradients of a training step over every
    row of ``data``, all units in this process, without the step."""
    with _Trainer(model, data, fork=False) as stack:
        loss, _, _, head = stack.batch(np.arange(len(data.labels)))
        return loss, _Grads(*stack.units.grads(), head)


def train(data: VideoArrays, cfg: TrainConfig) -> tuple[Model, list[dict]]:
    """Gradient-descent training with the warmup-then-search exponent
    schedule on the targets of ``cfg.streams`` in ``data``, which may hold
    more.  Deterministic for a fixed seed (single-threaded numpy), with or
    without the worker process (see ``_fork_pays``).

    Returns the trained model and one metrics row per epoch: loss,
    per-stream MSE, classification loss, validation accuracy, and the
    exponent bracket.
    """
    if missing := [name for name in cfg.streams if name not in data.streams]:
        raise ValueError(f"no targets for stream {missing[0]!r}; the data has {data.streams}")
    if data.streams != cfg.streams:
        data = replace(data, targets=data.targets[[data.streams.index(s) for s in cfg.streams]],
                       streams=cfg.streams)
    if not len(data.labels):
        raise ValueError("no videos")
    model = init_model(cfg, int(data.labels.max()) + 1, data.z.shape[1])

    val_idx, train_idx = _split(len(data.labels), cfg)
    if not len(train_idx):
        raise ValueError(f"val_fraction {cfg.val_fraction} leaves no training videos")
    _initial_weights(model, data, train_idx, val_idx)

    metrics: list[dict] = []
    bracket = Bracket(BETA_BRACKET[0], BETA_BRACKET[1] - BETA_BRACKET[0])
    batch = min(cfg.batch_size, len(train_idx))
    with _Trainer(model, data, cfg.epochs > 0 and _fork_pays(len(model.weight))) as stack:
        for epoch in range(1, cfg.epochs + 1):
            if epoch <= cfg.warmup_epochs:   # the spec starts at beta = 0
                beta_lo = beta_hi = 0.0
            else:
                if epoch == 1:   # no epoch has ended yet
                    stack.epoch_end()
                bracket = golden_step(_beta_score(model, stack.shared.outs, data.labels), bracket)
                model.spec = replace(model.spec, beta=bracket.mid)
                beta_lo, beta_hi = bracket.lo, bracket.hi

            order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_idx))
            for start in range(0, len(order), batch):
                loss, _, _, head_grads = stack.batch(train_idx[order[start : start + batch]])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch offset {start}"
                    )
                stack.step(head_grads)

            stack.epoch_end()
            loss, per_mse, class_loss, val_acc = _epoch_metrics(
                model, data, train_idx, val_idx, stack.shared)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss after epoch {epoch}")
            row = {"epoch": epoch, "loss": loss, "class_loss": class_loss}
            row.update({f"mse_{name}": per_mse[name] for name in model.streams})
            row.update({"val_acc": val_acc, "beta_lo": beta_lo, "beta_hi": beta_hi})
            metrics.append(row)
    return model, metrics


def _epoch_metrics(
    model: Model, data: VideoArrays, train_idx: np.ndarray, val_idx: np.ndarray,
    shared: _Shared,
) -> tuple[float, dict[str, float], float, float]:
    """The loss terms of the training rows and the validation accuracy,
    from every row's outputs and squared residual norms at an epoch's end.
    The slices equal separate passes over the splits only while BLAS gives
    a row the same bits at any row count (notes/decisions.md, "One forward
    pass at the end of each epoch")."""
    scores = _head(model, shared.outs)[1]
    loss, per_mse, class_loss, _ = _losses(model, shared.sq_norms[:, train_idx],
                                           scores[train_idx], data.labels[train_idx])
    val_acc = (_accuracy(scores[val_idx], data.labels[val_idx])
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

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.frombuffer(self.take(4 * math.prod(shape)), "<f4").astype(np.float64).reshape(shape)

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
    buf = bytearray(_HEADER.pack(
        CHECKPOINT_MAGIC, 1, cfg.seed, model.weight.shape[2], cfg.pre_sketch_dim,
        cfg.sketch_dim, model.n_classes, cfg.eta, EPSILON, cfg.alpha, model.spec.tot_scale, 0,
        len(model.weight)))
    units = zip((*model.streams, HAF_ID), model.weight, model.bias, model.sketches.sketches)
    for name, w, b, sketch in units:
        raw, sk = name.encode(), sketch_to_bytes(sketch)
        buf += b"".join([len(raw).to_bytes(2, "little"), raw, w.astype("<f4").tobytes(),
                         b.astype("<f4").tobytes(), len(sk).to_bytes(4, "little"), sk])
    raw = spec_to_text(model.spec).encode()
    buf += b"".join([model.prednet.weight.astype("<f4").tobytes(),
                     model.prednet.bias.astype("<f4").tobytes(), len(raw).to_bytes(4, "little"), raw])
    write_atomic(path, buf)


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
    # a short file is zero-padded here, so that its magic and version are checked first
    (magic, version, seed, b, m, d_prime, n_classes, eta, eps, alpha, tot_scale, multi_label,
     n_units) = _HEADER.unpack(r.data[: _HEADER.size].ljust(_HEADER.size, b"\0"))
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("HAL1: bad magic")
    if version != 1:
        raise ValueError(f"HAL1: unsupported version {version}")
    r.take(_HEADER.size)
    if eps != EPSILON:
        raise ValueError(f"HAL1: byte 40: SigmE norm guard {eps!r}, but it is fixed at {EPSILON!r}")
    if multi_label != 0:
        raise ValueError(f"HAL1: byte 64: multi_label flag {multi_label}, "
                         "but only single-label models exist")

    # a unit block holds at least its f32 arrays, two lengths and a CSK1 header
    least = r.pos + n_units * (4 * (m * b + m) + 26)
    if least > len(r.data):
        raise ValueError(f"HAL1: expected at least {least} bytes, got {len(r.data)}")
    names, sketches, weight, bias = [], [], np.empty((n_units, m, b)), np.empty((n_units, m))
    for k in range(n_units):
        at = r.pos + 2   # the name, after its u16 length
        name = r.text(int.from_bytes(r.take(2), "little"))
        if name in names:
            raise ValueError(f"HAL1: byte {at}: repeated unit {name!r}")
        names.append(name)
        weight[k], bias[k] = r.floats((m, b)), r.floats((m,))
        at = r.pos + 4
        sk = sketch_from_bytes(r.take(int.from_bytes(r.take(4), "little")))
        if (sk.input_dim, sk.output_dim) != (m, d_prime):
            raise ValueError(f"HAL1: byte {at}: count sketch {sk.input_dim} -> {sk.output_dim}, "
                             f"but the header says {m} -> {d_prime}")
        sketches.append(sk)
    if HAF_ID not in names:
        raise ValueError("HAL1: no pass-through unit")
    order = sorted(range(n_units), key=lambda k: names[k] == HAF_ID)   # pass-through last
    wp, bp = r.floats((n_classes, d_prime)), r.floats((n_classes,))
    streams = tuple(names[k] for k in order[:-1])
    spec = spec_from_text(r.text(int.from_bytes(r.take(4), "little")), streams, origin=str(path))
    if r.pos != len(r.data):
        raise ValueError(f"HAL1: expected {r.pos} bytes, got {len(r.data)}")
    if tot_scale != spec.tot_scale:
        raise ValueError(f"HAL1: byte 56: tot_scale {tot_scale!r}, but the fusion spec "
                         f"gives {spec.tot_scale!r}")

    cfg = TrainConfig(alpha=alpha, seed=seed, pre_sketch_dim=m, sketch_dim=d_prime,
                      streams=streams, rho=spec.rho, eta=eta)
    return Model(cfg, weight[order], bias[order], SketchStack([sketches[k] for k in order]),
                 PredNet(wp, bp), spec)
