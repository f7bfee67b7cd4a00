"""Object detection features.

Each bounding box becomes a per-box vector: a one-hot over the joint
171-class label space (labels 1..91 from the COCO-style detector space,
92..171 from the AVA-style space at offset +91), the 1001-dim l1-normalized
ImageNet score vector, and Gaussian feature maps of six scalars
(confidence, four box coordinates, normalized frame position).  With the
7-pivot maps of ``SCALAR_MAP`` the vector has 171 + 1001 + 6*7 = 1214
entries; with raw scalars instead of maps, 1178.  All boxes of a video,
grouped by frame, are summarized by the multi-moment descriptor.

Detections arrive as JSON Lines, one object per detection:
{"video": str, "detector": str, "frame": int, "tau": int, "class": int,
 "conf": float, "box": [f, f, f, f], "inet": [1001 floats]}.
"inet" may be replaced by "inet_sparse": [[index, value], ...] with
0-based indices into the 1001-vector.  A file is read into typed columns
(``Detections``), one row per box; no per-box object outlives its line.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import INTERVAL_UNIT, FeatureMapConfig, feature_map_batch
from .keyvalue import read_lines
from .moments import FeatureBag, MultiMomentDescriptor, multi_moment

COCO_CLASSES = 91
AVA_CLASSES = 80
CLASS_SPACE_SIZE = COCO_CLASSES + AVA_CLASSES  # 171
IMAGENET_SIZE = 1001
SCORE_SUM_TOL = 1e-6
# How far math.fsum of nonnegative scores summing to about 1 may lie from
# numpy's pairwise sum of their dense vector: at most 1000 roundings of a
# total near 1, about 1.1e-13.  A fsum inside the tolerance by more passes both.
_SUM_MARGIN = 1e-12
SCALAR_MAP = FeatureMapConfig(7, 0.5, INTERVAL_UNIT)   # map of each of the six box scalars
# The most frames a clip may have: a bag counts its boxes in a tau-long
# int64 vector, 8 MB at this bound, allocated before any box is read.
MAX_TAU = 1 << 20


def check_tau(tau: int) -> int:
    """``tau`` if it lies in [1, MAX_TAU]."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau > MAX_TAU:
        raise ValueError(f"tau must be <= MAX_TAU = {MAX_TAU}, got {tau}")
    return tau


def _check_dense_scores(scores: np.ndarray) -> None:
    """Refuse a (1001,) score vector that is not finite, nonnegative and
    summing to 1."""
    if not np.isfinite(scores).all():
        raise ValueError("imagenet_scores holds non-finite values")
    if scores.min() < 0.0:
        raise ValueError("imagenet_scores must be nonnegative")
    if abs(float(scores.sum()) - 1.0) > SCORE_SUM_TOL:
        raise ValueError("imagenet_scores must sum to 1")


def _dense(score_index, score_values) -> np.ndarray:
    """The (1001,) vector that holds ``score_values`` at ``score_index``."""
    dense = np.zeros(IMAGENET_SIZE)
    dense[list(score_index)] = score_values
    return dense


def _nonzero(scores: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(positions, values) of the entries of a (1001,) score vector whose
    bits are nonzero, so a -0.0 stays."""
    if scores.shape != (IMAGENET_SIZE,):
        raise ValueError(f"imagenet_scores must have length {IMAGENET_SIZE}")
    keep = np.flatnonzero(scores.view(np.int64))
    return tuple(keep.tolist()), tuple(scores[keep].tolist())


@dataclass(frozen=True, slots=True)
class DetectionRecord:
    """One bounding-box detection: what ``parse_detection_line`` makes of a
    line, and one row of ``Detections``.  Construction checks every field,
    so every record is valid; ``lenient`` repairs raw fields before it
    constructs one.  The ImageNet scores are kept sparse, as the entries
    whose bits are nonzero, or flagged as the uniform 1/1001 vector of the
    lenient fallback."""

    frame_index: int          # t in [1, tau]
    class_label: int          # y in [1, 171]
    confidence: float         # in [0, 1]
    box: tuple[float, float, float, float]  # (v1, v2, v3, v4) normalized, top-left <= bottom-right
    score_index: tuple[int, ...]     # ascending positions of the nonzero ImageNet scores
    score_values: tuple[float, ...]  # their values; the dense vector is nonnegative and sums to 1
    uniform: bool = False     # every score is 1/1001 (and none is listed)

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", box := tuple(map(float, self.box)))
        if not 1 <= self.class_label <= CLASS_SPACE_SIZE:
            raise ValueError(f"class label {self.class_label} outside [1, {CLASS_SPACE_SIZE}]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if len(box) != 4:
            raise ValueError("box must have 4 coordinates")
        v1, v2, v3, v4 = box
        if not (0.0 <= v1 <= 1.0 and 0.0 <= v2 <= 1.0 and 0.0 <= v3 <= 1.0 and 0.0 <= v4 <= 1.0):
            raise ValueError(f"box coordinates {box} outside [0, 1]")
        if v1 > v3 or v2 > v4:
            raise ValueError(f"box {box} violates top-left <= bottom-right")
        values = self.score_values
        try:   # a clear pass needs no dense vector; every other case is decided on it
            clear = self.uniform or (abs(math.fsum(values) - 1.0) < SCORE_SUM_TOL - _SUM_MARGIN
                                     and min(values) >= 0.0)
        except (OverflowError, ValueError):   # a sum past the float range, or inf - inf
            clear = False
        if not clear:
            _check_dense_scores(_dense(self.score_index, values))

    @classmethod
    def lenient(cls, frame_index: int, class_label: int, confidence: float, box, imagenet_scores,
                tau: int) -> DetectionRecord:
        """A record from raw fields: clamp the frame index into [1, tau] and
        the other ranges, reorder corners, renormalize scores (all zero
        after clamping: uniform).  Structural problems (label space, vector
        lengths, non-finite box or scores) still raise."""
        v = np.asarray(box, dtype=np.float64)
        scores = np.asarray(imagenet_scores, dtype=np.float64)
        if v.shape != (4,):
            raise ValueError("box must have 4 coordinates")
        if scores.shape != (IMAGENET_SIZE,):
            raise ValueError(f"imagenet_scores must have length {IMAGENET_SIZE}")
        for name, values in (("box", v), ("imagenet_scores", scores)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} holds non-finite values")
        v, scores = np.clip(v, 0.0, 1.0), np.clip(scores, 0.0, None)
        total = float(scores.sum())
        fields = (min(max(frame_index, 1), tau), class_label,
                  float(min(max(confidence, 0.0), 1.0)),
                  (min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3])))
        if total > 0:
            return cls(*fields, *_nonzero(scores / total))
        return cls(*fields, (), (), uniform=True)


class DetectionColumns(NamedTuple):
    """Typed columns of n boxes; row i is one box."""

    frame: np.ndarray         # (n,) int64 frame index t
    label: np.ndarray         # (n,) int16 class label in [1, 171]
    confidence: np.ndarray    # (n,) f64
    box: np.ndarray           # (n, 4) f64
    uniform: np.ndarray       # (n,) bool: every score 1/1001, none listed
    score_ptr: np.ndarray     # (n+1,) int64: row i's scores are entries [ptr[i], ptr[i+1])
    score_index: np.ndarray   # int16 positions in the 1001-vector, ascending within a row
    score_values: np.ndarray  # f64, nonzero bits


class _ColumnBuilder:
    """Columns that grow by one record at a time, 59 bytes a box and 10 a
    score, with no Python object kept per box."""

    def __init__(self):
        self.frame, self.label, self.uniform = array("q"), array("h"), array("b")
        self.confidence, self.box = array("d"), array("d")
        self.score_count, self.score_index, self.score_values = array("q"), array("h"), array("d")

    def append(self, rec: DetectionRecord) -> None:
        self.frame.append(rec.frame_index)
        self.label.append(rec.class_label)
        self.uniform.append(rec.uniform)
        self.confidence.append(rec.confidence)
        self.box.extend(rec.box)
        self.score_count.append(len(rec.score_index))
        self.score_index.extend(rec.score_index)
        self.score_values.extend(rec.score_values)

    def columns(self, order: np.ndarray) -> DetectionColumns:
        """The rows in ``order``, as exact-size arrays."""
        counts = np.frombuffer(self.score_count, dtype=np.int64)
        starts = np.cumsum(counts) - counts
        counts = counts[order]
        ptr = np.concatenate(([0], np.cumsum(counts)))
        scores = np.repeat(starts[order] - ptr[:-1], counts) + np.arange(ptr[-1])
        return DetectionColumns(
            np.frombuffer(self.frame, dtype=np.int64)[order],
            np.frombuffer(self.label, dtype=np.int16)[order],
            np.frombuffer(self.confidence)[order],
            np.frombuffer(self.box).reshape(-1, 4)[order],
            np.frombuffer(self.uniform, dtype=np.bool_)[order],
            ptr,
            np.frombuffer(self.score_index, dtype=np.int16)[scores],
            np.frombuffer(self.score_values)[scores],
        )


class Detections:
    """The rows [start, stop) of one ``DetectionColumns`` table, such as one
    (video, detector) group of a file.  ``len`` is its box count and
    ``columns()`` gives the run's own columns; holding a run costs no array
    of its own."""

    __slots__ = ("_table", "_start", "_stop")

    def __init__(self, table: DetectionColumns, start: int = 0, stop: int | None = None):
        self._table, self._start = table, start
        self._stop = table.frame.size if stop is None else stop

    @classmethod
    def from_records(cls, records) -> Detections:
        """The records as columns, in order."""
        builder = _ColumnBuilder()
        for rec in records:
            builder.append(rec)
        return cls(builder.columns(np.arange(len(builder.frame))))

    def __len__(self) -> int:
        return self._stop - self._start

    def columns(self) -> DetectionColumns:
        """The run's columns, as views of the table's, but ``score_ptr``,
        which starts at 0."""
        table, lo, hi = self._table, self._start, self._stop
        ptr = table.score_ptr[lo:hi + 1]
        scores = slice(ptr[0], ptr[-1])
        return DetectionColumns(table.frame[lo:hi], table.label[lo:hi], table.confidence[lo:hi],
                                table.box[lo:hi], table.uniform[lo:hi], ptr - ptr[0],
                                table.score_index[scores], table.score_values[scores])


@dataclass(frozen=True)
class OdfConfig:
    """The two encoder settings ``encode-odf`` takes: --no-rbf and --n-prime."""

    use_rbf_embedding: bool = True
    n_prime: int = 3

    @property
    def dim(self) -> int:
        per_scalar = SCALAR_MAP.pivot_count if self.use_rbf_embedding else 1
        return CLASS_SPACE_SIZE + IMAGENET_SIZE + 6 * per_scalar


def encode_box(dets: Detections, tau: int, cfg: OdfConfig) -> np.ndarray:
    """(len(dets), dim) per-box vectors, one row per box in order:
    [one-hot(label); imagenet; phi(conf); phi(v1..v4); phi(frame position)].
    For a single-frame video the frame position is 0."""
    check_tau(tau)
    cols = dets.columns()
    frames = cols.frame
    bad = np.flatnonzero((frames < 1) | (frames > tau))
    if bad.size:
        raise ValueError(f"frame index {frames[bad[0]]} outside [1, {tau}]")
    n, scores_end = frames.size, CLASS_SPACE_SIZE + IMAGENET_SIZE
    out = np.zeros((n, cfg.dim))
    out[np.arange(n), cols.label - 1] = 1.0
    rows = np.repeat(np.arange(n), np.diff(cols.score_ptr))
    out[rows, CLASS_SPACE_SIZE + cols.score_index] = cols.score_values
    out[cols.uniform, CLASS_SPACE_SIZE:scores_end] = 1.0 / IMAGENET_SIZE
    scalars = np.empty((n, 6))
    scalars[:, 0], scalars[:, 1:5] = cols.confidence, cols.box
    scalars[:, 5] = (frames - 1) / (tau - 1) if tau > 1 else 0.0
    if cfg.use_rbf_embedding:   # a DetectionRecord keeps every scalar in [0, 1]
        scalars = feature_map_batch(scalars, SCALAR_MAP).reshape(n, -1)
    out[:, scores_end:] = scalars
    return out


class EmptyDetectorError(ValueError):
    """Raised when a per-detector descriptor is requested with no records."""


def detection_bag(dets: Detections, tau: int, cfg: OdfConfig) -> FeatureBag:
    """Group encoded boxes by frame into a bag with J = tau groups, keeping
    the row order within a frame; frames without detections stay empty
    but still count."""
    if not len(dets):
        raise EmptyDetectorError("no detections for this video/detector")
    boxes = encode_box(dets, tau, cfg)  # validates frame <= tau
    frames = dets.columns().frame
    if (np.diff(frames) < 0).any():   # rows out of frame order
        boxes = boxes[np.argsort(frames, kind="stable")]
    return FeatureBag(boxes, np.bincount(frames - 1, minlength=tau))


def odf_descriptor(dets: Detections, tau: int, cfg: OdfConfig) -> MultiMomentDescriptor:
    bag = detection_bag(dets, tau, cfg)
    return multi_moment(bag, cfg.n_prime)


# The Python types json gives each JSON kind; true and false (bool) are neither integers nor numbers
_JSON_TYPES = {"integer": {int}, "number": {int, float}, "string": {str}, "array": {list}}


def _json(value, kind: str, name: str):
    """``value``, refused unless it is a JSON ``kind`` of ``_JSON_TYPES``."""
    if type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"{name} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def _array(value, kind: str, name: str) -> list:
    """``value``, refused unless it is a JSON array of ``kind`` values: one
    ``map`` over its entries, with no Python step per entry."""
    if type(value) is not list or not set(map(type, value)) <= _JSON_TYPES[kind]:
        raise ValueError(f"{name} must be a JSON array of {kind}s")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key is refused."""
    if len(obj := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _sparse_scores(pairs) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Ascending (positions, values) of the nonzero scores "inet_sparse" pairs
    set; a repeated index sums from +0.0 in line order, as a dense vector would."""
    scores: dict[int, float] = {}
    for pair in _array(pairs, "array", "'inet_sparse'"):
        if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) not in _JSON_TYPES["number"]:
            raise ValueError(f"an 'inet_sparse' entry must be an [integer, number] pair, "
                             f"got {json.dumps(pair)}")
        idx, val = pair
        if not 0 <= idx < IMAGENET_SIZE:
            raise ValueError(f"inet_sparse index {idx} outside [0, {IMAGENET_SIZE - 1}]")
        scores[idx] = scores.get(idx, 0.0) + float(val)
    index = tuple(sorted(i for i, v in scores.items() if v != 0.0))   # a sum from +0.0 is never -0.0
    return index, tuple(scores[i] for i in index)


def parse_detection_line(line: str, strict: bool = True) -> tuple[str, str, int, DetectionRecord]:
    """Parse one JSONL record into (video, detector, tau, record).  Each
    value must have its JSON type, in lenient mode too."""
    obj = _DECODER.decode(line)
    if type(obj) is not dict:
        raise ValueError("expected a JSON object")
    for key in ("video", "detector", "frame", "tau", "class", "conf", "box"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    video = _json(obj["video"], "string", "'video'")
    detector = _json(obj["detector"], "string", "'detector'")
    tau = _json(obj["tau"], "integer", "'tau'")
    fields = (_json(obj["frame"], "integer", "'frame'"), _json(obj["class"], "integer", "'class'"),
              float(_json(obj["conf"], "number", "'conf'")),
              tuple(map(float, _array(obj["box"], "number", "'box'"))))
    if (sparse := "inet_sparse" in obj) == ("inet" in obj):
        raise ValueError("record needs exactly one of 'inet' and 'inet_sparse'")
    scores = (_sparse_scores(obj["inet_sparse"]) if sparse
              else np.asarray(_array(obj["inet"], "number", "'inet'"), dtype=np.float64))
    check_tau(tau)
    if not strict:   # lenient mode divides by the dense vector's sum
        rec = DetectionRecord.lenient(*fields, _dense(*scores) if sparse else scores, tau)
    else:
        rec = DetectionRecord(*fields, *(scores if sparse else _nonzero(scores)))
    if not 1 <= rec.frame_index <= tau:   # a lenient record has its frame index clamped
        raise ValueError(f"frame index {rec.frame_index} outside [1, {tau}]")
    return video, detector, tau, rec


def read_detections(path, strict: bool = True) -> dict[tuple[str, str], tuple[int, Detections]]:
    """Read a JSONL file into {(video, detector): (tau, detections)}; each
    group's detections are a view of one table of the file's boxes, in
    line order within the group.

    A malformed line is refused as ``path: line N: ...``; tau must be
    consistent across a video's records.
    """
    builder, groups, group_of = _ColumnBuilder(), {}, array("q")

    def record(line: str) -> None:
        video, detector, tau, rec = parse_detection_line(line, strict=strict)
        prev_tau, group = groups.setdefault((video, detector), (tau, len(groups)))
        if prev_tau != tau:
            raise ValueError(f"tau {tau} conflicts with earlier {prev_tau} for {(video, detector)}")
        builder.append(rec)
        group_of.append(group)

    with open(path, "rb") as fp:
        read_lines(fp, str(path), record)
    group_ids = np.frombuffer(group_of, dtype=np.int64)
    table = builder.columns(np.argsort(group_ids, kind="stable"))
    ends = np.cumsum(np.bincount(group_ids, minlength=len(groups))).tolist()
    return {key: (tau, Detections(table, start, end))
            for (key, (tau, _)), start, end in zip(groups.items(), [0, *ends], ends)}
