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
0-based indices into the 1001-vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernel import INTERVAL_UNIT, FeatureMapConfig, feature_map_batch
from .keyvalue import read_lines
from .moments import FeatureBag, MultiMomentDescriptor, multi_moment

COCO_CLASSES = 91
AVA_CLASSES = 80
CLASS_SPACE_SIZE = COCO_CLASSES + AVA_CLASSES  # 171
IMAGENET_SIZE = 1001
SCORE_SUM_TOL = 1e-6
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


@dataclass(frozen=True, init=False)
class DetectionRecord:
    """One bounding-box detection within a video.  Construction checks the
    fields once, so every record is valid; ``lenient`` repairs raw fields
    before it constructs one.  It keeps the ImageNet scores sparse, as the
    entries whose bits are nonzero (so a -0.0 stays)."""

    frame_index: int          # t in [1, tau]
    class_label: int          # y in [1, 171]
    confidence: float         # in [0, 1]
    box: tuple[float, float, float, float]  # (v1, v2, v3, v4) normalized, top-left <= bottom-right
    score_index: np.ndarray   # ascending positions of the nonzero ImageNet scores
    score_values: np.ndarray  # their values; the dense vector is nonnegative and sums to 1

    def __init__(self, frame_index: int, class_label: int, confidence: float, box,
                 imagenet_scores: np.ndarray):
        scores = np.asarray(imagenet_scores, dtype=np.float64)
        if scores.shape != (IMAGENET_SIZE,):
            raise ValueError(f"imagenet_scores must have length {IMAGENET_SIZE}")
        keep = np.flatnonzero(scores.view(np.int64))
        values = (frame_index, class_label, confidence, tuple(float(v) for v in box), keep,
                  scores[keep])
        for name, value in zip(self.__dataclass_fields__, values):   # the fields, in order
            object.__setattr__(self, name, value)
        self.validate(scores)

    def validate(self, scores: np.ndarray) -> None:
        """Check every field; ``scores`` is the dense vector the record was built from."""
        if not 1 <= self.class_label <= CLASS_SPACE_SIZE:
            raise ValueError(f"class label {self.class_label} outside [1, {CLASS_SPACE_SIZE}]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if len(self.box) != 4:
            raise ValueError("box must have 4 coordinates")
        v1, v2, v3, v4 = self.box
        if not all(0.0 <= v <= 1.0 for v in self.box):
            raise ValueError(f"box coordinates {self.box} outside [0, 1]")
        if v1 > v3 or v2 > v4:
            raise ValueError(f"box {self.box} violates top-left <= bottom-right")
        if not np.isfinite(scores).all():
            raise ValueError("imagenet_scores holds non-finite values")
        if scores.min() < 0.0:
            raise ValueError("imagenet_scores must be nonnegative")
        if abs(float(scores.sum()) - 1.0) > SCORE_SUM_TOL:
            raise ValueError("imagenet_scores must sum to 1")

    @classmethod
    def lenient(cls, frame_index: int, class_label: int, confidence: float, box, imagenet_scores,
                tau: int) -> DetectionRecord:
        """A record from raw fields: clamp the frame index into [1, tau] and
        the other ranges, reorder corners, renormalize scores.  Structural
        problems (label space, vector lengths, non-finite box or scores)
        still raise."""
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
        return cls(
            frame_index=min(max(frame_index, 1), tau),
            class_label=class_label,
            confidence=float(min(max(confidence, 0.0), 1.0)),
            box=(min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3])),
            imagenet_scores=(scores / total if total > 0
                             else np.full(IMAGENET_SIZE, 1.0 / IMAGENET_SIZE)),
        )


@dataclass(frozen=True)
class OdfConfig:
    """The two encoder settings ``encode-odf`` takes: --no-rbf and --n-prime."""

    use_rbf_embedding: bool = True
    n_prime: int = 3

    @property
    def dim(self) -> int:
        per_scalar = SCALAR_MAP.pivot_count if self.use_rbf_embedding else 1
        return CLASS_SPACE_SIZE + IMAGENET_SIZE + 6 * per_scalar


def _encode_boxes(records: list[DetectionRecord], frames: np.ndarray, tau: int,
                  cfg: OdfConfig) -> np.ndarray:
    """(N, dim) matrix of per-box vectors, one row per record in order;
    ``frames`` holds the records' frame indices."""
    check_tau(tau)
    bad = np.flatnonzero((frames < 1) | (frames > tau))
    if bad.size:
        raise ValueError(f"frame index {frames[bad[0]]} outside [1, {tau}]")
    n, scores_end = len(records), CLASS_SPACE_SIZE + IMAGENET_SIZE
    out = np.zeros((n, cfg.dim))
    out[np.arange(n), [rec.class_label - 1 for rec in records]] = 1.0
    rows = np.repeat(np.arange(n), [rec.score_index.size for rec in records])
    cols = CLASS_SPACE_SIZE + np.concatenate([rec.score_index for rec in records])
    out[rows, cols] = np.concatenate([rec.score_values for rec in records])
    scalars = np.array([(rec.confidence, *rec.box,
                         (rec.frame_index - 1) / (tau - 1) if tau > 1 else 0.0)
                        for rec in records])
    if cfg.use_rbf_embedding:   # a DetectionRecord keeps every scalar in [0, 1]
        scalars = feature_map_batch(scalars, SCALAR_MAP).reshape(n, -1)
    out[:, scores_end:] = scalars
    return out


def encode_box(rec: DetectionRecord, tau: int, cfg: OdfConfig) -> np.ndarray:
    """Per-box vector: [one-hot(label); imagenet; phi(conf); phi(v1..v4);
    phi(frame position)].  For a single-frame video the frame position is 0."""
    return _encode_boxes([rec], np.array([rec.frame_index]), tau, cfg)[0]


class EmptyDetectorError(ValueError):
    """Raised when a per-detector descriptor is requested with no records."""


def detection_bag(records: list[DetectionRecord], tau: int, cfg: OdfConfig) -> FeatureBag:
    """Group encoded boxes by frame into a bag with J = tau groups, keeping
    the record order within a frame; frames without detections stay empty
    but still count."""
    if not records:
        raise EmptyDetectorError("no detections for this video/detector")
    frames = np.array([rec.frame_index for rec in records])
    boxes = _encode_boxes(records, frames, tau, cfg)  # validates frame_index <= tau
    if (np.diff(frames) < 0).any():   # records out of frame order
        boxes = boxes[np.argsort(frames, kind="stable")]
    return FeatureBag(boxes, np.bincount(frames - 1, minlength=tau))


def odf_descriptor(records: list[DetectionRecord], tau: int, cfg: OdfConfig) -> MultiMomentDescriptor:
    bag = detection_bag(records, tau, cfg)
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


def _scores_from_obj(obj: dict) -> np.ndarray:
    if ("inet" in obj) == ("inet_sparse" in obj):
        raise ValueError("record needs exactly one of 'inet' and 'inet_sparse'")
    if "inet" in obj:
        return np.asarray(_array(obj["inet"], "number", "'inet'"), dtype=np.float64)
    scores = np.zeros(IMAGENET_SIZE)
    for pair in _array(obj["inet_sparse"], "array", "'inet_sparse'"):
        if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) not in _JSON_TYPES["number"]:
            raise ValueError(f"an 'inet_sparse' entry must be an [integer, number] pair, "
                             f"got {json.dumps(pair)}")
        idx, val = pair
        if not 0 <= idx < IMAGENET_SIZE:
            raise ValueError(f"inet_sparse index {idx} outside [0, {IMAGENET_SIZE - 1}]")
        scores[idx] += float(val)
    return scores


def parse_detection_line(line: str, strict: bool = True) -> tuple[str, str, int, DetectionRecord]:
    """Parse one JSONL record into (video, detector, tau, record).  Each
    value must have its JSON type, in lenient mode too."""
    obj = _DECODER.decode(line)
    if type(obj) is not dict:
        raise ValueError("expected a JSON object")
    for key in ("video", "detector", "frame", "tau", "class", "conf", "box"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    video, detector = (_json(obj[key], "string", repr(key)) for key in ("video", "detector"))
    tau = _json(obj["tau"], "integer", "'tau'")
    fields = (_json(obj["frame"], "integer", "'frame'"), _json(obj["class"], "integer", "'class'"),
              float(_json(obj["conf"], "number", "'conf'")),
              tuple(float(v) for v in _array(obj["box"], "number", "'box'")), _scores_from_obj(obj))
    check_tau(tau)
    rec = DetectionRecord(*fields) if strict else DetectionRecord.lenient(*fields, tau)
    if not 1 <= rec.frame_index <= tau:   # a lenient record has its frame index clamped
        raise ValueError(f"frame index {rec.frame_index} outside [1, {tau}]")
    return video, detector, tau, rec


def read_detections(
    path, strict: bool = True
) -> dict[tuple[str, str], tuple[int, list[DetectionRecord]]]:
    """Read a JSONL file into {(video, detector): (tau, records)}.

    A malformed line is refused as ``path: line N: ...``; tau must be
    consistent across a video's records.
    """
    groups: dict[tuple[str, str], tuple[int, list[DetectionRecord]]] = {}

    def record(line: str) -> None:
        video, detector, tau, rec = parse_detection_line(line, strict=strict)
        prev_tau, recs = groups.setdefault((video, detector), (tau, []))
        if prev_tau != tau:
            raise ValueError(f"tau {tau} conflicts with earlier {prev_tau} for {(video, detector)}")
        recs.append(rec)

    with open(path, "rb") as fp:
        read_lines(fp, str(path), record)
    return groups
