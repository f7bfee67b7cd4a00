"""The ``encode`` workload's corpus: detections as JSON Lines, saliency
frames as P5 PGMs, and a manifest.

The shape of the corpus is fixed (which bags exist, how many frames each
has, the boxes-per-frame range, the frame sizes), so every seed puts the
same bags on the same ``multi_moment`` path.  The seed draws the content:
boxes, classes, scores, box counts within their range, and the pixels.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# (video, detector, clip length in frames, (min, max) boxes per frame).
# Every bag but one stays below 1214 rows (Gram path); c07/detA is above
# (SVD path) whatever the seed draws.
ODF_BAGS = (
    ("c01", "detA", 4, (1, 3)),
    ("c01", "detB", 4, (2, 5)),
    ("c02", "detA", 9, (2, 4)),
    ("c03", "detA", 24, (2, 5)),
    ("c03", "detB", 24, (1, 4)),
    ("c04", "detA", 50, (0, 5)),
    ("c05", "detA", 110, (2, 6)),
    ("c05", "detB", 110, (1, 3)),
    ("c06", "detA", 180, (3, 6)),
    ("c07", "detA", 260, (5, 6)),
)

# (video, source, frames, frame sizes cycled within the clip (H, W), maxval).
# Every bag but one has fewer than 556 frames (Gram path); c06/salA has more.
SDF_BAGS = (
    ("c01", "salA", 3, ((24, 32),), 255),
    ("c02", "salA", 12, ((36, 48),), 255),
    ("c03", "salA", 40, ((48, 64),), 65535),
    ("c04", "salA", 90, ((24, 32), (36, 48)), 255),
    ("c05", "salA", 200, ((20, 26),), 255),
    ("c06", "salA", 600, ((24, 32),), 255),
    ("c07", "salA", 30, ((48, 64), (20, 26)), 65535),
)


def _detection(rng: np.random.Generator, video: str, detector: str, frame: int, tau: int) -> dict:
    p1 = rng.uniform(0.0, 0.7, size=2)
    p2 = np.minimum(p1 + rng.uniform(0.05, 0.3, size=2), 1.0)
    n_scores = int(rng.integers(3, 9))
    idx = rng.choice(1001, size=n_scores, replace=False)
    vals = rng.uniform(0.05, 1.0, size=n_scores)
    vals /= vals.sum()
    return {
        "video": video, "detector": detector, "frame": frame, "tau": tau,
        "class": int(rng.integers(1, 172)),
        "conf": float(rng.uniform(0.0, 1.0)),
        "box": [float(p1[0]), float(p1[1]), float(p2[0]), float(p2[1])],
        "inet_sparse": [[int(i), float(v)] for i, v in zip(idx, vals)],
    }


def _frame(rng: np.random.Generator, shape: tuple[int, int], t: int, centre: np.ndarray) -> np.ndarray:
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    cx = (centre[0] + 0.01 * t) % 1.0 * (w - 1)
    cy = (centre[1] + 0.007 * t) % 1.0 * (h - 1)
    radius = 0.15 * min(h, w)
    blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * radius**2))
    return np.clip(0.1 + 0.8 * blob + 0.05 * rng.normal(size=shape), 0.0, 1.0)


def _write_pgm(path: Path, values: np.ndarray, maxval: int) -> None:
    h, w = values.shape
    dtype = ">u2" if maxval > 255 else "u1"
    raster = np.rint(values * maxval).astype(dtype).tobytes()
    path.write_bytes(f"P5\n# benchmark corpus\n{w} {h}\n{maxval}\n".encode() + raster)


def write_corpus(out: Path, seed: int) -> dict:
    """Write detections.jsonl, frames/ and manifest.txt under ``out``;
    return the corpus statistics."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng((seed, 0xE1))
    boxes = {}
    with open(out / "detections.jsonl", "w", encoding="utf-8") as fp:
        for video, detector, tau, (lo, hi) in ODF_BAGS:
            count = 0
            for frame in range(1, tau + 1):
                for _ in range(int(rng.integers(lo, hi + 1))):
                    fp.write(json.dumps(_detection(rng, video, detector, frame, tau)) + "\n")
                    count += 1
            boxes[(video, detector)] = count

    (out / "frames").mkdir(exist_ok=True)
    lines = []
    frames = {}
    for video, source, n_frames, shapes, maxval in SDF_BAGS:
        centre = rng.uniform(0.2, 0.8, size=2)
        for t in range(n_frames):
            rel = f"frames/{video}_{source}_{t:04d}.pgm"
            _write_pgm(out / rel, _frame(rng, shapes[t % len(shapes)], t, centre), maxval)
            lines.append(f"{video} {source} {rel}")
        frames[(video, source)] = n_frames
    (out / "manifest.txt").write_text("# video source path\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return {"boxes": boxes, "frames": frames}
