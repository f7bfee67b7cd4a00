"""Each reference check accepts the program's real output and rejects a
corrupted copy.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import reference as ref  # noqa: E402
from momhal.cli import main  # noqa: E402
from momhal.halluc import infer, load_checkpoint  # noqa: E402


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    run(["synth", "--out", root / "data", "--videos", 24, "--classes", 3, "--tau", 2, "--seed", 5])
    run(["train", "--data", root / "data", "--out", root / "run", "--epochs", 12, "--seed", 5])
    return root


def _flip_first_nonzero(data: bytes, block: int) -> bytes:
    """Negate the first nonzero f32 of a descriptor block."""
    d, n_prime, blocks = ref.parse_mmd(data)
    j = int(np.flatnonzero(blocks[block])[0])
    offset = 12 + 4 * (block * d + j)
    body = bytearray(data)
    body[offset + 3] ^= 0x80  # sign bit of a little-endian f32
    return bytes(body)


def _one_bag_corpus(out: Path) -> None:
    rng = np.random.default_rng(3)
    with open(out / "detections.jsonl", "w", encoding="utf-8") as fp:
        for frame in range(1, 6):
            for _ in range(3):
                fp.write(json.dumps(corpus._detection(rng, "t1", "detA", frame, 5)) + "\n")
    (out / "frames").mkdir()
    lines = []
    for t in range(6):
        rel = f"frames/f{t}.pgm"
        corpus._write_pgm(out / rel, corpus._frame(rng, (20, 28), t, np.array([0.4, 0.6])), 255)
        lines.append(f"t1 salA {rel}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("kind", ["odf", "sdf"])
def test_mmd_check_rejects_one_flipped_float(tmp_path, kind):
    _one_bag_corpus(tmp_path)
    if kind == "odf":
        run(["encode-odf", "--input", tmp_path / "detections.jsonl", "--out", tmp_path / "out"])
        frames = ref.odf_bag(*ref.read_detection_groups(tmp_path / "detections.jsonl")[("t1", "detA")])
        data = (tmp_path / "out" / "t1__detA.mmd").read_bytes()
    else:
        run(["encode-sdf", "--manifest", tmp_path / "manifest.txt", "--out", tmp_path / "out"])
        frames = ref.sdf_bag(ref.read_manifest(tmp_path / "manifest.txt")[("t1", "salA")])
        data = (tmp_path / "out" / "t1__salA.mmd").read_bytes()
    want = ref.dense_descriptor(frames, 3)
    assert ref.check_mmd(data, want, 3, kind) == []
    for block in (0, 1, 4, 5, 6):   # mean, first eigenvector, skewness, kurtosis, spectrum
        assert ref.check_mmd(_flip_first_nonzero(data, block), want, 3, kind)


def test_infer_check_rejects_one_perturbed_score(trained):
    feats = np.load(trained / "data" / "features.npy")
    ck = ref.parse_checkpoint((trained / "run" / "checkpoint.hal").read_bytes())
    model = load_checkpoint(trained / "run" / "checkpoint.hal")
    want = ref.dense_scores(ck, feats)
    for i in range(feats.shape[0]):
        scores, _ = infer(model, feats[i])
        assert ref.check_scores(scores, want[i])
    scores = scores.copy()
    scores[1] *= 1.0 + 1e-6
    assert not ref.check_scores(scores, want[-1])


def test_metrics_check_rejects_one_altered_value(trained):
    text = (trained / "run" / "metrics.csv").read_text(encoding="utf-8")
    assert ref.check_metrics_csv(text, 1.0) == []
    header, row, *rest = text.splitlines()
    cells = row.split(",")
    col = header.split(",").index("mse_det1")
    cells[col] = repr(float(cells[col]) * 1.001)
    altered = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert ref.check_metrics_csv(altered, 1.0)


def test_eval_accuracy_matches_dense_forward(trained):
    out = run(["eval", "--model", trained / "run" / "checkpoint.hal", "--data", trained / "data"])
    ck = ref.parse_checkpoint((trained / "run" / "checkpoint.hal").read_bytes())
    feats = np.load(trained / "data" / "features.npy")
    labels = np.array([int(line.split(",")[1]) for line in
                       (trained / "data" / "labels.csv").read_text().splitlines()[1:]])
    acc = np.mean(np.argmax(ref.dense_scores(ck, feats), axis=1) == labels)
    assert f"accuracy {acc:.4f} over" in out


def test_width_check_rejects_a_wrong_shrink():
    widths = [50.0 * ref.INV_PHI**k for k in range(6)]
    assert ref.check_widths([round(w, 6) for w in widths]) == []
    widths[3] *= 1.01
    assert ref.check_widths([round(w, 6) for w in widths])
