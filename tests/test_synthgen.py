import hashlib
from pathlib import Path

import numpy as np
import pytest

from momhal.halluc import AUX_STREAMS, DET_STREAMS, SAL_STREAMS
from momhal.synthgen import (
    SynthConfig,
    generate_dataset,
    load_dataset,
    read_dataset_config,
)

SMALL = SynthConfig(n_videos=12, n_classes=3, seed=5, backbone_dim=16, tau=4)


def tree_digest(root):
    """Stable digest of every file under a directory."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestGeneration:
    def test_byte_identical_reruns(self, tmp_path):
        generate_dataset(tmp_path / "a", SMALL)
        generate_dataset(tmp_path / "b", SMALL)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_seed_changes_output(self, tmp_path):
        generate_dataset(tmp_path / "a", SMALL)
        other = SynthConfig(n_videos=12, n_classes=3, seed=6, backbone_dim=16, tau=4)
        generate_dataset(tmp_path / "b", other)
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_layout(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        root = tmp_path / "d"
        for name in ("dataset.cfg", "labels.csv", "features.npy",
                     "detections.jsonl", "manifest.txt"):
            assert (root / name).exists()
        for aux in AUX_STREAMS:
            assert (root / f"aux_{aux}.npy").exists()
        pgms = list((root / "saliency").glob("*.pgm"))
        assert len(pgms) == SMALL.n_videos * len(SAL_STREAMS) * SMALL.tau

    def test_config_roundtrip(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        meta = read_dataset_config(tmp_path / "d")
        assert meta == SMALL

    def test_config_line_without_equals_names_file_and_line(self, tmp_path):
        (tmp_path / "dataset.cfg").write_text("n_videos = 4\n# tau\ntau 3\n")
        with pytest.raises(ValueError, match=r"dataset\.cfg: line 3: expected 'key = value'"):
            read_dataset_config(tmp_path)

    @pytest.mark.parametrize("key", ["seed", "tau"])
    def test_config_missing_key_is_refused(self, tmp_path, key):
        generate_dataset(tmp_path, SMALL)
        path = tmp_path / "dataset.cfg"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(s for s in lines if not s.startswith(f"{key} =")))
        with pytest.raises(ValueError, match=rf"dataset\.cfg: missing key '{key}'"):
            read_dataset_config(tmp_path)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_videos=0)
        with pytest.raises(ValueError):
            SynthConfig(n_classes=1)
        with pytest.raises(ValueError):
            SynthConfig(tau=1)


class TestLoading:
    def test_shapes_and_labels(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        videos, n_classes = load_dataset(tmp_path / "d", sketch_dim=24)
        assert n_classes == 3
        assert len(videos) == 12
        for video in videos:
            assert video.backbone_features.shape == (16, 4)
            assert set(video.ground_truth) == set(AUX_STREAMS + DET_STREAMS + SAL_STREAMS)
            for target in video.ground_truth.values():
                assert target.shape == (24,)
                assert np.all(np.isfinite(target))
            assert 0 <= video.label < 3
        labels = [v.label for v in videos]
        assert sorted(set(labels)) == [0, 1, 2]

    def test_stream_subset(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        videos, _ = load_dataset(tmp_path / "d", sketch_dim=8, streams=("fv1", "det1"))
        assert set(videos[0].ground_truth) == {"fv1", "det1"}

    def test_deterministic_targets(self, tmp_path):
        generate_dataset(tmp_path / "d", SMALL)
        a, _ = load_dataset(tmp_path / "d", sketch_dim=16)
        b, _ = load_dataset(tmp_path / "d", sketch_dim=16)
        for va, vb in zip(a, b):
            for name in va.ground_truth:
                np.testing.assert_array_equal(va.ground_truth[name],
                                              vb.ground_truth[name])

    def test_class_signal_lives_in_det1_and_sal1(self, tmp_path):
        # targets of the signal streams separate classes; noise streams do not
        from momhal.fusion import ridge_accuracy

        cfg = SynthConfig(n_videos=60, n_classes=3, seed=2, backbone_dim=16, tau=4)
        generate_dataset(tmp_path / "d", cfg)
        videos, _ = load_dataset(tmp_path / "d", sketch_dim=48)
        y = np.array([v.label for v in videos])
        tr, val = np.arange(40), np.arange(40, 60)

        def acc(stream):
            gt = np.stack([v.ground_truth[stream] for v in videos])
            return ridge_accuracy(gt[tr], y[tr], gt[val], y[val], 3)

        assert acc("det1") > 0.9
        assert acc("det2") < 0.6
        assert acc("fv1") < 0.6
