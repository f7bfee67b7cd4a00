import json
import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from momhal import odf
from momhal.moments import FeatureBag, descriptor_to_bytes, multi_moment
from momhal.odf import (
    CLASS_SPACE_SIZE,
    IMAGENET_SIZE,
    DetectionRecord,
    EmptyDetectorError,
    OdfConfig,
    detection_bag,
    encode_box,
    odf_descriptor,
    parse_detection_line,
    read_detections,
)
from oracles import dense_multi_moment


def make_record(frame=1, label=1, conf=0.5, box=(0.1, 0.2, 0.3, 0.4), scores=None):
    if scores is None:
        scores = np.full(IMAGENET_SIZE, 1.0 / IMAGENET_SIZE)
    return DetectionRecord(frame, label, conf, box, scores)


class TestEncodeBox:
    def test_default_length_is_1214(self):
        assert encode_box(make_record(), tau=3, cfg=OdfConfig()).shape == (1214,)
        assert OdfConfig().dim == 1214

    def test_raw_length_is_1178(self):
        cfg = OdfConfig(use_rbf_embedding=False)
        assert cfg.dim == 1178
        assert encode_box(make_record(), tau=3, cfg=cfg).shape == (1178,)

    def test_forced_embeddings(self):
        from momhal.kernel import feature_map

        cfg = OdfConfig()
        rec = make_record(frame=1, label=1, conf=0.0, box=(0.0, 0.0, 0.0, 0.0))
        out = encode_box(rec, tau=2, cfg=cfg)
        one_hot = out[:CLASS_SPACE_SIZE]
        assert one_hot[0] == 1.0 and one_hot[1:].sum() == 0.0
        phi0 = feature_map(0.0, odf.SCALAR_MAP)
        for block in range(6):
            start = CLASS_SPACE_SIZE + IMAGENET_SIZE + 7 * block
            np.testing.assert_allclose(out[start : start + 7], phi0)

    @pytest.mark.parametrize("frame, tau, conf, box", [
        (1, 1, 0.0, (0.0, 0.0, 1.0, 1.0)),
        (3, 3, 1.0, (0.1, 0.2, 0.3, 0.4)),
        (2, 5, 0.37, (0.0, 0.5, 1.0, 1.0)),
    ])
    def test_embeddings_equal_per_scalar_maps(self, frame, tau, conf, box):
        from momhal.kernel import feature_map

        cfg = OdfConfig()
        out = encode_box(make_record(frame=frame, conf=conf, box=box), tau=tau, cfg=cfg)
        frame_pos = (frame - 1) / (tau - 1) if tau > 1 else 0.0
        want = [feature_map(v, odf.SCALAR_MAP) for v in (conf, *box, frame_pos)]
        np.testing.assert_array_equal(out[CLASS_SPACE_SIZE + IMAGENET_SIZE :],
                                      np.concatenate(want))

    def test_raw_scalars_verbatim(self):
        cfg = OdfConfig(use_rbf_embedding=False)
        rec = make_record(frame=3, conf=0.7, box=(0.1, 0.2, 0.6, 0.9))
        out = encode_box(rec, tau=5, cfg=cfg)
        tail = out[CLASS_SPACE_SIZE + IMAGENET_SIZE :]
        np.testing.assert_allclose(tail, [0.7, 0.1, 0.2, 0.6, 0.9, (3 - 1) / (5 - 1)])

    def test_single_frame_position_is_zero(self):
        cfg = OdfConfig(use_rbf_embedding=False)
        out = encode_box(make_record(frame=1), tau=1, cfg=cfg)
        assert out[-1] == 0.0

    def test_imagenet_block_isolation(self):
        cfg = OdfConfig()
        scores = np.zeros(IMAGENET_SIZE)
        scores[17] = 1.0
        a = encode_box(make_record(scores=scores), tau=3, cfg=cfg)
        b = encode_box(make_record(), tau=3, cfg=cfg)
        diff = np.flatnonzero(a != b)
        assert diff.min() >= CLASS_SPACE_SIZE
        assert diff.max() < CLASS_SPACE_SIZE + IMAGENET_SIZE

    def test_nonnegative_with_embedding(self):
        out = encode_box(make_record(), tau=4, cfg=OdfConfig())
        assert out.min() >= 0.0

    def test_validation_errors(self):
        cfg = OdfConfig()
        with pytest.raises(ValueError):
            encode_box(make_record(label=0), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_record(label=172), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_record(box=(0.5, 0.2, 0.3, 0.4)), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_record(box=(0.1, 0.2, 1.3, 0.4)), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_record(conf=1.5), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_record(scores=np.full(IMAGENET_SIZE, 2.0 / IMAGENET_SIZE)), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_record(frame=4), 3, cfg)

    def test_lenient_sanitize(self):
        fixed = DetectionRecord.lenient(5, 5, 1.7, (0.9, 0.2, 0.3, -0.1),
                                        np.full(IMAGENET_SIZE, 3.0), tau=3)
        assert fixed.frame_index == 3
        assert fixed.confidence == 1.0
        assert fixed.box[0] <= fixed.box[2] and fixed.box[1] <= fixed.box[3]
        assert fixed.score_values.sum() == pytest.approx(1.0)


class TestSparseScores:
    def test_record_keeps_only_its_nonzero_scores(self):
        scores = np.zeros(IMAGENET_SIZE)
        scores[[0, 3, 17, 200, 512, 640, 999, 1000]] = 1.0 / 8
        rec = make_record(scores=scores)
        stored = [getattr(rec, f.name) for f in fields(rec)]
        assert sum(a.nbytes for a in stored if isinstance(a, np.ndarray)) < 1024
        assert np.array_equal(rec.score_index, np.flatnonzero(scores))
        assert np.array_equal(rec.score_values, scores[rec.score_index])

    def test_lenient_scores_are_divided_by_the_dense_total(self):
        scores = np.random.default_rng(2).dirichlet(np.ones(IMAGENET_SIZE)) * 3.7
        scores[::3] = 0.0
        rec = DetectionRecord.lenient(1, 1, 0.5, (0.1, 0.2, 0.3, 0.4), scores, tau=1)
        want = scores / float(scores.sum())
        assert np.array_equal(rec.score_index, np.flatnonzero(want))
        assert np.array_equal(rec.score_values, want[rec.score_index])

    def test_negative_zero_score_keeps_its_sign(self):
        """A dense "inet" -0.0 passes validation and stays -0.0 in the box
        matrix; the .mmd bytes are those of the dense rows."""
        inet = [0.0] * IMAGENET_SIZE
        inet[5], inet[9] = -0.0, 1.0
        recs = [parse_detection_line(TestJsonl().line(frame=f, inet_sparse=None, inet=inet))[3]
                for f in (1, 2)]
        cfg = OdfConfig(n_prime=2)
        rows = np.array([encode_box(rec, 4, cfg) for rec in recs])
        dense = np.array(inet)
        assert np.array_equal(rows[:, CLASS_SPACE_SIZE:CLASS_SPACE_SIZE + IMAGENET_SIZE].view(np.int64),
                              np.tile(dense.view(np.int64), (2, 1)))
        got = descriptor_to_bytes(odf_descriptor(recs, 4, cfg))
        want = descriptor_to_bytes(multi_moment(FeatureBag(rows, [1, 1, 0, 0]), 2))
        assert got == want


class TestDescriptor:
    def test_single_detection_degenerate(self):
        cfg = OdfConfig(n_prime=2)
        rec = make_record()
        desc = odf_descriptor([rec], tau=3, cfg=cfg)
        v = encode_box(rec, 3, cfg)
        np.testing.assert_allclose(desc.mean_dir, v / np.linalg.norm(v), atol=1e-12)
        np.testing.assert_allclose(desc.eigvecs, 0.0, atol=1e-12)

    def test_flat_length_default(self):
        desc = odf_descriptor([make_record(), make_record(frame=2, label=3)], tau=2,
                              cfg=OdfConfig())
        assert desc.flat().shape == (1214 * 7,)
        assert 1214 * 7 == 8498

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        recs = []
        for frame in (1, 1, 1, 2, 2):
            scores = rng.dirichlet(np.ones(IMAGENET_SIZE))
            b = np.sort(rng.uniform(0, 1, 4))
            recs.append(DetectionRecord(frame, int(rng.integers(1, 172)),
                                        float(rng.uniform()), (b[0], b[1], b[2], b[3]),
                                        scores))
        cfg = OdfConfig(n_prime=2)
        base = odf_descriptor(recs, 2, cfg).flat()
        shuffled = [recs[2], recs[0], recs[1], recs[4], recs[3]]
        np.testing.assert_allclose(odf_descriptor(shuffled, 2, cfg).flat(), base, atol=1e-10)

    def test_matches_moments_oracle(self):
        rng = np.random.default_rng(5)
        recs = []
        for frame in (1, 1, 2, 3, 3, 3):
            scores = rng.dirichlet(np.ones(IMAGENET_SIZE))
            b = np.sort(rng.uniform(0, 1, 4))
            recs.append(DetectionRecord(frame, int(rng.integers(1, 172)),
                                        float(rng.uniform()), (b[0], b[1], b[2], b[3]),
                                        scores))
        cfg = OdfConfig(n_prime=3)
        got = odf_descriptor(recs, 3, cfg).flat()
        bag = detection_bag(recs, 3, cfg)
        want = dense_multi_moment(bag.frames, 3)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_empty_frames_counted(self):
        cfg = OdfConfig(n_prime=1)
        bag = detection_bag([make_record(frame=2)], tau=4, cfg=cfg)
        assert bag.n_frames == 4
        assert bag.total == 1

    def test_empty_records_error(self):
        with pytest.raises(EmptyDetectorError):
            odf_descriptor([], tau=3, cfg=OdfConfig())


class TestBoxMatrix:
    """detection_bag encodes a bag as one box matrix; each box keeps the
    bits that encode_box gives it alone, in record order within a frame."""

    @staticmethod
    def records(frames, seed=0):
        rng = np.random.default_rng(seed)
        recs = []
        for frame in frames:
            b = np.sort(rng.uniform(0, 1, 4))
            recs.append(DetectionRecord(frame, int(rng.integers(1, 172)), float(rng.uniform()),
                                        (b[0], b[1], b[2], b[3]),
                                        rng.dirichlet(np.ones(IMAGENET_SIZE))))
        return recs

    @pytest.mark.parametrize("rbf", [True, False])
    @pytest.mark.parametrize("tau, frames", [
        (6, (3, 1, 6, 1, 3, 2, 6, 1)),   # out of frame order; frames 4 and 5 empty
        (1, (1, 1, 1)),
        (4, (4,)),
        (260, tuple(np.random.default_rng(9).integers(1, 261, 1500))),
    ])
    def test_bag_equals_box_by_box(self, rbf, tau, frames):
        cfg = OdfConfig(use_rbf_embedding=rbf)
        recs = self.records(frames)
        bag = detection_bag(recs, tau, cfg)
        assert bag.n_frames == tau
        for t, got in enumerate(bag.frames, start=1):
            want = [encode_box(r, tau, cfg) for r in recs if r.frame_index == t]
            assert np.array_equal(got, np.array(want).reshape(-1, cfg.dim))

    def test_bag_keeps_the_box_matrix(self, monkeypatch):
        encoded, encode = [], odf._encode_boxes
        monkeypatch.setattr(odf, "_encode_boxes", lambda *a: encoded.append(encode(*a)) or encoded[0])
        bag = detection_bag(self.records((1, 1, 2, 4, 4)), 4, OdfConfig())
        assert np.shares_memory(bag.data, encoded[0])
        assert all(np.shares_memory(f, encoded[0]) for f in bag.frames if f.size)

    def test_first_bad_record_is_named(self):
        recs = self.records((2, 9, 0, 5))
        with pytest.raises(ValueError, match=re.escape("frame index 9 outside [1, 3]")):
            detection_bag(recs, 3, OdfConfig())
        with pytest.raises(ValueError, match="tau must be >= 1, got 0"):
            detection_bag(recs, 0, OdfConfig())
        with pytest.raises(ValueError, match=f"tau must be <= MAX_TAU = {odf.MAX_TAU}, got "):
            detection_bag(recs, odf.MAX_TAU + 1, OdfConfig())


class TestJsonl:
    def line(self, **kw):
        obj = {
            "video": "v1", "detector": "det1", "frame": 1, "tau": 4,
            "class": 7, "conf": 0.9, "box": [0.1, 0.1, 0.5, 0.5],
            "inet_sparse": [[3, 0.5], [900, 0.5]],
        }
        obj.update(kw)
        return json.dumps({key: value for key, value in obj.items() if value is not None})

    def test_parse_sparse(self):
        video, det, tau, rec = parse_detection_line(self.line())
        assert (video, det, tau) == ("v1", "det1", 4)
        assert (rec.score_index.tolist(), rec.score_values.tolist()) == ([3, 900], [0.5, 0.5])

    def test_parse_dense(self):
        dense = [0.0] * 1001
        dense[0] = 1.0
        _, _, _, rec = parse_detection_line(self.line(inet_sparse=None, inet=dense))
        assert (rec.score_index.tolist(), rec.score_values.tolist()) == ([0], [1.0])

    def test_sparse_duplicate_indices_accumulate(self):
        _, _, _, rec = parse_detection_line(self.line(inet_sparse=[[5, 0.5], [5, 0.5]]))
        assert (rec.score_index.tolist(), rec.score_values.tolist()) == ([5], [1.0])

    def test_strict_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_detection_line(self.line(conf=1.5))
        with pytest.raises(ValueError):
            parse_detection_line(self.line(frame=9))

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    def test_tau_bound(self, strict):
        assert parse_detection_line(self.line(tau=odf.MAX_TAU), strict)[2] == odf.MAX_TAU
        with pytest.raises(ValueError, match=f"^tau must be <= MAX_TAU = {odf.MAX_TAU}, got "):
            parse_detection_line(self.line(tau=odf.MAX_TAU + 1), strict)

    def test_lenient_clamps(self):
        _, _, _, rec = parse_detection_line(self.line(conf=1.5, frame=9), strict=False)
        assert rec.confidence == 1.0
        assert rec.frame_index == 4

    def test_each_record_is_checked_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(self.line(frame=i % 4 + 1) + "\n" for i in range(6)))
        checked, validate = [], DetectionRecord.validate
        monkeypatch.setattr(DetectionRecord, "validate",
                            lambda rec, *args: checked.append(rec) or validate(rec, *args))
        for strict in (True, False):
            checked.clear()
            ((tau, recs),) = read_detections(path, strict=strict).values()
            odf_descriptor(recs, tau, OdfConfig(n_prime=1))
            assert len(checked) == 6

    def test_record_is_valid_by_construction(self):
        _, _, _, rec = parse_detection_line(self.line())
        with pytest.raises(FrozenInstanceError):
            rec.confidence = 1.5
        with pytest.raises(ValueError, match="confidence 1.5"):
            DetectionRecord(1, 7, 1.5, rec.box, np.full(IMAGENET_SIZE, 1.0 / IMAGENET_SIZE))

    @pytest.mark.parametrize("field, value, message", [
        ("box", [0.1, 0.1, 0.5], "4 coordinates"),
        ("box", [0.1, 0.1, 0.5, 0.5, 0.9], "4 coordinates"),
        ("box", [float("nan"), 0.1, 0.5, 0.5], "non-finite"),
        ("class", 0, "class label"),
    ])
    def test_lenient_refuses_what_it_cannot_repair(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            parse_detection_line(self.line(**{field: value}), strict=False)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize("field, value", [
        ("inet_sparse", [[3, float("nan")], [900, 0.5]]),
        ("inet_sparse", [[3, float("inf")], [900, 0.5]]),
        ("box", [0.5, 0.1, float("nan"), 0.5]),
        ("box", [0.1, 0.1, float("inf"), 0.5]),
        ("frame", float("inf")), ("class", float("inf")), ("tau", float("-inf")),
        ("inet_sparse", [[float("inf"), 1.0]]), ("conf", 10**400),
    ], ids=["nan_score", "inf_score", "nan_box", "inf_box", "inf_frame", "inf_class", "inf_tau",
            "inf_index", "huge_int_conf"])
    def test_non_finite_values_are_refused_with_their_line(self, tmp_path, strict, field, value):
        path = tmp_path / "d.jsonl"
        path.write_text(self.line() + "\n" + self.line(**{field: value}) + "\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 2: "):
            read_detections(path, strict=strict)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize("old, new, message", [
        ('"frame": 1', '"frame": 2.7', "'frame' must be a JSON integer, got 2.7"),
        ('"tau": 4', '"tau": "3"', "'tau' must be a JSON integer, got \"3\""),
        ('"tau": 4', '"tau": 3.9', "'tau' must be a JSON integer, got 3.9"),
        ('"class": 7', '"class": true', "'class' must be a JSON integer, got true"),
        ('"conf": 0.9', '"conf": "0.5"', "'conf' must be a JSON number, got \"0.5\""),
        ('"box": [0.1', '"box": ["0.1"', "'box' must be a JSON array of numbers"),
        ("[[3, 0.5]", "[[3.7, 0.5]",
         "an 'inet_sparse' entry must be an [integer, number] pair, got [3.7, 0.5]"),
        ("[900, 0.5]", '[900, "0.5"]',
         "an 'inet_sparse' entry must be an [integer, number] pair, got [900, \"0.5\"]"),
        ("[900, 0.5]", "[900, 0.5, 1]",
         "an 'inet_sparse' entry must be an [integer, number] pair, got [900, 0.5, 1]"),
        ("[900, 0.5]]", "900]", "'inet_sparse' must be a JSON array of arrays"),
        ('"inet_sparse": [[3, 0.5], [900, 0.5]]', '"inet": [true' + ", 0.0" * 1000 + "]",
         "'inet' must be a JSON array of numbers"),
        ('"video": "v1"', '"video": 7', "'video' must be a JSON string, got 7"),
        ('"detector": "det1"', '"detector": null', "'detector' must be a JSON string, got null"),
        ('"frame": 1', '"frame": 1, "frame": 2', "repeated key 'frame'"),
        ('"inet_sparse"', '"inet": [1.0], "inet_sparse"',
         "record needs exactly one of 'inet' and 'inet_sparse'"),
    ], ids=["fractional_frame", "string_tau", "fractional_tau", "bool_class", "string_conf",
            "string_box", "fractional_index", "string_score", "triple_entry", "unpaired_index",
            "bool_dense_score", "int_video", "null_detector", "repeated_frame",
            "both_score_forms"])
    def test_value_of_another_json_type_is_refused_with_its_line(self, tmp_path, strict, old,
                                                                new, message):
        path = tmp_path / "d.jsonl"
        assert old in self.line()
        path.write_text(self.line() + "\n" + self.line().replace(old, new, 1) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: {message}")):
            read_detections(path, strict=strict)

    def test_missing_field(self):
        obj = json.loads(self.line())
        del obj["box"]
        with pytest.raises(ValueError, match="box"):
            parse_detection_line(json.dumps(obj))

    def test_file_reading_line_numbers(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(self.line() + "\n" + self.line(conf=2.0) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_detections(path)

    def test_file_grouping_and_tau_conflict(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [self.line(), self.line(frame=2), self.line(detector="det2")]
        path.write_text("\n".join(lines) + "\n")
        groups = read_detections(path)
        assert set(groups) == {("v1", "det1"), ("v1", "det2")}
        assert len(groups[("v1", "det1")][1]) == 2

        path.write_text(self.line() + "\n" + self.line(tau=5) + "\n")
        with pytest.raises(ValueError, match="tau"):
            read_detections(path)
