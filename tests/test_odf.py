import json
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momhal import odf
from momhal.moments import FeatureBag, descriptor_to_bytes, multi_moment
from momhal.odf import (
    CLASS_SPACE_SIZE,
    IMAGENET_SIZE,
    DetectionRecord,
    Detections,
    EmptyDetectorError,
    OdfConfig,
    detection_bag,
    encode_box,
    odf_descriptor,
    parse_detection_line,
    read_detections,
)
from fuzz import damaged
from oracles import dense_detections, dense_multi_moment
from test_public_api import traced_names


def make_record(frame=1, label=1, conf=0.5, box=(0.1, 0.2, 0.3, 0.4), scores=None):
    """A record from a dense (1001,) score vector (default uniform), which
    lists the vector's entries whose bits are nonzero."""
    if scores is None:
        scores = np.full(IMAGENET_SIZE, 1.0 / IMAGENET_SIZE)
    return DetectionRecord(frame, label, conf, box, *odf._nonzero(np.asarray(scores, dtype=float)))


def make_box(**fields) -> Detections:
    """One box, as the columns the encoders take."""
    return Detections.from_records([make_record(**fields)])


def columns(records) -> Detections:
    return Detections.from_records(records)


class TestEncodeBox:
    def test_default_length_is_1214(self):
        assert encode_box(make_box(), tau=3, cfg=OdfConfig()).shape == (1, 1214)
        assert OdfConfig().dim == 1214

    def test_raw_length_is_1178(self):
        cfg = OdfConfig(use_rbf_embedding=False)
        assert cfg.dim == 1178
        assert encode_box(make_box(), tau=3, cfg=cfg).shape == (1, 1178)

    def test_forced_embeddings(self):
        from momhal.kernel import feature_map

        cfg = OdfConfig()
        out = encode_box(make_box(frame=1, label=1, conf=0.0, box=(0.0, 0.0, 0.0, 0.0)), tau=2,
                         cfg=cfg)[0]
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
        out = encode_box(make_box(frame=frame, conf=conf, box=box), tau=tau, cfg=cfg)[0]
        frame_pos = (frame - 1) / (tau - 1) if tau > 1 else 0.0
        want = [feature_map(v, odf.SCALAR_MAP) for v in (conf, *box, frame_pos)]
        np.testing.assert_array_equal(out[CLASS_SPACE_SIZE + IMAGENET_SIZE :],
                                      np.concatenate(want))

    def test_raw_scalars_verbatim(self):
        cfg = OdfConfig(use_rbf_embedding=False)
        out = encode_box(make_box(frame=3, conf=0.7, box=(0.1, 0.2, 0.6, 0.9)), tau=5, cfg=cfg)[0]
        tail = out[CLASS_SPACE_SIZE + IMAGENET_SIZE :]
        np.testing.assert_allclose(tail, [0.7, 0.1, 0.2, 0.6, 0.9, (3 - 1) / (5 - 1)])

    def test_single_frame_position_is_zero(self):
        cfg = OdfConfig(use_rbf_embedding=False)
        out = encode_box(make_box(frame=1), tau=1, cfg=cfg)[0]
        assert out[-1] == 0.0

    def test_imagenet_block_isolation(self):
        cfg = OdfConfig()
        scores = np.zeros(IMAGENET_SIZE)
        scores[17] = 1.0
        a = encode_box(make_box(scores=scores), tau=3, cfg=cfg)[0]
        b = encode_box(make_box(), tau=3, cfg=cfg)[0]
        diff = np.flatnonzero(a != b)
        assert diff.min() >= CLASS_SPACE_SIZE
        assert diff.max() < CLASS_SPACE_SIZE + IMAGENET_SIZE

    def test_nonnegative_with_embedding(self):
        out = encode_box(make_box(), tau=4, cfg=OdfConfig())
        assert out.min() >= 0.0

    def test_validation_errors(self):
        cfg = OdfConfig()
        with pytest.raises(ValueError):
            encode_box(make_box(label=0), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_box(label=172), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_box(box=(0.5, 0.2, 0.3, 0.4)), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_box(box=(0.1, 0.2, 1.3, 0.4)), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_box(conf=1.5), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_box(scores=np.full(IMAGENET_SIZE, 2.0 / IMAGENET_SIZE)), 3, cfg)
        with pytest.raises(ValueError):
            encode_box(make_box(frame=4), 3, cfg)

    def test_lenient_sanitize(self):
        fixed = DetectionRecord.lenient(5, 5, 1.7, (0.9, 0.2, 0.3, -0.1),
                                        np.full(IMAGENET_SIZE, 3.0), tau=3)
        assert fixed.frame_index == 3
        assert fixed.confidence == 1.0
        assert fixed.box[0] <= fixed.box[2] and fixed.box[1] <= fixed.box[3]
        assert sum(fixed.score_values) == pytest.approx(1.0)


class TestSparseScores:
    def test_record_keeps_only_its_nonzero_scores(self):
        scores = np.zeros(IMAGENET_SIZE)
        scores[[0, 3, 17, 200, 512, 640, 999, 1000]] = 1.0 / 8
        rec = make_record(scores=scores)
        assert rec.score_index == (0, 3, 17, 200, 512, 640, 999, 1000)
        assert rec.score_values == (1.0 / 8,) * 8
        assert not rec.uniform

    def test_lenient_scores_are_divided_by_the_dense_total(self):
        scores = np.random.default_rng(2).dirichlet(np.ones(IMAGENET_SIZE)) * 3.7
        scores[::3] = 0.0
        rec = DetectionRecord.lenient(1, 1, 0.5, (0.1, 0.2, 0.3, 0.4), scores, tau=1)
        want = scores / float(scores.sum())
        assert rec.score_index == tuple(np.flatnonzero(want).tolist())
        assert np.array_equal(rec.score_values, want[list(rec.score_index)])

    @pytest.mark.parametrize("scores", [np.zeros(IMAGENET_SIZE), np.full(IMAGENET_SIZE, -0.5)],
                             ids=["all_zero", "all_negative"])
    def test_lenient_uniform_fallback_is_a_flag(self, scores):
        """Nothing left after clamping: the record flags the uniform vector
        instead of listing 1001 scores, and its box row holds 1/1001 in
        every score entry, the bits of a strict record given that vector."""
        rec = DetectionRecord.lenient(2, 9, 0.5, (0.1, 0.2, 0.3, 0.4), scores, tau=3)
        assert rec.uniform and rec.score_index == () and rec.score_values == ()
        dets = columns([rec, make_record(frame=2, label=9)])
        cols = dets.columns()
        assert cols.uniform.tolist() == [True, False] and cols.score_index.size == IMAGENET_SIZE
        rows = encode_box(dets, 3, OdfConfig())
        assert np.array_equal(rows[0].view(np.int64), rows[1].view(np.int64))

    def test_negative_zero_score_keeps_its_sign(self):
        """A dense "inet" -0.0 passes validation and stays -0.0 in the box
        matrix; the .mmd bytes are those of the dense rows."""
        inet = [0.0] * IMAGENET_SIZE
        inet[5], inet[9] = -0.0, 1.0
        dets = columns([parse_detection_line(TestJsonl().line(frame=f, inet_sparse=None,
                                                              inet=inet))[3] for f in (1, 2)])
        cfg = OdfConfig(n_prime=2)
        rows = encode_box(dets, 4, cfg)
        dense = np.array(inet)
        assert np.array_equal(rows[:, CLASS_SPACE_SIZE:CLASS_SPACE_SIZE + IMAGENET_SIZE].view(np.int64),
                              np.tile(dense.view(np.int64), (2, 1)))
        got = descriptor_to_bytes(odf_descriptor(dets, 4, cfg))
        want = descriptor_to_bytes(multi_moment(FeatureBag(rows, [1, 1, 0, 0]), 2))
        assert got == want


class TestDescriptor:
    def test_single_detection_degenerate(self):
        cfg = OdfConfig(n_prime=2)
        desc = odf_descriptor(make_box(), tau=3, cfg=cfg)
        v = encode_box(make_box(), 3, cfg)[0]
        np.testing.assert_allclose(desc.mean_dir, v / np.linalg.norm(v), atol=1e-12)
        np.testing.assert_allclose(desc.eigvecs, 0.0, atol=1e-12)

    def test_flat_length_default(self):
        desc = odf_descriptor(columns([make_record(), make_record(frame=2, label=3)]), tau=2,
                              cfg=OdfConfig())
        assert desc.flat().shape == (1214 * 7,)
        assert 1214 * 7 == 8498

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        recs = []
        for frame in (1, 1, 1, 2, 2):
            scores = rng.dirichlet(np.ones(IMAGENET_SIZE))
            b = np.sort(rng.uniform(0, 1, 4))
            recs.append(make_record(frame, int(rng.integers(1, 172)), float(rng.uniform()),
                                    (b[0], b[1], b[2], b[3]), scores))
        cfg = OdfConfig(n_prime=2)
        base = odf_descriptor(columns(recs), 2, cfg).flat()
        shuffled = [recs[2], recs[0], recs[1], recs[4], recs[3]]
        np.testing.assert_allclose(odf_descriptor(columns(shuffled), 2, cfg).flat(), base,
                                   atol=1e-10)

    def test_matches_moments_oracle(self):
        rng = np.random.default_rng(5)
        recs = []
        for frame in (1, 1, 2, 3, 3, 3):
            scores = rng.dirichlet(np.ones(IMAGENET_SIZE))
            b = np.sort(rng.uniform(0, 1, 4))
            recs.append(make_record(frame, int(rng.integers(1, 172)), float(rng.uniform()),
                                    (b[0], b[1], b[2], b[3]), scores))
        cfg = OdfConfig(n_prime=3)
        got = odf_descriptor(columns(recs), 3, cfg).flat()
        bag = detection_bag(columns(recs), 3, cfg)
        want = dense_multi_moment(bag.frames, 3)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_empty_frames_counted(self):
        cfg = OdfConfig(n_prime=1)
        bag = detection_bag(make_box(frame=2), tau=4, cfg=cfg)
        assert bag.n_frames == 4
        assert bag.total == 1

    def test_empty_records_error(self):
        with pytest.raises(EmptyDetectorError):
            odf_descriptor(columns([]), tau=3, cfg=OdfConfig())


class TestBoxMatrix:
    """detection_bag encodes a bag as one box matrix; each box keeps the
    bits that encode_box gives it alone, in record order within a frame."""

    @staticmethod
    def records(frames, seed=0):
        rng = np.random.default_rng(seed)
        recs = []
        for frame in frames:
            b = np.sort(rng.uniform(0, 1, 4))
            recs.append(make_record(frame, int(rng.integers(1, 172)), float(rng.uniform()),
                                    (b[0], b[1], b[2], b[3]), rng.dirichlet(np.ones(IMAGENET_SIZE))))
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
        bag = detection_bag(columns(recs), tau, cfg)
        assert bag.n_frames == tau
        for t, got in enumerate(bag.frames, start=1):
            want = [encode_box(columns([r]), tau, cfg) for r in recs if r.frame_index == t]
            assert np.array_equal(got, np.array(want).reshape(-1, cfg.dim))

    def test_bag_keeps_the_box_matrix(self, monkeypatch):
        encoded, encode = [], odf.encode_box
        monkeypatch.setattr(odf, "encode_box", lambda *a: encoded.append(encode(*a)) or encoded[0])
        bag = detection_bag(columns(self.records((1, 1, 2, 4, 4))), 4, OdfConfig())
        assert np.shares_memory(bag.data, encoded[0])
        assert all(np.shares_memory(f, encoded[0]) for f in bag.frames if f.size)

    def test_first_bad_record_is_named(self):
        recs = columns(self.records((2, 9, 0, 5)))
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
        assert (rec.score_index, rec.score_values) == ((3, 900), (0.5, 0.5))

    def test_parse_dense(self):
        dense = [0.0] * 1001
        dense[0] = 1.0
        _, _, _, rec = parse_detection_line(self.line(inet_sparse=None, inet=dense))
        assert (rec.score_index, rec.score_values) == ((0,), (1.0,))

    def test_sparse_duplicate_indices_accumulate(self):
        _, _, _, rec = parse_detection_line(self.line(inet_sparse=[[5, 0.5], [5, 0.5]]))
        assert (rec.score_index, rec.score_values) == ((5,), (1.0,))

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
        """Each line's record is checked as it is parsed; encoding the
        columns checks no record again."""
        path = tmp_path / "d.jsonl"
        path.write_text("".join(self.line(frame=i % 4 + 1) + "\n" for i in range(6)))
        checked, check = [], DetectionRecord.__post_init__
        monkeypatch.setattr(DetectionRecord, "__post_init__",
                            lambda rec: checked.append(rec) or check(rec))
        for strict in (True, False):
            checked.clear()
            ((tau, dets),) = read_detections(path, strict=strict).values()
            assert len(checked) == 6
            odf_descriptor(dets, tau, OdfConfig(n_prime=1))
            assert len(checked) == 6

    def test_clean_sparse_scores_need_no_dense_vector(self, tmp_path, monkeypatch):
        """Scores that clearly sum to 1 are checked without their dense
        vector, in lenient mode too, where the record holds them renormalized."""
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(generated_lines(200)) + "\n")
        dense_checks, check = [], odf._check_dense_scores
        monkeypatch.setattr(odf, "_check_dense_scores",
                            lambda scores: dense_checks.append(scores) or check(scores))
        for strict in (True, False):
            assert sum(len(dets) for _, dets in read_detections(path, strict).values()) == 200
            assert dense_checks == []

    def test_record_is_valid_by_construction(self):
        _, _, _, rec = parse_detection_line(self.line())
        with pytest.raises(FrozenInstanceError):
            rec.confidence = 1.5
        with pytest.raises(ValueError, match="confidence 1.5"):
            DetectionRecord(1, 7, 1.5, rec.box, rec.score_index, rec.score_values)

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


def generated_lines(n: int, seed: int = 0, scores: str = "sparse") -> list[str]:
    """``n`` detection lines of 20 videos and two detectors, interleaved,
    each with 3 to 8 sparse scores summing to 1 (or, for ``scores="zero"``,
    an empty "inet_sparse" list)."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        k = int(rng.integers(3, 9))
        values = rng.uniform(0.05, 1.0, k)
        corner = rng.uniform(0.0, 0.5, 2)
        lines.append(json.dumps({
            "video": f"v{i % 20:02d}", "detector": f"det{i % 40 // 20 + 1}",
            "frame": i // 40 % 50 + 1, "tau": 50, "class": int(rng.integers(1, 172)),
            "conf": float(rng.uniform()), "box": [*corner.tolist(), *(corner + 0.3).tolist()],
            "inet_sparse": [] if scores == "zero" else
            [[int(j), float(v)]
             for j, v in zip(rng.choice(IMAGENET_SIZE, k, replace=False), values / values.sum())],
        }))
    return lines


class TestColumns:
    """read_detections holds typed columns, and returns {(video, detector):
    (tau, dets)} with len(dets) the group's box count."""

    @pytest.mark.parametrize("strict, scores",
                             [(True, "sparse"), (False, "sparse"), (False, "zero")],
                             ids=["strict", "lenient", "lenient_uniform"])
    def test_held_bytes_per_box_are_bounded(self, tmp_path, strict, scores):
        """No Python object per box: a box with 3 to 8 scores costs about
        120 bytes of columns, and a lenient uniform row lists no scores."""
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(generated_lines(5000, scores=scores)) + "\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            groups = read_detections(path, strict=strict)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(dets) for _, dets in groups.values()) == 5000
        assert held / 5000 <= 250, f"{held / 5000:.0f} bytes per box"

    def test_return_contract(self, tmp_path):
        """The pairs and counts that callers and the benchmark's tracer read:
        one (tau, dets) per group in first-seen order, len(dets) its box
        count, and each column the group's records in line order, as views
        of one table."""
        lines = generated_lines(120, seed=3)
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        groups = read_detections(path)
        parsed = [parse_detection_line(line) for line in lines]
        keys = list(dict.fromkeys((video, det) for video, det, _, _ in parsed))
        assert list(groups) == keys
        assert sum(len(recs) for _, recs in groups.values()) == len(lines)   # the tracer's count
        for key, (tau, dets) in groups.items():
            recs = [rec for video, det, _, rec in parsed if (video, det) == key]
            cols = dets.columns()
            assert type(tau) is int and tau == 50 and len(dets) == len(recs)
            assert cols.score_ptr[0] == 0 and cols.score_ptr[-1] == cols.score_index.size
            assert cols.frame.tolist() == [rec.frame_index for rec in recs]
            assert cols.label.tolist() == [rec.class_label for rec in recs]
            assert cols.confidence.tolist() == [rec.confidence for rec in recs]
            assert cols.box.tolist() == [list(rec.box) for rec in recs]
            assert np.diff(cols.score_ptr).tolist() == [len(rec.score_index) for rec in recs]
            assert cols.score_index.tolist() == [i for rec in recs for i in rec.score_index]
            assert cols.score_values.tolist() == [v for rec in recs for v in rec.score_values]
        first, second = (dets.columns() for _, dets in list(groups.values())[:2])
        assert np.shares_memory(first.frame.base, second.frame.base)
        odf_names = [func for module, func in traced_names() if module == "odf"]
        assert "read_detections" in odf_names
        assert all(callable(getattr(odf, func, None)) for func in odf_names)


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def _scores_near_one(draw) -> list[list]:
    """Sparse pairs whose exact sum lies a few ulps from 1 or 1 +- 1e-6,
    with repeated indices and -0.0 entries mixed in."""
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    target = draw(st.sampled_from([1.0, 1.0 + 1e-6, 1.0 - 1e-6]))
    values = [w / math.fsum(weights) * target for w in weights]
    values[-1] = _nudged(values[-1] + (target - math.fsum(values)), draw(st.integers(-4, 4)))
    indices = draw(st.lists(st.integers(0, 12), min_size=len(values), max_size=len(values)))
    pairs = [[i, v] for i, v in zip(indices, values)]
    return pairs + [[i, -0.0] for i in draw(st.lists(st.integers(0, 20), max_size=2))]


@st.composite
def _full_scores_near_one(draw) -> list[float]:
    """1001 nonzero scores whose exact sum lies a few ulps from 1 or 1 +- 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = _nudged(draw(st.sampled_from([1.0, 1.0 + 1e-6, 1.0 - 1e-6])), draw(st.integers(-4, 4)))
    values = rng.uniform(0.5, 1.5, IMAGENET_SIZE)
    values = (values * (target / math.fsum(values))).tolist()
    values[-1] += target - math.fsum(values)
    return values


_ANY_SCORE = st.one_of(st.floats(-0.5, 1.0), st.sampled_from([-0.0, math.nan, math.inf, 1e308]))


@st.composite
def _detection_line(draw) -> str:
    """A line that is valid but for at most one field, with a tau that a
    group mostly keeps, and scores near the sum tolerance, or any scores."""
    tau = draw(st.sampled_from([3] * 8 + [1, 4]))
    corner = draw(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2))
    size = draw(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2))
    obj = {"video": draw(st.sampled_from(["v1", "v2"])),
           "detector": draw(st.sampled_from(["a", "b"])),
           "frame": draw(st.integers(1, tau)), "tau": tau, "class": draw(st.integers(1, 171)),
           "conf": draw(st.floats(0.0, 1.0)),
           "box": corner + [corner[0] + size[0], corner[1] + size[1]]}
    broken = draw(st.sampled_from([None] * 12 + ["frame", "class", "conf", "box"]))
    if broken == "frame":
        obj["frame"] = draw(st.sampled_from([-1, 0, tau + 1]))
    elif broken == "class":
        obj["class"] = draw(st.sampled_from([0, 172]))
    elif broken == "conf":
        obj["conf"] = draw(st.sampled_from([-0.5, 1.5, math.nan]))
    elif broken == "box":
        obj["box"] = draw(st.lists(st.floats(-0.2, 1.2), min_size=3, max_size=5))
    kind = draw(st.sampled_from(["near_one"] * 4 + ["any", "dense", "full"]))
    if kind == "near_one":
        obj["inet_sparse"] = draw(_scores_near_one())
    elif kind == "full":
        obj["inet"] = draw(_full_scores_near_one())
    elif kind == "any":
        obj["inet_sparse"] = draw(st.lists(st.tuples(st.integers(0, 12), _ANY_SCORE).map(list),
                                           max_size=6))
    else:
        dense = [0.0] * IMAGENET_SIZE
        for i, v in draw(_scores_near_one()):
            if v == 0.0:
                dense[i + 40] = v   # a -0.0 of its own
            else:
                dense[i] += v
        obj["inet"] = dense
    return json.dumps(obj)


def _valid_file() -> bytes:
    dense = [0.0] * IMAGENET_SIZE
    dense[2], dense[7], dense[30] = 0.25, 0.75, -0.0
    line = TestJsonl().line
    lines = [line(), line(frame=2, inet_sparse=[[3, 0.5], [3, 0.25], [9, 0.25]]),
             line(detector="det2", inet_sparse=None, inet=dense)]
    return ("\n".join(lines) + "\n").encode()


class TestDenseOracle:
    """On fresh lines and on damaged files the reader agrees with the
    dense-vector oracle, in both modes: the same ``file: line N: message``
    refusal, or the same columns bit for bit (a dense -0.0 kept, repeated
    sparse indices summed in line order, sums a few ulps from the
    tolerance decided as the dense sum decides them, over up to 1001
    nonzero entries; scores that math.fsum cannot sum, sums to NaN, or
    sums to 1 with a negative entry, refused as the dense check refuses
    them)."""

    @pytest.fixture(scope="class")
    def tmp_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle")

    @staticmethod
    def assert_agrees(path, strict):
        try:
            want = dense_detections(path, strict=strict)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_detections(path, strict=strict)
            assert str(got.value) == str(exc)
            return
        got = read_detections(path, strict=strict)
        assert list(got) == list(want)
        for key, (tau, rows) in want.items():
            got_tau, dets = got[key]
            cols = dets.columns()
            frame, label, conf, box, scores = zip(*rows)
            assert got_tau == tau and len(dets) == len(rows)
            assert cols.frame.tolist() == list(frame) and cols.label.tolist() == list(label)
            assert cols.confidence.tobytes() == np.array(conf).tobytes()
            assert cols.box.tobytes() == np.array(box).tobytes()
            dense = np.zeros((len(dets), IMAGENET_SIZE))
            dense[np.repeat(np.arange(len(dets)), np.diff(cols.score_ptr)), cols.score_index] = \
                cols.score_values
            dense[cols.uniform] = 1.0 / IMAGENET_SIZE
            assert dense.tobytes() == np.array(scores).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_detection_line(), min_size=1, max_size=4))
    @example(lines=[TestJsonl().line(inet_sparse=[[3, 1e308], [900, 1e308]])])
    @example(lines=[TestJsonl().line(inet_sparse=[[3, math.inf], [900, -math.inf]])])
    @example(lines=[TestJsonl().line(inet_sparse=[[3, 0.5], [900, 0.5], [901, math.nan]])])
    @example(lines=[TestJsonl().line(inet_sparse=[[3, 1.5], [900, -0.5]])])
    @example(lines=[TestJsonl().line(inet_sparse=None, inet=[0.5, 1e308, 1e308] + [0.0] * 998)])
    @example(lines=[TestJsonl().line(inet_sparse=None, inet=[0.0, math.inf, -math.inf] + [0.0] * 998)])
    @example(lines=[TestJsonl().line(inet_sparse=None, inet=[0.5, 0.5, math.nan] + [0.0] * 998)])
    @example(lines=[TestJsonl().line(inet_sparse=None, inet=[1.5, -0.5] + [0.0] * 999)])
    def test_fresh_lines(self, tmp_dir, lines):
        path = tmp_dir / "fresh.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for strict in (True, False):
            self.assert_agrees(path, strict)

    @settings(max_examples=200, deadline=None)
    @given(blob=damaged(_valid_file()))
    def test_damaged_files(self, tmp_dir, blob):
        path = tmp_dir / "damaged.jsonl"
        path.write_bytes(blob)
        for strict in (True, False):
            self.assert_agrees(path, strict)
