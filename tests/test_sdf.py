import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzz import damaged
from momhal import sdf
from momhal.moments import FeatureBag, multi_moment
from momhal.sdf import (
    SaliencyFrame,
    _pool_weights,
    encode_frame,
    encode_gradient_field,
    gist,
    gradients,
    read_pgm,
    read_saliency_manifest,
    sdf_descriptor,
    write_pgm,
)
from oracles import bag_of_frames, dense_multi_moment, pixel_loop_gradient_encoding


PGM_8BIT = b"P5\n# a comment\n4 3\n255\n" + bytes(range(0, 240, 20))
PGM_16BIT = b"P5 3 2 65535\n" + np.arange(6, dtype=">u2").tobytes()


def random_frame(rng, h=24, w=32):
    return SaliencyFrame(rng.uniform(0, 1, size=(h, w)))


class TestGradients:
    def test_constant_frame(self):
        amp, ori = gradients(SaliencyFrame(np.full((5, 7), 0.3)))
        np.testing.assert_array_equal(amp, 0.0)
        np.testing.assert_array_equal(ori, 0.0)

    def test_horizontal_ramp(self):
        w = 9
        vals = np.tile(np.arange(w) / (w - 1), (4, 1))
        amp, ori = gradients(SaliencyFrame(vals))
        np.testing.assert_array_equal(ori, 0.0)  # gradient points along +x
        np.testing.assert_allclose(amp[:, 1:-1], 2 / (w - 1), atol=1e-15)
        np.testing.assert_allclose(amp[:, 0], 1 / (w - 1), atol=1e-15)

    def test_transpose_swaps_axes(self):
        rng = np.random.default_rng(3)
        frame = random_frame(rng, 11, 17)
        amp, _ = gradients(frame)
        amp_t, _ = gradients(SaliencyFrame(frame.values.T))
        np.testing.assert_allclose(amp_t, amp.T, atol=1e-15)

    def test_orientation_range(self):
        rng = np.random.default_rng(4)
        _, ori = gradients(random_frame(rng))
        assert ori.min() >= 0.0 and ori.max() < 1.0

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            SaliencyFrame(np.ones((1, 5)))
        with pytest.raises(ValueError):
            SaliencyFrame(np.full((4, 4), 1.5))
        with pytest.raises(ValueError):
            SaliencyFrame(np.full((4, 4), np.nan))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
        (1.5, r"lie in \[0, 1\]"), (-1e-300, r"lie in \[0, 1\]"),
    ])
    def test_frame_validation_names_the_fault(self, bad, message):
        values = np.full((4, 4), 0.5)
        values[2, 1] = bad
        with pytest.raises(ValueError, match=message):
            SaliencyFrame(values)
        values[0, 0] = 2.0   # a value out of range does not hide a non-finite one
        with pytest.raises(ValueError, match=message):
            SaliencyFrame(values)
        assert SaliencyFrame(np.full((2, 2), -0.0)).values.shape == (2, 2)


class TestEncodeFrame:
    def test_length_556(self):
        rng = np.random.default_rng(0)
        assert encode_frame(random_frame(rng)).shape == (556,)
        assert sdf.FRAME_DIM == 556 and sdf.GRADIENT_DIM == 300

    def test_constant_frame_blocks(self):
        out = encode_frame(SaliencyFrame(np.full((8, 10), 0.5)))
        np.testing.assert_array_equal(out[:300], 0.0)
        gist_block = out[300:]
        np.testing.assert_allclose(gist_block, 1.0 / 256, atol=1e-12)
        assert gist_block.sum() == pytest.approx(1.0)

    def test_zero_frame_gist_stays_zero(self):
        out = encode_frame(SaliencyFrame(np.zeros((8, 10))))
        np.testing.assert_array_equal(out, 0.0)

    def test_block_norms(self):
        rng = np.random.default_rng(1)
        out = encode_frame(random_frame(rng))
        assert np.linalg.norm(out[:300]) == pytest.approx(1.0)
        assert np.abs(out[300:]).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("h, w", [(2, 2), (3, 7), (20, 26), (24, 32), (36, 48), (48, 64)])
    def test_pixel_loop_oracle(self, h, w):
        rng = np.random.default_rng(9)
        frame = random_frame(rng, h, w)
        amp, ori = gradients(frame)
        got = encode_gradient_field(amp, ori)
        want = pixel_loop_gradient_encoding(amp, ori)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_angular_rotation_permutes_block(self):
        rng = np.random.default_rng(2)
        amp = rng.uniform(0.1, 1.0, size=(6, 8))
        ori = rng.uniform(0.0, 1.0, size=(6, 8))
        base = encode_gradient_field(amp, ori).reshape(12, 5, 5)
        rotated = encode_gradient_field(amp, (ori + 1.0 / 12) % 1.0).reshape(12, 5, 5)
        np.testing.assert_allclose(rotated, np.roll(base, 1, axis=0), atol=1e-10)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.1, 0.6, size=(12, 14))
        a = encode_frame(SaliencyFrame(vals))
        b = encode_frame(SaliencyFrame(vals + 0.3))
        np.testing.assert_allclose(a[:300], b[:300], atol=1e-9)
        assert not np.allclose(a[300:], b[300:])


class TestGist:
    def test_mean_preservation(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0, 1, size=(24, 32))
        pooled = gist(vals, 16)
        assert pooled.mean() == pytest.approx(vals.mean())

    def test_fractional_bins(self):
        vals = np.zeros((20, 20))
        vals[:10] = 1.0  # top half bright; 20/16 = 1.25 pixels per bin
        pooled = gist(vals, 16).reshape(16, 16)
        np.testing.assert_allclose(pooled[:7], 1.0)
        np.testing.assert_allclose(pooled[9:], 0.0)
        # bin 8 straddles the edge at pixel 10: covers [10.0, 11.25) -> dark
        np.testing.assert_allclose(pooled[8], 0.0)
        np.testing.assert_allclose(pooled[7], 1.0)  # [8.75, 10.0) -> bright

    def test_pool_weights_are_shared_and_read_only(self):
        weights = _pool_weights(24, 16)
        assert _pool_weights(24, 16) is weights
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0

    def test_row_major_layout(self):
        vals = np.zeros((16, 16))
        vals[0, 1] = 1.0
        pooled = gist(vals, 16)
        assert pooled[1] == 1.0 and pooled.sum() == 1.0


class TestDescriptor:
    def test_single_frame_degenerate(self):
        rng = np.random.default_rng(0)
        frame = random_frame(rng)
        desc = sdf_descriptor([frame], 3)
        v = encode_frame(frame)
        np.testing.assert_allclose(desc.mean_dir, v / np.linalg.norm(v), atol=1e-12)
        np.testing.assert_allclose(desc.eigvecs, 0.0, atol=1e-12)

    def test_repeated_frames_zero_spectrum(self):
        rng = np.random.default_rng(1)
        frame = random_frame(rng)
        single = sdf_descriptor([frame], 2)
        repeated = sdf_descriptor([SaliencyFrame(frame.values.copy()) for _ in range(4)], 2)
        np.testing.assert_allclose(repeated.mean_dir, single.mean_dir, atol=1e-10)
        np.testing.assert_allclose(repeated.eig_spectrum, 0.0, atol=1e-10)

    def test_flat_length(self):
        rng = np.random.default_rng(2)
        desc = sdf_descriptor([random_frame(rng) for _ in range(3)], 3)
        assert desc.flat().shape == (556 * 7,)

    def test_matches_moments_oracle(self):
        rng = np.random.default_rng(6)
        frames = [random_frame(rng, 16, 20) for _ in range(5)]
        got = sdf_descriptor(frames, 3).flat()
        encoded = [encode_frame(f).reshape(1, -1) for f in frames]
        want = dense_multi_moment(encoded, 3)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            sdf_descriptor([], 3)


class TestStackedEncode:
    """A bag is encoded in stacks of one frame size; each frame keeps the
    bits that encode_frame gives it alone."""

    @staticmethod
    def frames(n, shapes, maxval=255, seed=0):
        rng = np.random.default_rng(seed)
        return [SaliencyFrame(np.rint(rng.uniform(0, 1, shapes[i % len(shapes)]) * maxval) / maxval)
                for i in range(n)]

    @staticmethod
    def bag_rows(monkeypatch, frames):
        """The per-frame features sdf_descriptor hands to multi_moment."""
        monkeypatch.setattr(sdf, "multi_moment", lambda bag, n: bag)
        return sdf_descriptor(frames, 3).data

    def assert_frame_by_frame(self, monkeypatch, frames):
        want = np.array([encode_frame(f) for f in frames])
        assert np.array_equal(self.bag_rows(monkeypatch, frames), want)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_chunk_edges(self, monkeypatch, offset):
        per_chunk = sdf._PIXEL_BUDGET // (24 * 32)
        n = 1 if offset is None else per_chunk + offset
        self.assert_frame_by_frame(monkeypatch, self.frames(n, [(24, 32)]))

    def test_600_frames(self, monkeypatch):
        self.assert_frame_by_frame(monkeypatch, self.frames(600, [(24, 32)], seed=1))

    def test_interleaved_sizes(self, monkeypatch):
        shapes = [(24, 32), (36, 48), (2, 2), (200, 180)]   # 200x180 is over the pixel budget
        self.assert_frame_by_frame(monkeypatch, self.frames(90, shapes, seed=2))

    def test_16_bit_frames(self, monkeypatch):
        self.assert_frame_by_frame(monkeypatch, self.frames(30, [(48, 64), (20, 26)], 65535, 3))

    def test_bag_keeps_the_encoded_matrix(self, monkeypatch):
        made = []
        monkeypatch.setattr(sdf, "FeatureBag",
                            lambda data, counts: made.append(data) or FeatureBag(data, counts))
        monkeypatch.setattr(sdf, "multi_moment", lambda bag, n: bag)
        bag = sdf_descriptor(self.frames(7, [(24, 32), (20, 26)]), 3)
        assert np.shares_memory(bag.data, made[0])
        assert bag.counts.tolist() == [1] * 7

    def test_descriptor_equals_per_frame_bag(self):
        frames = self.frames(50, [(24, 32), (36, 48)], seed=4)
        rows = [encode_frame(f).reshape(1, -1) for f in frames]
        want = multi_moment(bag_of_frames(sdf.FRAME_DIM, rows), 3).flat()
        assert np.array_equal(sdf_descriptor(frames, 3).flat(), want)

    def test_stacked_parts_equal_one_frame_calls(self):
        values = np.stack([f.values for f in self.frames(5, [(20, 26)], seed=5)])
        amp, ori = gradients(values)
        grad = encode_gradient_field(amp, ori)
        pooled = gist(values, 16)
        for i, v in enumerate(values):
            a, o = gradients(SaliencyFrame(v))
            assert np.array_equal(amp[i], a) and np.array_equal(ori[i], o)
            assert np.array_equal(grad[i], encode_gradient_field(a, o))
            assert np.array_equal(pooled[i], gist(v, 16))


class TestPgm:
    def test_roundtrip_8bit(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, size=(6, 9))
        path = tmp_path / "f.pgm"
        write_pgm(path, vals, maxval=255)
        back = read_pgm(path)
        assert back.values.shape == (6, 9)
        assert np.abs(back.values - vals).max() <= 0.5 / 255 + 1e-12

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, size=(4, 5))
        path = tmp_path / "f16.pgm"
        write_pgm(path, vals, maxval=65535)
        back = read_pgm(path)
        assert np.abs(back.values - vals).max() <= 0.5 / 65535 + 1e-12

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(12))
        path.write_bytes(b"P5\n# a comment\n4 3\n# another\n255\n" + raster)
        frame = read_pgm(path)
        assert frame.values.shape == (3, 4)
        assert frame.values[0, 1] == pytest.approx(1 / 255)

    @pytest.mark.parametrize("header, raster", [
        (b"P5\n5 2\n100\n", np.array([0, 1, 99, 100, 101, 150, 200, 254, 255, 7], np.uint8)),
        (b"P5 3 2 1000\n", np.array([0, 999, 1000, 1001, 40000, 65535], ">u2")),
        (b"P5\n# made by hand\n3 2\n# samples follow\n255\n",
         np.array([0, 1, 127, 128, 254, 255], np.uint8)),
    ], ids=["8bit_above_maxval", "16bit_above_maxval", "commented_header"])
    def test_decode_is_the_clipped_quotient_bit_for_bit(self, tmp_path, header, raster):
        path = tmp_path / "d.pgm"
        path.write_bytes(header + raster.tobytes())
        maxval = int(header.split()[-1])
        want = np.clip(raster.reshape(2, -1).astype(np.float64) / maxval, 0.0, 1.0)
        got = read_pgm(path).values
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_corrupt_errors_mention_path(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n4 3\n255\n" + bytes(36))
        with pytest.raises(ValueError, match="bad.pgm"):
            read_pgm(path)
        path.write_bytes(b"P5\n4 3\n255\n" + bytes(5))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_bytes_after_the_raster_are_refused(self, tmp_path):
        path = tmp_path / "long.pgm"
        write_pgm(path, np.full((24, 32), 0.5))
        path.write_bytes(path.read_bytes() + b"garbage")
        want = f"^{re.escape(str(path))}: corrupt PGM: 7 bytes after the raster$"
        with pytest.raises(ValueError, match=want):
            read_pgm(path)

    @pytest.fixture(scope="class")
    def tmp_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("damaged")

    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(damaged(PGM_8BIT), damaged(PGM_16BIT)))
    def test_damaged_file_loads_or_names_the_file(self, tmp_dir, blob):
        path = tmp_dir / "damaged.pgm"
        path.write_bytes(blob)
        try:
            frame = read_pgm(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: corrupt PGM: "), exc
        else:   # only a changed byte can load: a cut or appended raster is refused
            assert len(blob) in (len(PGM_8BIT), len(PGM_16BIT)) and frame.values.size >= 4


class TestManifest:
    def test_grouping_and_order(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text(
            "# comment\n"
            "vidA sal1 frames/a1.pgm\n"
            "vidA sal1 frames/a2.pgm\n"
            "vidB sal2 frames/b1.pgm\n"
        )
        groups = read_saliency_manifest(man)
        assert [p.name for p in groups[("vidA", "sal1")]] == ["a1.pgm", "a2.pgm"]
        assert groups[("vidA", "sal1")][0].parent == tmp_path / "frames"

    def test_malformed_line(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("only two\n")
        with pytest.raises(ValueError, match="line 1"):
            read_saliency_manifest(man)
