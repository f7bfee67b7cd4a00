import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from fuzz import damaged
from momhal.moments import (
    EmptyBagError,
    FeatureBag,
    assemble_upsilon,
    descriptor_from_bytes,
    descriptor_to_bytes,
    multi_moment,
)
from oracles import bag_of_frames, dense_multi_moment, per_frame_upsilon


def random_bag(rng, d=None, n_frames=None):
    d = d or int(rng.integers(3, 33))
    n_frames = n_frames or int(rng.integers(1, 6))
    frames = [rng.normal(size=(int(rng.integers(0, 12)), d)) for _ in range(n_frames)]
    if sum(f.shape[0] for f in frames) == 0:
        frames[0] = rng.normal(size=(1, d))
    return bag_of_frames(d, frames)


class TestBag:
    def test_validation(self):
        # no frames; counts that fall short, go negative or exceed the rows; a 1-d
        # matrix; 2-d counts
        for data, counts in ((np.zeros((0, 3)), []), (np.zeros((3, 2)), [1, 1]),
                             (np.zeros((3, 2)), [4, -1]), (np.zeros((2, 4)), [3]),
                             (np.zeros(3), [3]), (np.zeros((3, 2)), [[3]])):
            with pytest.raises(ValueError):
                FeatureBag(data, counts)

    def test_frames_are_views_of_the_matrix(self):
        data = np.arange(12.0).reshape(6, 2)
        bag = FeatureBag(data, [2, 0, 4])
        assert bag.data is data
        assert [f.shape for f in bag.frames] == [(2, 2), (0, 2), (4, 2)]
        assert all(np.shares_memory(f, data) for f in bag.frames if f.size)

    def test_empty_frames_allowed(self):
        bag = bag_of_frames(2, [np.zeros((0, 2)), np.ones((3, 2))])
        assert bag.n_frames == 2
        assert bag.total == 3


class TestAssembleUpsilon:
    def test_centering_single_detection(self):
        mu = np.array([1.0, 2.0])
        bag = bag_of_frames(2, [mu.reshape(1, 2)])
        np.testing.assert_array_equal(assemble_upsilon(bag, mu), np.zeros((2, 1)))

    def test_frame_weights(self):
        bag = bag_of_frames(1, [np.array([[4.0]]), np.array([[6.0], [8.0]])])
        ups = assemble_upsilon(bag, np.array([2.0]))
        # J=2; K_1=1 -> /2, K_2=2 -> /4
        np.testing.assert_allclose(ups, [[(4 - 2) / 2, (6 - 2) / 4, (8 - 2) / 4]])

    def test_empty_frames_count_toward_j(self):
        bag = bag_of_frames(1, [np.array([[3.0]]), np.zeros((0, 1))])
        ups = assemble_upsilon(bag, np.array([1.0]))
        np.testing.assert_allclose(ups, [[(3 - 1) / 2]])
        assert ups.shape == (1, 1)

    def test_equals_per_frame_construction_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            bag = random_bag(rng)
            mu = bag.data.mean(axis=0)
            ups = assemble_upsilon(bag, mu)
            want = per_frame_upsilon(bag.frames, mu)
            assert ups.flags.c_contiguous and ups.shape == want.shape
            assert np.array_equal(ups.view(np.int64), want.view(np.int64))

    def test_scaling_linearity(self):
        rng = np.random.default_rng(0)
        bag = random_bag(rng, d=4, n_frames=3)
        mu = rng.normal(size=4)
        base = assemble_upsilon(bag, mu)
        scaled_bag = bag_of_frames(4, [3.0 * f for f in bag.frames])
        np.testing.assert_allclose(assemble_upsilon(scaled_bag, 3.0 * mu), 3.0 * base, atol=1e-12)


class TestMultiMoment:
    def test_hand_two_by_two(self):
        bag = bag_of_frames(2, [np.array([[2.0, 0.0], [0.0, 0.0]])])
        desc = multi_moment(bag, 1)
        np.testing.assert_allclose(desc.mean_dir, [1.0, 0.0])
        np.testing.assert_allclose(desc.eigvecs, [[1.0, 0.0]])
        np.testing.assert_allclose(desc.skewness, [0.0, 0.0])
        np.testing.assert_allclose(desc.kurtosis, [1.0, 0.0])
        np.testing.assert_allclose(desc.eig_spectrum, [1.0, 0.0])

    def test_identical_vectors_degenerate(self):
        v = np.array([1.0, -2.0, 0.5])
        bag = bag_of_frames(3, [np.tile(v, (4, 1)), np.tile(v, (3, 1))])
        desc = multi_moment(bag, 2)
        np.testing.assert_allclose(desc.mean_dir, v / np.linalg.norm(v), atol=1e-12)
        np.testing.assert_allclose(desc.eigvecs, np.zeros((2, 3)), atol=1e-12)
        np.testing.assert_allclose(desc.skewness, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(desc.kurtosis, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(desc.eig_spectrum, np.zeros(3), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        cases = [(random_bag(rng), int(rng.integers(1, 5))) for _ in range(30)]
        # 30 >= d rows in a 2-dimensional affine subspace of R^12: rank 2 < n' = 4
        basis, offset = rng.normal(size=(2, 12)), rng.normal(size=12)
        flat = bag_of_frames(12, [offset + rng.normal(size=(k, 2)) @ basis for k in (9, 11, 10)])
        cases.append((flat, 4))
        for bag, n_prime in cases:
            got = multi_moment(bag, n_prime).flat()
            want = dense_multi_moment(bag.frames, n_prime)
            np.testing.assert_allclose(got, want, atol=1e-8)
        eigvecs = multi_moment(flat, 4).eigvecs
        np.testing.assert_allclose(np.linalg.norm(eigvecs[:2], axis=1), 1.0)
        assert not eigvecs[2:].any()

    def test_permutation_within_frame(self):
        rng = np.random.default_rng(3)
        frames = [rng.normal(size=(6, 5)), rng.normal(size=(4, 5))]
        base = multi_moment(bag_of_frames(5, frames), 2).flat()
        shuffled = [f[rng.permutation(f.shape[0])] for f in frames]
        got = multi_moment(bag_of_frames(5, shuffled), 2).flat()
        np.testing.assert_allclose(got, base, atol=1e-10)

    def test_rescaling_about_mean(self):
        rng = np.random.default_rng(11)
        frames = [rng.normal(size=(5, 4)), rng.normal(size=(3, 4))]
        data = np.concatenate(frames)
        mu = data.mean(axis=0)
        base = multi_moment(bag_of_frames(4, frames), 2)
        t = 2.5
        stretched = [mu + t * (f - mu) for f in frames]
        got = multi_moment(bag_of_frames(4, stretched), 2)
        # mean numerator, skewness, kurtosis, eigvecs and spectrum all survive
        np.testing.assert_allclose(got.mean_dir, base.mean_dir, atol=1e-10)
        np.testing.assert_allclose(got.skewness, base.skewness, atol=1e-9)
        np.testing.assert_allclose(got.kurtosis, base.kurtosis, atol=1e-9)
        np.testing.assert_allclose(got.eigvecs, base.eigvecs, atol=1e-8)
        np.testing.assert_allclose(got.eig_spectrum, base.eig_spectrum, atol=1e-10)

    def test_symmetric_coordinate_zero_skew(self):
        vals = np.array([[1.0], [-1.0], [2.0], [-2.0], [0.0]])
        desc = multi_moment(bag_of_frames(1, [vals]), 1)
        assert abs(desc.skewness[0]) < 1e-12

    def test_two_point_kurtosis_is_one(self):
        a = 0.7
        vals = np.array([[a], [-a], [a], [-a]])
        desc = multi_moment(bag_of_frames(1, [vals]), 1)
        assert desc.kurtosis[0] == pytest.approx(1.0, abs=1e-12)

    def test_gram_path_matches_dense_svd(self):
        rng = np.random.default_rng(5)
        for n, d in ((6, 20), (25, 10), (8, 8)):
            frames = [rng.normal(size=(n, d))]
            bag = bag_of_frames(d, frames)
            desc = multi_moment(bag, 3)
            ups = assemble_upsilon(bag, bag.data.mean(axis=0))
            u, s, _ = np.linalg.svd(ups, full_matrices=False)
            for i in range(min(3, len(s))):
                if s[i] > 1e-12:
                    ref = u[:, i]
                    k = int(np.argmax(np.abs(ref)))
                    if ref[k] < 0:
                        ref = -ref
                    np.testing.assert_allclose(desc.eigvecs[i], ref, atol=1e-8)

    @pytest.mark.parametrize("n, d", [(800, 100), (100, 800)], ids=["rows_ge_d", "rows_lt_d"])
    def test_peak_memory_is_two_bag_copies(self, n, d):
        """Upsilon goes before the cumulants are formed, and they reuse two buffers."""
        bag = FeatureBag(np.random.default_rng(3).normal(size=(n, d)), np.full(20, n // 20))
        tracemalloc.start()
        try:
            multi_moment(bag, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * bag.data.nbytes

    def test_rows_ge_d_eigen_solve_holds_the_gram_not_upsilon(self, monkeypatch):
        """When N >= d, the (d, N) centered matrix is freed before ``eigh``."""
        n, d = 600, 500
        bag = FeatureBag(np.random.default_rng(4).normal(size=(n, d)), np.full(20, n // 20))
        eigh = np.linalg.eigh
        traced = []

        def recording_eigh(a, *args, **kwargs):
            traced.append(tracemalloc.get_traced_memory()[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        tracemalloc.start()
        try:
            multi_moment(bag, 3)
        finally:
            tracemalloc.stop()
        assert len(traced) == 1
        assert traced[0] < 8 * d * d + bag.data.nbytes / 4

    def test_flat_length(self):
        rng = np.random.default_rng(1)
        for n_prime in (1, 3, 5):
            bag = random_bag(rng, d=9)
            assert multi_moment(bag, n_prime).flat().shape == (9 * (4 + n_prime),)

    def test_errors(self):
        with pytest.raises(EmptyBagError):
            multi_moment(bag_of_frames(2, [np.zeros((0, 2))]), 1)
        with pytest.raises(ValueError):
            multi_moment(bag_of_frames(2, [np.array([[1.0, np.nan]])]), 1)
        with pytest.raises(ValueError):
            multi_moment(bag_of_frames(2, [np.ones((1, 2))]), 0)
        with pytest.raises(ValueError, match="no coordinates"):
            multi_moment(FeatureBag(np.zeros((2, 0)), [2]), 3)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(21)
        desc = multi_moment(random_bag(rng, d=6), 3)
        back = descriptor_from_bytes(descriptor_to_bytes(desc))
        assert back.dim == 6 and back.n_prime == 3
        np.testing.assert_allclose(back.flat(), desc.flat(), atol=1e-6)

    def test_layout(self):
        desc = multi_moment(bag_of_frames(2, [np.eye(2)]), 1)
        blob = descriptor_to_bytes(desc)
        assert blob[:4] == b"MMD1"
        assert len(blob) == 4 + 4 + 4 + 4 * 2 * 5

    def test_header_layout(self):
        """The fixed header as the README lays it out, field by field."""
        desc = multi_moment(bag_of_frames(3, [np.eye(3)]), 2)
        header = b"MMD1" + np.array(3, "<u4").tobytes() + np.array(2, "<u4").tobytes()
        assert len(header) == 12
        assert descriptor_to_bytes(desc)[:12] == header

    def test_file_helpers(self, tmp_path):
        desc = multi_moment(bag_of_frames(2, [np.eye(2)]), 2)
        path = tmp_path / "desc.mmd"
        path.write_bytes(descriptor_to_bytes(desc))
        back = descriptor_from_bytes(path.read_bytes())
        np.testing.assert_allclose(back.flat(), desc.flat(), atol=1e-6)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="^MMD1: bad magic$"):
            descriptor_from_bytes(b"ZZZZ" + bytes(16))

    def test_no_leading_direction_is_refused(self):
        blob = b"MMD1" + np.array([2, 0], "<u4").tobytes() + bytes(4 * 2 * 4)
        with pytest.raises(ValueError, match="^MMD1: n' must be at least 1, got 0$"):
            descriptor_from_bytes(blob)

    def test_zero_dimensional_descriptor_is_refused(self):
        # 12 bytes that d = 0 would make complete; the writer never produces them
        blob = b"MMD1" + np.array([0, 3], "<u4").tobytes()
        with pytest.raises(ValueError, match="^MMD1: d must be at least 1, got 0$"):
            descriptor_from_bytes(blob)

    @settings(max_examples=300, deadline=None)
    @given(damaged(descriptor_to_bytes(multi_moment(bag_of_frames(3, [np.eye(3)]), 2))))
    def test_damaged_file_loads_or_names_the_format(self, blob):
        try:
            desc = descriptor_from_bytes(blob)
        except ValueError as exc:
            assert str(exc).startswith("MMD1: "), exc
        else:
            assert desc.n_prime >= 1 and len(descriptor_to_bytes(desc)) == len(blob)

    def test_exact_length(self):
        blob = descriptor_to_bytes(multi_moment(bag_of_frames(2, [np.eye(2)]), 1))
        n = len(blob)
        with pytest.raises(ValueError, match=f"MMD1: expected {n} bytes, got {n + 1}"):
            descriptor_from_bytes(blob + b"\0")
        with pytest.raises(ValueError, match=f"MMD1: expected {n} bytes, got {n - 1}"):
            descriptor_from_bytes(blob[:-1])
