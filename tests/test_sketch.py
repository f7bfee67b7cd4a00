import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fuzz import damaged
from scipy import stats

from momhal.sketch import (
    CountSketch,
    derive_stream_seed,
    project,
    project_rows,
    project_transpose_rows,
    sketch_from_bytes,
    sketch_new,
    sketch_to_bytes,
    splitmix64,
)
from oracles import unbiasedness_check


class TestConstruction:
    def test_determinism(self):
        a = sketch_new(4, 4, 0)
        b = sketch_new(4, 4, 0)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.s, b.s)

    def test_forced_hash_target(self):
        for seed in range(20):
            sk = sketch_new(1, 1, seed)
            assert sk.h.tolist() == [1]
            assert sk.s[0] in (-1, 1)

    def test_one_nonzero_per_column(self):
        sk = sketch_new(50, 8, 3)
        p = sk.dense()
        assert p.shape == (8, 50)
        nonzeros = np.count_nonzero(p, axis=0)
        np.testing.assert_array_equal(nonzeros, np.ones(50))
        assert set(np.abs(p[p != 0])) == {1.0}

    def test_bucket_uniformity_chi_square(self):
        sk = sketch_new(10_000, 512, 7)
        counts = np.bincount(sk.h.astype(int) - 1, minlength=512)
        expected = 10_000 / 512
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=511)

    def test_sign_balance(self):
        sk = sketch_new(10_000, 16, 11)
        assert abs(int(sk.s.astype(int).sum())) < 4 * np.sqrt(10_000)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            sketch_new(0, 4, 1)
        with pytest.raises(ValueError):
            sketch_new(4, 0, 1)

    def test_splitmix_reference_values(self):
        # first outputs of the scalar splitmix64 recurrence for seed 42
        got = [int(v) for v in splitmix64(42, 3)]
        assert got == [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]


class TestProject:
    def test_zero_maps_to_zero(self):
        sk = sketch_new(6, 3, 5)
        np.testing.assert_array_equal(project(sk, np.zeros(6)), np.zeros(3))

    def test_hand_example(self):
        sk = CountSketch(3, 2, np.array([1, 1, 2], dtype=np.uint32),
                         np.array([1, -1, 1], dtype=np.int8), 0)
        np.testing.assert_array_equal(project(sk, np.array([2.0, 5.0, 7.0])), [-3.0, 7.0])

    def test_signed_permutation_preserves_norm(self):
        perm = np.array([3, 1, 4, 2, 5], dtype=np.uint32)
        sk = CountSketch(5, 5, perm, np.ones(5, dtype=np.int8), 0)
        psi = np.arange(1.0, 6.0)
        out = project(sk, psi)
        assert sorted(out.tolist()) == sorted(psi.tolist())
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi))

    @given(st.integers(0, 2**32), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed, a, b):
        sk = sketch_new(12, 5, seed)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=12), rng.normal(size=12)
        np.testing.assert_allclose(
            project(sk, a * x + b * y),
            a * project(sk, x) + b * project(sk, y),
            atol=1e-9,
        )

    def test_matches_dense_matrix(self):
        sk = sketch_new(30, 7, 9)
        psi = np.random.default_rng(2).normal(size=30)
        np.testing.assert_allclose(project(sk, psi), sk.dense() @ psi, atol=1e-12)

    def test_rows_and_transpose(self):
        sk = sketch_new(10, 4, 13)
        rows = np.random.default_rng(3).normal(size=(5, 10))
        got = project_rows(sk, rows)
        for i in range(5):
            np.testing.assert_allclose(got[i], project(sk, rows[i]), atol=1e-12)
        vs = np.random.default_rng(4).normal(size=(5, 4))
        np.testing.assert_allclose(project_transpose_rows(sk, vs), vs @ sk.dense(), atol=1e-12)

    def test_rows_add_like_add_at(self):
        # 300 coordinates into 4 buckets: every bucket sums ~75 terms, so a
        # different summation order would show in the last bits
        sk = sketch_new(300, 4, 21)
        rows = np.random.default_rng(5).normal(size=(6, 300))
        want = np.zeros((6, 4))
        np.add.at(want, (slice(None), sk.h.astype(np.int64) - 1), rows * sk.s)
        np.testing.assert_array_equal(project_rows(sk, rows), want)

    def test_length_mismatch(self):
        sk = sketch_new(4, 2, 0)
        with pytest.raises(ValueError):
            project(sk, np.zeros(5))


class TestUnbiasedness:
    def test_one_hot_exact(self):
        # single nonzero coordinate: <P e1, P e1> = s_1^2 = 1 for every sketch
        e1 = np.zeros(8)
        e1[0] = 1.0
        for seed in range(50):
            sk = sketch_new(8, 3, seed)
            out = project(sk, e1)
            assert float(out @ out) == 1.0

    def test_mean_within_clt_tolerance(self):
        rep = unbiasedness_check(64, 16, 20_000, seed=7)
        assert rep.mean_error < 4.0 * np.sqrt(rep.variance_bound / 20_000)

    def test_variance_bound_and_ordering(self):
        reports = {dp: unbiasedness_check(64, dp, 20_000, seed=7) for dp in (8, 32)}
        for rep in reports.values():
            assert rep.empirical_variance <= 1.1 * rep.variance_bound
        assert reports[32].empirical_variance < reports[8].empirical_variance

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            unbiasedness_check(8, 4, 999, seed=0)


class TestModalitySeeds:
    def test_stable_and_distinct(self):
        a = derive_stream_seed(123, "det1")
        assert a == derive_stream_seed(123, "det1")
        assert a != derive_stream_seed(123, "det2")
        assert a != derive_stream_seed(124, "det1")
        assert a != derive_stream_seed(123, "det1", role="stream")

    def test_distinct_sketches_per_stream(self):
        s1 = sketch_new(100, 16, derive_stream_seed(0, "sal1"))
        s2 = sketch_new(100, 16, derive_stream_seed(0, "sal2"))
        assert not np.array_equal(s1.h, s2.h) or not np.array_equal(s1.s, s2.s)


class TestSerialization:
    def test_roundtrip(self):
        sk = sketch_new(37, 9, 0xDEADBEEF)
        back = sketch_from_bytes(sketch_to_bytes(sk))
        assert back.input_dim == sk.input_dim
        assert back.output_dim == sk.output_dim
        assert back.seed == sk.seed
        np.testing.assert_array_equal(back.h, sk.h)
        np.testing.assert_array_equal(back.s, sk.s)

    def test_layout(self):
        sk = sketch_new(2, 3, 1)
        blob = sketch_to_bytes(sk)
        assert blob[:4] == b"CSK1"
        assert len(blob) == 4 + 4 + 4 + 8 + 4 * 2 + 2

    def test_header_layout(self):
        """The fixed header as the README lays it out, field by field."""
        seed = 2**40 + 5
        header = (b"CSK1" + np.array(2, "<u4").tobytes() + np.array(3, "<u4").tobytes()
                  + np.array(seed, "<u8").tobytes())
        assert len(header) == 20
        assert sketch_to_bytes(sketch_new(2, 3, seed))[:20] == header

    @pytest.mark.parametrize("d_prime", [7, 0])
    def test_zero_dimensional_sketch_is_refused(self, d_prime):
        # 20 bytes that d = 0 would make complete; sketch_new never draws them
        blob = b"CSK1" + np.array([0, d_prime], "<u4").tobytes() + np.array(9, "<u8").tobytes()
        with pytest.raises(ValueError, match=f"^CSK1: dimensions must be >= 1, got d=0, d'={d_prime}$"):
            sketch_from_bytes(blob)

    def test_file_helpers(self, tmp_path):
        sk = sketch_new(5, 4, 2)
        path = tmp_path / "sketch.csk"
        path.write_bytes(sketch_to_bytes(sk))
        back = sketch_from_bytes(path.read_bytes())
        np.testing.assert_array_equal(back.h, sk.h)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="CSK1: bad magic"):
            sketch_from_bytes(b"XXXX" + bytes(20))

    @settings(max_examples=300, deadline=None)
    @given(damaged(sketch_to_bytes(sketch_new(6, 3, 5))))
    def test_damaged_file_loads_or_names_the_format(self, blob):
        try:
            sk = sketch_from_bytes(blob)
        except ValueError as exc:
            assert str(exc).startswith("CSK1: "), exc
        else:
            assert len(sketch_to_bytes(sk)) == len(blob)

    def test_exact_length(self):
        blob = sketch_to_bytes(sketch_new(5, 4, 2))
        n = len(blob)
        with pytest.raises(ValueError, match=f"CSK1: expected {n} bytes, got {n + 1}"):
            sketch_from_bytes(blob + b"\0")
        with pytest.raises(ValueError, match=f"CSK1: expected {n} bytes, got {n - 1}"):
            sketch_from_bytes(blob[:-1])
