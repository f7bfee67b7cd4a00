import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momhal.kernel import (
    INTERVAL_UNIT,
    RING_UNIT,
    FeatureMapConfig,
    feature_map,
    feature_map_batch,
)
from oracles import kernel_approx_constant, kernel_approx_error

# Frozen grid-oracle figures (sigma = 0.5, 101-point grid, interval):
# relative RMS of the least-squares-scaled inner product against the RBF
# kernel, computed once by the brute-force evaluation below.
ORACLE_ERR = {3: 0.019636625454477863, 5: 0.0623078042813461, 7: 0.0806056616143386}
ORACLE_C7 = 0.2882273764039865


def grid_oracle(z, sigma, grid):
    """Brute-force evaluation independent of the library helpers."""
    xs = np.linspace(0.0, 1.0, grid)
    pivots = np.array([0.5]) if z == 1 else np.arange(z) / (z - 1)
    feats = np.exp(-((xs[:, None] - pivots[None, :]) ** 2) / sigma**2)
    k = feats @ feats.T
    g = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / (2 * sigma**2))
    c = (k * g).sum() / (k * k).sum()
    err = np.sqrt(((c * k - g) ** 2).mean()) / np.sqrt((g * g).mean())
    return c, err


class TestPivots:
    def test_interval_endpoints(self):
        cfg = FeatureMapConfig(7, 0.5)
        p = cfg.pivots()
        assert p[0] == 0.0 and p[-1] == 1.0
        assert np.allclose(np.diff(p), 1 / 6)

    def test_single_pivot_centered(self):
        assert FeatureMapConfig(1, 0.5).pivots() == pytest.approx([0.5])

    def test_ring_excludes_duplicate_endpoint(self):
        p = FeatureMapConfig(12, 0.5, RING_UNIT).pivots()
        assert p[0] == 0.0 and p[-1] == pytest.approx(11 / 12)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            FeatureMapConfig(0, 0.5)
        with pytest.raises(ValueError):
            FeatureMapConfig(3, -1.0)
        with pytest.raises(ValueError):
            FeatureMapConfig(3, 0.5, "circle")


class TestFeatureMap:
    def test_pivot_coincidence(self):
        for z in (1, 3, 7):
            cfg = FeatureMapConfig(z, 0.3)
            assert feature_map(cfg.pivots()[0], cfg)[0] == 1.0

    def test_endpoint_reversal(self):
        cfg = FeatureMapConfig(7, 0.5)
        lo = feature_map(0.0, cfg)
        hi = feature_map(1.0, cfg)
        np.testing.assert_allclose(lo, hi[::-1], atol=1e-15)

    def test_ring_cyclic_shift(self):
        cfg = FeatureMapConfig(12, 0.5, RING_UNIT)
        base = feature_map(0.0, cfg)
        shifted = feature_map(1.0 - 1.0 / 12, cfg)
        np.testing.assert_allclose(shifted, np.roll(base, -1), atol=1e-12)

    def test_domain_errors(self):
        cfg_i = FeatureMapConfig(5, 0.5)
        cfg_r = FeatureMapConfig(5, 0.5, RING_UNIT)
        with pytest.raises(ValueError):
            feature_map(1.5, cfg_i)
        with pytest.raises(ValueError):
            feature_map(-0.1, cfg_i)
        with pytest.raises(ValueError):
            feature_map(1.0, cfg_r)
        with pytest.raises(ValueError):
            feature_map(float("nan"), cfg_i)

    def test_bounds_and_determinism(self):
        cfg = FeatureMapConfig(9, 0.4)
        for x in np.linspace(0, 1, 17):
            v = feature_map(x, cfg)
            assert v.max() <= 1.0 and v.min() > 0.0
            np.testing.assert_array_equal(v, feature_map(x, cfg))

    def test_batch_matches_scalar(self):
        cfg = FeatureMapConfig(6, 0.7)
        xs = np.linspace(0, 1, 11)
        batch = feature_map_batch(xs, cfg)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(batch[i], feature_map(x, cfg))

    @given(st.floats(0.0, 1.0 - 1e-9), st.integers(2, 16))
    @settings(max_examples=50, deadline=None)
    def test_ring_shift_equivariance(self, x, z):
        cfg = FeatureMapConfig(z, 0.5, RING_UNIT)
        shifted = feature_map((x + 1.0 / z) % 1.0, cfg)
        np.testing.assert_allclose(shifted, np.roll(feature_map(x, cfg), 1), atol=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_inner_product_symmetry(self, x, y):
        cfg = FeatureMapConfig(7, 0.5)
        a, b = feature_map(x, cfg), feature_map(y, cfg)
        assert a @ b == pytest.approx(b @ a)

    def test_continuity(self):
        cfg = FeatureMapConfig(7, 0.5)
        for x in (0.0, 0.3, 0.999):
            step = feature_map(min(x + 1e-9, 1.0), cfg) - feature_map(x, cfg)
            assert np.abs(step).max() < 1e-7


class TestApproxConstant:
    def test_single_pivot_positive(self):
        for sigma in (0.2, 0.5, 1.0):
            assert kernel_approx_constant(FeatureMapConfig(1, sigma), 50) > 0.0

    def test_frozen_oracle_figures(self):
        for z, frozen in ORACLE_ERR.items():
            c, err = kernel_approx_error(FeatureMapConfig(z, 0.5), 101)
            oc, oerr = grid_oracle(z, 0.5, 101)
            assert err == pytest.approx(oerr, rel=1e-12)
            assert c == pytest.approx(oc, rel=1e-12)
            assert err == pytest.approx(frozen, rel=1e-9)
        assert kernel_approx_constant(FeatureMapConfig(7, 0.5), 101) == pytest.approx(
            ORACLE_C7, rel=1e-9
        )

    def test_ring_error_decreases_with_pivots(self):
        # the boundary-free domain is where more pivots monotonically help
        errs = [
            kernel_approx_error(FeatureMapConfig(z, 0.5, RING_UNIT), 101)[1]
            for z in (3, 5, 7)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            kernel_approx_constant(FeatureMapConfig(3, 0.5), 1)
