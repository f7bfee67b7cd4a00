import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momhal.pn import EPSILON, ETA, maxexp, row_norm, sigme, sigme_grad, sigme_vjp


class TestSigme:
    def test_zero_vector_maps_to_zero(self):
        for n in (1, 5, 32):
            np.testing.assert_array_equal(sigme(np.zeros(n), ETA), np.zeros(n))

    def test_tanh_identity_example(self):
        out = sigme(np.array([3.0, 4.0]), 20.0)
        np.testing.assert_allclose(out, [np.tanh(6.0), np.tanh(8.0)], atol=1e-12)

    @given(arrays(np.float64, st.integers(1, 16),
                  elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_odd_function(self, psi):
        np.testing.assert_allclose(sigme(-psi, ETA), -sigme(psi, ETA), atol=1e-15)

    @given(arrays(np.float64, st.integers(1, 16),
                  elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_sign_preserving(self, psi):
        out = sigme(psi, ETA)
        assert np.all(np.abs(out) < 1.0)
        # sign survives except when a subnormal input underflows to zero
        assert np.all((np.sign(out) == np.sign(psi)) | (out == 0.0))

    def test_rowwise_batching(self):
        rows = np.random.default_rng(0).normal(size=(4, 6))
        batched = sigme(rows, ETA)
        for i in range(4):
            np.testing.assert_array_equal(batched[i], sigme(rows[i], ETA))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sigme(np.array([1.0, np.inf]), ETA)


def recomputed_sigme_grad(psi, upstream, eta):
    """The VJP with the SigmE forward recomputed inside it; the form that
    takes the saved output must match it bit for bit."""
    norm = np.linalg.norm(psi, axis=-1, keepdims=True)
    n = norm + EPSILON
    g = np.tanh(eta * psi / (2.0 * n))
    sech2 = 1.0 - g * g
    half_eta = 0.5 * eta
    direct = half_eta * sech2 * upstream / n
    inner = (upstream * sech2 * psi).sum(axis=-1, keepdims=True)
    safe_norm = np.where(norm > 0.0, norm, 1.0)
    norm_term = np.where(norm > 0.0, half_eta * inner * psi / (n * n * safe_norm), 0.0)
    return direct - norm_term


class TestSigmeGrad:
    def test_origin_diagonal(self):
        up = np.zeros(4)
        up[0] = 1.0
        grad = sigme_grad(np.zeros(4), up, 20.0)
        expected = np.zeros(4)
        expected[0] = 20.0 / (2.0 * EPSILON)
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_zero_upstream(self):
        psi = np.random.default_rng(1).normal(size=8)
        np.testing.assert_array_equal(sigme_grad(psi, np.zeros(8), ETA), np.zeros(8))

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        eta = 5.0
        for _ in range(5):
            psi = rng.uniform(-1, 1, size=32)
            upstream = rng.normal(size=32)
            got = sigme_grad(psi, upstream, eta)
            fd = np.zeros(32)
            for j in range(32):
                bumped = psi.copy()
                bumped[j] += 1e-5
                hi = float(sigme(bumped, eta) @ upstream)
                bumped[j] -= 2e-5
                lo = float(sigme(bumped, eta) @ upstream)
                fd[j] = (hi - lo) / 2e-5
            assert np.abs(fd - got).max() < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sigme_grad(np.zeros(3), np.zeros(4), ETA)

    @pytest.mark.parametrize("rows, m, eta", [(1, 4, 20.0), (32, 128, 20.0), (7, 33, 5.0)])
    def test_saved_output_backward_is_bit_identical(self, rows, m, eta):
        rng = np.random.default_rng(rows * m)
        for _ in range(5):
            psi = rng.normal(size=(rows, m)) * rng.uniform(0.1, 10.0)
            psi[0] = 0.0            # the norm > 0 guard
            if rows > 1:
                psi[1] = 1e-200     # nonzero, but its squared norm underflows to 0
            upstream = rng.normal(size=(rows, m))
            got = sigme_vjp(psi, row_norm(psi), sigme(psi, eta), upstream, eta)
            want = recomputed_sigme_grad(psi, upstream, eta)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(sigme_grad(psi, upstream, eta), want)
            assert np.all(np.isfinite(got))

    def test_saved_output_shape_mismatch(self):
        psi = np.ones((2, 3))
        with pytest.raises(ValueError):
            sigme_vjp(psi, row_norm(psi), sigme(psi, ETA), np.ones((2, 4)), ETA)
        with pytest.raises(ValueError):
            sigme_vjp(psi, row_norm(psi), np.ones((3, 3)), np.ones((2, 3)), ETA)
        with pytest.raises(ValueError):
            sigme_vjp(psi, np.ones((2, 3)), sigme(psi, ETA), np.ones((2, 3)), ETA)


def formula_sigme(psi, eta):
    """SigmE as first written, with np.linalg.norm."""
    norm = np.linalg.norm(psi, axis=-1, keepdims=True)
    return np.tanh(eta * psi / (2.0 * (norm + EPSILON)))


def formula_sigme_vjp(psi, g, upstream, eta):
    """The saved-output VJP as first written: np.linalg.norm and two
    full-size np.where passes on every call."""
    norm = np.linalg.norm(psi, axis=-1, keepdims=True)
    n = norm + EPSILON
    sech2 = 1.0 - g * g
    half_eta = 0.5 * eta
    direct = half_eta * sech2 * upstream / n
    inner = (upstream * sech2 * psi).sum(axis=-1, keepdims=True)
    safe_norm = np.where(norm > 0.0, norm, 1.0)
    norm_term = np.where(norm > 0.0, half_eta * inner * psi / (n * n * safe_norm), 0.0)
    return direct - norm_term


class TestSameBitsAsFormulas:
    @pytest.mark.parametrize("shape", [(7,), (5, 7), (4, 32, 128), (13, 1, 128)])
    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_forward_and_backward(self, shape, zero_rows):
        eta = 4.0
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        for _ in range(3):
            psi = rng.normal(size=shape) * rng.uniform(0.1, 10.0)
            if zero_rows:
                psi.reshape(-1, shape[-1])[::2] = 0.0
            upstream = rng.normal(size=shape)
            g = sigme(psi, eta)
            assert np.array_equal(g, formula_sigme(psi, eta))
            assert np.array_equal(sigme(psi, eta, row_norm(psi)), g)
            got = sigme_vjp(psi, row_norm(psi), g, upstream, eta)
            assert np.array_equal(got, formula_sigme_vjp(psi, g, upstream, eta))

    def test_all_zero_input(self):
        psi = np.zeros((3, 6))
        g = sigme(psi, ETA)
        upstream = np.ones((3, 6))
        assert np.array_equal(g, formula_sigme(psi, ETA))
        assert np.array_equal(sigme_vjp(psi, row_norm(psi), g, upstream, ETA),
                              formula_sigme_vjp(psi, g, upstream, ETA))

    def test_huge_finite_rows_still_accepted(self):
        # the squared norm overflows to inf, but the input is finite
        psi = np.array([[1e200, 1.0], [3.0, 4.0]])
        with np.errstate(over="ignore"):
            assert np.array_equal(sigme(psi, ETA), formula_sigme(psi, ETA))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_anywhere_rejected(self, bad):
        psi = np.ones((3, 4))
        psi[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sigme(psi, ETA)


class TestMaxExp:
    def test_endpoints(self):
        np.testing.assert_array_equal(maxexp(np.array([0.0, 1.0]), 3.0), [0.0, 1.0])

    def test_identity_limit(self):
        psi = np.linspace(0, 1, 11)
        out = maxexp(psi, 1.0 + 1e-9)
        np.testing.assert_allclose(out, psi, atol=1e-7)

    def test_half_at_eta_two(self):
        assert maxexp(np.array([0.5]), 2.0)[0] == 0.75

    @given(arrays(np.float64, st.integers(1, 12), elements=st.floats(0, 1)),
           st.floats(1.0 + 1e-6, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_dominates_input(self, psi, eta):
        out = maxexp(psi, eta)
        assert np.all(out >= psi - 1e-12)
        assert np.all((out >= 0) & (out <= 1))

    def test_monotone(self):
        out = maxexp(np.linspace(0, 1, 50), 2.5)
        assert np.all(np.diff(out) >= 0)

    def test_range_error(self):
        with pytest.raises(ValueError):
            maxexp(np.array([-0.1]), 2.0)
        with pytest.raises(ValueError):
            maxexp(np.array([1.1]), 2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            maxexp(np.array([0.5]), 1.0)
