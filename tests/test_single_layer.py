"""Single-layer interpolation and ridge baselines."""

import numpy as np
import pytest

from deepkern.gram import spd_solve
from deepkern.kernels import GaussKernel, PolyKernel
from deepkern.single_layer import fit_single, predict_single, rkhs_norm_sq_single


class TestFitSingle:
    def test_single_point_interpolation(self):
        m = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [5.0])
        np.testing.assert_allclose(m.alpha, [5.0])

    def test_single_point_ridge(self):
        m = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [5.0], lam=4.0)
        np.testing.assert_allclose(m.alpha, [1.0])

    def test_poly_pair(self):
        m = fit_single(PolyKernel(1, 2), [[1.0, 0.0], [0.0, 1.0]], [3.0, 3.0])
        np.testing.assert_allclose(m.alpha, [1.0, 1.0], rtol=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [1.0], lam=-1.0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [1.0], lam=float("nan"))


class TestPredictSingle:
    def test_reproduces_training_value(self):
        m = fit_single(GaussKernel(1.0, 2), [[0.2, -0.1]], [5.0])
        assert predict_single(m, np.array([0.2, -0.1])) == pytest.approx(5.0)

    def test_gauss_decay_far_away(self):
        m = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [5.0])
        far = np.array([10.0, 0.0])   # ten kernel widths out
        assert abs(predict_single(m, far)) <= 1e-6

    def test_poly_expansion_value(self):
        m = fit_single(PolyKernel(1, 2), [[1.0, 0.0], [0.0, 1.0]], [3.0, 3.0])
        assert predict_single(m, np.array([1.0, 0.0])) == pytest.approx(3.0, rel=1e-12)

    def test_interpolation_exactness(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (20, 2))
        y = rng.standard_normal(20)
        m = fit_single(GaussKernel(0.5, 2), X, y)
        preds = predict_single(m, X)
        assert np.max(np.abs(preds - y)) <= 1e-7 * (np.max(np.abs(y)) + 1.0)


class TestNormAndShrinkage:
    def test_single_point_norm(self):
        m = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [5.0])
        assert rkhs_norm_sq_single(m) == pytest.approx(25.0)

    def test_zero_targets_zero_norm(self):
        m = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0])
        assert rkhs_norm_sq_single(m) == 0.0

    def test_poly_pair_norm(self):
        m = fit_single(PolyKernel(1, 2), [[1.0, 0.0], [0.0, 1.0]], [3.0, 3.0])
        assert rkhs_norm_sq_single(m) == pytest.approx(6.0, rel=1e-12)

    def test_norm_identity_interpolation(self):
        # alpha^T M alpha = y^T M^{-1} y when lam = 0
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (15, 2))
        y = rng.standard_normal(15)
        k = GaussKernel(0.6, 2)
        m = fit_single(k, X, y)
        lhs = rkhs_norm_sq_single(m)
        rhs = float(y @ spd_solve(k.cross(X, X), y)[0])
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_ridge_shrinkage_monotone(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, (25, 2))
        y = rng.standard_normal(25)
        k = GaussKernel(0.5, 2)
        norms = [
            np.linalg.norm(fit_single(k, X, y, lam=10.0**e).alpha)
            for e in range(-3, 4)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
