"""Gram matrices as cross(X, X), jittered SPD solves, and the inverse-derivative identity."""

import math

import numpy as np
import pytest

import deepkern.gram as gram_module
from deepkern.gram import (
    JITTERS,
    POINT_BLOCK,
    SingularMatrixError,
    by_point_blocks,
    spd_solve,
)
from deepkern.kernels import GaussKernel, PolyKernel, TensorMaternKernel
from deepkern.single_layer import fit_single

from fresh_python import fresh_python

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


class TestByPointBlocks:
    @pytest.mark.parametrize("m, sizes", [
        (0, [0]),
        (1, [1]),
        (16 * POINT_BLOCK, 16 * [POINT_BLOCK]),
        (16 * POINT_BLOCK + 1, 16 * [POINT_BLOCK] + [1]),
        (32 * POINT_BLOCK + 3, 32 * [POINT_BLOCK] + [3]),
        (POINT_BLOCK, [POINT_BLOCK]),
        (POINT_BLOCK + 1, [POINT_BLOCK, 1]),
        (2 * POINT_BLOCK + 3, [POINT_BLOCK, POINT_BLOCK, 3]),
    ])
    def test_consecutive_slices_in_order(self, m, sizes):
        pts = np.arange(2.0 * m).reshape(m, 2)
        seen = []

        def fn(block):
            seen.append(len(block))
            return 2.0 * block

        out = by_point_blocks(fn, pts)
        assert seen == sizes
        np.testing.assert_array_equal(out, 2.0 * pts)


class TestGram:
    """A Gram matrix is the kernel's cross(X, X), taken as it comes."""

    def test_single_gauss_point(self):
        X = np.array([[0.3, 0.4]])
        M = GaussKernel(sigma=1.0, dim=2).cross(X, X)
        np.testing.assert_array_equal(M, [[1.0]])

    def test_poly_two_points(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        M = PolyKernel(degree=1, dim=2).cross(X, X)
        np.testing.assert_allclose(M, [[2.0, 1.0], [1.0, 2.0]])

    def test_matern_two_points(self):
        X = np.array([[0.0], [1.0]])
        M = TensorMaternKernel(order=1, dim=1).cross(X, X)
        np.testing.assert_allclose(np.diag(M), SQRT_HALF_PI)
        assert M[0, 1] == pytest.approx(SQRT_HALF_PI * math.exp(-1.0), rel=1e-12)
        assert M[0, 1] == pytest.approx(0.461069, abs=1e-6)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        for k in (GaussKernel(0.3, 2), PolyKernel(2, 2), TensorMaternKernel(1, 2)):
            M = k.cross(X, X)
            np.testing.assert_array_equal(M, M.T)
            assert np.all(np.diag(M) > 0)


class TestShiftDiagonal:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_of_adding_a_scaled_identity(self, order):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7):
            M = np.array(random_spd(rng, n), order=order)
            M0 = M.copy()
            for t in (1e-12, 1e-3, 0.7):
                got = gram_module.shift_diagonal(M, t)
                assert np.array_equal(got, M + t * np.eye(n))
                np.testing.assert_array_equal(M, M0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_shift_is_the_matrix_itself(self, order):
        M = np.array(random_spd(np.random.default_rng(5), 4), order=order)
        M0 = M.copy()
        for t in (0.0, -0.0, 0):
            assert gram_module.shift_diagonal(M, t) is M
        np.testing.assert_array_equal(M, M0)


class TestSpdSolve:
    def test_scalar(self):
        x, jitter = spd_solve(np.array([[2.0]]), np.array([4.0]))
        assert jitter == 0.0
        np.testing.assert_allclose(x, [2.0])

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        x, jitter = spd_solve(np.eye(3), b)
        assert jitter == 0.0
        np.testing.assert_array_equal(x, b)

    def test_singular_needs_jitter(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        x, jitter = spd_solve(M, np.array([1.0, 1.0]))
        assert jitter > 0.0
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-6)

    def test_consistency_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = rng.integers(2, 12)
            M = random_spd(rng, n)
            b = rng.standard_normal(n)
            x, jitter = spd_solve(M, b)
            res = np.linalg.norm((M + jitter * np.eye(n)) @ x - b)
            assert res <= 1e-10 * (np.linalg.norm(b) + 1.0)

    def test_indefinite_fails_with_condition_estimate(self):
        M = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularMatrixError, match=r"condition estimate 1\.000e\+00"):
            spd_solve(M, np.array([1.0, 1.0]))

    def test_indefinite_tries_each_jitter_once(self, monkeypatch):
        attempts = []
        dpotrf, dpotrs = gram_module._lapack()

        def counting_dpotrf(*args, **kwargs):
            attempts.append(args[0])
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(gram_module, "_lapack", lambda: (counting_dpotrf, dpotrs))
        with pytest.raises(SingularMatrixError, match="1e-06"):
            spd_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))
        assert len(attempts) == len(JITTERS) == 8

    def test_direct_lapack_load_gives_scipy_linalg_bits(self, tmp_path):
        """_lapack's dpotrf/dpotrs against scipy.linalg.lapack's, loaded after them in one process.

        Each matrix climbs the jitter ladder as spd_factor does, through both
        pairs: an SPD matrix factors at once, a rank-one one needs a rung,
        and an indefinite one fails (info > 0) on every rung.
        """
        out = str(tmp_path / "runs.npz")
        code = f"""
import sys
import numpy as np
from deepkern import gram

rng = np.random.default_rng(11)
A = rng.standard_normal((5, 5))
v = rng.standard_normal(5)
matrices = [A @ A.T + 5 * np.eye(5), np.outer(v, v), np.diag([1.0, 2.0, -1.0, 3.0, 1.0])]
b = rng.standard_normal(5)

def ladder(dpotrf, dpotrs):
    runs = []
    for M in matrices:
        for jitter in gram.JITTERS:
            factor, info = dpotrf(gram.shift_diagonal(M, jitter), lower=1, clean=0)
            runs += [factor, np.array([jitter, info])]
            if info == 0:
                runs.append(dpotrs(factor, b, lower=1)[0])
                break
    return runs

direct = ladder(*gram._lapack())
assert "scipy.linalg" not in sys.modules
from scipy.linalg import lapack
np.savez({out!r}, *direct, *ladder(lapack.dpotrf, lapack.dpotrs))
"""
        fresh_python(code)
        with np.load(out) as runs:
            arrays = [runs[f"arr_{i}"] for i in range(len(runs.files))]
        direct, scipy_linalg = arrays[:len(arrays) // 2], arrays[len(arrays) // 2:]
        # (jitter > 0, info > 0) per rung: the SPD matrix factors on the first,
        # the rank-one one on the second, the indefinite one on none
        rungs = [(int(a[0] > 0), int(a[1] > 0)) for a in direct if a.shape == (2,)]
        assert rungs[:3] == [(0, 0), (0, 1), (1, 0)]
        assert rungs[3:] == [(0, 1)] + [(1, 1)] * (len(JITTERS) - 1)
        assert len(direct) == len(scipy_linalg)
        for d, s in zip(direct, scipy_linalg):
            assert d.dtype == s.dtype and d.shape == s.shape
            assert d.tobytes() == s.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_nonfinite_input_raises_value_error(self, bad, where):
        M, b = np.eye(3), np.ones(3)
        if where == "matrix":
            M[0, 1] = M[1, 0] = bad
        else:
            b[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spd_solve(M, b)

    def test_jitter_ladder_rungs(self):
        assert JITTERS[0] == 0.0
        assert list(JITTERS) == sorted(set(JITTERS))    # strictly increasing, no duplicate rung
        rng = np.random.default_rng(3)
        for scale in (0.0, 1e-13, 1e-9, 1e-7):
            v = rng.standard_normal(4)
            M = np.outer(v, v) - scale * np.eye(4)   # rank one, shifted below zero by scale
            _, jitter = spd_solve(M, v)
            assert jitter in JITTERS
            assert jitter > scale


class TestSolvers:
    """The single-layer solve (M + lam I) alpha = y, with lam = 0 for interpolation."""

    def test_interpolation_single_gauss(self):
        alpha = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [3.0]).alpha
        np.testing.assert_allclose(alpha, [3.0])

    def test_interpolation_single_matern(self):
        alpha = fit_single(TensorMaternKernel(1, 2), [[0.2, 0.5]], [math.pi / 2.0]).alpha
        np.testing.assert_allclose(alpha, [1.0], rtol=1e-12)

    def test_interpolation_poly_pair(self):
        alpha = fit_single(PolyKernel(1, 2), [[1.0, 0.0], [0.0, 1.0]], [3.0, 3.0]).alpha
        np.testing.assert_allclose(alpha, [1.0, 1.0], rtol=1e-12)

    def test_interpolation_reproduces_data(self):
        rng = np.random.default_rng(4)
        k = GaussKernel(0.5, 2)
        X = rng.uniform(-1, 1, (12, 2))
        y = rng.standard_normal(12)
        alpha = fit_single(k, X, y).alpha
        resid = k.cross(X, X) @ alpha - y
        assert np.max(np.abs(resid)) <= 1e-7 * np.max(np.abs(y))

    def test_ridge_single_point(self):
        alpha = fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [2.0], lam=1.0).alpha
        np.testing.assert_allclose(alpha, [1.0])

    def test_ridge_limit_is_interpolation(self):
        rng = np.random.default_rng(8)
        k = GaussKernel(0.7, 2)
        X = rng.uniform(-1, 1, (10, 2))
        y = rng.standard_normal(10)
        a0 = fit_single(k, X, y).alpha
        a1 = fit_single(k, X, y, lam=1e-10).alpha
        np.testing.assert_allclose(a1, a0, rtol=1e-6)

    def test_ridge_far_apart_points(self):
        # Gram is numerically the identity, so alpha = y / (1 + lam)
        k = GaussKernel(0.1, 2)
        X = np.array([[0.0, 0.0], [100.0, 100.0]])
        y = np.array([2.0, -4.0])
        alpha = fit_single(k, X, y, lam=0.5).alpha
        np.testing.assert_allclose(alpha, y / 1.5, rtol=1e-12)


def energy(M, y):
    """y^T M^{-1} y through the jittered solve."""
    return float(y @ spd_solve(M, y)[0])


class TestEnergyQuadraticForm:
    def test_identity(self):
        assert energy(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_scalar(self):
        assert energy(np.array([[2.0]]), np.array([2.0])) == pytest.approx(2.0)

    def test_two_by_two(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert energy(M, np.array([1.0, 1.0])) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_nonnegative_and_zero_iff_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            M = random_spd(rng, 5)
            y = rng.standard_normal(5)
            assert energy(M, y) > 0.0
        assert energy(random_spd(rng, 5), np.zeros(5)) == 0.0


class TestInverseDerivativeIdentity:
    def test_matches_finite_difference(self):
        # d/dh (M + hE)^{-1} at h=0 equals -M^{-1} E M^{-1}
        rng = np.random.default_rng(21)
        h = 1e-7
        for _ in range(10):
            n = 5
            M = random_spd(rng, n)
            E = rng.standard_normal((n, n))
            E = 0.5 * (E + E.T)
            Minv = np.linalg.inv(M)
            fd = (np.linalg.inv(M + h * E) - Minv) / h
            analytic = -Minv @ E @ Minv
            denom = np.max(np.abs(analytic))
            assert np.max(np.abs(fd - analytic)) / denom <= 1e-5
