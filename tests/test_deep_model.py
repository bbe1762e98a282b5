"""Two-layer objectives, analytic gradients, prediction, MLMKL identity, model files."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepkern.deep_model import (
    SENTINEL,
    TwoLayerModel,
    TwoLayerProblem,
    _objective_grad,
    _objective_value,
    check_layer_shapes,
    check_regularization,
    fit_two_layer,
    load_model,
    mlmkl_equivalence_check,
    objective_pair,
    objective_reg,
    predict_two_layer,
    range_basis,
    save_model,
)
from deepkern.experiments import inner_transform_dump
from deepkern.gram import POINT_BLOCK
from deepkern.kernels import (
    DiagMixtureKernel,
    DiagScaledKernel,
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
)
from deepkern.optimize import BfgsConfig, OptimizationError, finite_diff_grad, multistart
from deepkern.single_layer import SingleLayerModel, predict_single

from oracles import block_gram, inner_norm_sq, penalty_coth, q_matrix

POLY1 = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))
GAUSS_OUT = GaussKernel(1.0, 2)


def small_problem(n=4, seed=0, inner=POLY1, outer=GAUSS_OUT, y=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal(n) if y is None else np.asarray(y, dtype=float)
    return TwoLayerProblem(X, y, inner, outer)


def _uncached(c, prob, lam, mu, gamma):
    """(value, gradient, ok) from the two stages directly, with no cache between them.

    ok=False marks the sentinel region, where stage one keeps no state.
    """
    val, state = _objective_value(c, prob, lam, mu, gamma)
    return val, _objective_grad(prob, state), state is not None


def inner_at(c, inner, X, x):
    """g(x) for the inner map with coefficients c over the centers X."""
    prob = TwoLayerProblem(X, np.zeros(len(X)), inner, GaussKernel(1.0, inner.out_dim))
    return prob.images_at(c, x)[0]


class TestInnerEval:
    def test_zero_coefficients(self):
        X = np.array([[0.1, 0.2], [0.3, -0.5]])
        g = inner_at(np.zeros((2, 2)), POLY1, X, np.array([0.7, 0.7]))
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_gauss_at_center(self):
        K = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        X = np.array([[0.4, -0.3]])
        g = inner_at(np.array([[2.0, 3.0]]), K, X, X[0])
        np.testing.assert_allclose(g, [2.0, 3.0])

    def test_poly_at_center(self):
        X = np.array([[1.0, 0.0]])
        g = inner_at(np.array([[1.0, 1.0]]), POLY1, X, np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [2.0, 2.0])


class TestQMatrix:
    def test_zero_coefficients_gauss(self):
        prob = small_problem(n=3)
        np.testing.assert_allclose(q_matrix(np.zeros(6), prob), np.ones((3, 3)))

    def test_zero_coefficients_poly(self):
        prob = small_problem(n=3, outer=PolyKernel(1, 2))
        np.testing.assert_allclose(q_matrix(np.zeros(6), prob), np.ones((3, 3)))

    def test_entries_match_reevaluation(self):
        prob = small_problem(n=2, seed=5)
        c = np.random.default_rng(6).standard_normal(4)
        Q = q_matrix(c, prob)
        g1, g2 = prob.images_at(c, prob.X[0])[0], prob.images_at(c, prob.X[1])[0]
        assert Q[0, 1] == pytest.approx(prob.outer(g1, g2), rel=1e-13)
        np.testing.assert_array_equal(Q, Q.T)


class TestInnerNorm:
    def test_zero(self):
        prob = small_problem()
        assert inner_norm_sq(np.zeros(prob.n_coeffs), prob) == 0.0

    def test_single_center_identity_gram(self):
        K = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        X = np.array([[0.0, 0.0]])
        prob = TwoLayerProblem(X, np.array([0.0]), K, GAUSS_OUT)
        assert inner_norm_sq(np.array([2.0, 3.0]), prob) == pytest.approx(13.0)

    def test_matches_block_gram(self):
        for inner in (POLY1, DiagMixtureKernel((GaussKernel(1.0, 2), PolyKernel(1, 2)))):
            prob = small_problem(n=5, seed=2, inner=inner)
            B = block_gram(inner, prob.X)
            rng = np.random.default_rng(3)
            for _ in range(10):
                c = rng.standard_normal(prob.n_coeffs)
                assert inner_norm_sq(c, prob) == pytest.approx(c @ B @ c, rel=1e-12)


class TestObjectiveInterp:
    def test_single_point_zero_coeffs(self):
        prob = small_problem(n=1, y=[2.0])
        f, _ = objective_pair(prob, 0.0, 0.0, 0.0)
        assert f(np.zeros(2)) == pytest.approx(4.0)

    def test_zero_targets_reduce_to_norm(self):
        prob = small_problem(n=4, seed=1, y=np.zeros(4))
        f, _ = objective_pair(prob, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            c = rng.standard_normal(prob.n_coeffs)
            assert f(c) == pytest.approx(inner_norm_sq(c, prob), rel=1e-10)

    def test_matches_dense_inverse(self):
        prob = small_problem(n=2, seed=7)
        f, _ = objective_pair(prob, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = rng.standard_normal(prob.n_coeffs)
            Q = q_matrix(c, prob)
            expected = prob.y @ np.linalg.inv(Q) @ prob.y + inner_norm_sq(c, prob)
            assert f(c) == pytest.approx(expected, rel=1e-10)

    def test_nonfinite_images_hit_sentinel(self):
        prob = small_problem(n=3, seed=9, outer=PolyKernel(2, 2))
        val, grad, ok = _uncached(np.full(prob.n_coeffs, 1e200), prob, 0.0, 0.0, 0.0)
        assert val == SENTINEL
        assert not ok
        np.testing.assert_array_equal(grad, np.zeros(prob.n_coeffs))


class TestPenaltyCoth:
    def test_gamma_zero_short_circuits(self):
        prob = small_problem()
        assert penalty_coth(np.zeros(prob.n_coeffs), prob, 0.0) == 0.0

    def test_unit_distance_pair(self):
        # two points mapped exactly distance^2 = 1 apart
        K = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        X = np.array([[0.0, 0.0], [50.0, 50.0]])   # kernel cross-terms vanish
        prob = TwoLayerProblem(X, np.zeros(2), K, GAUSS_OUT)
        c = np.array([[0.0, 0.0], [1.0, 0.0]])
        val = penalty_coth(c, prob, gamma=1.0)
        assert val == pytest.approx(1.0 / math.tanh(1.0), rel=1e-12)
        assert val == pytest.approx(1.313035, abs=1e-6)

    def test_asymptote_at_large_distance(self):
        K = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        X = np.array([[0.0, 0.0], [50.0, 50.0]])
        prob = TwoLayerProblem(X, np.zeros(2), K, GAUSS_OUT)
        c = np.array([[0.0, 0.0], [math.sqrt(20.0), 0.0]])   # distance^2 = 20
        gamma = 2.5
        assert abs(penalty_coth(c, prob, gamma) - gamma) <= 1e-8 * gamma

    def test_coincident_images_sentinel(self):
        prob = small_problem(n=3)
        assert penalty_coth(np.zeros(prob.n_coeffs), prob, 1.0) == SENTINEL
        val, grad, ok = _uncached(np.zeros(prob.n_coeffs), prob, 0.0, 0.0, 1.0)
        assert val == SENTINEL and not ok


class TestObjectiveReg:
    def test_single_point_scalar_arithmetic(self):
        prob = small_problem(n=1, y=[2.0])
        assert objective_reg(np.zeros(2), prob, lam=1.0, mu=1.0) == pytest.approx(2.0)

    def test_zero_targets_reduce_to_penalized_norm(self):
        prob = small_problem(n=4, seed=11, y=np.zeros(4))
        rng = np.random.default_rng(12)
        for mu in (0.5, 2.0):
            c = rng.standard_normal(prob.n_coeffs)
            assert objective_reg(c, prob, 1.0, mu) == pytest.approx(mu * inner_norm_sq(c, prob), rel=1e-10)

    def test_alpha_side_identity(self):
        # Q^lam + C^lam equals sum_j |f(z_j) - y_j|^2 + lam |f|^2 at alpha = A y
        prob = small_problem(n=5, seed=13)
        rng = np.random.default_rng(14)
        lam, mu = 0.3, 0.7
        for _ in range(10):
            c = rng.standard_normal(prob.n_coeffs)
            val = objective_reg(c, prob, lam, mu)
            Q = q_matrix(c, prob)
            alpha = np.linalg.solve(Q + lam * np.eye(len(Q)), prob.y)
            preds = Q @ alpha
            expected = (
                float(np.sum((preds - prob.y) ** 2))
                + lam * float(alpha @ Q @ alpha)
                + mu * inner_norm_sq(c, prob)
            )
            assert val == pytest.approx(expected, rel=1e-10)

    def test_requires_positive_parameters(self):
        prob = small_problem()
        with pytest.raises(ValueError):
            objective_reg(np.zeros(prob.n_coeffs), prob, 0.0, 1.0)
        with pytest.raises(ValueError):   # not a quiet evaluation of Int
            objective_reg(np.zeros(prob.n_coeffs), prob, 0.0, 0.0)


# The linear (poly-1) outer kernel spans a (D+1)-dimensional space, so its
# Q matrix is structurally singular for N > D + 1: interpolation there lives
# in the objective's infinity region and only the regression objective is
# differentiable-checkable, matching how the experiments use it.
PD_OUTER_PAIRINGS = [
    (GaussKernel(1.0, 2), POLY1),
    (GaussKernel(0.1, 2), DiagScaledKernel(PolyKernel(2, 2), weights=(1.0, 1.0))),
    (TensorMaternKernel(1, 2), POLY1),
    (TensorMaternKernel(1, 2), DiagMixtureKernel((GaussKernel(1.0, 2), PolyKernel(1, 2)))),
]
ALL_PAIRINGS = PD_OUTER_PAIRINGS + [
    (PolyKernel(1, 2), DiagMixtureKernel((GaussKernel(1.0, 2), PolyKernel(1, 2)))),
]


def _outer_kernels(D, sigmas):
    """Hypothesis strategy: a poly, Gaussian or tensor-Matern outer kernel on R^D."""
    return st.one_of(
        st.builds(PolyKernel, degree=st.integers(1, 3), dim=st.just(D)),
        st.builds(GaussKernel, sigma=st.floats(*sigmas), dim=st.just(D)),
        st.builds(TensorMaternKernel, order=st.integers(1, 3), dim=st.just(D)),
    )


def _inner_kernels(D):
    """Hypothesis strategy: a scaled or mixture diagonal inner kernel, R^2 -> R^D."""
    scalar = st.sampled_from([PolyKernel(1, 2), GaussKernel(0.8, 2), TensorMaternKernel(2, 2)])
    return st.one_of(
        st.builds(DiagScaledKernel, scalar=scalar,
                  weights=st.lists(st.floats(0.1, 3.0), min_size=D, max_size=D)),
        st.builds(DiagMixtureKernel, components=st.lists(scalar, min_size=D, max_size=D)),
    )


_FEASIBILITY_OUTER = {
    "poly1": lambda D: PolyKernel(1, D),
    "poly3": lambda D: PolyKernel(3, D),
    "gauss": lambda D: GaussKernel(1.0, D),
    "matern1": lambda D: TensorMaternKernel(1, D),
    "matern3": lambda D: TensorMaternKernel(3, D),
}
_FEASIBILITY_INNER = {"poly": PolyKernel(1, 2), "gauss": GaussKernel(0.8, 2),
                      "matern": TensorMaternKernel(2, 2)}


def _fd_ok(prob, f, g, c, rel_tol=1e-5):
    fd = finite_diff_grad(f, c, h=1e-6)
    ga = g(c)
    for i in range(len(fd)):
        if abs(fd[i]) < 1e-8:
            assert abs(ga[i] - fd[i]) <= 1e-6
        else:
            assert abs(ga[i] - fd[i]) / abs(fd[i]) <= rel_tol


def _draw_regular_c(prob, rng):
    """Coefficients whose images avoid coordinate coincidences (Matern kink)."""
    while True:
        c = rng.standard_normal(prob.n_coeffs)
        Z = prob.images(c)
        gaps = np.abs(Z[:, None, :] - Z[None, :, :])
        iu = np.triu_indices(len(Z), k=1)
        if np.min(gaps[iu[0], iu[1], :]) > 1e-3:
            return c


class TestGradients:
    @pytest.mark.parametrize("outer,inner", PD_OUTER_PAIRINGS)
    def test_interp_gradient_fd(self, outer, inner):
        rng = np.random.default_rng(21)
        for n in (4, 6):
            prob = small_problem(n=n, seed=20 + n, inner=inner, outer=outer)
            for _ in range(3):
                c = _draw_regular_c(prob, rng)
                _fd_ok(prob, *objective_pair(prob, 0.0, 0.0, 0.0), c)

    @pytest.mark.parametrize("outer,inner", ALL_PAIRINGS)
    def test_reg_gradient_fd(self, outer, inner):
        rng = np.random.default_rng(31)
        for n in (4, 6):
            prob = small_problem(n=n, seed=30 + n, inner=inner, outer=outer)
            for _ in range(3):
                c = _draw_regular_c(prob, rng)
                _fd_ok(prob, *objective_pair(prob, 0.5, 0.25, 0.0), c)

    def test_interp_gradient_with_penalty_fd(self):
        prob = small_problem(n=4, seed=41)
        rng = np.random.default_rng(42)
        for _ in range(5):
            c = _draw_regular_c(prob, rng)
            _fd_ok(prob, *objective_pair(prob, 0.0, 0.0, 0.3), c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gradient_matches_central_differences(self, data):
        """Random outer family and D, random inner kernel, Int, Int with gamma and Reg."""
        D = data.draw(st.integers(1, 5), label="D")
        outer = data.draw(_outer_kernels(D, sigmas=(0.3, 1.5)), label="outer")
        inner = data.draw(_inner_kernels(D), label="inner")
        lam, mu, gamma = data.draw(st.sampled_from(
            [(0.0, 0.0, 0.0), (0.0, 0.0, 0.3), (0.5, 0.25, 0.0)]), label="lam, mu, gamma")
        n = data.draw(st.integers(2, 6), label="N")
        if not lam and outer.family == "poly":
            # Q has rank at most the dimension of the poly feature space
            n = min(n, math.comb(D + outer.degree, D))
        seed = data.draw(st.integers(0, 2**16), label="seed")
        prob = small_problem(n=n, seed=seed, inner=inner, outer=outer)
        c = np.random.default_rng(seed).standard_normal(prob.n_coeffs)
        if outer.family == "tensor_matern":   # keep the differences off the kink
            Z = prob.images(c)
            gaps = np.abs(Z[:, None, :] - Z[None, :, :])[np.triu_indices(n, k=1)]
            assume(np.min(gaps) > 1e-3)
        # rounding in the value grows with cond(Q), and the differences divide it by h
        assume(np.linalg.cond(q_matrix(c, prob)) < 1e5)
        f, g = objective_pair(prob, lam, mu, gamma)
        val = f(c)
        assume(val != SENTINEL)
        grad = g(c)
        fd = finite_diff_grad(f, c, h=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6 * max(1.0, abs(val)))

    def test_zero_targets_gradient_is_norm_gradient(self):
        prob = small_problem(n=4, seed=43, y=np.zeros(4))
        B = block_gram(prob.inner, prob.X)
        c = np.random.default_rng(44).standard_normal(prob.n_coeffs)
        _, g = objective_pair(prob, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(g(c), 2.0 * B @ c, rtol=1e-9)

    def test_reg_gradient_mu_scaling(self):
        prob = small_problem(n=5, seed=45)
        B = block_gram(prob.inner, prob.X)
        c = np.random.default_rng(46).standard_normal(prob.n_coeffs)
        _, g_strong = objective_pair(prob, 0.5, 2.0, 0.0)
        _, g_weak = objective_pair(prob, 0.5, 0.5, 0.0)
        diff = g_strong(c) - g_weak(c)
        np.testing.assert_allclose(diff, 2.0 * 1.5 * B @ c, rtol=1e-9)


def _range_inner_kernels(D):
    """Hypothesis strategy: a poly, Gaussian or mixture diagonal inner kernel, R^2 -> R^D."""
    poly = st.builds(PolyKernel, degree=st.integers(1, 3), dim=st.just(2))
    gauss = st.builds(GaussKernel, sigma=st.sampled_from([0.1, 0.8, 3.0, 10.0]), dim=st.just(2))
    weights = st.lists(st.floats(0.1, 3.0), min_size=D, max_size=D)
    return st.one_of(
        st.builds(DiagScaledKernel, scalar=poly, weights=weights),
        st.builds(DiagScaledKernel, scalar=gauss, weights=weights),
        st.builds(DiagMixtureKernel,
                  components=st.lists(st.one_of(poly, gauss), min_size=D, max_size=D)),
    )


class TestRangeBasis:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_objective_sees_only_the_range(self, data):
        """U is orthonormal, g lies in range(U), and f ignores moves orthogonal to U."""
        D = data.draw(st.integers(1, 4), label="D")
        n = data.draw(st.integers(1, 8), label="N")
        inner = data.draw(_range_inner_kernels(D), label="inner")
        outer = data.draw(_outer_kernels(D, sigmas=(0.3, 1.5)), label="outer")
        lam, mu, gamma = data.draw(st.sampled_from(
            [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.3, 0.1, 0.0)]), label="lam, mu, gamma")
        if not lam and outer.family == "poly":
            # Q has rank at most the dimension of the poly feature space
            n = min(n, math.comb(D + outer.degree, D))
        n_extra = data.draw(st.integers(0, 4), label="extra centers")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        X = rng.uniform(-1, 1, (n, 2))
        extra = rng.uniform(-1, 1, (n_extra, 2)) if n_extra else None
        prob = TwoLayerProblem(X, rng.standard_normal(n), inner, outer, extra_centers=extra)
        U = range_basis(prob)
        r = U.shape[1]
        np.testing.assert_allclose(U.T @ U, np.eye(r), rtol=0, atol=1e-12)

        c = rng.standard_normal(prob.n_coeffs)
        # as in the gradient test: rounding in f and g grows with cond(Q), and
        # mapped points off the Matern kink and the penalty's pole
        assume(np.linalg.cond(q_matrix(c, prob)) < 1e5)
        Z = prob.images(c)
        gaps = np.abs(Z[:, None, :] - Z[None, :, :])[np.triu_indices(n, k=1)]
        assume(n == 1 or np.min(gaps) > 1e-3)
        f, g = objective_pair(prob, lam, mu, gamma)
        val = f(c)
        assume(val != SENTINEL)
        grad = g(c)
        # what the basis drops is below RANGE_CUTOFF times a block's largest
        # eigenvalue, not zero: over 14,000 random draws the worst was 9e-10 |g|
        # here and 1.4e-9 |f| below, both with Gaussian sigma = 10 blocks
        assert np.linalg.norm(grad - U @ (U.T @ grad)) <= 1e-7 * np.linalg.norm(grad)
        if r < prob.n_coeffs:
            # an orthonormal basis of the complement, and a move there as long as c
            W = np.linalg.svd(np.eye(prob.n_coeffs) - U @ U.T)[0][:, :prob.n_coeffs - r]
            step = W @ rng.standard_normal(prob.n_coeffs - r)
            step *= np.linalg.norm(c) / np.linalg.norm(step)
            assert f(c + step) == pytest.approx(val, rel=1e-7)

    def test_ranks_of_the_paper_inner_kernels(self):
        """Poly-1 outputs are affine (rank 3 each); a Gaussian block at N = 12 is full rank."""
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (12, 2))
        poly = TwoLayerProblem(X, np.zeros(12), POLY1, GAUSS_OUT)
        assert range_basis(poly).shape == (24, 6)
        gauss = TwoLayerProblem(X, np.zeros(12), DiagScaledKernel(GaussKernel(0.8, 2), (1.0, 1.0)),
                                GAUSS_OUT)
        assert range_basis(gauss).shape == (24, 24)


class TestInnerGramStack:
    @pytest.mark.parametrize("inner", [POLY1, DiagMixtureKernel((GaussKernel(1.0, 2), PolyKernel(1, 2)))])
    def test_problem_builds_one_stack(self, inner, monkeypatch):
        calls = []
        diag_cross = type(inner).diag_cross

        def counted(self, X, Z):
            calls.append((len(X), len(Z)))
            return diag_cross(self, X, Z)

        monkeypatch.setattr(type(inner), "diag_cross", counted)
        X = np.random.default_rng(3).uniform(-1, 1, (6, 2))
        prob = TwoLayerProblem(X, np.zeros(6), inner, GAUSS_OUT, extra_centers=X[:2] + 0.5)
        assert calls == [(8, 8)]
        assert prob.B.shape == (2, 8, 8)
        np.testing.assert_array_equal(prob.B, np.transpose(prob.B, (0, 2, 1)))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_images_match_the_rectangular_formula(self, data):
        """The data rows of Kblock c are sum_j Kmat(center_j, x_i) c_j, with or without extra centers."""
        D = data.draw(st.integers(1, 3), label="D")
        n = data.draw(st.integers(1, 8), label="N")
        n_extra = data.draw(st.integers(0, 4), label="extra centers")
        inner = data.draw(_range_inner_kernels(D), label="inner")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        X = rng.uniform(-1, 1, (n, 2))
        extra = rng.uniform(-1, 1, (n_extra, 2)) if n_extra else None
        prob = TwoLayerProblem(X, np.zeros(n), inner, GaussKernel(1.0, D), extra_centers=extra)
        cm = rng.standard_normal((prob.n_centers, D))
        want = np.einsum("dji,jd->id", inner.diag_cross(prob.centers, X), cm)
        got = prob.images(cm.ravel())
        assert got.shape == (n, D)
        scale = np.einsum("dji,jd->id", np.abs(inner.diag_cross(prob.centers, X)), np.abs(cm))
        assert np.all(np.abs(got - want) <= 1e-13 * scale + 1e-300)


class TestCoercivity:
    def test_regression_objective_floor(self):
        # a strictly PD inner kernel gives a genuinely positive floor
        inner = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        prob = small_problem(n=6, seed=51, inner=inner)
        B = block_gram(inner, prob.X)
        lam_min = float(np.min(np.linalg.eigvalsh(B)))
        assert lam_min > 0.0
        rng = np.random.default_rng(52)
        mu = 0.8
        for _ in range(50):
            c = rng.standard_normal(prob.n_coeffs) * rng.uniform(0.1, 5.0)
            val = objective_reg(c, prob, lam=0.3, mu=mu)
            assert val >= mu * lam_min * float(c @ c) - 1e-9


class TestOuterFit:
    """The outer coefficients alpha = (Q(c) + lam I)^{-1} y: stage one's, and a fit's."""

    def test_single_point_interpolation(self):
        prob = small_problem(n=1, y=[3.0])
        model, _ = fit_two_layer(prob.X, prob.y, POLY1, GAUSS_OUT,
                                 config=BfgsConfig(restarts=2, max_iters=20))
        np.testing.assert_allclose(model.alpha, [3.0])

    def test_large_lambda_neumann_limit(self):
        prob = small_problem(n=4, seed=53)
        lam = 1e8
        c = np.random.default_rng(54).standard_normal(prob.n_coeffs)
        _, (_, alpha, *_) = _objective_value(c, prob, lam, 1.0, 0.0)
        np.testing.assert_allclose(alpha, prob.y / lam, rtol=1e-6)

    def test_dense_solve_oracle(self):
        prob = small_problem(n=2, seed=55)
        model, result = fit_two_layer(prob.X, prob.y, POLY1, GAUSS_OUT, lam=0.2, mu=0.1,
                                      config=BfgsConfig(restarts=2, max_iters=50, seed=56))
        Q = q_matrix(result.x, prob)
        np.testing.assert_allclose(
            model.alpha,
            np.linalg.solve(Q + 0.2 * np.eye(2), prob.y),
            rtol=1e-10,
        )


class TestFitTwoLayer:
    def test_threads_argument_runs_every_evaluation_in_the_calling_thread(self, monkeypatch):
        """fit_two_layer and cross_validate accept threads=2, evaluate the objective
        only in the caller's thread, and give threads=1's results bit for bit."""
        import threading

        import deepkern.deep_model as dm
        from deepkern.experiments import CvPlan, Dataset, cross_validate

        seen = set()
        objective_value = dm._objective_value

        def recording(*args):
            seen.add(threading.get_ident())
            return objective_value(*args)

        monkeypatch.setattr(dm, "_objective_value", recording)
        rng = np.random.default_rng(66)
        X = rng.uniform(-1, 1, (8, 2))
        y = rng.standard_normal(8)
        config = BfgsConfig(restarts=4, max_iters=15, seed=66)
        fits = [fit_two_layer(X, y, POLY1, GAUSS_OUT, lam=1e-2, mu=1e-2, config=config, threads=t)
                for t in (1, 2)]
        plan = CvPlan(folds=2, lambda_grid=(1e-2, 1.0), mu_grid=(1e-2,), seed=66)
        cvs = [cross_validate(Dataset(X=X, y=y), POLY1, GAUSS_OUT, plan, config, threads=t)
               for t in (1, 2)]
        assert seen == {threading.get_ident()}
        (m1, r1), (m2, r2) = fits
        assert m1.c.tobytes() == m2.c.tobytes()
        assert m1.alpha.tobytes() == m2.alpha.tobytes()
        assert (r1.restart_index, r1.iterations) == (r2.restart_index, r2.iterations)
        assert cvs[0].fold_scores.tobytes() == cvs[1].fold_scores.tobytes()
        assert (cvs[0].best_lambda, cvs[0].best_mu) == (cvs[1].best_lambda, cvs[1].best_mu)

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (1e-2, 1e-2, 0.0)]),
        outer=st.sampled_from(sorted(_FEASIBILITY_OUTER)),
        D=st.integers(1, 3),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        max_iters=st.just(15),
    )
    # the fixed Reg case: N = 8 on the Gaussian outer kernel, 40 iterations
    @example(mode=(1e-2, 1e-2, 0.0), outer="gauss", D=2, n=8, seed=62, max_iters=40)
    def test_threaded_regression_matches_sequential(self, mode, outer, D, n, seed, max_iters):
        """Int, Int with gamma and Reg: threads=2 gives threads=1's fit bit for bit, or both fail."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (n, 2))
        y = rng.standard_normal(n)
        inner = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0,) * D)
        lam, mu, gamma = mode
        config = BfgsConfig(restarts=4, max_iters=max_iters, seed=seed)
        fits = []
        for threads in (1, 2):
            try:
                fits.append(fit_two_layer(X, y, inner, _FEASIBILITY_OUTER[outer](D), lam=lam,
                                          mu=mu, gamma=gamma, config=config, threads=threads))
            except OptimizationError:
                fits.append(None)
        if None in fits:
            assert fits == [None, None]
            return
        (m1, r1), (m2, r2) = fits
        assert m1.c.tobytes() == m2.c.tobytes()
        assert m1.alpha.tobytes() == m2.alpha.tobytes()
        assert np.float64(m1.objective_value).tobytes() == np.float64(m2.objective_value).tobytes()
        assert (r1.restart_index, r1.iterations) == (r2.restart_index, r2.iterations)

    def test_range_space_fit_returns_its_evaluated_point(self):
        """A fit on a rank-deficient problem reports f at the c it returns, bit for bit."""
        rng = np.random.default_rng(65)
        X = rng.uniform(-1, 1, (12, 2))
        y = rng.standard_normal(12)
        inner = DiagMixtureKernel((GaussKernel(1.0, 2), PolyKernel(1, 2), PolyKernel(2, 2)))
        outer = TensorMaternKernel(1, 3)
        config = BfgsConfig(restarts=2, max_iters=30, seed=65)
        model, result = fit_two_layer(X, y, inner, outer, lam=1e-3, mu=1e-3, config=config)
        prob = TwoLayerProblem(X, y, inner, outer)
        U = range_basis(prob)
        assert U.shape[1] < prob.n_coeffs and result.iterations > 0
        f, _ = objective_pair(prob, 1e-3, 1e-3, 0.0)
        assert result.objective == f(result.x)
        assert objective_reg(model.c.ravel(), prob, 1e-3, 1e-3) == result.objective
        # the returned c is the restart's start plus a range move
        x0 = np.random.default_rng(config.seed ^ result.restart_index).standard_normal(prob.n_coeffs)
        move = result.x - x0
        assert np.linalg.norm(move - U @ (U.T @ move)) <= 1e-12 * np.linalg.norm(move)

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, float("nan")),
                                         (math.inf, 1.0), (1.0, math.inf)])
    def test_bad_regularization_is_a_config_error(self, lam, mu):
        rng = np.random.default_rng(63)
        X = rng.uniform(-1, 1, (4, 2))
        with pytest.raises(ValueError, match="lam > 0 and mu > 0"):
            fit_two_layer(X, rng.standard_normal(4), POLY1, GAUSS_OUT, lam=lam, mu=mu,
                          config=BfgsConfig(restarts=2, max_iters=5))


class TestInputRules:
    """The (lam, mu, gamma) rule and the layer-shape rule, each raised from one function."""

    @pytest.mark.parametrize("gamma", [0.5, -0.5, math.inf, math.nan])
    def test_regression_refuses_any_penalty(self, gamma):
        with pytest.raises(ValueError, match="regression requires gamma = 0"):
            check_regularization(0.1, 0.1, gamma)
        with pytest.raises(ValueError, match="regression requires gamma = 0"):
            objective_pair(small_problem(), 0.1, 0.1, gamma)

    @pytest.mark.parametrize("gamma", [-0.5, math.inf, math.nan])
    def test_interpolation_needs_a_finite_nonnegative_penalty(self, gamma):
        with pytest.raises(ValueError, match="interpolation requires a finite gamma >= 0"):
            objective_pair(small_problem(), 0.0, 0.0, gamma)

    @pytest.mark.parametrize("X, inner, outer, message", [
        (np.zeros((3, 3)), POLY1, GAUSS_OUT, r"X has shape \(3, 3\), expected \(n, 2\)"),
        (np.zeros((0, 2)), POLY1, GAUSS_OUT, r"X has shape \(0, 2\)"),
        (np.zeros(2), POLY1, GAUSS_OUT, r"X has shape \(2,\)"),
        (np.zeros((3, 2)), POLY1, GaussKernel(1.0, 3),
         "outer kernel dimension 3 does not match inner output dimension 2"),
    ])
    def test_layer_shapes(self, X, inner, outer, message):
        with pytest.raises(ValueError, match=message):
            check_layer_shapes(X, inner, outer)
        if X.ndim == 2:   # the problem checks the same rule before it builds its Gram stack
            with pytest.raises(ValueError, match=message):
                TwoLayerProblem(X, np.zeros(len(X)), inner, outer)


class _CountingGauss(GaussKernel):
    """Gaussian outer kernel that counts its Gram and derivative evaluations."""

    def __init__(self, sigma, dim):
        super().__init__(sigma, dim)
        object.__setattr__(self, "calls", {"cross": 0, "vjp": 0, "grad2_cross": 0})

    def cross(self, X, Z):
        self.calls["cross"] += 1
        return super().cross(X, Z)

    def vjp(self, Z, K, w):
        self.calls["vjp"] += 1
        return super().vjp(Z, K, w)

    def grad2_cross(self, X, Z):
        self.calls["grad2_cross"] += 1
        return super().grad2_cross(X, Z)


class TestLazyGradient:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cached_pair_matches_core(self, data):
        D = data.draw(st.integers(1, 4), label="D")
        n = data.draw(st.integers(1, 8), label="N")
        outer = data.draw(_outer_kernels(D, sigmas=(0.2, 3.0)), label="outer")
        inner = data.draw(_inner_kernels(D), label="inner")
        lam, mu, gamma = data.draw(st.sampled_from(
            [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.3, 0.1, 0.0)]), label="lam, mu, gamma")
        prob = small_problem(n=n, seed=data.draw(st.integers(0, 2**16), label="seed"),
                             inner=inner, outer=outer)
        coeffs = arrays(float, (prob.n_coeffs,), elements=st.floats(-2.0, 2.0))
        c1 = data.draw(coeffs, label="c1")
        if data.draw(st.booleans(), label="sentinel"):
            c1 = 1e200 * c1
        c2 = data.draw(coeffs, label="c2")
        order = data.draw(st.sampled_from(["f, g", "g first", "f only, then move"]), label="order")

        f, g = objective_pair(prob, lam, mu, gamma)
        if order == "f, g":
            got = [(c1, f(c1), g(c1))]
        elif order == "g first":
            g1 = g(c1)
            got = [(c1, f(c1), g1)]
        else:   # a value-only evaluation, then a move away and back
            v1, v2 = f(c1), f(c2)
            got = [(c2, v2, g(c2)), (c1, v1, g(c1))]
        for c, val, grad in got:
            w_val, w_grad, _ = _uncached(c, prob, lam, mu, gamma)
            # bitwise, so a NaN value would compare too
            assert np.float64(val).tobytes() == np.float64(w_val).tobytes()
            assert grad.tobytes() == w_grad.tobytes()

    def test_gradient_only_where_requested(self):
        outer = _CountingGauss(1.0, 2)
        prob = small_problem(n=6, seed=71, outer=outer)
        f, g = objective_pair(prob, 0.0, 0.0, 0.0)
        g_points = set()

        def g_logged(c):
            g_points.add(c.tobytes())
            return g(c)

        multistart(f, g_logged, prob.n_coeffs, BfgsConfig(restarts=4, max_iters=40, seed=71))
        assert outer.calls["vjp"] == len(g_points)
        assert outer.calls["vjp"] < outer.calls["cross"]
        assert outer.calls["grad2_cross"] == 0


class TestFeasibility:
    @settings(max_examples=150, deadline=None)
    @given(
        outer=st.sampled_from(sorted(_FEASIBILITY_OUTER)),
        inner=st.sampled_from(sorted(_FEASIBILITY_INNER)),
        D=st.integers(1, 3),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.3, 0.1, 0.0)]),
        scale=st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-320, 300)),
        unit=st.lists(st.floats(-2.0, 2.0), min_size=18, max_size=18),
    )
    # an overflowed inner norm with finite images
    @example(outer="gauss", inner="poly", D=2, n=3, seed=0, mode=(0.0, 0.0, 0.0),
             scale=1e200, unit=[1.0] * 18)
    # images 1e-158 apart: the coth of their subnormal squared distance overflows
    @example(outer="poly1", inner="poly", D=1, n=3, seed=0, mode=(0.0, 0.0, 0.5),
             scale=1.05954229e-158, unit=[1.0] * 18)
    # images 1e-100 apart: the coth is finite, its derivative csch^2 overflows
    @example(outer="poly1", inner="poly", D=1, n=3, seed=0, mode=(0.0, 0.0, 0.5),
             scale=1e-100, unit=[1.0] * 18)
    def test_ok_means_finite_value_and_gradient(self, outer, inner, D, n, seed, mode, scale, unit):
        prob = small_problem(n=n, seed=seed, outer=_FEASIBILITY_OUTER[outer](D),
                             inner=DiagScaledKernel(_FEASIBILITY_INNER[inner], weights=(1.0,) * D))
        c = scale * np.array(unit[:prob.n_coeffs])
        lam, mu, gamma = mode
        val, grad, ok = _uncached(c, prob, lam, mu, gamma)
        if ok:
            assert math.isfinite(val)
            assert np.all(np.isfinite(grad))
        else:
            assert val == SENTINEL
            np.testing.assert_array_equal(grad, np.zeros(prob.n_coeffs))


class TestPredictTwoLayer:
    def _fit(self, n=8, seed=60):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (n, 2))
        y = rng.standard_normal(n)
        model, _ = fit_two_layer(X, y, POLY1, GAUSS_OUT,
                                 config=BfgsConfig(restarts=4, seed=seed))
        return model, X, y

    def test_interpolation_reproduces_training_targets(self):
        model, X, y = self._fit()
        preds = predict_two_layer(model, X)
        assert np.max(np.abs(preds - y)) <= 1e-6 * (np.max(np.abs(y)) + 1.0)

    def test_zero_coefficients_constant_prediction(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(-1, 1, (3, 2))
        alpha = np.array([0.5, -1.0, 2.0])
        model = TwoLayerModel(X=X, inner=POLY1, outer=GAUSS_OUT, c=np.zeros((3, 2)),
                              alpha=alpha, lam=0.0, mu=0.0, gamma=0.0, objective_value=0.0)
        pts = rng.uniform(-1, 1, (5, 2))
        expected = float(np.sum(alpha)) * GAUSS_OUT(np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(predict_two_layer(model, pts), expected)

    def test_evaluation_orders_agree(self):
        # the composed-kernel expansion sum_j alpha_j K(g(x_j), g(t)), pair by pair
        model, X, _ = self._fit(seed=62)
        prob = model.problem()
        pts = np.random.default_rng(63).uniform(-1, 1, (7, 2))
        a = predict_two_layer(model, pts)
        b = [sum(aj * model.outer(prob.images_at(model.c, xj)[0], prob.images_at(model.c, t)[0])
                 for aj, xj in zip(model.alpha, model.X))
             for t in pts]
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_compose_kernel_symmetry(self):
        model, X, _ = self._fit(seed=64)
        prob = model.problem()
        rng = np.random.default_rng(65)
        gx, gt = (prob.images_at(model.c, rng.uniform(-1, 1, 2))[0] for _ in range(2))
        assert model.outer(gx, gt) == model.outer(gt, gx)


# the linout setting's mixture inner kernel, D = 5
LINOUT_MIXTURE = DiagMixtureKernel(components=(
    GaussKernel(0.1, 2), GaussKernel(1.0, 2), GaussKernel(10.0, 2), PolyKernel(1, 2), PolyKernel(2, 2),
))
BLOCK_OUTERS = {
    "poly": PolyKernel(2, 5),
    "gauss": GaussKernel(1.0, 5),
    "tensor_matern": TensorMaternKernel(order=1, dim=5),
}


def mixture_model(outer, n=20, seed=0):
    """A two-layer model on the linout mixture; positive alpha, so no sum cancels."""
    rng = np.random.default_rng(seed)
    D = LINOUT_MIXTURE.out_dim
    return TwoLayerModel(X=rng.uniform(-1, 1, (n, 2)), inner=LINOUT_MIXTURE, outer=outer,
                         c=0.1 * rng.standard_normal((n, D)), alpha=rng.uniform(0.5, 1.5, n),
                         lam=0.1, mu=0.1, gamma=0.0, objective_value=1.0)


def baseline_model(family, n=20, seed=2):
    """A single-layer expansion with the outer family on the 2-d data domain."""
    rng = np.random.default_rng(seed)
    return SingleLayerModel(kernel=dataclasses.replace(BLOCK_OUTERS[family], dim=2),
                            centers=rng.uniform(-1, 1, (n, 2)), alpha=rng.uniform(0.5, 1.5, n))


def one_shot_images(model, pts):
    """g at all points in one evaluation: the (D, N, m) stack contracted with c."""
    return np.einsum("djm,jd->md", model.inner.diag_cross(model.X, pts), model.c)


def one_shot_two_layer(model, pts):
    z_pts = one_shot_images(model, pts)
    return model.outer.cross(one_shot_images(model, model.X), z_pts).T @ model.alpha


def one_shot_single(model, pts):
    return model.kernel.cross(model.centers, pts).T @ model.alpha


def assert_close(got, ref):
    # blocking may change the last bits of a BLAS reduction, not more; atol
    # covers the entries of g, which are sums of mixed sign
    scale = float(np.max(np.abs(ref))) if np.size(ref) else 0.0
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)


# the edges of one block and of 16 blocks
BLOCK_SIZES = [0, 1, 7] + [k * POINT_BLOCK + r for k, r in (
    (1, -1), (1, 0), (1, 1), (1, 8), (2, 3), (16, -1), (16, 0), (16, 1), (16, 8), (32, 3))]


def block_points(m, seed=1):
    return np.random.default_rng(seed).uniform(-1, 1, (m, 2))


class TestBlockedReadPaths:
    """The three m-point read paths against their one-shot formulas, across block edges."""

    @pytest.mark.parametrize("family", sorted(BLOCK_OUTERS))
    @pytest.mark.parametrize("m", BLOCK_SIZES)
    def test_predict_two_layer(self, family, m):
        model = mixture_model(BLOCK_OUTERS[family])
        pts = block_points(m)
        got = predict_two_layer(model, pts)
        assert isinstance(got, np.ndarray) and got.shape == (m,)
        assert_close(got, one_shot_two_layer(model, pts))

    @pytest.mark.parametrize("family", sorted(BLOCK_OUTERS))
    @pytest.mark.parametrize("m", BLOCK_SIZES)
    def test_predict_single(self, family, m):
        baseline = baseline_model(family)
        pts = block_points(m)
        got = predict_single(baseline, pts)
        assert isinstance(got, np.ndarray) and got.shape == (m,)
        assert_close(got, one_shot_single(baseline, pts))

    @pytest.mark.parametrize("m", BLOCK_SIZES)
    def test_inner_transform_dump(self, m):
        model = mixture_model(BLOCK_OUTERS["tensor_matern"])
        pts = block_points(m)
        rows = inner_transform_dump(model, SimpleNamespace(points=lambda: pts))
        assert rows.shape == (m, 2 + LINOUT_MIXTURE.out_dim)
        np.testing.assert_array_equal(rows[:, :2], pts)
        assert_close(rows[:, 2:], one_shot_images(model, pts))

    @pytest.mark.parametrize("family", sorted(BLOCK_OUTERS))
    def test_one_dimensional_point_is_one_row(self, family):
        # a 1-D point is the (1, d) array of that point: a 1-element array, bit for bit
        model, baseline = mixture_model(BLOCK_OUTERS[family]), baseline_model(family)
        pt = np.array([0.3, -0.2])
        for predict, m in ((predict_two_layer, model), (predict_single, baseline)):
            got, row = predict(m, pt), predict(m, pt[None, :])
            assert isinstance(got, np.ndarray) and got.shape == (1,)
            assert got.tobytes() == row.tobytes()


def _traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPredictionMemory:
    def test_peak_does_not_grow_with_the_number_of_points(self):
        # one-shot evaluation holds (D, N, m) and (N, m, D) temporaries, so its
        # peak grows about eightfold from one block to eight
        model = mixture_model(BLOCK_OUTERS["tensor_matern"])
        one, eight = block_points(POINT_BLOCK), block_points(8 * POINT_BLOCK)
        predict_two_layer(model, one)   # warm up, so lazy imports are not traced
        peak_one = _traced_peak(predict_two_layer, model, one)
        peak_eight = _traced_peak(predict_two_layer, model, eight)
        assert peak_eight <= 1.5 * peak_one, (peak_one, peak_eight)

    def test_blocks_stay_cache_sized_at_n100_d5(self):
        # a block's largest temporary is the (D, N, rows) inner stack; at
        # N = 100, D = 5 this prediction peaks at 2.5 MB with 256-row blocks,
        # and the 40,401-point grid peaked at 33.4 MB with 4096-row blocks,
        # whose memory a fresh process faulted in again for every block
        model = mixture_model(BLOCK_OUTERS["tensor_matern"], n=100)
        pts = block_points(8 * POINT_BLOCK)
        predict_two_layer(model, pts)   # warm up, so lazy imports are not traced
        peak = _traced_peak(predict_two_layer, model, pts)
        assert peak <= 4_000_000, peak


class TestMlmkl:
    def _setup(self, seed=90, n=6):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (n, 2))
        outer = GaussKernel(1.0, 1)
        inner = PolyKernel(1, 2)
        return rng, X, outer, inner

    def test_zero_nu(self):
        rng, X, outer, inner = self._setup()
        lhs, rhs = mlmkl_equivalence_check(outer, inner, X, np.zeros(len(X)),
                                           rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        assert lhs == 1.0 and rhs == 1.0

    def test_coincident_arguments(self):
        rng, X, outer, inner = self._setup(seed=91)
        x = rng.uniform(-1, 1, 2)
        lhs, rhs = mlmkl_equivalence_check(outer, inner, X, rng.standard_normal(len(X)), x, x)
        assert lhs == 1.0 and rhs == 1.0

    def test_random_draws_agree(self):
        rng, X, outer, inner = self._setup(seed=92)
        for _ in range(100):
            nu = rng.standard_normal(len(X))
            x, t = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            lhs, rhs = mlmkl_equivalence_check(outer, inner, X, nu, x, t)
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)

    def test_matern_outer_also_radial(self):
        rng, X, _, inner = self._setup(seed=93)
        outer = TensorMaternKernel(1, 1)
        nu = rng.standard_normal(len(X))
        x, t = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        lhs, rhs = mlmkl_equivalence_check(outer, inner, X, nu, x, t)
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)

    def test_nonradial_outer_rejected(self):
        rng, X, _, inner = self._setup(seed=94)
        with pytest.raises(ValueError):
            mlmkl_equivalence_check(PolyKernel(1, 1), inner, X, np.zeros(len(X)),
                                    rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))


def _round_trip(model, path):
    """(reloaded model, first file text, text of the reloaded model saved again)."""
    save_model(model, path)
    text = path.read_text()
    clone = load_model(path)
    save_model(clone, path)
    return clone, text, path.read_text()


class TestSerialization:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        rng = np.random.default_rng(95)
        X = rng.uniform(-1, 1, (6, 2))
        y = rng.standard_normal(6)
        model, _ = fit_two_layer(X, y, POLY1, GAUSS_OUT,
                                 config=BfgsConfig(restarts=2, seed=95))
        clone, text, again = _round_trip(model, tmp_path / "model.json")
        pts = rng.uniform(-1, 1, (20, 2))
        np.testing.assert_array_equal(predict_two_layer(model, pts),
                                      predict_two_layer(clone, pts))
        assert again == text

    def test_mixture_round_trip(self, tmp_path):
        mix = DiagMixtureKernel((GaussKernel(0.1, 2), GaussKernel(1.0, 2), PolyKernel(2, 2)))
        rng = np.random.default_rng(96)
        X = rng.uniform(-1, 1, (4, 2))
        y = rng.standard_normal(4)
        model, _ = fit_two_layer(X, y, mix, PolyKernel(1, 3), lam=0.1, mu=0.1,
                                 config=BfgsConfig(restarts=2, seed=96))
        clone, _, _ = _round_trip(model, tmp_path / "model.json")
        pts = rng.uniform(-1, 1, (5, 2))
        np.testing.assert_array_equal(predict_two_layer(model, pts),
                                      predict_two_layer(clone, pts))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        d = data.draw(st.integers(1, 3), label="d")
        D = data.draw(st.integers(1, 4), label="D")
        n = data.draw(st.integers(1, 8), label="N")
        scalar = st.one_of(
            st.builds(PolyKernel, degree=st.integers(1, 3), dim=st.just(d)),
            st.builds(GaussKernel, sigma=st.floats(0.05, 5.0), dim=st.just(d)),
            st.builds(TensorMaternKernel, order=st.integers(1, 3), dim=st.just(d)),
        )
        inner = data.draw(st.one_of(
            st.builds(DiagScaledKernel, scalar=scalar,
                      weights=st.lists(st.floats(1e-3, 10.0), min_size=D, max_size=D)),
            st.builds(DiagMixtureKernel, components=st.lists(scalar, min_size=D, max_size=D)),
        ), label="inner")
        outer = data.draw(st.sampled_from(
            [PolyKernel(2, D), GaussKernel(0.7, D), TensorMaternKernel(1, D)]), label="outer")
        coeffs = st.floats(-10.0, 10.0)
        model = TwoLayerModel(
            X=data.draw(arrays(float, (n, d), elements=st.floats(-1.0, 1.0)), label="X"),
            inner=inner, outer=outer,
            c=data.draw(arrays(float, (n, D), elements=coeffs), label="c"),
            alpha=data.draw(arrays(float, (n,), elements=coeffs), label="alpha"),
            lam=data.draw(st.floats(0.0, 1.0)), mu=data.draw(st.floats(0.0, 1.0)),
            gamma=0.0, objective_value=data.draw(st.floats(0.0, 1e12)))
        clone, text, again = _round_trip(model, tmp_path_factory.mktemp("rt") / "model.json")
        assert again == text
        pts = data.draw(arrays(float, (5, d), elements=st.floats(-2.0, 2.0)), label="points")
        np.testing.assert_array_equal(predict_two_layer(model, pts), predict_two_layer(clone, pts))
