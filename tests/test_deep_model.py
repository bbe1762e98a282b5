"""Two-layer objectives, analytic gradients, deep stacks, MLMKL identity."""

import math

import numpy as np
import pytest

from deepkern.deep_model import (
    SENTINEL,
    InnerLayer,
    LayerStack,
    TwoLayerProblem,
    block_gram,
    compose_kernel_eval,
    deep_kernel_eval,
    fit_two_layer,
    grad_objective_interp,
    grad_objective_reg,
    inner_eval,
    inner_norm_sq,
    interp_value_and_grad,
    mlmkl_equivalence_check,
    model_from_text,
    model_to_text,
    objective_general_L,
    objective_interp,
    objective_reg,
    outer_fit,
    penalty_coth,
    predict_two_layer,
    predict_via_composed_kernel,
    q_matrix,
    two_layer_stack,
)
from deepkern.kernels import (
    DiagMixtureKernel,
    DiagScaledKernel,
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
)
from deepkern.optimize import BfgsConfig, finite_diff_grad

POLY1 = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))
GAUSS_OUT = GaussKernel(1.0, 2)


def small_problem(n=4, seed=0, inner=POLY1, outer=GAUSS_OUT, y=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = rng.standard_normal(n) if y is None else np.asarray(y, dtype=float)
    return TwoLayerProblem(X, y, inner, outer)


class TestInnerEval:
    def test_zero_coefficients(self):
        X = np.array([[0.1, 0.2], [0.3, -0.5]])
        g = inner_eval(np.zeros((2, 2)), POLY1, X, np.array([0.7, 0.7]))
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_gauss_at_center(self):
        K = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        X = np.array([[0.4, -0.3]])
        g = inner_eval(np.array([[2.0, 3.0]]), K, X, X[0])
        np.testing.assert_allclose(g, [2.0, 3.0])

    def test_poly_at_center(self):
        X = np.array([[1.0, 0.0]])
        g = inner_eval(np.array([[1.0, 1.0]]), POLY1, X, np.array([1.0, 0.0]))
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
        g1 = inner_eval(c, prob.inner, prob.X, prob.X[0])
        g2 = inner_eval(c, prob.inner, prob.X, prob.X[1])
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
        assert objective_interp(np.zeros(2), prob) == pytest.approx(4.0)

    def test_zero_targets_reduce_to_norm(self):
        prob = small_problem(n=4, seed=1, y=np.zeros(4))
        rng = np.random.default_rng(4)
        for _ in range(5):
            c = rng.standard_normal(prob.n_coeffs)
            assert objective_interp(c, prob) == pytest.approx(inner_norm_sq(c, prob), rel=1e-10)

    def test_matches_dense_inverse(self):
        prob = small_problem(n=2, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = rng.standard_normal(prob.n_coeffs)
            Q = q_matrix(c, prob)
            expected = prob.y @ np.linalg.inv(Q) @ prob.y + inner_norm_sq(c, prob)
            assert objective_interp(c, prob) == pytest.approx(expected, rel=1e-10)

    def test_nonfinite_images_hit_sentinel(self):
        prob = small_problem(n=3, seed=9, outer=PolyKernel(2, 2))
        val, grad, ok = interp_value_and_grad(np.full(prob.n_coeffs, 1e200), prob)
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
        val, grad, ok = interp_value_and_grad(np.zeros(prob.n_coeffs), prob, gamma=1.0)
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
                _fd_ok(prob, lambda v: objective_interp(v, prob),
                       lambda v: grad_objective_interp(v, prob), c)

    @pytest.mark.parametrize("outer,inner", ALL_PAIRINGS)
    def test_reg_gradient_fd(self, outer, inner):
        rng = np.random.default_rng(31)
        for n in (4, 6):
            prob = small_problem(n=n, seed=30 + n, inner=inner, outer=outer)
            for _ in range(3):
                c = _draw_regular_c(prob, rng)
                _fd_ok(prob, lambda v: objective_reg(v, prob, 0.5, 0.25),
                       lambda v: grad_objective_reg(v, prob, 0.5, 0.25), c)

    def test_interp_gradient_with_penalty_fd(self):
        prob = small_problem(n=4, seed=41)
        rng = np.random.default_rng(42)
        for _ in range(5):
            c = _draw_regular_c(prob, rng)
            _fd_ok(prob, lambda v: objective_interp(v, prob, gamma=0.3),
                   lambda v: grad_objective_interp(v, prob, gamma=0.3), c)

    def test_zero_targets_gradient_is_norm_gradient(self):
        prob = small_problem(n=4, seed=43, y=np.zeros(4))
        B = block_gram(prob.inner, prob.X)
        c = np.random.default_rng(44).standard_normal(prob.n_coeffs)
        np.testing.assert_allclose(grad_objective_interp(c, prob), 2.0 * B @ c, rtol=1e-9)

    def test_reg_gradient_mu_scaling(self):
        prob = small_problem(n=5, seed=45)
        B = block_gram(prob.inner, prob.X)
        c = np.random.default_rng(46).standard_normal(prob.n_coeffs)
        diff = grad_objective_reg(c, prob, 0.5, 2.0) - grad_objective_reg(c, prob, 0.5, 0.5)
        np.testing.assert_allclose(diff, 2.0 * 1.5 * B @ c, rtol=1e-9)


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
    def test_single_point_interpolation(self):
        prob = small_problem(n=1, y=[3.0])
        np.testing.assert_allclose(outer_fit(np.zeros(2), prob), [3.0])

    def test_large_lambda_neumann_limit(self):
        prob = small_problem(n=4, seed=53)
        lam = 1e8
        alpha = outer_fit(np.random.default_rng(54).standard_normal(prob.n_coeffs), prob, lam)
        np.testing.assert_allclose(alpha, prob.y / lam, rtol=1e-6)

    def test_dense_solve_oracle(self):
        prob = small_problem(n=2, seed=55)
        c = np.random.default_rng(56).standard_normal(prob.n_coeffs)
        Q = q_matrix(c, prob)
        np.testing.assert_allclose(
            outer_fit(c, prob, lam=0.2),
            np.linalg.solve(Q + 0.2 * np.eye(2), prob.y),
            rtol=1e-10,
        )


class TestFitTwoLayer:
    def test_objective_cache_is_per_thread(self):
        import sys
        import threading

        from deepkern.deep_model import _cached_objective_pair

        f, g = _cached_objective_pair(lambda c: (float(c[0]), c + 1.0, True))
        wrong = []

        def work(k):
            for i in range(2000):
                c = np.array([float(k * 10000 + i)])
                if f(c) != c[0] or g(c)[0] != c[0] + 1.0:
                    wrong.append((k, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_threaded_regression_matches_sequential(self):
        rng = np.random.default_rng(62)
        X = rng.uniform(-1, 1, (8, 2))
        y = rng.standard_normal(8)
        config = BfgsConfig(restarts=4, max_iters=40, seed=62)
        fits = [fit_two_layer(X, y, POLY1, GAUSS_OUT, lam=1e-2, mu=1e-2,
                              config=config, threads=threads)[0]
                for threads in (1, 2)]
        np.testing.assert_array_equal(fits[0].c, fits[1].c)
        np.testing.assert_array_equal(fits[0].alpha, fits[1].alpha)
        assert fits[0].objective_value == fits[1].objective_value

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, float("nan"))])
    def test_bad_regularization_is_a_config_error(self, lam, mu):
        rng = np.random.default_rng(63)
        X = rng.uniform(-1, 1, (4, 2))
        with pytest.raises(ValueError, match="lam > 0 and mu > 0"):
            fit_two_layer(X, rng.standard_normal(4), POLY1, GAUSS_OUT, lam=lam, mu=mu,
                          config=BfgsConfig(restarts=2, max_iters=5))


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
        from deepkern.deep_model import TwoLayerModel
        alpha = np.array([0.5, -1.0, 2.0])
        model = TwoLayerModel(X=X, inner=POLY1, outer=GAUSS_OUT, c=np.zeros((3, 2)),
                              alpha=alpha, lam=0.0, mu=0.0, gamma=0.0, objective_value=0.0)
        pts = rng.uniform(-1, 1, (5, 2))
        expected = float(np.sum(alpha)) * GAUSS_OUT(np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(predict_two_layer(model, pts), expected)

    def test_evaluation_orders_agree(self):
        model, X, _ = self._fit(seed=62)
        pts = np.random.default_rng(63).uniform(-1, 1, (7, 2))
        a = predict_two_layer(model, pts)
        b = predict_via_composed_kernel(model, pts)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_compose_kernel_symmetry(self):
        model, X, _ = self._fit(seed=64)
        rng = np.random.default_rng(65)
        x, t = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        assert compose_kernel_eval(model, x, t) == compose_kernel_eval(model, t, x)


class TestLayerStack:
    def _model(self, seed=70):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (5, 2))
        y = rng.standard_normal(5)
        model, _ = fit_two_layer(X, y, POLY1, GAUSS_OUT,
                                 config=BfgsConfig(restarts=2, seed=seed))
        return model

    def test_two_layer_reduction(self):
        model = self._model()
        stack = two_layer_stack(model)
        rng = np.random.default_rng(71)
        for _ in range(10):
            x, t = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            assert deep_kernel_eval(stack, x, t) == pytest.approx(
                compose_kernel_eval(model, x, t), rel=1e-12
            )

    def test_zero_stack_value(self):
        layer = InnerLayer(POLY1, np.zeros((1, 2)), np.zeros((1, 2)))
        stack = LayerStack((layer,), GAUSS_OUT)
        assert deep_kernel_eval(stack, np.array([0.3, 0.1]), np.array([-0.2, 0.9])) == 1.0

    def test_identity_middle_layer_keeps_two_layer_value(self):
        # a Poly-1 layer realizing the exact identity map on R^2
        model = self._model(seed=72)
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        coeffs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        identity_layer = InnerLayer(POLY1, centers, coeffs)
        base = two_layer_stack(model)
        deep = LayerStack(base.inner_layers + (identity_layer,), GAUSS_OUT, model.alpha)
        rng = np.random.default_rng(73)
        for _ in range(10):
            x, t = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            assert deep_kernel_eval(deep, x, t) == pytest.approx(
                deep_kernel_eval(base, x, t), rel=1e-10
            )

    def test_dimension_chain_violation(self):
        l1 = InnerLayer(POLY1, np.zeros((1, 2)), np.zeros((1, 2)))
        k3 = DiagScaledKernel(PolyKernel(1, 3), weights=(1.0, 1.0, 1.0))
        l2 = InnerLayer(k3, np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            LayerStack((l2, l1), GaussKernel(1.0, 2))
        with pytest.raises(ValueError):
            LayerStack((l1,), GaussKernel(1.0, 3))

    def test_degrees_of_freedom(self):
        layer = InnerLayer(POLY1, np.zeros((100, 2)), np.zeros((100, 2)))
        stack = LayerStack((layer,), GAUSS_OUT)
        assert stack.degrees_of_freedom() == 300


class TestObjectiveGeneralL:
    def test_matches_regression_objective(self):
        prob = small_problem(n=5, seed=80)
        rng = np.random.default_rng(81)
        lam, mu = 0.4, 0.9
        for _ in range(5):
            c = rng.standard_normal(prob.n_coeffs)
            alpha = outer_fit(c, prob, lam)
            from deepkern.deep_model import TwoLayerModel
            model = TwoLayerModel(X=prob.X, inner=prob.inner, outer=prob.outer,
                                  c=prob.coeff_matrix(c), alpha=alpha,
                                  lam=lam, mu=mu, gamma=0.0, objective_value=0.0)
            stack = two_layer_stack(model)
            j = objective_general_L(stack, prob.X, prob.y, loss="squared", thetas=(lam, mu))
            assert j == pytest.approx(objective_reg(c, prob, lam, mu), rel=1e-10)

    def test_all_zero_is_zero(self):
        layer = InnerLayer(POLY1, np.zeros((3, 2)), np.zeros((3, 2)))
        stack = LayerStack((layer,), GAUSS_OUT, alpha=np.zeros(3))
        X = np.random.default_rng(82).uniform(-1, 1, (3, 2))
        assert objective_general_L(stack, X, np.zeros(3), loss="squared") == 0.0

    def test_indicator_loss(self):
        prob = small_problem(n=4, seed=83)
        c = np.random.default_rng(84).standard_normal(prob.n_coeffs)
        alpha = outer_fit(c, prob, lam=0.0)
        from deepkern.deep_model import TwoLayerModel
        model = TwoLayerModel(X=prob.X, inner=prob.inner, outer=prob.outer,
                              c=prob.coeff_matrix(c), alpha=alpha,
                              lam=0.0, mu=0.0, gamma=0.0, objective_value=0.0)
        stack = two_layer_stack(model)
        ok = objective_general_L(stack, prob.X, prob.y, loss="interpolation")
        assert ok < SENTINEL   # constraints hold at the interpolating alpha
        bad = objective_general_L(stack, prob.X, prob.y + 1.0, loss="interpolation")
        assert bad == SENTINEL


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


class TestSerialization:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        rng = np.random.default_rng(95)
        X = rng.uniform(-1, 1, (6, 2))
        y = rng.standard_normal(6)
        model, _ = fit_two_layer(X, y, POLY1, GAUSS_OUT,
                                 config=BfgsConfig(restarts=2, seed=95))
        text = model_to_text(model)
        clone = model_from_text(text)
        pts = rng.uniform(-1, 1, (20, 2))
        np.testing.assert_array_equal(predict_two_layer(model, pts),
                                      predict_two_layer(clone, pts))
        assert model_to_text(clone) == text

    def test_mixture_round_trip(self):
        mix = DiagMixtureKernel((GaussKernel(0.1, 2), GaussKernel(1.0, 2), PolyKernel(2, 2)))
        rng = np.random.default_rng(96)
        X = rng.uniform(-1, 1, (4, 2))
        y = rng.standard_normal(4)
        model, _ = fit_two_layer(X, y, mix, PolyKernel(1, 3), lam=0.1, mu=0.1,
                                 config=BfgsConfig(restarts=2, seed=96))
        clone = model_from_text(model_to_text(model))
        pts = rng.uniform(-1, 1, (5, 2))
        np.testing.assert_array_equal(predict_two_layer(model, pts),
                                      predict_two_layer(clone, pts))
