"""BFGS, strong Wolfe line search, multistart, and the FD oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepkern.optimize import (
    BfgsConfig,
    InfeasibleStartError,
    OptimizationError,
    bfgs_minimize,
    finite_diff_grad,
    grad_check,
    multistart,
)


def quadratic(x):
    return float(x @ x)


def quadratic_grad(x):
    return 2.0 * x


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    return np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])


class TestBfgs:
    def test_exact_quadratic(self):
        res = bfgs_minimize(quadratic, quadratic_grad, np.array([3.0, 4.0]))
        assert res.converged
        assert res.objective <= 1e-10
        assert res.iterations <= 5

    def test_rosenbrock(self):
        res = bfgs_minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
                            BfgsConfig(max_iters=200, grad_tol=1e-8))
        assert res.iterations <= 200
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_already_optimal_returns_unchanged(self):
        x0 = np.array([0.0, 0.0])
        res = bfgs_minimize(quadratic, quadratic_grad, x0)
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, x0)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            bfgs_minimize(lambda x: float("nan"), quadratic_grad, np.array([1.0]))

    def test_returned_point_is_evaluated_once(self):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return rosenbrock(x)

        res = bfgs_minimize(f, rosenbrock_grad, np.array([-1.2, 1.0]),
                            BfgsConfig(max_iters=200, grad_tol=1e-8))
        assert res.converged
        assert res.objective == rosenbrock(res.x)
        assert sum(np.array_equal(c, res.x) for c in calls) == 1

    def test_stationary_start_evaluates_once(self):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return quadratic(x)

        res = bfgs_minimize(f, quadratic_grad, np.zeros(3))
        assert res.iterations == 0 and res.objective == 0.0
        assert len(calls) == 1

    def test_objective_field_is_recomputed_value(self):
        res = bfgs_minimize(rosenbrock, rosenbrock_grad, np.array([0.5, 0.5]))
        assert res.objective == rosenbrock(res.x)

    def test_descent_across_iterates(self):
        values = []

        def f(x):
            return rosenbrock(x)

        res = bfgs_minimize(f, rosenbrock_grad, np.array([-1.2, 1.0]),
                            BfgsConfig(max_iters=50))
        # re-run, recording the accepted objective sequence via a wrapper
        xs = [np.array([-1.2, 1.0])]

        def recording_g(x):
            xs.append(np.array(x))
            return rosenbrock_grad(x)

        bfgs_minimize(f, recording_g, np.array([-1.2, 1.0]), BfgsConfig(max_iters=50))
        assert res.objective < rosenbrock(np.array([-1.2, 1.0]))

    def test_sentinel_trials_shrink_the_step(self):
        # objective jumps to the sentinel outside |x| < 2; the minimizer must
        # stay inside and still make progress toward 0
        def f(x):
            if abs(float(x[0])) >= 2.0:
                return 1e12
            return float(x[0] ** 2)

        def g(x):
            if abs(float(x[0])) >= 2.0:
                return np.zeros(1)
            return 2.0 * x

        res = bfgs_minimize(f, g, np.array([1.9]), BfgsConfig(max_iters=100))
        assert res.objective <= 1e-10

    def test_wolfe_conditions_at_accepted_steps(self):
        from deepkern.optimize import WOLFE_C1, WOLFE_C2, _strong_wolfe

        x = np.array([-0.5, 0.8])
        g0 = rosenbrock_grad(x)
        p = -g0
        f0, dphi0 = rosenbrock(x), float(g0 @ p)

        def feval(a):
            return rosenbrock(x + a * p)

        def geval(a):
            ga = rosenbrock_grad(x + a * p)
            return ga, float(ga @ p)

        out = _strong_wolfe(feval, geval, f0, dphi0)
        assert out is not None
        a, fa, ga = out
        assert fa <= f0 + WOLFE_C1 * a * dphi0         # sufficient decrease
        assert abs(float(ga @ p)) <= -WOLFE_C2 * dphi0  # curvature


def weighted_quadratic(x):
    return float(x @ (np.array([1.0, 10.0, 100.0]) * x))


def weighted_quadratic_grad(x):
    return 2.0 * np.array([1.0, 10.0, 100.0]) * x


class TestOneExit:
    """A restart returns from one place, and ``converged`` is read off its final gradient."""

    PROBLEMS = {
        "rosenbrock": (rosenbrock, rosenbrock_grad, 2),
        "quadratic": (weighted_quadratic, weighted_quadratic_grad, 3),
    }

    @settings(max_examples=200, deadline=None)
    @given(problem=st.sampled_from(sorted(PROBLEMS)),
           basis=st.sampled_from(["none", "identity", "subspace"]),
           start=arrays(float, 3, elements=st.floats(-2.0, 2.0)),
           max_iters=st.integers(1, 12),
           grad_tol=st.sampled_from([0.0, 1e-8, 1e-3, 1.0, 50.0, 1e4]))
    @example(problem="quadratic", basis="none", start=np.zeros(3), max_iters=1, grad_tol=0.0)
    @example(problem="rosenbrock", basis="subspace", start=np.ones(3), max_iters=5, grad_tol=0.0)
    def test_converged_iff_final_gradient_meets_the_tolerance(self, problem, basis, start,
                                                               max_iters, grad_tol):
        f, g, n = self.PROBLEMS[problem]
        x0 = start[:n]
        U = {"none": None, "identity": np.eye(n),
             "subspace": np.linalg.qr(np.random.default_rng(n).standard_normal((n, n - 1)))[0]}[basis]
        cfg = BfgsConfig(max_iters=max_iters, grad_tol=grad_tol)
        res = bfgs_minimize(f, g, x0, cfg, basis=U)
        assert res.converged == (res.grad_norm <= cfg.grad_tol)
        assert res.grad_norm == float(np.max(np.abs(g(res.x))))
        assert res.objective == f(res.x)
        assert 0 <= res.iterations <= max_iters
        start_norm = float(np.max(np.abs(g(x0))))
        if start_norm <= grad_tol:   # a stationary start returns its own bits
            assert res.iterations == 0 and res.converged
            assert res.x.tobytes() == x0.tobytes()
            assert res.objective == f(x0) and res.grad_norm == start_norm


class TestSubnormalCurvature:
    """An s^T y small enough that 1 / s^T y overflows skips the update instead of filling H with NaN."""

    @pytest.mark.parametrize("start", [(1.18e-157, 0.0, 0.0), (1e-160, 1e-160, 0.0),
                                       (3e-158, 1e-158, 1e-159)])
    def test_runs_clean_near_the_minimum(self, start):
        x0 = np.array(start)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = bfgs_minimize(weighted_quadratic, weighted_quadratic_grad, x0,
                                BfgsConfig(grad_tol=0.0))
        assert np.all(np.isfinite(res.x)) and res.objective == weighted_quadratic(res.x)
        assert res.objective <= weighted_quadratic(x0)
        assert res.converged == (res.grad_norm == 0.0)


class TestRangeBasis:
    @staticmethod
    def _rank_deficient_quadratic(n=8, k=3, seed=0):
        """f(x) = |M^T (x - b)|^2 / 2: Hessian M M^T of rank k, and g lies in range(M)."""
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, k))
        b = rng.standard_normal(n)

        def f(x):
            r = M.T @ (x - b)
            return 0.5 * float(r @ r)

        def g(x):
            return M @ (M.T @ (x - b))

        U = np.linalg.qr(M)[0]                 # orthonormal basis of range(M)
        return f, g, U, b

    def test_range_basis_reaches_the_identity_basis_minimizer(self):
        f, g, U, b = self._rank_deficient_quadratic()
        x0 = np.random.default_rng(1).standard_normal(len(b))
        cfg = BfgsConfig(max_iters=200, grad_tol=1e-12)
        full = bfgs_minimize(f, g, x0, cfg)
        ranged = bfgs_minimize(f, g, x0, cfg, basis=U)
        # BFGS never leaves x0 + range(M), so both reach x0 + P (b - x0)
        expected = x0 + U @ (U.T @ (b - x0))
        assert full.converged and ranged.converged
        np.testing.assert_allclose(full.x, expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(ranged.x, full.x, rtol=0, atol=1e-10)
        assert ranged.objective == f(ranged.x)

    def test_iterates_stay_on_the_start_translate_of_the_range(self):
        f, g, U, b = self._rank_deficient_quadratic(n=10, k=4, seed=2)
        x0 = np.random.default_rng(3).standard_normal(len(b))
        res = bfgs_minimize(f, g, x0, BfgsConfig(max_iters=3), basis=U)
        assert res.iterations == 3
        off_range = (res.x - x0) - U @ (U.T @ (res.x - x0))
        assert np.max(np.abs(off_range)) <= 1e-14 * np.max(np.abs(res.x))

    def test_zero_column_basis_returns_the_start(self):
        x0 = np.array([-1.2, 1.0])
        res = bfgs_minimize(rosenbrock, rosenbrock_grad, x0, basis=np.zeros((2, 0)))
        assert res.iterations == 0 and not res.converged
        np.testing.assert_array_equal(res.x, x0)
        assert res.objective == rosenbrock(x0)

    def test_multistart_passes_the_basis_to_every_restart(self):
        f, g, U, b = self._rank_deficient_quadratic()
        cfg = BfgsConfig(restarts=4, seed=9, max_iters=200, grad_tol=1e-12)
        best = multistart(f, g, len(b), cfg, basis=U)
        x0 = np.random.default_rng(cfg.seed ^ best.restart_index).standard_normal(len(b))
        direct = bfgs_minimize(f, g, x0, cfg, restart_index=best.restart_index, basis=U)
        np.testing.assert_array_equal(best.x, direct.x)


class TestInverseUpdate:
    @staticmethod
    def _random_pair(n=50, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        H = A @ A.T / n + np.eye(n)          # symmetric positive definite
        s = rng.standard_normal(n)
        y = s + 0.3 * rng.standard_normal(n)
        assert float(s @ y) > 0.0           # curvature condition
        return H, s, y, 1.0 / float(s @ y)

    def test_matches_dense_product_form(self):
        from deepkern.optimize import _inverse_update

        H, s, y, rho = self._random_pair()
        V = np.eye(len(s)) - rho * np.outer(s, y)
        expected = V @ H @ V.T + rho * np.outer(s, s)
        _inverse_update(H, s, y, rho)
        assert np.linalg.norm(H - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_stays_exactly_symmetric(self):
        from deepkern.optimize import _inverse_update

        H, s, y, rho = self._random_pair(seed=1)
        for k in range(5):
            _inverse_update(H, s, y, rho)
            np.testing.assert_array_equal(H, H.T)
            s, y = np.roll(s, k + 1), np.roll(y, k + 1)


class TestMultistart:
    def test_convex_quadratic_all_agree(self):
        cfg = BfgsConfig(restarts=8, seed=1)
        res = multistart(quadratic, quadratic_grad, 3, cfg)
        assert res.objective <= 1e-8

    def test_double_well_finds_global(self):
        def f(x):
            return float((x[0] ** 2 - 1.0) ** 2)

        def g(x):
            return np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)])

        res = multistart(f, g, 1, BfgsConfig(restarts=64, seed=3))
        assert res.objective <= 1e-10
        assert abs(abs(res.x[0]) - 1.0) <= 1e-5

    def test_single_restart_reduces_to_bfgs(self):
        cfg = BfgsConfig(restarts=1, seed=11)
        res_multi = multistart(rosenbrock, rosenbrock_grad, 2, cfg)
        rng = np.random.default_rng(cfg.seed ^ 0)
        x0 = rng.standard_normal(2)
        res_direct = bfgs_minimize(rosenbrock, rosenbrock_grad, x0, cfg)
        np.testing.assert_array_equal(res_multi.x, res_direct.x)
        assert res_multi.objective == res_direct.objective
        assert res_multi.iterations == res_direct.iterations

    def test_determinism_bitwise(self):
        cfg = BfgsConfig(restarts=16, seed=42)
        a = multistart(rosenbrock, rosenbrock_grad, 2, cfg)
        b = multistart(rosenbrock, rosenbrock_grad, 2, cfg)
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.objective, a.restart_index, a.iterations) == (b.objective, b.restart_index, b.iterations)

    def test_dominates_every_restart(self):
        cfg = BfgsConfig(restarts=12, seed=7)

        def f(x):
            return float(np.sum(np.sin(3.0 * x) + x**2))

        def g(x):
            return 3.0 * np.cos(3.0 * x) + 2.0 * x

        best = multistart(f, g, 2, cfg)
        for k in range(cfg.restarts):
            rng = np.random.default_rng(cfg.seed ^ k)
            res = bfgs_minimize(f, g, rng.standard_normal(2), cfg, restart_index=k)
            assert best.objective <= res.objective + 1e-15

    def test_config_error_in_a_restart_propagates(self):
        def f(x):
            raise ValueError("bad config")

        with pytest.raises(ValueError, match="bad config"):
            multistart(f, lambda x: np.zeros(1), 1, BfgsConfig(restarts=3, seed=0))

    def test_nonfinite_start_is_an_infeasible_start(self):
        with pytest.raises(InfeasibleStartError):
            bfgs_minimize(lambda x: float("inf"), lambda x: np.zeros(1), np.array([1.0]))

    def test_all_failures_raise(self):
        with pytest.raises(OptimizationError):
            multistart(lambda x: float("nan"), lambda x: np.zeros(1), 1,
                       BfgsConfig(restarts=3, seed=0))


class TestBfgsConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("max_iters", -4), ("max_iters", 2.5), ("max_iters", float("inf")),
        ("max_iters", float("nan")), ("grad_tol", float("nan")), ("grad_tol", float("inf")),
        ("grad_tol", -1e-6), ("restarts", 0), ("restarts", 2.5), ("seed", -1), ("seed", 1.5),
    ])
    def test_rejects_a_budget_that_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            BfgsConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_iters", True), ("restarts", True), ("seed", "0"), ("grad_tol", True),
    ])
    def test_refuses_a_value_that_is_not_a_number(self, field, value):
        with pytest.raises(TypeError, match=field):
            BfgsConfig(**{field: value})

    def test_reads_integer_valued_numbers_as_ints(self):
        cfg = BfgsConfig(max_iters=3.0, grad_tol=1, restarts=np.int64(2), seed=5.0)
        assert (cfg.max_iters, cfg.grad_tol, cfg.restarts, cfg.seed) == (3, 1.0, 2, 5)
        types = [type(v) for v in (cfg.max_iters, cfg.grad_tol, cfg.restarts, cfg.seed)]
        assert types == [int, float, int, int]

    def test_smallest_budget_runs(self):
        cfg = BfgsConfig(max_iters=1, grad_tol=0.0, restarts=1, seed=0)
        res = bfgs_minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), cfg)
        assert res.iterations == 1 and not res.converged


class TestFiniteDiff:
    def test_linear_function_exact(self):
        a = np.array([2.0, -3.0, 0.5])
        fd = finite_diff_grad(lambda x: float(a @ x), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(fd, a, rtol=1e-9)

    def test_square(self):
        fd = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([1.0]), h=1e-6)
        assert fd[0] == pytest.approx(2.0, abs=1e-9)

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            finite_diff_grad(quadratic, np.array([1.0]), h=0.0)


class TestGradCheck:
    def test_passes_on_true_gradient(self):
        rng = np.random.default_rng(8)
        report = grad_check(quadratic, quadratic_grad, rng.standard_normal(4))
        assert report.passed

    def test_fails_on_wrong_gradient(self):
        report = grad_check(quadratic, lambda x: 3.0 * x, np.array([1.0, 2.0]))
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_rosenbrock_gradient(self):
        report = grad_check(rosenbrock, rosenbrock_grad, np.array([-0.3, 0.7]))
        assert report.passed
