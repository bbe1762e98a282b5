"""Harness pieces: test functions, sampling, CV, error grids, comparisons."""

from dataclasses import replace

import numpy as np
import pytest

from deepkern.deep_model import TwoLayerModel, fit_two_layer
from deepkern.experiments import (
    TEST_FUNCTIONS,
    CvPlan,
    Dataset,
    EvalGrid,
    SamplingPlan,
    cross_validate,
    decade_grid,
    dyadic_grid,
    fold_blocks,
    inner_transform_dump,
    pointwise_error_grid,
    read_dataset_csv,
    read_points_csv,
    run_comparison,
    sample_dataset,
    stream_rng,
    stream_seed,
    write_error_grid_csv,
)
from deepkern.kernels import DiagScaledKernel, GaussKernel, PolyKernel
from deepkern.optimize import BfgsConfig
from deepkern.single_layer import fit_single, predict_single

from dataset_files import write_dataset_csv

POLY1 = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))


def _value_at(name, point):
    """A named test function at one 2-d point."""
    return float(TEST_FUNCTIONS[name](np.array([point], dtype=float))[0])


class TestTestFunctions:
    def test_h1_on_diagonal(self):
        assert _value_at("h1", [0.0, 0.0]) == pytest.approx(10.0)

    def test_h1_corner(self):
        assert _value_at("h1", [1.0, -1.0]) == pytest.approx(1.0 / 2.1)
        assert _value_at("h1", [1.0, -1.0]) == pytest.approx(0.476190, abs=1e-6)

    def test_h2_indicator(self):
        assert _value_at("h2", [0.5, 0.5]) == 1.0
        assert _value_at("h2", [0.1, 0.1]) == 0.0

    def test_h2_boundary_is_strict(self):
        # x*y must strictly exceed 3/20
        assert _value_at("h2", [0.3, 0.5]) == 0.0


class TestSampling:
    def test_zero_noise_exact_targets(self):
        plan = SamplingPlan(n_samples=50, noise_sigma=0.0, seed=3)
        ds = sample_dataset("h1", plan)
        np.testing.assert_array_equal(ds.y, TEST_FUNCTIONS["h1"](ds.X))

    def test_determinism(self):
        plan = SamplingPlan(n_samples=30, seed=9)
        a, b = sample_dataset("h2", plan), sample_dataset("h2", plan)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_points_inside_domain(self):
        plan = SamplingPlan(n_samples=200, seed=4)
        ds = sample_dataset("h1", plan)
        assert np.all(ds.X >= -1.0) and np.all(ds.X <= 1.0)

    def test_noise_mean_is_centered(self):
        plan = SamplingPlan(n_samples=100000, noise_sigma=0.01, seed=5)
        ds = sample_dataset("h1", plan)
        noise = ds.y - TEST_FUNCTIONS["h1"](ds.X)
        assert -0.001 <= float(np.mean(noise)) <= 0.001


class TestEvalGrid:
    def test_default_grid_count(self):
        pts = EvalGrid().points()
        assert pts.shape == (101 * 101, 2)

    def test_endpoints_inclusive(self):
        ax = EvalGrid().axis_points(0)
        assert ax[0] == -1.0 and ax[-1] == 1.0

    def test_row_major_order(self):
        pts = EvalGrid(meshwidth=1.0).points()   # 3x3 grid
        np.testing.assert_allclose(pts[:3, 0], [-1.0, -1.0, -1.0])
        np.testing.assert_allclose(pts[:3, 1], [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("meshwidth", [0.0, -0.1, float("nan"), float("inf")])
    def test_mesh_width_must_be_finite_and_positive(self, meshwidth):
        with pytest.raises(ValueError, match="mesh width must be finite and positive"):
            EvalGrid(meshwidth=meshwidth)


class TestPlanCounts:
    @pytest.mark.parametrize("plan, field, value, error", [
        (CvPlan, "folds", 2.5, ValueError), (CvPlan, "seed", 1.5, ValueError),
        (CvPlan, "folds", True, TypeError), (SamplingPlan, "n_samples", 2.5, ValueError),
        (SamplingPlan, "seed", 1.5, ValueError), (SamplingPlan, "n_samples", True, TypeError),
    ])
    def test_refuses_a_count_that_is_not_an_integer(self, plan, field, value, error):
        with pytest.raises(error, match=field):
            plan(**{field: value})

    def test_reads_integer_valued_numbers_as_ints(self):
        cv, sampling = CvPlan(folds=3.0, seed=np.int64(4)), SamplingPlan(n_samples=7.0, seed=2.0)
        assert (cv.folds, cv.seed, sampling.n_samples, sampling.seed) == (3, 4, 7, 2)
        assert all(type(v) is int for v in (cv.folds, cv.seed, sampling.n_samples, sampling.seed))


class TestFolds:
    def test_partition(self):
        blocks = fold_blocks(23, 5, stream_rng(0, "folds"))
        joined = np.concatenate(blocks)
        assert len(joined) == 23
        assert set(joined.tolist()) == set(range(23))

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            fold_blocks(3, 5, stream_rng(0, "folds"))


class TestGrids:
    def test_dyadic_grid(self):
        g = dyadic_grid()
        assert len(g) == 10 and g[-1] == 2.0 ** -19
        np.testing.assert_allclose(g[:3], [0.5, 0.125, 0.03125])

    def test_decade_grid(self):
        g = decade_grid()
        np.testing.assert_allclose(g, [0.1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11])

    # a bad value comes last, where a check of min(grid) would skip a NaN
    @pytest.mark.parametrize("values", [(0.1, 0.0), (0.1, -1.0), (0.1, float("nan")),
                                        (0.1, float("inf")), ()])
    @pytest.mark.parametrize("grid", ["lambda_grid", "mu_grid"])
    def test_cv_plan_rejects_a_grid_no_regression_can_use(self, grid, values):
        with pytest.raises(ValueError, match=f"{grid} must be nonempty, finite and positive"):
            CvPlan(**{grid: values})


def linear_dataset(n=15, seed=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = 0.3 * X[:, 0] - 0.5 * X[:, 1] + 0.7
    return Dataset(X=X, y=y)


class TestCrossValidate:
    def test_single_candidate_pair(self):
        ds = linear_dataset()
        plan = CvPlan(folds=3, lambda_grid=(0.25,), mu_grid=(0.5,), seed=1)
        cv = cross_validate(ds, POLY1, PolyKernel(1, 2), plan, BfgsConfig(restarts=2, seed=1))
        assert cv.best_lambda == 0.25 and cv.best_mu == 0.5

    def test_duplicate_candidates_tie_break(self):
        ds = linear_dataset(seed=6)
        plan = CvPlan(folds=3, lambda_grid=(0.25, 0.25), mu_grid=(0.5,), seed=1)
        cv = cross_validate(ds, POLY1, PolyKernel(1, 2), plan, BfgsConfig(restarts=2, seed=1))
        means = cv.mean_scores
        assert means[0, 0] == means[1, 0]
        assert cv.best_lambda == 0.25

    def test_tie_between_distinct_pairs_goes_to_the_largest(self, monkeypatch):
        # every cell scores the same, so only the tie rule decides
        import deepkern.experiments as exp
        monkeypatch.setattr(exp, "fit_two_layer", lambda *args, **kwargs: (None, None))
        monkeypatch.setattr(exp, "predict_two_layer", lambda model, pts: np.zeros(len(pts)))
        plan = CvPlan(folds=3, lambda_grid=(1e-3, 1e-1, 1e-2), mu_grid=(0.5, 2.0), seed=1)
        cv = cross_validate(linear_dataset(), POLY1, PolyKernel(1, 2), plan, BfgsConfig())
        assert np.all(cv.mean_scores == cv.mean_scores[0, 0])
        assert (cv.best_lambda, cv.best_mu) == (1e-1, 2.0)

    def test_linear_target_reaches_small_validation_error(self):
        ds = linear_dataset(n=20, seed=8)
        plan = CvPlan(folds=5, lambda_grid=(1e-6, 1e-2), mu_grid=(1e-6, 1e-2), seed=2)
        cv = cross_validate(ds, POLY1, PolyKernel(1, 2), plan,
                            BfgsConfig(restarts=3, max_iters=200, seed=2))
        il = plan.lambda_grid.index(cv.best_lambda)
        im = plan.mu_grid.index(cv.best_mu)
        assert cv.mean_scores[il, im] <= 1e-4


class TestBaselineSanity:
    def test_single_layer_interpolation_reproduces_noisy_targets(self):
        from deepkern.kernels import TensorMaternKernel

        ds = sample_dataset("h1", SamplingPlan(n_samples=40, seed=19))
        model = fit_single(TensorMaternKernel(1, 2), ds.X, ds.y, lam=0.0)
        preds = predict_single(model, ds.X)
        assert np.max(np.abs(preds - ds.y)) <= 1e-6


class TestPointwiseErrorGrid:
    def test_exact_predictor_zero_error(self):
        grid = EvalGrid(meshwidth=0.1)
        err = pointwise_error_grid(TEST_FUNCTIONS["h1"], "h1", grid)
        assert err.max_error == 0.0 and err.mean_error == 0.0

    def test_zero_predictor_against_h1(self):
        grid = EvalGrid()
        err = pointwise_error_grid(lambda pts: np.zeros(len(pts)), "h1", grid)
        assert err.max_error == pytest.approx(10.0)
        assert len(err.errors) == 101 * 101

    def test_stats_ordering(self):
        grid = EvalGrid(meshwidth=0.25)
        err = pointwise_error_grid(lambda pts: np.zeros(len(pts)), "h2", grid)
        assert 0.0 <= err.mean_error <= err.max_error


class TestRunComparison:
    def test_representable_target_both_arms_succeed(self):
        # targets from a 3-term expansion in the baseline kernel itself
        kernel = GaussKernel(0.8, 2)
        anchors = np.array([[0.0, 0.0], [0.5, -0.5], [-0.6, 0.4]])
        weights = np.array([1.0, -2.0, 1.5])

        def target(pts):
            return kernel.cross(anchors, pts).T @ weights

        import deepkern.experiments as exp
        original = exp.TEST_FUNCTIONS.copy()
        exp.TEST_FUNCTIONS["rep"] = target
        try:
            plan = SamplingPlan(n_samples=40, noise_sigma=0.0, seed=12)
            report = run_comparison("rep", kernel, POLY1, plan,
                                    mode="interpolation",
                                    config=BfgsConfig(restarts=8, seed=12))
            assert report.single_layer.error.mean_error <= 1e-3
            assert report.two_layer.error.mean_error <= 1e-3
        finally:
            exp.TEST_FUNCTIONS.clear()
            exp.TEST_FUNCTIONS.update(original)

    def test_report_lines_deterministic(self):
        from deepkern.kernels import TensorMaternKernel
        plan = SamplingPlan(n_samples=12, seed=13)
        cfg = BfgsConfig(restarts=2, seed=0)
        r1 = run_comparison("h1", TensorMaternKernel(1, 2), POLY1, plan,
                            mode="interpolation", config=cfg)
        r2 = run_comparison("h1", TensorMaternKernel(1, 2), POLY1, plan,
                            mode="interpolation", config=cfg)
        assert r1.lines() == r2.lines()
        np.testing.assert_array_equal(r1.two_layer.error.errors, r2.two_layer.error.errors)


class TestRunComparisonRegression:
    """The regression path at toy size: N = 12, 2 folds, a two-value lambda grid."""

    OUTER = GaussKernel(0.5, 2)
    PLAN = SamplingPlan(n_samples=12, seed=33)
    # every seed derives from PLAN.seed; at seed 99 the folds would pick (1e-3, 1e-2) instead
    CV_PLAN = CvPlan(folds=2, lambda_grid=(1e-3, 1e-1), mu_grid=(1e-2, 1.0), seed=99)
    CV_CONFIG = BfgsConfig(restarts=2, max_iters=30, seed=5)
    CONFIG = BfgsConfig(restarts=2, max_iters=30, seed=6)

    def _run(self):
        return run_comparison("h1", self.OUTER, POLY1, self.PLAN, cv_plan=self.CV_PLAN,
                              mode="regression", config=self.CONFIG,
                              cv_config=self.CV_CONFIG)

    def test_arms_match_their_recomputed_choices(self):
        report = self._run()
        ds = sample_dataset("h1", self.PLAN)
        errors = [pointwise_error_grid(
            lambda pts: predict_single(fit_single(self.OUTER, ds.X, ds.y, lam=lam), pts),
            "h1", EvalGrid()).mean_error for lam in self.CV_PLAN.lambda_grid]
        assert report.single_layer.params == {"lambda": self.CV_PLAN.lambda_grid[np.argmin(errors)]}
        assert report.single_layer.error.mean_error == min(errors)

        init_seed = stream_seed(self.PLAN.seed, "init")
        cv = cross_validate(ds, POLY1, self.OUTER, replace(self.CV_PLAN, seed=self.PLAN.seed),
                            replace(self.CV_CONFIG, seed=init_seed))
        _, refit = fit_two_layer(ds.X, ds.y, POLY1, self.OUTER, lam=cv.best_lambda,
                                 mu=cv.best_mu, config=replace(self.CONFIG, seed=init_seed))
        assert report.two_layer.params == {
            "lambda": cv.best_lambda, "mu": cv.best_mu,
            "objective": refit.objective, "restart_index": refit.restart_index,
        }

    def test_baseline_tie_goes_to_the_first_lambda(self, monkeypatch):
        import deepkern.experiments as exp
        monkeypatch.setattr(exp, "predict_single", lambda model, pts: np.zeros(len(pts)))
        assert self._run().single_layer.params == {"lambda": self.CV_PLAN.lambda_grid[0]}

    def test_interpolation_arm_param_keys(self):
        report = run_comparison("h1", self.OUTER, POLY1, self.PLAN, mode="interpolation",
                                config=BfgsConfig(restarts=2, max_iters=30))
        assert sorted(report.two_layer.params) == ["objective", "restart_index"]
        assert report.single_layer.params == {"lambda": 0.0}

    def test_missing_cv_plan_is_refused_before_sampling(self, monkeypatch):
        import deepkern.experiments as exp

        def no_sampling(*args):
            raise AssertionError("sampled before checking the CV plan")

        monkeypatch.setattr(exp, "sample_dataset", no_sampling)
        with pytest.raises(ValueError, match="regression mode needs a CV plan"):
            run_comparison("h1", self.OUTER, POLY1, self.PLAN, mode="regression")


class TestInnerTransformDump:
    def _model(self, c):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        return TwoLayerModel(X=X, inner=POLY1, outer=GaussKernel(1.0, 2),
                             c=np.asarray(c, dtype=float), alpha=np.zeros(2),
                             lam=0.0, mu=0.0, gamma=0.0, objective_value=0.0)

    def test_zero_coefficients_zero_images(self):
        grid = EvalGrid(meshwidth=0.5)
        rows = inner_transform_dump(self._model(np.zeros((2, 2))), grid)
        assert rows.shape == (25, 4)
        np.testing.assert_array_equal(rows[:, 2:], np.zeros((25, 2)))

    def test_constructed_linear_map(self):
        # c1 = (1,-1), c2 = (-1,1) on centers e1, e2 gives g(t) = (t1 - t2, t2 - t1)
        grid = EvalGrid(meshwidth=0.5)
        rows = inner_transform_dump(self._model([[1.0, -1.0], [-1.0, 1.0]]), grid)
        t = rows[:, :2]
        expected = np.stack([t[:, 0] - t[:, 1], t[:, 1] - t[:, 0]], axis=-1)
        np.testing.assert_allclose(rows[:, 2:], expected, atol=1e-10)

    def test_row_count_matches_grid(self):
        grid = EvalGrid(meshwidth=0.25)
        rows = inner_transform_dump(self._model(np.zeros((2, 2))), grid)
        assert len(rows) == len(grid.points())


class TestCsvIo:
    def test_dataset_round_trip(self, tmp_path):
        ds = sample_dataset("h1", SamplingPlan(n_samples=17, seed=21))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.1,0.2,0.3\n0.1,only-two\n")
        with pytest.raises(ValueError, match=":3"):
            read_dataset_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.1,abc,0.3\n")
        with pytest.raises(ValueError, match=":2"):
            read_dataset_csv(path)

    def test_points_file_optional_y(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n0.1,0.2\n-0.3,0.4\n")
        pts = read_points_csv(path)
        assert pts.shape == (2, 2)

    def test_empty_points_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n")
        pts = read_points_csv(path)
        assert pts.shape == (0, 2)

    def test_error_grid_csv_header(self, tmp_path):
        grid = EvalGrid(meshwidth=1.0)
        err = pointwise_error_grid(lambda pts: np.zeros(len(pts)), "h1", grid)
        path = tmp_path / "err.csv"
        write_error_grid_csv(path, err)
        lines = path.read_text().splitlines()
        assert lines[0] == "t1,t2,abs_error"
        assert len(lines) == 1 + 9
