"""Command-line interface: exit codes, round trips, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import deepkern
from deepkern import cli, experiments, optimize
from deepkern.cli import _build_cv_plan, _build_opt_config, main
from deepkern.deep_model import TwoLayerModel, load_model, predict_two_layer, save_model
from deepkern.experiments import CvPlan, SamplingPlan, sample_dataset
from deepkern.kernels import DiagScaledKernel, GaussKernel, PolyKernel
from deepkern.optimize import BfgsConfig

from dataset_files import write_dataset_csv

INTERP_CONFIG = {
    "mode": "interpolate",
    "kernel": {"family": "tensor_matern", "s": 1},
    "inner": {"family": "diag_scaled", "weights": [1.0, 1.0],
              "components": [{"family": "poly", "p": 1}]},
    "opt": {"restarts": 4, "max_iters": 300},
    "seed": 11,
}

REG_CONFIG = {
    "mode": "regress",
    "kernel": {"family": "gauss", "sigma": 0.5},
    "inner": {"family": "diag_scaled", "weights": [1.0, 1.0],
              "components": [{"family": "poly", "p": 1}]},
    "lambda": 0.01,
    "mu": 0.01,
    "opt": {"restarts": 2, "max_iters": 150},
    "seed": 11,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def save_small_model(tmp_path, name="model.json"):
    """A saved two-point model, built by hand; returns its path."""
    model = TwoLayerModel(
        X=np.array([[0.0, 0.0], [0.5, -0.5]]),
        inner=DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0)),
        outer=GaussKernel(1.0, 2), c=np.array([[0.0, 0.0], [1.0, 0.5]]),
        alpha=np.array([1.0, -0.5]), lam=0.0, mu=0.0, gamma=0.0, objective_value=1.0)
    path = str(tmp_path / name)
    save_model(model, path)
    return path


def src_env():
    """The environment, with this checkout's package directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(deepkern.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_data(tmp_path, n=10, seed=3, name="data.csv", tf="h1"):
    ds = sample_dataset(tf, SamplingPlan(n_samples=n, seed=seed))
    path = tmp_path / name
    write_dataset_csv(path, ds)
    return str(path), ds


class TestFit:
    def test_minimal_single_point(self, tmp_path, capsys):
        (tmp_path / "one.csv").write_text("x1,x2,y\n0.1,0.2,3.0\n")
        cfg = write_config(tmp_path, INTERP_CONFIG)
        out = str(tmp_path / "model.txt")
        code = main(["fit", "--config", cfg, "--data", str(tmp_path / "one.csv"), "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "objective=" in printed
        obj = float([l for l in printed.splitlines() if l.startswith("objective=")][0].split("=")[1])
        assert np.isfinite(obj)

    @pytest.mark.parametrize("max_iters, converged", [(1, "False"), (300, "True")])
    def test_reports_convergence(self, tmp_path, capsys, max_iters, converged):
        data, _ = write_data(tmp_path, n=6, seed=4)
        cfg = write_config(tmp_path, {**INTERP_CONFIG,
                                      "opt": {"restarts": 2, "max_iters": max_iters}})
        assert main(["fit", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "m.json")]) == 0
        printed = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
        assert printed["converged"] == converged
        assert 1 <= int(printed["iterations"]) <= max_iters

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y\n0.1,0.2,0.3\nnot,numeric\n")
        cfg = write_config(tmp_path, INTERP_CONFIG)
        code = main(["fit", "--config", cfg, "--data", str(bad), "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert ":3" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        data, _ = write_data(tmp_path)
        code = main(["fit", "--config", str(cfg), "--data", data, "--out", str(tmp_path / "m.txt")])
        assert code == 2

    def test_regression_without_parameters_exits_2(self, tmp_path):
        cfg = dict(REG_CONFIG)
        del cfg["lambda"], cfg["mu"]
        data, _ = write_data(tmp_path)
        code = main(["fit", "--config", write_config(tmp_path, cfg), "--data", data,
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2

    @pytest.mark.parametrize("params", [{"lambda": 0}, {"lambda": 0, "mu": 0}])
    def test_regression_nonpositive_parameters_exit_2(self, tmp_path, capsys, params):
        data, _ = write_data(tmp_path)
        cfg = write_config(tmp_path, {**REG_CONFIG, **params})
        code = main(["fit", "--config", cfg, "--data", data, "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "lam > 0 and mu > 0" in capsys.readouterr().err

    def test_interpolation_training_residuals(self, tmp_path):
        data, ds = write_data(tmp_path, n=12, seed=5)
        cfg = write_config(tmp_path, INTERP_CONFIG)
        out = str(tmp_path / "model.txt")
        assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
        model = load_model(out)
        preds = predict_two_layer(model, ds.X)
        assert np.max(np.abs(preds - ds.y)) <= 1e-6 * (np.max(np.abs(ds.y)) + 1.0)

    def test_regression_fit(self, tmp_path):
        data, _ = write_data(tmp_path, n=12, seed=6)
        cfg = write_config(tmp_path, REG_CONFIG)
        out = str(tmp_path / "model.txt")
        assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
        model = load_model(out)
        assert model.lam == 0.01 and model.mu == 0.01

    def test_regression_fit_with_cv(self, tmp_path, capsys):
        data, _ = write_data(tmp_path, n=12, seed=6)
        cfg = dict(REG_CONFIG)
        del cfg["lambda"], cfg["mu"]
        cfg["cv"] = {"folds": 3, "lambda_grid": [0.1, 0.001], "mu_grid": [0.1]}
        cfg["opt"] = {"restarts": 2, "max_iters": 80}
        out = str(tmp_path / "model.txt")
        assert main(["fit", "--config", write_config(tmp_path, cfg),
                     "--data", data, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "cv.best_lambda=" in printed
        model = load_model(out)
        assert model.lam in (0.1, 0.001) and model.mu == 0.1


class TestPredict:
    def _fit(self, tmp_path):
        data, ds = write_data(tmp_path, n=8, seed=7)
        cfg = write_config(tmp_path, INTERP_CONFIG)
        out = str(tmp_path / "model.txt")
        assert main(["fit", "--config", cfg, "--data", data, "--out", out]) == 0
        return out, ds

    def test_training_point_reproduced(self, tmp_path, capsys):
        model_path, ds = self._fit(tmp_path)
        capsys.readouterr()
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n" + ",".join(repr(float(v)) for v in ds.X[0]) + "\n")
        assert main(["predict", "--model", model_path, "--points", str(pts)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x1,x2,prediction"
        pred = float(lines[1].split(",")[-1])
        assert pred == pytest.approx(ds.y[0], abs=1e-6 * (abs(ds.y[0]) + 1.0))

    def test_empty_points_header_only(self, tmp_path, capsys):
        model_path, _ = self._fit(tmp_path)
        capsys.readouterr()
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n")
        assert main(["predict", "--model", model_path, "--points", str(pts)]) == 0
        assert capsys.readouterr().out.strip() == "x1,x2,prediction"

    def test_round_trip_predictions_bit_identical(self, tmp_path, capsys):
        model_path, ds = self._fit(tmp_path)
        capsys.readouterr()
        pts = tmp_path / "pts.csv"
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in ds.X)
        pts.write_text("x1,x2\n" + rows + "\n")
        assert main(["predict", "--model", model_path, "--points", str(pts)]) == 0
        first = capsys.readouterr().out
        assert main(["predict", "--model", model_path, "--points", str(pts)]) == 0
        second = capsys.readouterr().out
        assert first == second
        model = load_model(model_path)
        direct = predict_two_layer(model, ds.X)
        printed = [float(l.split(",")[-1]) for l in first.strip().splitlines()[1:]]
        np.testing.assert_array_equal(np.array(printed), direct)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_point_exits_2(self, tmp_path, capsys, value):
        model_path, _ = self._fit(tmp_path)
        capsys.readouterr()
        pts = tmp_path / "pts.csv"
        pts.write_text(f"x1,x2\n0.1,0.2\n0.3,{value}\n")
        assert main(["predict", "--model", model_path, "--points", str(pts)]) == 2
        captured = capsys.readouterr()
        assert f"{pts}:3: non-finite value" in captured.err
        assert captured.out == ""

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        model_path, _ = self._fit(tmp_path)
        pts = tmp_path / "pts.csv"
        capsys.readouterr()
        for header, row, dim in (("x1,x2,x3", "0.1,0.2,0.3", 3), ("x1", "0.1", 1)):
            pts.write_text(f"{header}\n{row}\n")
            assert main(["predict", "--model", model_path, "--points", str(pts)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"points have dimension {dim}, " in captured.err
            assert "expects 2" in captured.err


class TestOtherCommands:
    def test_cv_command(self, tmp_path, capsys):
        data, _ = write_data(tmp_path, n=15, seed=8)
        cfg = dict(REG_CONFIG)
        del cfg["lambda"], cfg["mu"]
        cfg["cv"] = {"folds": 3, "lambda_grid": [0.01, 1.0], "mu_grid": [0.01]}
        cfg["opt"] = {"restarts": 2, "max_iters": 100}
        code = main(["cv", "--config", write_config(tmp_path, cfg), "--data", data])
        assert code == 0
        out = capsys.readouterr().out
        assert "best_lambda=" in out and "best_mu=" in out
        assert out.count("score.lambda=") == 2

    def test_cv_scores_are_plain_floats(self, tmp_path, capsys):
        # numpy 2 reprs a float64 as np.float64(...), which no reader of key=value lines parses
        data, _ = write_data(tmp_path, n=6, seed=8)
        cfg = {k: v for k, v in REG_CONFIG.items() if k not in ("lambda", "mu")}
        cfg.update(cv={"folds": 2, "lambda_grid": [0.1], "mu_grid": [0.1, 0.01]},
                   opt={"restarts": 1, "max_iters": 20})
        assert main(["cv", "--config", write_config(tmp_path, cfg), "--data", data]) == 0
        scores = [ln.rsplit("=", 1)[1] for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("score.")]
        assert len(scores) == 2
        for text in scores:
            assert math.isfinite(float(text)), text

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_cv_refuses_an_interpolation_config_before_any_fit(self, tmp_path, capsys,
                                                               monkeypatch, gamma):
        # cv chooses (lambda, mu), which an interpolation does not have
        calls = []
        monkeypatch.setattr(experiments, "fit_two_layer", lambda *a, **k: calls.append(a))
        data, _ = write_data(tmp_path, n=6, seed=8)
        cfg = {**INTERP_CONFIG, "gamma": gamma,
               "cv": {"folds": 2, "lambda_grid": [0.1], "mu_grid": [0.1]}}
        assert main(["cv", "--config", write_config(tmp_path, cfg), "--data", data]) == 2
        captured = capsys.readouterr()
        assert "mode 'regress'" in captured.err
        assert captured.out == "" and calls == []

    @pytest.mark.parametrize("grid", [[0.1, float("nan")], [float("nan"), 0.1], [0.1, float("inf")]],
                             ids=["nan-last", "nan-first", "inf"])
    def test_cv_grid_with_a_nonfinite_value_exits_before_fitting(self, tmp_path, capsys,
                                                                 monkeypatch, grid):
        calls = []
        monkeypatch.setattr(experiments, "fit_two_layer", lambda *a, **k: calls.append(a))
        data, _ = write_data(tmp_path, n=6, seed=8)
        cfg = {k: v for k, v in REG_CONFIG.items() if k not in ("lambda", "mu")}
        cfg["cv"] = {"folds": 2, "lambda_grid": grid, "mu_grid": [0.01]}
        assert main(["cv", "--config", write_config(tmp_path, cfg), "--data", data]) == 2
        assert "lambda_grid must be nonempty, finite and positive" in capsys.readouterr().err
        assert calls == []

    def test_gradcheck_command(self, tmp_path, capsys):
        data, _ = write_data(tmp_path, n=6, seed=9)
        cfg = write_config(tmp_path, REG_CONFIG)
        assert main(["gradcheck", "--config", cfg, "--data", data]) == 0
        assert "passed=True" in capsys.readouterr().out

    def test_error_grid_command(self, tmp_path, capsys):
        data, _ = write_data(tmp_path, n=8, seed=10)
        cfg = write_config(tmp_path, INTERP_CONFIG)
        model_path = str(tmp_path / "model.txt")
        assert main(["fit", "--config", cfg, "--data", data, "--out", model_path]) == 0
        capsys.readouterr()
        out_csv = str(tmp_path / "err.csv")
        assert main(["error-grid", "--model", model_path, "--function", "h1",
                     "--meshwidth", "0.25", "--out", out_csv]) == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "t1,t2,abs_error"
        assert len(lines) == 1 + 81

    def test_inner_map_command(self, tmp_path, capsys):
        data, _ = write_data(tmp_path, n=8, seed=10)
        cfg = write_config(tmp_path, INTERP_CONFIG)
        model_path = str(tmp_path / "model.txt")
        assert main(["fit", "--config", cfg, "--data", data, "--out", model_path]) == 0
        out_csv = str(tmp_path / "gmap.csv")
        assert main(["inner-map", "--model", model_path, "--meshwidth", "0.25",
                     "--out", out_csv]) == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "t1,t2,g1,g2"
        assert len(lines) == 1 + 81

    @pytest.mark.parametrize("command", ["error-grid", "inner-map"])
    @pytest.mark.parametrize("meshwidth", ["0", "-0.1", "nan"])
    def test_bad_mesh_width_exits_2(self, tmp_path, capsys, command, meshwidth):
        model_path = save_small_model(tmp_path)
        extra = ["--function", "h1"] if command == "error-grid" else []
        out_csv = tmp_path / "out.csv"
        assert main([command, "--model", model_path, *extra, "--meshwidth", meshwidth,
                     "--out", str(out_csv)]) == 2
        assert "mesh width must be finite and positive" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_missing_model_file_exits_2(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.txt"),
                     "--points", str(tmp_path / "nope.csv")]) == 2


# the three read-path commands, each writing its CSV to stdout; {model} and
# {points} are filled in with file paths
READ_COMMANDS = {
    "predict": ["predict", "--model", "{model}", "--points", "{points}"],
    "error-grid": ["error-grid", "--model", "{model}", "--function", "h1", "--meshwidth", "0.5"],
    "inner-map": ["inner-map", "--model", "{model}", "--meshwidth", "0.5"],
}


def read_command(tmp_path, command):
    """argv of a read-path command on a saved two-point model and a two-point file."""
    model = save_small_model(tmp_path)
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2\n0.1,0.2\n-0.5,0.75\n")
    return [a.format(model=model, points=points) for a in READ_COMMANDS[command]]


class TestOutputStream:
    @pytest.mark.parametrize("command", ["error-grid", "inner-map"])
    def test_csv_without_out_goes_to_sys_stdout(self, tmp_path, capsys, command):
        argv = read_command(tmp_path, command)
        out_csv = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out_csv)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == out_csv.read_text()
        assert len(printed.splitlines()) == 1 + 25

    @pytest.mark.parametrize("command", sorted(READ_COMMANDS))
    def test_appends_to_stdout_opened_for_append(self, tmp_path, command):
        argv = read_command(tmp_path, command)
        log = tmp_path / "log.csv"
        log.write_text("previous\n")
        with open(log, "a") as fh:
            subprocess.run([sys.executable, "-m", "deepkern.cli", *argv], stdout=fh,
                           env=src_env(), check=True)
        lines = log.read_text().splitlines()
        assert lines[0] == "previous"
        assert lines[1].startswith(("x1,x2,", "t1,t2,"))
        assert len(lines) == 2 + (2 if command == "predict" else 25)


class TestDemoWiring:
    def _fake_report(self, tf, mode):
        import deepkern.experiments as exp
        from deepkern.deep_model import TwoLayerModel
        from deepkern.kernels import DiagScaledKernel, GaussKernel, PolyKernel

        grid = exp.EvalGrid()
        err = exp.pointwise_error_grid(lambda pts: np.zeros(len(pts)), tf, grid)
        X = np.zeros((1, 2))
        model = TwoLayerModel(
            X=X, inner=DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0)),
            outer=GaussKernel(1.0, 2), c=np.zeros((1, 2)), alpha=np.zeros(1),
            lam=0.0, mu=0.0, gamma=0.0, objective_value=0.0)
        return exp.ComparisonReport(
            test_function=tf, mode=mode, plan=exp.SamplingPlan(seed=0), restarts=2,
            two_layer=exp.ArmReport("two_layer", err, {"lambda": 0.1, "mu": 0.1}),
            single_layer=exp.ArmReport("single_layer", err, {"lambda": 0.1}),
            two_layer_model=model)

    def test_linout_demo_outputs(self, tmp_path, monkeypatch, capsys):
        import deepkern.cli as cli

        calls = []

        def fake_run(tf, outer, inner, plan, cv_plan=None, mode="regression", **kw):
            calls.append((tf, outer.family, mode, cv_plan))
            return self._fake_report(tf, mode)

        monkeypatch.setattr(cli, "run_comparison", fake_run)
        out_dir = tmp_path / "linout"
        assert main(["demo", "--figure", "linout-h1", "--scale", "desk",
                     "--out-dir", str(out_dir)]) == 0
        assert [c[1] for c in calls] == ["poly", "tensor_matern"]
        assert all(c[2] == "regression" for c in calls)
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["report.txt", "setting1_error.csv", "setting1_inner_map.csv",
                         "setting2_error.csv", "setting2_inner_map.csv",
                         "single_layer_error.csv"]
        report = (out_dir / "report.txt").read_text()
        assert "setting1.two_layer.mean_error=" in report
        assert "setting2.two_layer.mean_error=" in report

    def test_reg_demo_uses_thinned_grid_at_desk_scale(self, tmp_path, monkeypatch):
        import deepkern.cli as cli
        from deepkern.experiments import dyadic_grid

        seen = {}

        def fake_run(tf, outer, inner, plan, cv_plan=None, mode="regression", **kw):
            seen["cv_plan"] = cv_plan
            return self._fake_report(tf, mode)

        monkeypatch.setattr(cli, "run_comparison", fake_run)
        assert main(["demo", "--figure", "reg-h2", "--scale", "desk",
                     "--out-dir", str(tmp_path / "reg")]) == 0
        assert seen["cv_plan"].lambda_grid == tuple(dyadic_grid()[::2])


class TestExitCodes:
    def test_gradcheck_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        real_pair = cli.objective_pair

        def wrong_pair(*args):   # the true f with twice its gradient
            f, g = real_pair(*args)
            return f, lambda c: 2.0 * g(c)

        monkeypatch.setattr(cli, "objective_pair", wrong_pair)
        data, _ = write_data(tmp_path, n=6, seed=14)
        cfg = write_config(tmp_path, REG_CONFIG)
        code = main(["gradcheck", "--config", cfg, "--data", data])
        captured = capsys.readouterr()
        assert code == 3
        assert "passed=False" in captured.out
        assert "gradient check failed" in captured.err

    @pytest.mark.parametrize("flag", [
        ["--step", "1e-6"], ["--step", "inf"], ["--step", "1e300"],
        ["--rel-tol", "1e-5"], ["--rel-tol", "nan"], ["--rel-tol", "-1"],
    ], ids=["step", "step-inf", "step-1e300", "rel-tol", "rel-tol-nan", "rel-tol-negative"])
    def test_gradcheck_takes_no_tuning_flags(self, tmp_path, capsys, flag):
        # the step and the tolerance are fixed, so argparse refuses any value for them as bad input
        data, _ = write_data(tmp_path, n=6, seed=14)
        cfg = write_config(tmp_path, REG_CONFIG)
        with pytest.raises(SystemExit) as exit_info:
            main(["gradcheck", "--config", cfg, "--data", data, *flag])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_fit_with_no_feasible_restart_exits_3(self, tmp_path, capsys):
        # a duplicated point maps to coincident images for every c, where the
        # separation penalty makes every restart start infeasible
        (tmp_path / "dup.csv").write_text(
            "x1,x2,y\n0.1,0.2,1.0\n-0.4,0.5,0.0\n0.1,0.2,1.0\n0.7,-0.3,2.0\n")
        cfg = write_config(tmp_path, {**INTERP_CONFIG, "gamma": 0.5})
        out = tmp_path / "m.json"
        code = main(["fit", "--config", cfg, "--data", str(tmp_path / "dup.csv"),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "no restart produced a finite objective" in captured.err
        assert "converged=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "gradcheck"])
    @pytest.mark.parametrize("change, key", [
        ({"mode": "regres"}, "mode"),
        ({"gamma": 0.5}, "gamma"),
        ({"lambda": None, "mu": None, "cv": {"folds": 2, "lambda_grid": [0.1, 0.0]}}, "lambda_grid"),
        ({"opt": {"max_iters": 0}}, "max_iters"),
        ({"opt": {"max_iters": -4}}, "max_iters"),
        ({"opt": {"max_iters": float("inf")}}, "max_iters"),
        ({"opt": {"grad_tol": float("nan")}}, "grad_tol"),
        ({"opt": {"grad_tol": -1e-6}}, "grad_tol"),
        # counts, degrees, orders, dimensions and seeds are refused, not rounded
        ({"opt": {"max_iters": 2.5}}, "max_iters"),
        ({"opt": {"max_iters": "7"}}, "max_iters"),
        ({"opt": {"restarts": True}}, "restarts"),
        ({"lambda": None, "mu": None, "cv": {"folds": 2.7, "lambda_grid": [0.1], "mu_grid": [0.1]}},
         "folds"),
        ({"inner": {**REG_CONFIG["inner"], "components": [{"family": "poly", "p": 2.5}]}}, "p"),
        ({"inner": {**REG_CONFIG["inner"], "components": [{"family": "poly", "p": True}]}}, "p"),
        ({"inner": {**REG_CONFIG["inner"], "components": [{"family": "poly", "p": 1, "dim": 2.7}]}},
         "dim"),
        ({"kernel": {"family": "tensor_matern", "s": 1.9}}, "s"),
        ({"seed": 11.5}, "seed"),
        # real numbers are JSON numbers, and each is range-checked before any fit
        ({"opt": {"grad_tol": True}}, "grad_tol"),
        ({"lambda": "0.01"}, "lambda"),
        ({"lambda": float("inf")}, "lambda"),
        ({"mode": "interpolate", "gamma": True}, "gamma"),
        ({"mode": "interpolate", "gamma": -0.5}, "gamma"),
        ({"mode": "interpolate", "gamma": float("inf")}, "gamma"),
        ({"kernel": {"family": "gauss", "sigma": True}}, "sigma"),
        ({"kernel": {"family": "gauss", "sigma": float("inf")}}, "sigma"),
        ({"inner": {**REG_CONFIG["inner"], "weights": [True, "2"]}}, "weights"),
        ({"inner": {**REG_CONFIG["inner"], "weights": [float("nan"), 1.0]}}, "weights"),
    ], ids=["mode-typo", "gamma-under-regression", "cv-grid-with-zero", "max-iters-zero",
            "max-iters-negative", "max-iters-infinite", "grad-tol-nan", "grad-tol-negative",
            "max-iters-fraction", "max-iters-string", "restarts-bool", "folds-fraction",
            "degree-fraction", "degree-bool", "dim-fraction", "matern-order-fraction",
            "seed-fraction", "grad-tol-bool", "lambda-string", "lambda-infinite",
            "gamma-bool", "gamma-negative", "gamma-infinite", "sigma-bool", "sigma-infinite",
            "weights-bool-and-string", "weights-nan"])
    def test_config_that_fit_rejects_exits_2_everywhere(self, tmp_path, capsys, monkeypatch,
                                                        command, change, key):
        runs = []   # no restart and no gradient check may start
        monkeypatch.setattr(optimize, "multistart", lambda *a, **k: runs.append(a))
        monkeypatch.setattr(cli, "grad_check", lambda *a, **k: runs.append(a))
        # a None value removes the key from the config
        cfg = {k: v for k, v in {**REG_CONFIG, **change}.items() if v is not None}
        data, _ = write_data(tmp_path, n=6, seed=9)
        out = tmp_path / "m.json"
        argv = [command, "--config", write_config(tmp_path, cfg), "--data", data]
        if command == "fit":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert re.search(rf"\b{key}\b", captured.err), captured.err
        # no model file either: at the parent, "sigma": Infinity fitted and left a truncated one
        assert captured.out == "" and runs == [] and not out.exists()

    @pytest.mark.parametrize("command", ["fit", "cv", "gradcheck"])
    def test_penalty_with_a_cv_grid_is_refused_before_any_fit(self, tmp_path, capsys,
                                                              monkeypatch, command):
        # a regression with a separation penalty: every pair of the grid is refused up front
        calls = []
        monkeypatch.setattr(experiments, "fit_two_layer", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "fit_two_layer", lambda *a, **k: calls.append(a))
        cfg = {k: v for k, v in REG_CONFIG.items() if k not in ("lambda", "mu")}
        cfg.update(gamma=0.5, cv={"folds": 2, "lambda_grid": [0.1, 1.0], "mu_grid": [0.1]})
        data, _ = write_data(tmp_path, n=6, seed=9)
        argv = [command, "--config", write_config(tmp_path, cfg), "--data", data]
        if command == "fit":
            argv += ["--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "regression requires gamma = 0" in captured.err
        assert captured.out == "" and calls == []

    @pytest.mark.parametrize("command", ["fit", "cv", "gradcheck"])
    @pytest.mark.parametrize("change", [
        {"kernel": 5},
        {"opt": 5},
        {"cv": {"lambda_grid": 0.5}},
        {"seed": [1]},
        {"inner": {**REG_CONFIG["inner"], "components": 5}},
        {"kernel": {"family": "gauss", "sigma": [1]}},
    ], ids=["kernel-number", "opt-number", "cv-grid-number", "seed-list", "components-number",
            "sigma-list"])
    def test_config_block_of_wrong_type_exits_2(self, tmp_path, capsys, command, change):
        # every command reads every block, so each of these fails in all three
        cfg = {**REG_CONFIG, "cv": {"folds": 2, "lambda_grid": [0.1], "mu_grid": [0.1]}, **change}
        data, _ = write_data(tmp_path, n=6, seed=9)
        path = write_config(tmp_path, cfg)
        argv = [command, "--config", path, "--data", data]
        if command == "fit":
            argv += ["--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed config")

    @pytest.mark.parametrize("family", [["poly"], None])
    @pytest.mark.parametrize("block", ["kernel", "inner"])
    def test_nonstring_kernel_family_exits_2(self, tmp_path, capsys, block, family):
        cfg = json.loads(json.dumps(INTERP_CONFIG))
        (cfg["inner"]["components"][0] if block == "inner" else cfg["kernel"])["family"] = family
        data, _ = write_data(tmp_path, n=6, seed=9)
        assert main(["fit", "--config", write_config(tmp_path, cfg), "--data", data,
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "unknown scalar kernel family" in capsys.readouterr().err


class TestConfigBlocks:
    def test_empty_opt_block_gives_bfgs_defaults(self):
        assert _build_opt_config({}, 17) == BfgsConfig(seed=17)
        assert _build_opt_config({"opt": {}}, 17) == BfgsConfig(seed=17)

    def test_opt_keys_are_coerced(self):
        opt = {"max_iters": 7.0, "grad_tol": 1, "restarts": 3.0, "seed": 5}
        config = _build_opt_config({"opt": opt}, 17)
        assert config == BfgsConfig(max_iters=7, grad_tol=1.0, restarts=3, seed=5)
        assert [type(v) for v in (config.max_iters, config.grad_tol, config.restarts,
                                  config.seed)] == [int, float, int, int]

    def test_empty_cv_block_gives_cv_plan_defaults(self):
        assert _build_cv_plan({"cv": {}}, 17) == CvPlan(seed=17)
        assert _build_cv_plan({}, 17) is None

    def test_cv_keys_are_coerced(self):
        plan = _build_cv_plan({"cv": {"folds": 3.0, "lambda_grid": [1, 2], "mu_grid": [0.5]}}, 4)
        assert plan == CvPlan(folds=3, lambda_grid=(1.0, 2.0), mu_grid=(0.5,), seed=4)
        assert all(type(v) is float for v in plan.lambda_grid + plan.mu_grid)
        assert type(plan.folds) is int


class TestThreads:
    def test_threaded_fit_matches_sequential(self, tmp_path):
        data, _ = write_data(tmp_path, n=8, seed=13)
        cfg = write_config(tmp_path, INTERP_CONFIG)
        out1, out2 = str(tmp_path / "m1.txt"), str(tmp_path / "m2.txt")
        assert main(["--threads", "1", "fit", "--config", cfg, "--data", data, "--out", out1]) == 0
        assert main(["--threads", "4", "fit", "--config", cfg, "--data", data, "--out", out2]) == 0
        assert open(out1).read() == open(out2).read()


def _valid_record(tmp_path):
    X = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])
    model = TwoLayerModel(
        X=X, inner=DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 2.0)),
        outer=GaussKernel(1.0, 2), c=np.full((3, 2), 0.25), alpha=np.array([1.0, -2.0, 0.5]),
        lam=0.0, mu=0.0, gamma=0.0, objective_value=1.5)
    path = tmp_path / "good.json"
    save_model(model, path)
    return json.loads(path.read_text())


def _drop(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


def _set(key, value):
    return lambda rec: {**rec, key: value}


BAD_MODELS = {
    "wrong_format_tag": _set("format", "deepkern-two-layer-v3"),
    "missing_alpha": _drop("alpha"),
    "missing_outer": _drop("outer"),
    "x_wrong_dim": _set("X", [[0.1], [0.2], [0.3]]),
    "x_ragged": _set("X", [[0.1, 0.2], [0.3], [0.5, 0.6]]),
    "x_empty": _set("X", []),
    "c_wrong_rows": _set("c", [[0.25, 0.25]] * 2),
    "c_wrong_cols": _set("c", [[0.25, 0.25, 0.25]] * 3),
    "alpha_wrong_length": _set("alpha", [1.0, 2.0]),
    "alpha_matrix": _set("alpha", [[1.0], [2.0], [3.0]]),
    "outer_dim_mismatch": _set("outer", {"family": "gauss", "sigma": 1.0, "dim": 3}),
    "bad_kernel_family": _set("outer", {"family": "cubic", "dim": 2}),
    "degree_fraction": _set("outer", {"family": "poly", "p": 2.5, "dim": 2}),
    "degree_bool": _set("outer", {"family": "poly", "p": True, "dim": 2}),
    "matern_order_fraction": _set("outer", {"family": "tensor_matern", "s": 1.9, "dim": 2}),
    "dim_fraction": _set("outer", {"family": "gauss", "sigma": 1.0, "dim": 2.5}),
    "lambda_not_a_number": _set("lambda", "small"),
    # real scalars are JSON numbers, as in a config
    "lambda_bool": _set("lambda", True),
    "gamma_string": _set("gamma", "0"),
    "sigma_bool": _set("outer", {"family": "gauss", "sigma": True, "dim": 2}),
    # so is every entry of X, c and alpha
    "alpha_string": _set("alpha", ["1.0", "-2.0", "0.5"]),
    "x_row_strings": _set("X", [["0.1", "0.2"], [-0.3, 0.4], [0.5, -0.6]]),
    "c_bool": _set("c", [[0.25, True], [0.25, 0.25], [0.25, 0.25]]),
    # an integer literal no float can hold
    "x_integer_overflow": _set("X", [[10**400, 0.2], [-0.3, 0.4], [0.5, -0.6]]),
}

BAD_MODEL_TEXTS = {
    "invalid_json": lambda text: text[:-10],
    "not_an_object": lambda text: "[1, 2, 3]\n",
    "nan_in_alpha": lambda text: text.replace('"alpha": [1.0', '"alpha": [NaN'),
    "infinity_in_c": lambda text: text.replace('"c": [[0.25', '"c": [[Infinity', 1),
    "overflow_in_x": lambda text: text.replace('"X": [[0.1', '"X": [[1e400'),
    "v1_key_value": lambda text: "format=deepkern-two-layer-v1\nouter.family=gauss\nn=3\n",
}


class TestBadModelFiles:
    def _predict(self, tmp_path, text):
        model_path = tmp_path / "bad.json"
        model_path.write_text(text)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.1,0.2\n")
        return main(["predict", "--model", str(model_path), "--points", str(pts)])

    def test_valid_file_predicts(self, tmp_path):
        assert self._predict(tmp_path, json.dumps(_valid_record(tmp_path))) == 0

    @pytest.mark.parametrize("case", sorted(BAD_MODELS))
    def test_bad_record_exits_2(self, tmp_path, capsys, case):
        text = json.dumps(BAD_MODELS[case](_valid_record(tmp_path)))
        assert self._predict(tmp_path, text) == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case, key", [("alpha_string", "alpha"), ("x_row_strings", "X"),
                                           ("c_bool", "c")])
    def test_entry_that_is_not_a_number_is_named(self, tmp_path, capsys, case, key):
        text = json.dumps(BAD_MODELS[case](_valid_record(tmp_path)))
        assert self._predict(tmp_path, text) == 2
        assert f"{key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_TEXTS))
    def test_bad_text_exits_2(self, tmp_path, capsys, case):
        good = json.dumps(_valid_record(tmp_path))
        text = BAD_MODEL_TEXTS[case](good)
        assert text != good
        assert self._predict(tmp_path, text) == 2
        assert "bad.json" in capsys.readouterr().err
