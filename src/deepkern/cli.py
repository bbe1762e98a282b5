"""Command-line interface.

Subcommands: fit, predict, demo, cv, gradcheck, error-grid, inner-map.
Exit codes follow one convention everywhere: 0 success, 2 bad input
(config, CSV, dimensions), 3 numerical failure (singular system, failed
optimization, no feasible restart).  All randomness derives from the
single config/flag seed, so every command is reproducible at a fixed BLAS
thread count; between thread counts results differ in about the 10th digit.

``fit``, ``cv`` and ``gradcheck`` read every block of a config in one
place, ``_load_inputs``, so each rejects what the others reject, and
``gradcheck`` checks the very (f, g) pair that ``fit`` minimizes, at
the config's mode, (lambda, mu) and gamma; where ``fit`` would choose
(lambda, mu) by cross-validation, it checks at lambda = mu = 1.  The input
rules live in ``deep_model`` (the (lambda, mu, gamma) rule, the layer shapes)
and ``kernels`` (``integer_field`` and ``real_field`` read every number).
"""

import argparse
import json
import math
import os
import sys

from .deep_model import (
    TwoLayerProblem,
    check_regularization,
    fit_two_layer,
    load_model,
    objective_pair,
    predict_two_layer,
    save_model,
)
from .experiments import (
    CvPlan,
    EvalGrid,
    SamplingPlan,
    cross_validate,
    decade_grid,
    dyadic_grid,
    pointwise_error_grid,
    read_dataset_csv,
    read_points_csv,
    run_comparison,
    stream_rng,
    stream_seed,
    write_error_grid_csv,
    write_inner_map_csv,
    write_predictions_csv,
    write_report,
)
from .gram import SingularMatrixError
from .kernels import (
    DiagMixtureKernel,
    DiagScaledKernel,
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
    integer_field,
    matrix_from_params,
    real_field,
    scalar_from_params,
)
from .optimize import BfgsConfig, OptimizationError, grad_check


def _load_config(path):
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _build_kernels(cfg, data_dim):
    """Outer and inner kernels from the config blocks; ``dim`` defaults to the dimension each layer reads."""
    if "kernel" not in cfg or "inner" not in cfg:
        raise ValueError("config needs 'kernel' (outer) and 'inner' blocks")
    inner_cfg = dict(cfg["inner"])
    inner_cfg["components"] = [{"dim": data_dim, **c} for c in inner_cfg.get("components", [])]
    inner = matrix_from_params(inner_cfg)
    outer = scalar_from_params({"dim": inner.out_dim, **cfg["kernel"]})
    return outer, inner


def _build_opt_config(cfg, seed):
    """BfgsConfig from the 'opt' block; BfgsConfig reads the values, and left-out keys keep its defaults."""
    opt = cfg.get("opt", {})
    given = {k: opt[k] for k in ("max_iters", "grad_tol", "restarts", "seed") if k in opt}
    return BfgsConfig(**{"seed": seed, **given})


def _build_cv_plan(cfg, seed):
    """CvPlan from the 'cv' block, or None without one; left-out keys keep CvPlan's defaults."""
    cv = cfg.get("cv")
    if cv is None:
        return None
    given = {k: cv[k] for k in ("folds", "lambda_grid", "mu_grid") if k in cv}   # CvPlan reads them
    return CvPlan(seed=seed, **given)


def _objective_params(cfg, plan):
    """(lam, mu, gamma) of the config's mode, as fit reads them.

    Interpolation is lam = mu = 0; ``objective_pair`` checks its gamma.  A
    regression takes 'lambda' and 'mu' from the config, or else leaves them
    to cross-validation over the 'cv' block's plan: then lam and mu are
    None.  ``check_regularization`` checks every (lam, mu) a regression can
    use, with its gamma, before any fit.
    """
    mode = cfg.get("mode", "interpolate")
    gamma = real_field(cfg.get("gamma", 0.0), "gamma")
    if mode == "interpolate":
        return 0.0, 0.0, gamma
    if mode != "regress":
        raise ValueError(f"unknown mode {mode!r}")
    if "lambda" in cfg and "mu" in cfg:
        lam, mu = real_field(cfg["lambda"], "lambda"), real_field(cfg["mu"], "mu")
        check_regularization(lam, mu, gamma)
        return lam, mu, gamma
    if plan is None:
        raise ValueError("regression needs 'lambda' and 'mu', or a 'cv' block")
    for lam in plan.lambda_grid:
        for mu in plan.mu_grid:
            check_regularization(lam, mu, gamma)
    return None, None, gamma


def _load_inputs(args):
    """Dataset, (outer, inner) kernels, seed, BfgsConfig, CV plan and (lam, mu, gamma).

    fit, cv and gradcheck all read every block of the config here, so each
    rejects a config the others reject, before any fit; only the layer
    shapes and an interpolation's gamma wait for the problem and objective
    to be built, and ``cv`` refuses an interpolation config.  A value of
    the wrong JSON type (a number where an object or a list belongs, or a
    string or a bool where a number belongs) raises ValueError naming the
    config file, as a bad model file does.
    """
    cfg = _load_config(args.config)
    dataset = read_dataset_csv(args.data)
    try:
        outer, inner = _build_kernels(cfg, dataset.X.shape[1])
        seed = integer_field(cfg.get("seed", 0), "seed")
        config = _build_opt_config(cfg, stream_seed(seed, "init"))
        plan = _build_cv_plan(cfg, seed)
        params = _objective_params(cfg, plan)
    except (TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"{args.config}: malformed config ({e})") from None
    return dataset, outer, inner, seed, config, plan, params


# -----------------------------
# Subcommands
# -----------------------------

def _cmd_fit(args):
    dataset, outer, inner, _, config, plan, (lam, mu, gamma) = _load_inputs(args)
    if lam is None:
        cv = cross_validate(dataset, inner, outer, plan, config)
        lam, mu = cv.best_lambda, cv.best_mu
        print(f"cv.best_lambda={lam!r}")
        print(f"cv.best_mu={mu!r}")

    model, result = fit_two_layer(dataset.X, dataset.y, inner, outer,
                                  lam=lam, mu=mu, gamma=gamma, config=config)
    save_model(model, args.out)
    print(f"objective={result.objective!r}")
    print(f"restart_index={result.restart_index}")
    print(f"grad_norm={result.grad_norm!r}")
    print(f"converged={result.converged}")
    print(f"iterations={result.iterations}")
    print(f"model={args.out}")
    return 0


def _cmd_predict(args):
    model = load_model(args.model)
    pts = read_points_csv(args.points)
    if not len(pts):   # a header-only file may name other columns
        pts = pts.reshape(0, model.X.shape[1])
    write_predictions_csv(None, pts, predict_two_layer(model, pts))
    return 0


_DEMO_FIGURES = ("int-h1", "int-h2", "reg-h1", "reg-h2", "linout-h1", "linout-h2")


def _demo_setup(figure, scale, seed):
    tf = "h1" if figure.endswith("h1") else "h2"
    n, restarts = (100, 64) if scale == "paper" else (50, 16)
    plan = SamplingPlan(n_samples=n, noise_sigma=0.01, seed=seed)
    config = BfgsConfig(restarts=restarts)
    # CV cells get a slimmer budget; the final refit uses the full one
    cv_config = BfgsConfig(restarts=max(2, restarts // 8), max_iters=100)
    return tf, plan, config, cv_config


def _demo_cv_grid(grid, scale):
    # desk scale thins the parameter grid to keep the demo minute-scale
    return tuple(grid) if scale == "paper" else tuple(grid[::2])


def _cmd_demo(args):
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    tf, plan, config, cv_config = _demo_setup(args.figure, args.scale, args.seed)
    kind = args.figure.split("-")[0]

    if kind != "linout":   # int and reg share the inner kernel: degree 1 for h1, 2 for h2
        degree = 1 if tf == "h1" else 2
        inner = DiagScaledKernel(PolyKernel(degree=degree, dim=2), weights=(1.0, 1.0))
        if kind == "int":
            outer, mode, cv_plan = TensorMaternKernel(order=1, dim=2), "interpolation", None
        else:
            grid = _demo_cv_grid(dyadic_grid(), args.scale)
            outer, mode = GaussKernel(sigma=0.1, dim=2), "regression"
            cv_plan = CvPlan(lambda_grid=grid, mu_grid=grid)
        report = run_comparison(tf, outer, inner, plan, cv_plan=cv_plan, mode=mode,
                                config=config, cv_config=cv_config)
        lines = report.lines()
        write_error_grid_csv(os.path.join(out_dir, "two_layer_error.csv"), report.two_layer.error)
        write_error_grid_csv(os.path.join(out_dir, "single_layer_error.csv"), report.single_layer.error)
        write_inner_map_csv(os.path.join(out_dir, "inner_map.csv"), report.two_layer_model, EvalGrid())
    else:   # linear versus nonlinear outer kernel on the mixture inner kernel
        mixture = DiagMixtureKernel(components=(
            GaussKernel(sigma=0.1, dim=2),
            GaussKernel(sigma=1.0, dim=2),
            GaussKernel(sigma=10.0, dim=2),
            PolyKernel(degree=1, dim=2),
            PolyKernel(degree=2, dim=2),
        ))
        grid = _demo_cv_grid(decade_grid(), args.scale)
        cv_plan = CvPlan(lambda_grid=grid, mu_grid=grid)
        rep1 = run_comparison(tf, PolyKernel(degree=1, dim=5), mixture, plan,
                              cv_plan=cv_plan, mode="regression",
                              config=config, cv_config=cv_config)
        rep2 = run_comparison(tf, TensorMaternKernel(order=1, dim=5), mixture, plan,
                              cv_plan=cv_plan, mode="regression",
                              config=config, cv_config=cv_config)
        lines = ["figure=" + args.figure, "scale=" + args.scale]
        lines += ["setting1." + ln for ln in rep1.lines()]
        lines += ["setting2." + ln for ln in rep2.lines()]
        write_error_grid_csv(os.path.join(out_dir, "setting1_error.csv"), rep1.two_layer.error)
        write_error_grid_csv(os.path.join(out_dir, "setting2_error.csv"), rep2.two_layer.error)
        write_error_grid_csv(os.path.join(out_dir, "single_layer_error.csv"), rep2.single_layer.error)
        grid = EvalGrid()
        write_inner_map_csv(os.path.join(out_dir, "setting1_inner_map.csv"), rep1.two_layer_model, grid)
        write_inner_map_csv(os.path.join(out_dir, "setting2_inner_map.csv"), rep2.two_layer_model, grid)
    write_report(os.path.join(out_dir, "report.txt"), lines)
    write_report(None, lines)
    return 0


def _cmd_cv(args):
    dataset, outer, inner, _, config, plan, (lam, _, _) = _load_inputs(args)
    if lam == 0.0 or plan is None:   # an interpolation has no (lambda, mu) to choose
        raise ValueError("cv needs a config with mode 'regress' and a 'cv' block")
    cv = cross_validate(dataset, inner, outer, plan, config)
    print(f"best_lambda={cv.best_lambda!r}")
    print(f"best_mu={cv.best_mu!r}")
    means = cv.mean_scores
    for il, lam in enumerate(plan.lambda_grid):
        for im, mu in enumerate(plan.mu_grid):
            print(f"score.lambda={lam!r}.mu={mu!r}={float(means[il, im])!r}")
    return 0


def _cmd_gradcheck(args):
    dataset, outer, inner, seed, _, _, (lam, mu, gamma) = _load_inputs(args)
    if lam is None:   # fit would pick (lam, mu) by CV; check at lam = mu = 1
        lam = mu = 1.0
    prob = TwoLayerProblem(dataset.X, dataset.y, inner, outer)
    f, g = objective_pair(prob, lam, mu, gamma)
    c = stream_rng(seed, "init").standard_normal(prob.n_coeffs)
    if not math.isfinite(f(c)):
        raise OptimizationError("random coefficient draw landed in the infeasible region")
    report = grad_check(f, g, c)
    print(f"max_rel_err={report.max_rel_err!r}")
    print(f"worst_component={report.worst_component}")
    print(f"passed={report.passed}")
    if not report.passed:
        raise OptimizationError(
            f"gradient check failed: max relative error {report.max_rel_err:.3e}"
        )
    return 0


def _cmd_error_grid(args):
    model = load_model(args.model)
    grid = EvalGrid(meshwidth=args.meshwidth)
    err = pointwise_error_grid(lambda pts: predict_two_layer(model, pts), args.function, grid)
    write_error_grid_csv(args.out, err)
    print(f"mean_error={err.mean_error!r}", file=sys.stderr)
    print(f"max_error={err.max_error!r}", file=sys.stderr)
    print(f"frac_above_10pct={err.frac_above_10pct!r}", file=sys.stderr)
    return 0


def _cmd_inner_map(args):
    model = load_model(args.model)
    grid = EvalGrid(meshwidth=args.meshwidth)
    write_inner_map_csv(args.out, model, grid)
    return 0


# -----------------------------
# Parser and entry point
# -----------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="deepkern")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: the restarts of a fit run one after another")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a two-layer model from a CSV dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="evaluate a saved model at points")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("demo", help="reproduce a comparison experiment")
    p.add_argument("--figure", required=True, choices=_DEMO_FIGURES)
    p.add_argument("--scale", default="desk", choices=("paper", "desk"))
    p.add_argument("--out-dir", default="demo_out")
    p.add_argument("--seed", type=int, default=7041)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("cv", help="cross-validate (lambda, mu) on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against differences")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("error-grid", help="pointwise error grid of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--function", required=True, choices=("h1", "h2"))
    p.add_argument("--meshwidth", type=float, default=1.0 / 50.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_error_grid)

    p = sub.add_parser("inner-map", help="dump the learned inner transformation on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--meshwidth", type=float, default=1.0 / 50.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_inner_map)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularMatrixError, OptimizationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
