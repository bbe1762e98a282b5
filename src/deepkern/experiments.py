"""Comparison harness: test functions, sampling, cross-validation, error grids.

The two desk targets are a reciprocal kink along the diagonal and a hard
indicator jump:

    h1(x, y) = 1 / (0.1 + |x - y|)
    h2(x, y) = 1 if x*y > 3/20 else 0

Both sit outside every RKHS spanned by the shipped kernels, which is what
makes the single- versus two-layer comparison informative.

All randomness flows from one master seed expanded into named streams
(sampling / init / folds), so partial reruns are stable and full runs are
byte-reproducible.
"""

import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .deep_model import fit_two_layer, predict_two_layer
from .gram import by_point_blocks
from .kernels import integer_field, real_field
from .optimize import BfgsConfig
from .single_layer import fit_single, predict_single

DOMAIN = ((-1.0, 1.0), (-1.0, 1.0))   # the box [-1, 1]^2 of both test functions
# EvalGrid refuses a finer grid before allocating it, so a grid holds at most
# 2,001^2 = 4,004,001 points (a width of 0.001 on [-1, 1])
MAX_AXIS_POINTS = 2001

_STREAM_TAGS = {"sampling": 0x5A01, "init": 0x5A02, "folds": 0x5A03}


def stream_seed(master, name):
    """A 64-bit seed for one of the named substreams of a master seed."""
    ss = np.random.SeedSequence([int(master), _STREAM_TAGS[name]])
    return int(ss.generate_state(1, np.uint64)[0])


def stream_rng(master, name):
    return np.random.default_rng(stream_seed(master, name))


# -----------------------------
# Test functions
# -----------------------------

def _h1(points):
    p = np.atleast_2d(points)
    return 1.0 / (0.1 + np.abs(p[:, 0] - p[:, 1]))


def _h2(points):
    p = np.atleast_2d(points)
    return (p[:, 0] * p[:, 1] > 3.0 / 20.0).astype(float)


TEST_FUNCTIONS = {"h1": _h1, "h2": _h2}


# -----------------------------
# Sampling and grids
# -----------------------------

@dataclass(frozen=True)
class SamplingPlan:
    n_samples: int = 100
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        object.__setattr__(self, "noise_sigma", real_field(self.noise_sigma, "noise_sigma"))
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if not 0.0 <= self.noise_sigma < math.inf:   # also rejects NaN
            raise ValueError(f"noise level must be finite and nonnegative, got {self.noise_sigma!r}")


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray


def sample_dataset(tf, plan):
    """Uniform points on DOMAIN with additive Gaussian noise on the targets."""
    rng = stream_rng(plan.seed, "sampling")
    lo = np.array([b[0] for b in DOMAIN])
    hi = np.array([b[1] for b in DOMAIN])
    X = rng.uniform(lo, hi, size=(plan.n_samples, len(DOMAIN)))
    noise = plan.noise_sigma * rng.standard_normal(plan.n_samples)
    y = TEST_FUNCTIONS[tf](X) + noise
    return Dataset(X=X, y=y)


@dataclass(frozen=True)
class EvalGrid:
    meshwidth: float = 1.0 / 50.0

    def __post_init__(self):
        object.__setattr__(self, "meshwidth", real_field(self.meshwidth, "meshwidth"))
        if not 0.0 < self.meshwidth < math.inf:   # also rejects NaN
            raise ValueError(f"mesh width must be finite and positive, got {self.meshwidth!r}")
        smallest = max(hi - lo for lo, hi in DOMAIN) / (MAX_AXIS_POINTS - 1)
        if self.meshwidth < smallest:
            raise ValueError(f"meshwidth must be at least {smallest!r} ({MAX_AXIS_POINTS} points "
                             f"per axis), got {self.meshwidth!r}")

    def axis_points(self, i):
        lo, hi = DOMAIN[i]
        count = int(round((hi - lo) / self.meshwidth)) + 1
        return np.linspace(lo, hi, count)

    def points(self):
        """All grid points in row-major order, shape (n_t, d)."""
        axes = [self.axis_points(i) for i in range(len(DOMAIN))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


# -----------------------------
# Cross-validation
# -----------------------------

def dyadic_grid():
    """{2^(-2t+1) : t = 1..10}"""
    return [2.0 ** (-2 * t + 1) for t in range(1, 11)]


def decade_grid():
    """{10^(-2t+1) : t = 1..6}"""
    return [10.0 ** (-2 * t + 1) for t in range(1, 7)]


@dataclass(frozen=True)
class CvPlan:
    folds: int = 5
    lambda_grid: tuple = tuple(dyadic_grid())
    mu_grid: tuple = tuple(dyadic_grid())
    seed: int = 0

    def __post_init__(self):
        for name in ("folds", "seed"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        if self.folds < 2:
            raise ValueError("need at least two folds")
        for name in ("lambda_grid", "mu_grid"):
            grid = tuple(real_field(v, name) for v in getattr(self, name))
            if not (grid and all(0.0 < v < math.inf for v in grid)):   # also rejects NaN
                raise ValueError(f"{name} must be nonempty, finite and positive, got {grid!r}")
            object.__setattr__(self, name, grid)


def fold_blocks(n, folds, rng):
    """Shuffled contiguous index blocks forming a partition of range(n)."""
    if folds > n:
        raise ValueError("more folds than data points")
    perm = rng.permutation(n)
    return [np.sort(b) for b in np.array_split(perm, folds)]


@dataclass(frozen=True)
class CvResult:
    """The chosen (lambda, mu) and every cell's fold scores; the grids are the plan's."""
    best_lambda: float
    best_mu: float
    fold_scores: np.ndarray   # (n_lambda, n_mu, folds), indexed like the plan's grids

    @property
    def mean_scores(self):
        return self.fold_scores.mean(axis=-1)


def cross_validate(dataset, inner, outer, cv_plan, config, threads=1):
    """Grid search over (lambda, mu) with k-fold validation.

    Scores are held-out mean squared prediction errors.  Ties go to the
    larger (lambda, mu) pair, i.e. the stronger regularization.  ``threads``
    is accepted and unused: every fit runs in the calling thread.
    """
    blocks = fold_blocks(len(dataset.y), cv_plan.folds, stream_rng(cv_plan.seed, "folds"))
    n_lam, n_mu = len(cv_plan.lambda_grid), len(cv_plan.mu_grid)
    scores = np.empty((n_lam, n_mu, cv_plan.folds))
    for il, lam in enumerate(cv_plan.lambda_grid):
        for im, mu in enumerate(cv_plan.mu_grid):
            for k, held_out in enumerate(blocks):
                mask = np.ones(len(dataset.y), dtype=bool)
                mask[held_out] = False
                model, _ = fit_two_layer(
                    dataset.X[mask], dataset.y[mask], inner, outer,
                    lam=lam, mu=mu, config=config,
                )
                preds = predict_two_layer(model, dataset.X[held_out])
                scores[il, im, k] = float(np.mean((preds - dataset.y[held_out]) ** 2))
    mean_scores = scores.mean(axis=-1)
    # the smallest mean score; on a tie the larger (lambda, mu), and the first of repeats
    il, im = min(np.ndindex(n_lam, n_mu), key=lambda i: (
        mean_scores[i], -cv_plan.lambda_grid[i[0]], -cv_plan.mu_grid[i[1]]))
    return CvResult(
        best_lambda=cv_plan.lambda_grid[il], best_mu=cv_plan.mu_grid[im], fold_scores=scores,
    )


# -----------------------------
# Pointwise error grids
# -----------------------------

@dataclass(frozen=True)
class ErrorGrid:
    points: np.ndarray
    errors: np.ndarray
    mean_error: float
    max_error: float
    frac_above_10pct: float


def pointwise_error_grid(predict_fn, tf, grid):
    """Absolute prediction errors on the grid plus summary statistics.

    The 10%-threshold fraction is measured against the sup norm of the
    test function on the same grid.
    """
    pts = grid.points()
    truth = TEST_FUNCTIONS[tf](pts)
    preds = np.asarray(predict_fn(pts), dtype=float)
    errors = np.abs(preds - truth)
    sup_h = float(np.max(np.abs(truth)))
    return ErrorGrid(
        points=pts,
        errors=errors,
        mean_error=float(np.mean(errors)),
        max_error=float(np.max(errors)),
        frac_above_10pct=float(np.mean(errors > 0.1 * sup_h)),
    )


# -----------------------------
# Single-layer vs two-layer comparison
# -----------------------------

@dataclass(frozen=True)
class ArmReport:
    label: str
    error: ErrorGrid
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ComparisonReport:
    test_function: str
    mode: str
    plan: SamplingPlan
    restarts: int
    two_layer: ArmReport
    single_layer: ArmReport
    two_layer_model: object

    def lines(self):
        out = [
            f"test_function={self.test_function}",
            f"mode={self.mode}",
            f"n_samples={self.plan.n_samples}",
            f"noise_sigma={self.plan.noise_sigma!r}",
            f"seed={self.plan.seed}",
            f"restarts={self.restarts}",
        ]
        for arm in (self.two_layer, self.single_layer):
            p = arm.label
            for key, val in sorted(arm.params.items()):
                out.append(f"{p}.{key}={val!r}" if isinstance(val, float) else f"{p}.{key}={val}")
            out.append(f"{p}.mean_error={arm.error.mean_error!r}")
            out.append(f"{p}.max_error={arm.error.max_error!r}")
            out.append(f"{p}.frac_above_10pct={arm.error.frac_above_10pct!r}")
        return out


def run_comparison(tf, outer, inner, plan, cv_plan=None, mode="interpolation",
                   config=None, cv_config=None):
    """Fit the two-layer model and the single-layer baseline, report errors on ``EvalGrid()``.

    Interpolation mode fits both arms exactly; regression mode selects
    (lambda, mu) by cross-validation for the two-layer arm and gives the
    baseline its best lambda in ``cv_plan.lambda_grid``, chosen directly on
    the true grid error (the first one on a tie).  Every seed derives from
    ``plan.seed``; the seeds of ``config``, ``cv_config`` and ``cv_plan`` are replaced.
    """
    if mode not in ("interpolation", "regression"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "regression" and cv_plan is None:
        raise ValueError("regression mode needs a CV plan")
    config = config or BfgsConfig()
    grid = EvalGrid()
    dataset = sample_dataset(tf, plan)
    fit_config = replace(config, seed=stream_seed(plan.seed, "init"))
    lam = mu = 0.0
    two_params, lambda_grid = {}, (0.0,)
    if mode == "regression":
        cell_config = replace(cv_config, seed=fit_config.seed) if cv_config else fit_config
        cv = cross_validate(dataset, inner, outer, replace(cv_plan, seed=plan.seed), cell_config)
        lam, mu = cv.best_lambda, cv.best_mu
        two_params, lambda_grid = {"lambda": lam, "mu": mu}, cv_plan.lambda_grid
    model, result = fit_two_layer(dataset.X, dataset.y, inner, outer, lam=lam, mu=mu,
                                  config=fit_config)
    two_params.update(objective=result.objective, restart_index=result.restart_index)
    two_err = pointwise_error_grid(lambda pts: predict_two_layer(model, pts), tf, grid)

    baseline = replace(outer, dim=dataset.X.shape[1])
    best = None
    for base_lam in lambda_grid:
        cand = fit_single(baseline, dataset.X, dataset.y, lam=base_lam)
        err = pointwise_error_grid(lambda pts: predict_single(cand, pts), tf, grid)
        if best is None or err.mean_error < best[1].mean_error:
            best = (base_lam, err)
    single_lam, single_err = best
    return ComparisonReport(
        test_function=tf,
        mode=mode,
        plan=plan,
        restarts=config.restarts,
        two_layer=ArmReport("two_layer", two_err, two_params),
        single_layer=ArmReport("single_layer", single_err, {"lambda": single_lam}),
        two_layer_model=model,
    )


def inner_transform_dump(model, grid):
    """Rows (t_1, t_2, g_1(t), ..., g_D(t)) showing the learned deformation.

    g is evaluated in blocks of ``gram.POINT_BLOCK`` = 256 grid points.
    """
    pts = grid.points()
    prob = model.problem()
    images = by_point_blocks(lambda block: prob.images_at(model.c, block), pts)
    return np.hstack([pts, images])


# -----------------------------
# CSV and report I/O
# -----------------------------

def write_report(path, lines):
    """Each of the lines and a newline, to the file at path, or to stdout when path is None.

    Every file and every CSV the CLI writes goes through here.  ``sys.stdout``
    is looked up at each call, so a caller's redirect of it is honoured, and
    a shell's ``>>`` appends, which reopening ``/dev/stdout`` would truncate.
    Lines are written as they are drawn, so a generator is never held whole.
    """
    text = (line + "\n" for line in lines)
    if path is None:
        sys.stdout.writelines(text)
        return
    with open(path, "w") as fh:
        fh.writelines(text)


def _write_csv(path, header, rows):
    """A header line, then one line per row of the 2-D array rows, every value as repr(float)."""
    # tolist() gives Python floats (numpy 2 reprs a float64 as "np.float64(...)"), one
    # row at a time: a whole-array list left int-h1-paper's peak RSS 1.6 MB higher
    body = (",".join(map(repr, row.tolist())) for row in rows)
    write_report(path, itertools.chain([",".join(header)], body))


def _read_csv_rows(path, what):
    """Header fields and an (n, fields) float array; bad rows raise with their line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty {what} file")
    header = [h.strip() for h in lines[0].split(",")]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        rows.append(vals)
    return header, np.array(rows).reshape(len(rows), len(header))


def read_dataset_csv(path):
    """Parse the sample CSV; malformed rows raise with their line number."""
    header, rows = _read_csv_rows(path, "dataset")
    if header[-1] != "y" or len(header) < 2:
        raise ValueError(f"{path}: expected header x1,...,xd,y")
    if not len(rows):
        raise ValueError(f"{path}: no data rows")
    return Dataset(X=rows[:, :-1].copy(), y=rows[:, -1].copy())


def read_points_csv(path):
    """Points file: like the dataset CSV but the y column is optional."""
    header, rows = _read_csv_rows(path, "points")
    d = len(header) - 1 if header[-1] == "y" else len(header)
    return rows[:, :d].copy()


def write_predictions_csv(path, points, predictions):
    header = [f"x{i+1}" for i in range(points.shape[1])] + ["prediction"]
    _write_csv(path, header, np.column_stack([points, predictions]))


def write_error_grid_csv(path, error_grid):
    header = [f"t{i+1}" for i in range(error_grid.points.shape[1])] + ["abs_error"]
    _write_csv(path, header, np.column_stack([error_grid.points, error_grid.errors]))


def write_inner_map_csv(path, model, grid):
    rows = inner_transform_dump(model, grid)
    d = len(DOMAIN)   # the grid's dimension; the rest of each row is g(t)
    header = [f"t{i+1}" for i in range(d)] + [f"g{i+1}" for i in range(rows.shape[1] - d)]
    _write_csv(path, header, rows)
