"""The benchmark's workloads: inputs from a seed, one job, output checks.

Each workload is a closed loop with one caller: ``job()`` runs one
complete user job and returns when it is done, and the runner starts the
next job only then.  ``job()`` is the timed region; ``outcome()`` checks
the outputs of the last job afterwards, outside the timing.

Inputs are generated here, not by the library, with the recipe of
``deepkern.experiments.sample_dataset`` (uniform points on [-1, 1]^2,
h1 targets, N(0, 0.01^2) noise, the same seed substreams), so the default
seeds reproduce the data of the paper demo and of acceptance criterion 6.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from deepkern import cli, deep_model, experiments, optimize
from deepkern.kernels import DiagMixtureKernel, GaussKernel, PolyKernel, TensorMaternKernel

SAMPLING_TAG = 0x5A01   # substream tags of deepkern.experiments.stream_seed
INIT_TAG = 0x5A02


def substream_seed(seed, tag):
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1, np.uint64)[0])


def h1_dataset(seed, n):
    """n noisy samples of h1(x, y) = 1 / (0.1 + |x - y|) on [-1, 1]^2."""
    rng = np.random.default_rng(substream_seed(seed, SAMPLING_TAG))
    X = rng.uniform(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), size=(n, 2))
    noise = 0.01 * rng.standard_normal(n)
    y = 1.0 / (0.1 + np.abs(X[:, 0] - X[:, 1])) + noise
    return experiments.Dataset(X=X, y=y)


def linout_mixture():
    """The five-component diagonal inner kernel of the linout figures (D = 5)."""
    return DiagMixtureKernel(components=(
        GaussKernel(sigma=0.1, dim=2), GaussKernel(sigma=1.0, dim=2),
        GaussKernel(sigma=10.0, dim=2), PolyKernel(degree=1, dim=2),
        PolyKernel(degree=2, dim=2),
    ))


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


@dataclass
class Outcome:
    digest: str
    checks: dict                                  # check name -> passed
    quality: dict = field(default_factory=dict)   # metric -> (value, unit), fixed by the inputs
    rates: dict = field(default_factory=dict)     # metric -> (value, unit), measured speeds


class Workload:
    """One job on inputs made from one seed; ``toy`` shrinks it for tests and warm-up."""

    def prepare(self):
        """Untimed work before the job."""


class IntH1Paper(Workload):
    """The paper's interpolation figure through the real command line."""

    name = "int-h1-paper"
    default_seed = 7041
    unit = "restart"
    threads = 1

    def __init__(self, seed, toy, out_dir):
        scale = "desk" if toy else "paper"
        self.out_dir = os.path.join(out_dir, "demo")
        self.argv = ["--threads", str(self.threads), "demo", "--figure", "int-h1",
                     "--scale", scale, "--seed", str(seed), "--out-dir", self.out_dir]
        n, restarts = (50, 16) if toy else (100, 64)
        self.params = {"N": n, "D": 2, "restarts": restarts, "threads": self.threads,
                       "seed": seed, "command": "deepkern " + " ".join(self.argv[:-2])}
        self.code = None

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def job(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.code = cli.main(self.argv)

    def outcome(self):
        names = sorted(os.listdir(self.out_dir)) if os.path.isdir(self.out_dir) else []
        blobs = []
        for name in names:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                blobs.append(fh.read())
        report = {}
        if "report.txt" in names:
            text = blobs[names.index("report.txt")].decode()
            report = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)

        def num(key):
            return float(report.get(key, "nan"))

        two, one = num("two_layer.mean_error"), num("single_layer.mean_error")
        two_frac, one_frac = num("two_layer.frac_above_10pct"), num("single_layer.frac_above_10pct")
        checks = {
            "cli exit code 0": self.code == 0,
            "two-layer mean error below single-layer": two < one,
            "two-layer share above 10% error below single-layer": two_frac < one_frac,
        }
        return Outcome(
            digest=_digest(*(x for pair in zip(names, blobs) for x in pair)),
            checks=checks,
            quality={"best_objective": (num("two_layer.objective"), "1"),
                     "grid_mean_error": (two, "1"),
                     "single_layer_grid_mean_error": (one, "1"),
                     "bytes_written": (float(sum(len(b) for b in blobs)), "B")},
        )


class RegD5N100(Workload):
    """Regression fit at fixed (lam, mu) with the D = 5 mixture inner kernel,
    then save, reload and predict on a fine grid."""

    name = "reg-d5-n100"
    default_seed = 7041
    unit = "restart"
    threads = 1
    lam = mu = 1e-3

    def __init__(self, seed, toy, out_dir):
        n, iters, mesh = (20, 10, 1.0 / 10.0) if toy else (100, 100, 1.0 / 100.0)
        self.data = h1_dataset(seed, n)
        self.inner = linout_mixture()
        self.outer = TensorMaternKernel(order=1, dim=5)
        self.config = optimize.BfgsConfig(restarts=2, max_iters=iters,
                                          seed=substream_seed(seed, INIT_TAG))
        self.grid = experiments.EvalGrid(meshwidth=mesh)
        self.model_path = os.path.join(out_dir, "model.txt")
        self.params = {"N": n, "D": 5, "restarts": 2, "max_iters": iters, "threads": self.threads,
                       "seed": seed, "lambda": self.lam, "mu": self.mu,
                       "grid_points": len(self.grid.axis_points(0)) ** 2}
        self.last = None

    def job(self):
        model, result = deep_model.fit_two_layer(
            self.data.X, self.data.y, self.inner, self.outer, lam=self.lam, mu=self.mu,
            config=self.config, threads=self.threads)
        deep_model.save_model(model, self.model_path)
        loaded = deep_model.load_model(self.model_path)
        predict_s = []

        def predict(points):
            t0 = time.perf_counter()
            out = deep_model.predict_two_layer(loaded, points)
            predict_s.append(time.perf_counter() - t0)
            return out

        err = experiments.pointwise_error_grid(predict, "h1", self.grid)
        self.last = (model, result, loaded, err, sum(predict_s))

    def outcome(self):
        model, result, loaded, err, predict_s = self.last
        prob = deep_model.TwoLayerProblem(self.data.X, self.data.y, self.inner, self.outer)
        recomputed = deep_model.objective_reg(model.c.ravel(), prob, self.lam, self.mu)
        probe = err.points[::37]
        checks = {
            "objective_reg at returned c matches reported objective":
                math.isclose(recomputed, result.objective, rel_tol=1e-12)
                and model.objective_value == result.objective,
            "reloaded model has identical parameters":
                all(np.array_equal(getattr(model, k), getattr(loaded, k)) for k in ("X", "c", "alpha")),
            "reloaded model predicts bit-identically":
                np.array_equal(deep_model.predict_two_layer(model, probe),
                               deep_model.predict_two_layer(loaded, probe)),
            "grid errors finite": bool(np.all(np.isfinite(err.errors))),
        }
        return Outcome(
            digest=_digest(model.c.tobytes(), model.alpha.tobytes(), result.objective,
                           err.errors.tobytes()),
            checks=checks,
            quality={"best_objective": (result.objective, "1"),
                     "grid_mean_error": (err.mean_error, "1")},
            rates={"predict_pts_per_s": (len(err.points) / predict_s, "1/s")},
        )


class CvLinoutDesk(Workload):
    """Cross-validation of (lambda, mu) on the desk linout setting."""

    name = "cv-linout-desk"
    default_seed = 101
    unit = "cell"
    # the command line defaults to one restart thread per core
    threads = max(1, min(2, os.cpu_count() or 1))

    def __init__(self, seed, toy, out_dir):
        if toy:
            n, folds, iters, grid = 20, 2, 5, (1e-1, 1e-5)
        else:
            n, folds, iters, grid = 50, 5, 100, tuple(experiments.decade_grid()[::2])
        self.data = h1_dataset(seed, n)
        self.inner = linout_mixture()
        self.outer = TensorMaternKernel(order=1, dim=5)
        self.plan = experiments.CvPlan(folds=folds, lambda_grid=grid, mu_grid=grid, seed=seed)
        self.config = optimize.BfgsConfig(restarts=2, max_iters=iters,
                                          seed=substream_seed(seed, INIT_TAG))
        self.params = {"N": n, "D": 5, "restarts": 2, "max_iters": iters, "threads": self.threads,
                       "seed": seed, "folds": folds, "grid": list(grid),
                       "cells": folds * len(grid) ** 2}
        self.cv = None

    def job(self):
        self.cv = experiments.cross_validate(self.data, self.inner, self.outer, self.plan,
                                             self.config, threads=self.threads)

    def outcome(self):
        cv = self.cv
        means = cv.mean_scores
        checks = {
            "every cell score finite": bool(np.all(np.isfinite(cv.fold_scores))),
            "selected pair is on the grid":
                cv.best_lambda in self.plan.lambda_grid and cv.best_mu in self.plan.mu_grid,
        }
        return Outcome(
            digest=_digest(cv.fold_scores.tobytes(), cv.best_lambda, cv.best_mu),
            checks=checks,
            quality={"cv_best_mse": (float(np.min(means)), "1")},
        )


WORKLOADS = {w.name: w for w in (IntH1Paper, RegD5N100, CvLinoutDesk)}
