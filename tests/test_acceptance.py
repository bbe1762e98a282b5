"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  The slow entries are the comparison orderings (criteria 5 and 6),
which fit real models at desk or paper scale on a fixed seed.
"""

import math
import time

import numpy as np
import pytest

from deepkern.cli import main
from deepkern.deep_model import (
    TwoLayerProblem,
    mlmkl_equivalence_check,
    objective_pair,
    objective_reg,
)
from deepkern.experiments import (
    CvPlan,
    SamplingPlan,
    decade_grid,
    run_comparison,
    sample_dataset,
)
from deepkern.kernels import (
    DiagMixtureKernel,
    DiagScaledKernel,
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
    bessel_k_half,
)
from deepkern.optimize import BfgsConfig, multistart
from deepkern.single_layer import fit_single

from oracles import block_gram, inner_norm_sq, penalty_coth, q_matrix

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

POLY1_SCALED = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))
POLY2_SCALED = DiagScaledKernel(PolyKernel(2, 2), weights=(1.0, 1.0))
MIX2 = DiagMixtureKernel((GaussKernel(1.0, 2), PolyKernel(1, 2)))

INNERS = [POLY1_SCALED, POLY2_SCALED, MIX2]
PD_OUTERS = [TensorMaternKernel(1, 2), GaussKernel(0.1, 2)]
ALL_OUTERS = PD_OUTERS + [PolyKernel(1, 2)]

def _passline(num, text):
    print(f"[ACCEPTANCE] criterion {num}: PASS — {text}")

def _draw_instance(rng, n, inner, outer, need_well_posed_interp):
    """Random (problem, c) with images away from Matern kinks and, for the
    interpolation objective, a well-conditioned Q (the finite-difference
    oracle is meaningless inside the objective's near-singular region)."""
    while True:
        X = rng.uniform(-1, 1, (n, 2))
        y = rng.standard_normal(n)
        prob = TwoLayerProblem(X, y, inner, outer)
        c = rng.standard_normal(prob.n_coeffs)
        Z = prob.images(c)
        iu = np.triu_indices(n, k=1)
        gaps = np.abs(Z[iu[0]] - Z[iu[1]])
        if outer.family == "tensor_matern" and np.min(gaps) < 1e-3:
            continue
        if need_well_posed_interp:
            Q = q_matrix(c, prob)
            if np.linalg.cond(Q) > 1e8:
                continue
        return prob, c

def _assert_fd_agreement(f, g, c, label, h=1e-6, rel_tol=1e-5):
    """Componentwise |grad - fd| <= rel_tol * |fd| above the oracle noise floor.

    A central difference at step h of a function computed to r ulps carries
    absolute noise about r * eps * |f| / (2h); components whose difference
    sits below that floor (or below the 1e-8 tiny-derivative cutoff) are
    compared absolutely, since the oracle cannot resolve them either way.
    """
    from deepkern.optimize import finite_diff_grad

    fd = finite_diff_grad(f, c, h=h)
    ga = np.asarray(g(c))
    noise_floor = max(1e-8, 100.0 * np.finfo(float).eps * (abs(f(c)) + 1.0) / (2.0 * h))
    for i in range(len(fd)):
        err = abs(ga[i] - fd[i])
        if abs(fd[i]) < 1e-8 or err <= noise_floor:
            assert err <= max(rel_tol, noise_floor), f"{label} comp {i}: abs err {err:.2e}"
        else:
            assert err / abs(fd[i]) <= rel_tol, \
                f"{label} comp {i}: rel err {err / abs(fd[i]):.2e} (fd {fd[i]:.2e})"

class TestCriterion1GradientSuite:
    def test_gradient_suite(self):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        count = 0
        # 100 interpolation draws over strictly-PD outer kernels: the linear
        # outer kernel's Q is structurally rank deficient for N > 3, which is
        # the objective's infinity region, so only (Reg) is checked there
        interp_pairs = [(o, i) for o in PD_OUTERS for i in INNERS]
        for k in range(100):
            outer, inner = interp_pairs[k % len(interp_pairs)]
            n = 4 if k % 2 == 0 else 8
            prob, c = _draw_instance(rng, n, inner, outer, need_well_posed_interp=True)
            f, g = objective_pair(prob, 0.0, 0.0, 0.0)
            _assert_fd_agreement(f, g, c, f"interp draw {k}")
            count += 1
        # 100 regression draws over every pairing; lam, mu in [0.1, 1] keep the
        # FD oracle itself accurate (small lam against the rank-deficient
        # linear outer inflates third derivatives past what an h=1e-6 central
        # difference can resolve)
        reg_pairs = [(o, i) for o in ALL_OUTERS for i in INNERS]
        for k in range(100):
            outer, inner = reg_pairs[k % len(reg_pairs)]
            n = 4 if k % 2 == 0 else 8
            lam = 10.0 ** rng.uniform(-1, 0)
            mu = 10.0 ** rng.uniform(-1, 0)
            prob, c = _draw_instance(rng, n, inner, outer, need_well_posed_interp=False)
            f, g = objective_pair(prob, lam, mu, 0.0)
            _assert_fd_agreement(f, g, c, f"reg draw {k}")
            count += 1
        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"gradient suite took {elapsed:.1f}s"
        _passline(1, f"{count} seeded instances matched central differences in {elapsed:.1f}s")

class TestCriterion2MlmklIdentity:
    def test_identity_thousand_draws(self):
        start = time.monotonic()
        rng = np.random.default_rng(1002)
        outer = GaussKernel(1.0, 1)
        inner = PolyKernel(1, 2)
        worst = 0.0
        for _ in range(1000):
            X = rng.uniform(-1, 1, (rng.integers(2, 9), 2))
            nu = rng.standard_normal(len(X))
            x, t = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            lhs, rhs = mlmkl_equivalence_check(outer, inner, X, nu, x, t)
            gap = abs(lhs - rhs) / (abs(lhs) + 1.0)
            worst = max(worst, gap)
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)
        elapsed = time.monotonic() - start
        assert elapsed <= 5.0, f"MLMKL suite took {elapsed:.1f}s"
        _passline(2, f"1000 draws, worst normalized gap {worst:.2e}, {elapsed:.2f}s")

class TestCriterion3ClosedFormOracles:
    def test_named_oracles(self):
        # N = 1 solves
        np.testing.assert_allclose(
            fit_single(GaussKernel(1.0, 2), [[0.1, 0.2]], [3.0]).alpha, [3.0])
        np.testing.assert_allclose(
            fit_single(TensorMaternKernel(1, 2), [[0.4, -0.2]], [math.pi / 2.0]).alpha,
            [1.0], rtol=1e-12)
        np.testing.assert_allclose(
            fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [2.0], lam=1.0).alpha, [1.0])
        np.testing.assert_allclose(
            fit_single(GaussKernel(1.0, 2), [[0.0, 0.0]], [5.0], lam=4.0).alpha, [1.0])

        # Q / N block-matrix oracle
        rng = np.random.default_rng(1003)
        X = rng.uniform(-1, 1, (5, 2))
        y = rng.standard_normal(5)
        prob = TwoLayerProblem(X, y, MIX2, GaussKernel(1.0, 2))
        B = block_gram(MIX2, X)
        c = rng.standard_normal(prob.n_coeffs)
        assert inner_norm_sq(c, prob) == pytest.approx(c @ B @ c, rel=1e-12)
        Q = q_matrix(c, prob)
        f, _ = objective_pair(prob, 0.0, 0.0, 0.0)
        assert f(c) == pytest.approx(
            y @ np.linalg.inv(Q) @ y + c @ B @ c, rel=1e-10)

        # alpha-side identity for the regression energy terms
        lam, mu = 0.25, 0.5
        alpha = np.linalg.solve(Q + lam * np.eye(5), y)
        preds = Q @ alpha
        expected = float(np.sum((preds - y) ** 2)) + lam * float(alpha @ Q @ alpha) \
            + mu * inner_norm_sq(c, prob)
        assert objective_reg(c, prob, lam, mu) == pytest.approx(expected, rel=1e-10)

        # coth(1), Matern factor, Bessel recurrence
        K = DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, 1.0))
        Xp = np.array([[0.0, 0.0], [50.0, 50.0]])
        pen_prob = TwoLayerProblem(Xp, np.zeros(2), K, GaussKernel(1.0, 2))
        cpen = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert penalty_coth(cpen, pen_prob, 1.0) == pytest.approx(1.313035, abs=1e-6)
        matern = TensorMaternKernel(1, 1)
        assert matern(np.array([0.0]), np.array([1.0])) == pytest.approx(
            SQRT_HALF_PI * math.exp(-1.0), rel=1e-12)
        assert bessel_k_half(1, 1.0) == pytest.approx(2.0 * bessel_k_half(0, 1.0), rel=1e-14)
        assert bessel_k_half(0, 1.0) == pytest.approx(0.461069, abs=1e-6)

        _passline(3, "N=1 solves, block-Gram oracle, energy identity, coth(1), "
                     "Matern factor, Bessel recurrence")

class TestCriterion4RepresenterConsistency:
    def test_extra_centers_do_not_improve(self):
        start = time.monotonic()
        inner = POLY1_SCALED
        outer = GaussKernel(1.0, 2)
        worst = -np.inf
        for seed in range(201, 206):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-1, 1, (8, 2))
            y = rng.standard_normal(8)
            extra = rng.uniform(-1, 1, (4, 2))
            cfg = BfgsConfig(restarts=16, seed=seed)
            objs = {}
            for label, extra_centers in (("base", None), ("aug", extra)):
                prob = TwoLayerProblem(X, y, inner, outer, extra_centers=extra_centers)
                f, g = objective_pair(prob, 0.0, 0.0, 0.0)
                objs[label] = multistart(f, g, prob.n_coeffs, cfg).objective
            rel = (objs["base"] - objs["aug"]) / abs(objs["base"])
            worst = max(worst, rel)
            assert rel <= 1e-3, f"seed {seed}: augmenting improved by {rel:.2e}"
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0
        _passline(4, f"5 seeds, worst relative improvement {worst:.2e}, {elapsed:.1f}s")

class TestCriterion5InterpolationOrdering:
    @pytest.mark.parametrize("scale,n,restarts", [("desk", 50, 16), ("paper", 100, 64)])
    def test_figure3_ordering(self, scale, n, restarts):
        start = time.monotonic()
        plan = SamplingPlan(n_samples=n, noise_sigma=0.01, seed=7041)
        report = run_comparison(
            "h1", TensorMaternKernel(1, 2), POLY1_SCALED, plan,
            mode="interpolation", config=BfgsConfig(restarts=restarts, seed=0))
        elapsed = time.monotonic() - start
        two, single = report.two_layer.error, report.single_layer.error
        assert two.mean_error < single.mean_error
        assert two.frac_above_10pct < single.frac_above_10pct
        if scale == "desk":
            assert elapsed <= 600.0
        _passline(5, f"{scale}: mean {two.mean_error:.4f} < {single.mean_error:.4f}, "
                     f"frac>10% {two.frac_above_10pct:.4f} < {single.frac_above_10pct:.4f}, "
                     f"{elapsed:.0f}s")

class TestCriterion6LinearOuterOrdering:
    def test_figure6_ordering(self):
        start = time.monotonic()
        mixture = DiagMixtureKernel(components=(
            GaussKernel(0.1, 2), GaussKernel(1.0, 2), GaussKernel(10.0, 2),
            PolyKernel(1, 2), PolyKernel(2, 2),
        ))
        cv_plan = CvPlan(lambda_grid=tuple(decade_grid()), mu_grid=tuple(decade_grid()))
        config = BfgsConfig(restarts=16, seed=0)
        cv_config = BfgsConfig(restarts=2, max_iters=100, seed=0)
        wins = 0
        margins = []
        for seed in (101, 102, 103, 104, 105):
            plan = SamplingPlan(n_samples=50, noise_sigma=0.01, seed=seed)
            linear = run_comparison(
                "h1", PolyKernel(1, 5), mixture, plan, cv_plan=cv_plan,
                mode="regression", config=config, cv_config=cv_config)
            nonlinear = run_comparison(
                "h1", TensorMaternKernel(1, 5), mixture, plan, cv_plan=cv_plan,
                mode="regression", config=config, cv_config=cv_config)
            e1 = linear.two_layer.error.mean_error
            e2 = nonlinear.two_layer.error.mean_error
            margins.append((seed, e2, e1))
            if e2 < e1:
                wins += 1
        elapsed = time.monotonic() - start
        detail = "; ".join(f"seed {s}: {a:.3f} vs {b:.3f}" for s, a, b in margins)
        assert wins >= 4, f"nonlinear outer won only {wins}/5 seeds ({detail})"
        _passline(6, f"nonlinear outer beat linear outer on {wins}/5 seeds "
                     f"({detail}), {elapsed:.0f}s")

class TestCriterion7CostScaling:
    def test_objective_gradient_scaling(self):
        inner = POLY1_SCALED
        outer = TensorMaternKernel(1, 2)
        times = {}
        for n in (25, 50, 100):
            ds = sample_dataset("h1", SamplingPlan(n_samples=n, seed=55))
            prob = TwoLayerProblem(ds.X, ds.y, inner, outer)
            rng = np.random.default_rng(56)
            c = rng.standard_normal(prob.n_coeffs)
            f, g = objective_pair(prob, 0.0, 0.0, 0.0)
            f(c), g(c)   # warm up caches and JIT-y paths
            reps = 20
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(reps):
                    # a fresh pair per call: one full value and gradient, no cache hit
                    f, g = objective_pair(prob, 0.0, 0.0, 0.0)
                    val, grad = f(c), g(c)
                samples.append((time.perf_counter() - t0) / reps)
            times[n] = min(samples)
            assert math.isfinite(val) and np.all(np.isfinite(grad))
        r1 = times[50] / times[25]
        r2 = times[100] / times[50]
        assert r1 <= 10.0 and r2 <= 10.0, f"growth factors {r1:.1f}, {r2:.1f}"
        _passline(7, f"per-eval time {times[25]*1e3:.2f} / {times[50]*1e3:.2f} / "
                     f"{times[100]*1e3:.2f} ms; growth {r1:.1f}x, {r2:.1f}x per doubling")

class TestCriterion8DemoDeterminism:
    def test_demo_byte_identical(self, tmp_path):
        outs = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            code = main(["--threads", "1", "demo", "--figure", "int-h1",
                         "--scale", "desk", "--out-dir", str(out_dir)])
            assert code == 0
            outs.append(out_dir)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        assert "report.txt" in files
        for name in files:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        _passline(8, f"two desk runs produced byte-identical {', '.join(files)}")
