"""Seeded BFGS with strong Wolfe line search and a multistart driver.

The problems here are a few hundred dimensions at most, so a full dense
inverse Hessian is kept (no limited-memory variant).  It is updated with
the BFGS formula of Nocedal & Wright, *Numerical Optimization* (2nd ed.),
eq. 6.17, expanded into one matrix-vector product and rank-one outer
products, so an update costs O(n^2) rather than the O(n^3) of forming
``V H V^T``.

Objectives may return the large finite sentinel used by the interpolation
objective for numerically singular Gram matrices; a line-search trial
hitting it simply fails the sufficient-decrease test, which shrinks the
step.

Everything is deterministic given (seed, config): restart k draws its
starting point from ``default_rng(seed ^ k)``, and the multistart
reduction breaks objective ties by the lowest restart index, so results
do not depend on evaluation order.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_BIG = 1e11   # anything at or above this is treated as a sentinel value


class OptimizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BfgsConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6        # infinity norm
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    restarts: int = 64
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class OptimizationResult:
    x: np.ndarray
    objective: float
    restart_index: int
    iterations: int
    converged: bool
    grad_norm: float


def _cubic_step(a, fa, da, b, fb, db):
    """Minimizer of the cubic matching values and slopes at a and b."""
    if a == b:
        return None
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return None
    d2 = np.sqrt(disc) * np.sign(b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    return b - (b - a) * (db + d2 - d1) / denom


def _zoom(feval, geval, alo, flo, dlo, ahi, fhi, dhi, f0, dphi0, c1, c2, max_iter=30):
    """Wolfe zoom phase; dhi may be None when the slope at ahi is unknown."""
    for _ in range(max_iter):
        lo, hi = (alo, ahi) if alo < ahi else (ahi, alo)
        width = hi - lo
        if width <= 1e-16 * max(1.0, abs(alo)):
            return None
        a = None
        usable = np.isfinite(flo) and np.isfinite(fhi) and flo < _BIG and fhi < _BIG
        if usable and dhi is not None:
            a = _cubic_step(alo, flo, dlo, ahi, fhi, dhi)
        elif usable:
            # quadratic through (alo, flo, dlo) and (ahi, fhi)
            denom = 2.0 * (fhi - flo - dlo * (ahi - alo))
            if denom != 0.0:
                a = alo - dlo * (ahi - alo) ** 2 / denom
        if a is None or not np.isfinite(a) or a <= lo + 0.1 * width or a >= hi - 0.1 * width:
            a = 0.5 * (alo + ahi)
        fa = feval(a)
        if not np.isfinite(fa) or fa > f0 + c1 * a * dphi0 or fa >= flo:
            ahi, fhi, dhi = a, fa, None
        else:
            ga, da = geval(a)
            if abs(da) <= -c2 * dphi0:
                assert fa <= f0 + c1 * a * dphi0   # strong Wolfe holds on acceptance
                return a, fa, ga
            if da * (ahi - alo) >= 0.0:
                ahi, fhi, dhi = alo, flo, dlo
            alo, flo, dlo = a, fa, da
    return None


def _strong_wolfe(feval, geval, f0, dphi0, c1, c2, alpha_max=100.0, max_iter=25):
    """Bracketing phase; returns (alpha, f, grad) or None on failure."""
    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = 1.0
    for i in range(max_iter):
        fa = feval(a)
        if not np.isfinite(fa) or fa > f0 + c1 * a * dphi0 or (i > 0 and fa >= f_prev):
            return _zoom(feval, geval, a_prev, f_prev, d_prev, a, fa, None, f0, dphi0, c1, c2)
        ga, da = geval(a)
        if abs(da) <= -c2 * dphi0:
            assert fa <= f0 + c1 * a * dphi0
            return a, fa, ga
        if da >= 0.0:
            return _zoom(feval, geval, a, fa, da, a_prev, f_prev, d_prev, f0, dphi0, c1, c2)
        a_prev, f_prev, d_prev = a, fa, da
        if a >= alpha_max:
            return None
        a = min(2.0 * a, alpha_max)
    return None


def _inverse_update(H, s, y, rho):
    """BFGS update of the inverse Hessian H in place, with rho = 1 / (s^T y).

    Expands ``V H V^T + rho s s^T`` with ``V = I - rho s y^T`` (Nocedal &
    Wright eq. 6.17) for symmetric H.  The cross terms are added in both
    orders, so a symmetric H stays exactly symmetric.
    """
    Hy = H @ y
    H += ((1.0 + rho * float(y @ Hy)) * rho) * np.outer(s, s)
    cross = np.outer(Hy, s)
    H -= rho * (cross + cross.T)


def bfgs_minimize(f, g, x0, config=BfgsConfig(), restart_index=0):
    """Minimize f with dense BFGS starting at x0; deterministic given inputs."""
    x = np.array(x0, dtype=float)
    fx = float(f(x))
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at the starting point")
    gx = np.asarray(g(x), dtype=float)
    gnorm = float(np.max(np.abs(gx))) if len(gx) else 0.0
    if gnorm <= config.grad_tol:
        return OptimizationResult(x, fx, restart_index, 0, True, gnorm)

    n = len(x)
    eye = np.eye(n)
    H = eye.copy()
    iterations = 0
    converged = False
    first_update = True
    for _ in range(config.max_iters):
        p = -(H @ gx)
        dphi0 = float(p @ gx)
        if dphi0 >= 0.0:   # H lost positive definiteness; restart from steepest descent
            H = eye.copy()
            p = -gx
            dphi0 = float(p @ gx)
            if dphi0 == 0.0:
                break

        def feval(a):
            return float(f(x + a * p))

        def geval(a):
            ga = np.asarray(g(x + a * p), dtype=float)
            return ga, float(ga @ p)

        ls = _strong_wolfe(feval, geval, fx, dphi0, config.wolfe_c1, config.wolfe_c2)
        if ls is None:
            break
        a, f_new, g_new = ls
        s = a * p
        yk = g_new - gx
        x = x + s
        fx = f_new
        gx = g_new
        iterations += 1
        sy = float(s @ yk)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(yk)):
            if first_update:
                H = (sy / float(yk @ yk)) * eye
                first_update = False
            _inverse_update(H, s, yk, 1.0 / sy)
        gnorm = float(np.max(np.abs(gx)))
        if gnorm <= config.grad_tol:
            converged = True
            break
    # fx is f at the last accepted trial point x + a*p, which is x + s bitwise
    return OptimizationResult(x, fx, restart_index, iterations, converged, gnorm)


def _one_restart(f, g, dim, config, k):
    rng = np.random.default_rng(config.seed ^ k)
    x0 = config.init_scale * rng.standard_normal(dim)
    try:
        return bfgs_minimize(f, g, x0, config, restart_index=k)
    except ValueError:
        return None


def multistart(f, g, dim, config=BfgsConfig(), threads=1):
    """Best of ``config.restarts`` independent BFGS runs from seeded normal starts."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda k: _one_restart(f, g, dim, config, k),
                                    range(config.restarts)))
    else:
        results = [_one_restart(f, g, dim, config, k) for k in range(config.restarts)]
    best = None
    for res in results:
        if res is None or not np.isfinite(res.objective):
            continue
        if best is None or res.objective < best.objective:
            best = res
    if best is None:
        raise OptimizationError("no restart produced a finite objective")
    return best


def finite_diff_grad(f, x, h=1e-6):
    """Central-difference gradient, one coordinate at a time."""
    if not (h > 0.0):
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    worst_component: int
    passed: bool


def grad_check(f, g, x, h=1e-6, rel_tol=1e-5):
    """Compare an analytic gradient against central differences.

    Components with |fd| below 1e-8 are compared absolutely (the relative
    error is meaningless near a sign change of the derivative).
    """
    fd = finite_diff_grad(f, x, h)
    ga = np.asarray(g(x), dtype=float)
    errs = np.empty_like(fd)
    for i in range(len(fd)):
        if abs(fd[i]) < 1e-8:
            errs[i] = abs(ga[i] - fd[i])
        else:
            errs[i] = abs(ga[i] - fd[i]) / abs(fd[i])
    worst = int(np.argmax(errs)) if len(errs) else 0
    max_err = float(errs[worst]) if len(errs) else 0.0
    return GradCheckReport(max_rel_err=max_err, worst_component=worst, passed=max_err <= rel_tol)
