"""Seeded BFGS with strong Wolfe line search and a multistart driver.

BFGS runs in range-space coordinates: given an (n, r) matrix U with
orthonormal columns, the iterate is x = x0 + U v and BFGS moves v in R^r,
starting at v = 0.  The caller supplies U when it knows the objective's
gradient always lies in range(U) (then BFGS could never leave x0 + range(U)
anyway); ``basis=None`` means U = I.  f and g stay functions of x: the
search direction and the update use the pulled-back gradient U^T g(x),
and the stopping test is the infinity norm of g(x) itself.  A restart has
one exit, reached when that norm is at most ``grad_tol`` (after 0
iterations at a start that meets it), after ``max_iters`` iterations, at a
failed line search or where U^T g(x) = 0; ``converged`` is read off the
final gradient norm.

A full dense r x r inverse Hessian is kept (no limited-memory variant).
It is updated with the BFGS formula of Nocedal & Wright, *Numerical
Optimization* (2nd ed.), eq. 6.17, expanded into one matrix-vector
product and rank-one outer products, so an update costs O(r^2) rather
than the O(r^3) of forming ``V H V^T``; building a trial point and
pulling a gradient back cost O(n r) each.

An objective marks an infeasible point (a numerically singular Gram
matrix, say) with the value inf; a line-search trial there fails like any
other non-finite trial, which shrinks the step.

A restart whose starting point has a non-finite objective raises
``InfeasibleStartError`` and is skipped by ``multistart``; any other
exception from the objective propagates, so a configuration error is not
reported as "no restart converged".

Everything is deterministic given (seed, config, basis): restart k draws
its starting point x0 ~ N(0, I_n) from ``default_rng(seed ^ k)``, and
``multistart`` runs the restarts in order and breaks objective ties by the
lowest restart index.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import integer_field, real_field

WOLFE_C1 = 1e-4         # sufficient decrease (Nocedal & Wright, section 3.1)
WOLFE_C2 = 0.9          # curvature
ALPHA_MAX = 100.0       # the largest step the bracketing phase tries
BRACKET_MAX_ITER = 25   # trial steps of the bracketing phase; binds only when ALPHA_MAX > 2^24
ZOOM_MAX_ITER = 30      # trial steps of the zoom phase
GRAD_CHECK_STEP = 1e-6      # central-difference step of grad_check
GRAD_CHECK_REL_TOL = 1e-5   # largest error grad_check passes


class OptimizationError(RuntimeError):
    pass


class InfeasibleStartError(ValueError):
    """The objective is not finite at a restart's starting point."""


@dataclass(frozen=True)
class BfgsConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6        # infinity norm of g(x), the gradient in x, not in v
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iters", "restarts", "seed"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        object.__setattr__(self, "grad_tol", real_field(self.grad_tol, "grad_tol"))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0.0 <= self.grad_tol < np.inf:   # also rejects NaN
            raise ValueError(f"grad_tol must be finite and >= 0, got {self.grad_tol!r}")
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
    """Minimizer of the cubic matching values and slopes at a and b; a != b."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return None
    d2 = np.sqrt(disc) * np.sign(b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    return b - (b - a) * (db + d2 - d1) / denom


def _zoom(feval, geval, alo, flo, dlo, ahi, fhi, dhi, f0, dphi0):
    """Wolfe zoom phase; dhi may be None when the slope at ahi is unknown."""
    for _ in range(ZOOM_MAX_ITER):
        lo, hi = (alo, ahi) if alo < ahi else (ahi, alo)
        width = hi - lo
        if width <= 1e-16 * max(1.0, abs(alo)):
            return None
        a = None
        usable = np.isfinite(fhi)   # flo is f0 or an accepted trial's value, both finite
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
        if not np.isfinite(fa) or fa > f0 + WOLFE_C1 * a * dphi0 or fa >= flo:
            ahi, fhi, dhi = a, fa, None
        else:
            ga, da = geval(a)
            if abs(da) <= -WOLFE_C2 * dphi0:
                return a, fa, ga
            if da * (ahi - alo) >= 0.0:
                ahi, fhi, dhi = alo, flo, dlo
            alo, flo, dlo = a, fa, da
    return None


# Hand-written, not scipy.optimize.line_search: importing scipy.optimize adds about
# 20 MB to a fresh process's peak RSS; the swap took the benchmark's peak_rss_mb from
# 63 to 83 MB on cv-linout-desk and 100 to 120 MB on reg-d5-n100 (x86-64 Linux, scipy 1.17).
def _strong_wolfe(feval, geval, f0, dphi0):
    """Bracketing phase; returns (alpha, f, grad) or None on failure."""
    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = 1.0
    for i in range(BRACKET_MAX_ITER):
        fa = feval(a)
        if not np.isfinite(fa) or fa > f0 + WOLFE_C1 * a * dphi0 or (i > 0 and fa >= f_prev):
            return _zoom(feval, geval, a_prev, f_prev, d_prev, a, fa, None, f0, dphi0)
        ga, da = geval(a)
        if abs(da) <= -WOLFE_C2 * dphi0:
            return a, fa, ga
        if da >= 0.0:
            return _zoom(feval, geval, a, fa, da, a_prev, f_prev, d_prev, f0, dphi0)
        a_prev, f_prev, d_prev = a, fa, da
        if a >= ALPHA_MAX:
            return None
        a = min(2.0 * a, ALPHA_MAX)
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


def bfgs_minimize(f, g, x0, config=BfgsConfig(), restart_index=0, basis=None):
    """Minimize f over x0 + range(basis) with dense BFGS; deterministic given inputs.

    ``basis`` is an (n, r) matrix with orthonormal columns, None for the
    identity.  The returned x is the point at which the returned objective
    was evaluated, bit for bit.
    """
    x0 = np.array(x0, dtype=float)
    U = np.eye(len(x0)) if basis is None else np.asarray(basis, dtype=float)
    x = x0
    fx = float(f(x))
    if not np.isfinite(fx):
        raise InfeasibleStartError("objective is not finite at the starting point")
    gx = np.asarray(g(x), dtype=float)
    gnorm = float(np.max(np.abs(gx))) if len(gx) else 0.0
    v = np.zeros(U.shape[1])
    gv = U.T @ gx
    eye = np.eye(len(v))
    H = eye.copy()
    iterations = 0
    first_update = True
    # "not <=" keeps going at a NaN gradient norm, which never counts as converged
    while not gnorm <= config.grad_tol and iterations < config.max_iters:
        p = -(H @ gv)
        dphi0 = float(p @ gv)
        if dphi0 >= 0.0:   # H lost positive definiteness; restart from steepest descent
            H = eye.copy()
            p = -gv
            dphi0 = float(p @ gv)
            if dphi0 == 0.0:
                break
        trials = {}   # step -> trial point, so f and g at one step see the same bits

        def point(a):
            if a not in trials:
                trials[a] = x0 + U @ (v + a * p)
            return trials[a]

        def feval(a):
            return float(f(point(a)))

        def geval(a):
            ga = np.asarray(g(point(a)), dtype=float)
            gva = U.T @ ga
            return (ga, gva), float(gva @ p)

        ls = _strong_wolfe(feval, geval, fx, dphi0)
        if ls is None:
            break
        a, fx, (gx, gv_new) = ls
        s = a * p
        yk = gv_new - gv
        v = v + s
        x = trials[a]
        gv = gv_new
        iterations += 1
        sy = float(s @ yk)
        # a subnormal s^T y can pass the curvature test, but then 1 / s^T y is inf
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(yk)) and np.isfinite(1.0 / sy):
            if first_update:
                H = (sy / float(yk @ yk)) * eye
                first_update = False
            _inverse_update(H, s, yk, 1.0 / sy)
        gnorm = float(np.max(np.abs(gx)))
    return OptimizationResult(x, fx, restart_index, iterations, gnorm <= config.grad_tol, gnorm)


def multistart(f, g, dim, config=BfgsConfig(), basis=None):
    """Best of ``config.restarts`` independent BFGS runs from seeded normal starts.

    Restarts run one after another, in restart order, in the calling thread;
    every restart searches its own x0 + range(basis), see ``bfgs_minimize``.
    """
    best = None
    for k in range(config.restarts):
        x0 = np.random.default_rng(config.seed ^ k).standard_normal(dim)
        try:
            res = bfgs_minimize(f, g, x0, config, restart_index=k, basis=basis)
        except InfeasibleStartError:   # any other error is a bug or a bad config: let it out
            continue
        if best is None or res.objective < best.objective:   # res.objective is finite
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


def grad_check(f, g, x):
    """Compare an analytic gradient against central differences of step GRAD_CHECK_STEP.

    Components with |fd| below 1e-8 are compared absolutely (the relative
    error is meaningless near a sign change of the derivative).
    """
    fd = finite_diff_grad(f, x, GRAD_CHECK_STEP)
    ga = np.asarray(g(x), dtype=float)
    errs = np.empty_like(fd)
    for i in range(len(fd)):
        if abs(fd[i]) < 1e-8:
            errs[i] = abs(ga[i] - fd[i])
        else:
            errs[i] = abs(ga[i] - fd[i]) / abs(fd[i])
    worst = int(np.argmax(errs)) if len(errs) else 0
    max_err = float(errs[worst]) if len(errs) else 0.0
    return GradCheckReport(max_rel_err=max_err, worst_component=worst, passed=max_err <= GRAD_CHECK_REL_TOL)
