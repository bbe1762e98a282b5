"""Two-layer concatenated kernel models: one objective core, fitting, prediction.

The inner function g maps the data domain into the outer kernel's domain
and is parameterized by an (Nc, D) coefficient matrix c over the kernel
translates at the inner centers: the N data points, then any extra centers:

    g(x) = sum_j Kmat(center_j, x) c_j        (Kmat diagonal, D outputs)

By the representer theorem both concatenated problems reduce to a
nonlinear problem in c alone.  With Q(c) the outer Gram matrix of the
mapped points g(x_i), N(c) = c^T Kblock c the squared inner-RKHS norm and
alpha = (Q + lam I)^{-1} y the outer coefficients, both have the value

    s y^T alpha + w N(c)  [+ coth penalty],  (s, w) = (1, 1) or (lam, mu),

for interpolation (Int, lam = 0) and regression (Reg, lam, mu > 0): as
y - Q alpha = lam alpha, Reg's lam alpha^T Q alpha + |y - Q alpha|^2 is lam y^T alpha.

One core evaluates both, in two stages.  ``_objective_value`` forms Kblock c,
takes its data rows as the images Z, forms Q, solves for alpha and returns
the value with the state the gradient needs (Q and Kblock c among it);
``_objective_grad`` turns that state into the gradient, the only place the
outer kernel's derivatives are evaluated, as the vector-Jacobian product
``outer.vjp(Z, Q, alpha)`` from stage one's Q: it pulls -2 s alpha_p
sum_n alpha_n d2K(g_n, g_p) back through dg/dc and adds 2 w Kblock c.
Gradients are exact; one objective+gradient evaluation costs O(N^3 + N^2 D),
and a BFGS iteration adds O(r^2 + N D r).  Without the penalty (gamma = 0)
an evaluation forms no (N, N, D) temporary; with it, ``_penalty_terms``
forms the (N, N, D) pairwise differences of the images.

``objective_pair(prob, lam, mu, gamma)`` is the one way to evaluate the
objective: the (f, g) pair that a fit minimizes and that ``deepkern
gradcheck`` checks.  f runs stage one and g runs stage two, only at points
where the line search asks for the gradient.  Building the pair checks the
mode rule, so fit and gradcheck get it from one place: lam = mu = 0 is
Int with a finite gamma >= 0; anything else is Reg (``check_regularization``).
``objective_reg`` is stage one's Reg value alone, for checking a reported
objective.  A fitted model's alpha is stage one's alpha at the returned c.

The objective sees c only through B[l] c_l, per output l, with B[l] the
inner Gram block over the centers: its data rows are the images and
c_l^T B[l] c_l is the norm.  Both gradients of output l lie in range(B[l]),
since the data columns of B[l] are among its columns.  So BFGS never
leaves its start's translate of these ranges, and a fit runs it on the
range part only: ``range_basis`` stacks the eigenvectors of each B[l] with
eigenvalues above ``RANGE_CUTOFF`` times that block's largest into an
orthonormal (N D, r) basis, once per fit, and ``optimize`` iterates on r
coordinates instead of N D.  The objective and the model keep the full c.

Every infeasible point has the value SENTINEL = inf, a zero gradient and
no stage-one state: a non-finite Q, a Q that is singular up to the
largest jitter, coincident mapped points under the separation penalty,
and any other non-finite value (an overflowed inner norm, say).  The line search treats
an infinite trial as a failed one and retreats; an infinite starting point
makes the restart infeasible, so a fit with no feasible start fails.

Models are saved as one JSON object (``MODEL_FORMAT``); ``load_model``
rejects files with a wrong format tag, missing keys, inconsistent shapes,
or a value that is not a finite JSON number where a number belongs.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .gram import SingularMatrixError, by_point_blocks, shift_diagonal, spd_solve
from .kernels import matrix_from_params, matrix_to_params, real_field, scalar_from_params, scalar_to_params
from .optimize import BfgsConfig, multistart
from .single_layer import SingleLayerModel, predict_single

SENTINEL = math.inf   # the value of every infeasible point
RANGE_CUTOFF = 1e-12  # range_basis keeps eigenvalues above this times the block's largest


# -----------------------------
# Problem context
# -----------------------------

def check_layer_shapes(X, inner, outer):
    """The layer-shape rule: X is (n, inner.dim) with n >= 1, and outer.dim = inner.out_dim."""
    if X.ndim != 2 or len(X) == 0 or X.shape[1] != inner.dim:
        raise ValueError(f"X has shape {X.shape}, expected (n, {inner.dim}) with n >= 1")
    if outer.dim != inner.out_dim:
        raise ValueError(f"outer kernel dimension {outer.dim} does not match "
                         f"inner output dimension {inner.out_dim}")


class TwoLayerProblem:
    """Immutable bundle of data, kernels and the precomputed inner Gram stack.

    The centers are the data points, then ``extra_centers`` if given, which
    enlarge the inner search space (used to probe the representer property).
    c is the flat vector of the (len(centers), inner.out_dim) coefficient
    matrix, ``n_coeffs`` entries long.
    """

    def __init__(self, X, y, inner, outer, extra_centers=None):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float)
        if len(self.y) != len(self.X):
            raise ValueError("X and y lengths differ")
        check_layer_shapes(self.X, inner, outer)
        self.inner = inner
        self.outer = outer
        self.centers = self.X if extra_centers is None else np.vstack([self.X, extra_centers])
        self.B = inner.diag_cross(self.centers, self.centers)   # (D, Nc, Nc); rows :N are the data
        self.n_coeffs = len(self.centers) * inner.out_dim

    def coeff_matrix(self, c):
        c = np.asarray(c, dtype=float)
        return c.reshape(len(self.centers), self.inner.out_dim)

    def images(self, c):
        """Mapped data points g(x_i), shape (N, D): the data rows of Kblock c."""
        return _block_times(self, self.coeff_matrix(c))[:len(self.X)]

    def images_at(self, c, points):
        """g evaluated at arbitrary points, shape (m, D)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        C = self.inner.diag_cross(self.centers, pts)
        return np.einsum("djm,jd->md", C, self.coeff_matrix(c))


def _block_times(prob, cm):
    """Kblock c as an (Nc, D) array: sum_k Kmat(x_j, x_k) c_k."""
    return np.einsum("djk,kd->jd", prob.B, cm)


def _penalty_terms(Z, gamma):
    """Penalty value and its gradient with respect to the mapped points."""
    iu = np.triu_indices(len(Z), k=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diff = Z[:, None, :] - Z[None, :, :]
        d2 = np.sum(diff**2, axis=-1)
        val = gamma * np.sum(1.0 / np.tanh(d2[iu]))
        w = 1.0 / np.sinh(d2) ** 2          # csch^2, underflows to 0 for far pairs
        np.fill_diagonal(w, 0.0)            # diagonal d2 = 0 is not a pair
        dPdZ = -2.0 * gamma * np.einsum("mn,mnd->md", w, diff)
    # a coincident pair gives inf * 0 = NaN, and a pair with d2 below about
    # 1e-154 overflows csch^2: both are infeasible
    if not np.all(np.isfinite(dPdZ)):
        return SENTINEL, None
    return float(val), dPdZ


# -----------------------------
# Objective core (Int and Reg)
# -----------------------------

def check_regularization(lam, mu, gamma=0.0):
    """The regression rule: lam and mu finite and > 0, and gamma = 0; raise ValueError otherwise."""
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):   # also rejects NaN
        raise ValueError(f"regression requires finite lam > 0 and mu > 0, got lambda={lam!r}, mu={mu!r}")
    if gamma != 0.0:
        raise ValueError(f"regression requires gamma = 0 (no separation penalty), got gamma={gamma!r}")


def _objective_value(c, prob, lam, mu, gamma):
    """Stage one: (value, state) of Int (lam = 0) or Reg (lam > 0).

    ``state`` is (Z, alpha, s, w, dPdZ, Q, Bc), everything ``_objective_grad``
    needs, or None at an infeasible point, where the value is SENTINEL.
    Bc = Kblock c gives the images Z (its data rows), the norm and its gradient.
    """
    cm = prob.coeff_matrix(c)
    with np.errstate(over="ignore", invalid="ignore"):   # caught by the isfinite checks below
        Bc = _block_times(prob, cm)
        norm = float(np.sum(cm * Bc))
        Z = Bc[:len(prob.X)]
        Q = prob.outer.cross(Z, Z)
    if not np.all(np.isfinite(Q)):   # overflowed images, e.g. runaway line-search trial
        return SENTINEL, None
    try:
        alpha, _ = spd_solve(shift_diagonal(Q, lam), prob.y)
    except SingularMatrixError:      # for lam > 0 unreachable in exact arithmetic
        return SENTINEL, None
    s, w = (lam, mu) if lam else (1.0, 1.0)
    val = s * float(prob.y @ alpha) + w * norm

    dPdZ = None
    if gamma > 0.0:
        pen, dPdZ = _penalty_terms(Z, gamma)
        if dPdZ is None:
            return SENTINEL, None
        val += pen
    if not math.isfinite(val):       # e.g. an overflowed inner norm or coth
        return SENTINEL, None
    return val, (Z, alpha, s, w, dPdZ, Q, Bc)


def _objective_grad(prob, state):
    """Stage two: the exact gradient from stage one's state; zero in the sentinel region."""
    if state is None:
        return np.zeros(prob.n_coeffs)
    Z, alpha, s, w, dPdZ, Q, Bc = state
    dVdZ = -2.0 * s * alpha[:, None] * prob.outer.vjp(Z, Q, alpha)
    if dPdZ is not None:
        dVdZ = dVdZ + dPdZ
    grad = np.einsum("djn,nd->jd", prob.B[:, :, :len(Z)], dVdZ)
    grad += 2.0 * w * Bc
    return grad.ravel()


def objective_pair(prob, lam, mu, gamma):
    """The objective as the (f, g) pair a fit minimizes; the gradient is lazy.

    The strong Wolfe line search evaluates f at every trial point but asks
    for the gradient only where sufficient decrease holds, and then at the
    point it just evaluated.  So ``f`` runs stage one and keeps its state
    in a one-slot cache, and ``g`` runs stage two on that state the first
    time the gradient is asked for at that point.  One slot serves every
    restart because restarts run one after another in one thread; the
    pair is not safe to call from two threads at once.

    lam = mu = 0 selects Int, with a finite gamma >= 0; anything else must
    pass ``check_regularization``.  Both are checked before any restart runs.
    """
    if not (lam == 0.0 and mu == 0.0):
        check_regularization(lam, mu, gamma)
    elif not 0.0 <= gamma < math.inf:   # also rejects NaN
        raise ValueError(f"interpolation requires a finite gamma >= 0, got gamma={gamma!r}")
    slot = {"key": None}

    def at(c):
        key = c.tobytes()
        if slot["key"] != key:
            slot["val"], slot["state"] = _objective_value(c, prob, lam, mu, gamma)
            slot["grad"] = None
            slot["key"] = key
        return slot

    def f(c):
        return at(c)["val"]

    def g(c):
        entry = at(c)
        if entry["grad"] is None:
            entry["grad"] = _objective_grad(prob, entry["state"])
        return entry["grad"]

    return f, g


def objective_reg(c, prob, lam, mu):
    """The regularized two-layer least-squares objective (stage one's value); needs lam, mu > 0."""
    check_regularization(lam, mu)
    return _objective_value(c, prob, lam, mu, 0.0)[0]


# -----------------------------
# Fitting driver
# -----------------------------

def range_basis(prob):
    """Orthonormal (n_coeffs, r) basis of the coefficient directions the objective sees.

    Output l owns the coordinates l::D of the flat c; its columns are the
    eigenvectors of B[l] whose eigenvalues exceed RANGE_CUTOFF times the
    largest, so r is the summed numerical rank of the D blocks.
    """
    D = prob.inner.out_dim
    w, V = np.linalg.eigh(prob.B)   # one eigendecomposition per output block
    kept = [V[l][:, w[l] > RANGE_CUTOFF * w[l, -1]] for l in range(D)]
    U = np.zeros((prob.n_coeffs, sum(V.shape[1] for V in kept)))
    col = 0
    for l, V in enumerate(kept):
        U[l::D, col:col + V.shape[1]] = V
        col += V.shape[1]
    return U


def fit_two_layer(X, y, inner, outer, lam=0.0, mu=0.0, gamma=0.0,
                  config=None, threads=1):
    """Fit a two-layer model by multistart BFGS on (Int) or (Reg).

    lam = mu = 0 selects interpolation; ``objective_pair`` checks the parameters.
    BFGS runs on the range part of c (see ``range_basis``).  ``threads`` is
    accepted and unused: restarts run in the calling thread.
    Returns (model, optimization_result).
    """
    prob = TwoLayerProblem(X, y, inner, outer)
    f, g = objective_pair(prob, lam, mu, gamma)
    result = multistart(f, g, prob.n_coeffs, config or BfgsConfig(), basis=range_basis(prob))
    # stage one's outer coefficients at the returned c, where the value is finite
    _, (_, alpha, *_) = _objective_value(result.x, prob, lam, mu, gamma)
    model = TwoLayerModel(
        X=prob.X, inner=inner, outer=outer, c=prob.coeff_matrix(result.x), alpha=alpha,
        lam=float(lam), mu=float(mu), gamma=float(gamma),
        objective_value=result.objective,
    )
    return model, result


# -----------------------------
# Fitted model
# -----------------------------

@dataclass(frozen=True)
class TwoLayerModel:
    X: np.ndarray          # (N, d) training inputs = inner centers
    inner: object
    outer: object
    c: np.ndarray          # (N, D) inner coefficients
    alpha: np.ndarray      # (N,) outer coefficients
    lam: float
    mu: float
    gamma: float
    objective_value: float

    def problem(self):
        """The fitted problem, with zero targets: enough to map points through g."""
        return TwoLayerProblem(self.X, np.zeros(len(self.X)), self.inner, self.outer)


def predict_two_layer(model, points):
    """f(g(.)) at (m, d) points as an (m,) array; a 1-D point is one row.

    By the representer theorem the outer layer is the single-layer expansion
    sum_j alpha_j K(g(x_j), .) over the mapped training points, so each
    cache-sized block of ``gram.POINT_BLOCK`` = 256 points is mapped and
    handed to ``predict_single``; memory is O(N D POINT_BLOCK) for any number
    of points.  The same points array at the same BLAS thread count gives
    the same bits; a point's value can differ in the last bits with the
    batch it is predicted in (see ``gram``).
    """
    prob = model.problem()
    outer = SingleLayerModel(model.outer, prob.images(model.c), model.alpha)
    return by_point_blocks(lambda block: predict_single(outer, prob.images_at(model.c, block)),
                           np.atleast_2d(np.asarray(points, dtype=float)))


# -----------------------------
# MLMKL equivalence
# -----------------------------

def mlmkl_equivalence_check(outer, inner_scalar, X, nu, x, y):
    """Both sides of the MLMKL identity for radial outer kernels, d2 = 1.

    lhs = a(|sum_i nu_i (K2(x_i, x) - K2(x_i, y))|)  — the chained-MKL form
    rhs = K1(sum_i nu_i K2(x_i, x), sum_i nu_i K2(x_i, y))  — the composed kernel
    """
    if outer.dim != 1 or outer.family not in ("gauss", "tensor_matern"):
        raise ValueError(f"the identity is stated for a radial outer kernel on R, got {outer!r}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nu = np.asarray(nu, dtype=float)
    kx = inner_scalar.cross(X, np.asarray(x, dtype=float)[None, :])[:, 0]
    ky = inner_scalar.cross(X, np.asarray(y, dtype=float)[None, :])[:, 0]
    lhs = outer(np.zeros(1), np.array([abs(float(nu @ (kx - ky)))]))   # a(t) = K(0, t)
    rhs = outer(np.array([float(nu @ kx)]), np.array([float(nu @ ky)]))
    return lhs, rhs


# -----------------------------
# Model (de)serialization
# -----------------------------

MODEL_FORMAT = "deepkern-two-layer-v2"


def save_model(model, path):
    """Write the model as one JSON object; floats use repr, so reloads are bit-identical."""
    record = {
        "format": MODEL_FORMAT,
        "outer": scalar_to_params(model.outer),
        "inner": matrix_to_params(model.inner),
        "lambda": float(model.lam),
        "mu": float(model.mu),
        "gamma": float(model.gamma),
        "objective_value": float(model.objective_value),
        "X": model.X.tolist(),
        "c": model.c.tolist(),
        "alpha": model.alpha.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, allow_nan=False)
        fh.write("\n")


def _finite_float(text):
    """JSON number parser that rejects NaN, Infinity and overflowing literals like 1e400."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {text}")
    return val


def _real_array(value, key):
    """Nested lists of JSON numbers as a float array; ``real_field`` reads every entry."""
    entries = np.array(value, dtype=object)
    return np.reshape([real_field(v, key) for v in entries.flat], entries.shape)


def load_model(path):
    """Read a model written by save_model; a malformed file raises ValueError."""
    with open(path) as fh:
        try:
            rec = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except ValueError as e:
            raise ValueError(f"{path}: not a {MODEL_FORMAT} model file ({e})") from None
    if not isinstance(rec, dict) or rec.get("format") != MODEL_FORMAT:
        found = rec.get("format") if isinstance(rec, dict) else None
        raise ValueError(f"{path}: unrecognized model format {found!r}, expected {MODEL_FORMAT!r}")
    try:
        outer = scalar_from_params(rec["outer"])
        inner = matrix_from_params(rec["inner"])
        X, c, alpha = (_real_array(rec[k], k) for k in ("X", "c", "alpha"))
        lam, mu, gamma, objective = (real_field(rec[k], k) for k in ("lambda", "mu", "gamma", "objective_value"))
        check_layer_shapes(X, inner, outer)
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from None
    except (TypeError, AttributeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: malformed model record ({e})") from None
    for name, arr, shape in (("c", c, (len(X), inner.out_dim)), ("alpha", alpha, (len(X),))):
        if arr.shape != shape:
            raise ValueError(f"{path}: {name} has shape {arr.shape}, expected {shape}")
    return TwoLayerModel(X=X, inner=inner, outer=outer, c=c, alpha=alpha,
                         lam=lam, mu=mu, gamma=gamma, objective_value=objective)
