"""Two-layer concatenated kernel models: objectives, gradients, prediction.

The inner function g maps the data domain into the outer kernel's domain
and is parameterized by an (Nc, D) coefficient matrix c over the kernel
translates at the inner centers (normally the data points themselves):

    g(x) = sum_j Kmat(center_j, x) c_j        (Kmat diagonal, D outputs)

Interpolation objective:   y^T Q(c)^{-1} y + N(c)            [+ coth penalty]
Regression objective:      lam y^T A Q A y + mu N(c) + |(I - Q A) y|^2
                           with A = (Q + lam I)^{-1}

where Q(c) is the outer Gram matrix of the mapped points g(x_i) and N(c)
is the squared inner-RKHS norm c^T Kblock c.  Gradients are exact: the
derivative of Q^{-1} is pulled back through dQ/dg and dg/dc, so one
objective+gradient evaluation costs O(N^3 D + (N D)^2).

A numerically singular Q in interpolation mode maps to the finite
SENTINEL value (with a zero gradient) so line searches can retreat
instead of aborting.
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .gram import DEFAULT_POLICY, SingularMatrixError, spd_factor, spd_solve
from .kernels import matrix_from_params, matrix_to_params, scalar_from_params, scalar_to_params

SENTINEL = 1e12


# -----------------------------
# Problem context
# -----------------------------

class TwoLayerProblem:
    """Immutable bundle of data, kernels and precomputed inner Gram stacks.

    ``centers`` defaults to the data points; passing extra centers enlarges
    the inner search space (used to probe the representer property).
    """

    def __init__(self, X, y, inner, outer, centers=None, policy=DEFAULT_POLICY):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float)
        if len(self.y) != len(self.X):
            raise ValueError("X and y lengths differ")
        if inner.dim != self.X.shape[1]:
            raise ValueError("inner kernel dimension does not match the data")
        if outer.dim != inner.out_dim:
            raise ValueError("outer kernel dimension must equal the inner output dimension")
        self.inner = inner
        self.outer = outer
        self.policy = policy
        self.centers = self.X if centers is None else np.atleast_2d(np.asarray(centers, dtype=float))
        # (D, Nc, N) center-to-data and (D, Nc, Nc) center-to-center Gram stacks
        self.B_cd = inner.diag_cross(self.centers, self.X)
        B = inner.diag_cross(self.centers, self.centers)
        self.B_cc = 0.5 * (B + np.transpose(B, (0, 2, 1)))

    @property
    def n_data(self):
        return len(self.X)

    @property
    def n_centers(self):
        return len(self.centers)

    @property
    def out_dim(self):
        return self.inner.out_dim

    @property
    def n_coeffs(self):
        return self.n_centers * self.out_dim

    def coeff_matrix(self, c):
        c = np.asarray(c, dtype=float)
        return c.reshape(self.n_centers, self.out_dim)

    def images(self, c):
        """Mapped data points g(x_i), shape (N, D)."""
        return np.einsum("dji,jd->id", self.B_cd, self.coeff_matrix(c))

    def images_at(self, c, points):
        """g evaluated at arbitrary points, shape (m, D)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        C = self.inner.diag_cross(self.centers, pts)
        return np.einsum("djm,jd->md", C, self.coeff_matrix(c))


def inner_eval(c, inner, centers, x):
    """g(x) = sum_j Kmat(center_j, x) c_j at a single point."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    c = np.asarray(c, dtype=float).reshape(len(centers), inner.out_dim)
    C = inner.diag_cross(centers, np.asarray(x, dtype=float)[None, :])
    return np.einsum("djm,jd->md", C, c)[0]


def q_matrix(c, prob):
    """Outer Gram matrix of the mapped data points, exactly symmetric."""
    Z = prob.images(c)
    Q = prob.outer.cross(Z, Z)
    return 0.5 * (Q + Q.T)


def inner_norm_sq(c, prob):
    """Squared inner-space norm of g: sum_{j,k} c_j^T Kmat(x_j, x_k) c_k."""
    cm = prob.coeff_matrix(c)
    return float(np.einsum("jd,djk,kd->", cm, prob.B_cc, cm))


def block_gram(inner, X):
    """The (N D, N D) block matrix of Kmat(x_j, x_k), row-major coefficient order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B = inner.diag_cross(X, X)
    B = 0.5 * (B + np.transpose(B, (0, 2, 1)))
    D, n, _ = B.shape
    out = np.zeros((n * D, n * D))
    for l in range(D):
        out[l::D, l::D] = B[l]
    return out


def penalty_coth(c, prob, gamma):
    """Separation penalty gamma * sum_{m<n} coth(|g(x_m) - g(x_n)|^2)."""
    if gamma == 0.0:
        return 0.0
    Z = prob.images(c)
    iu = np.triu_indices(len(Z), k=1)
    d2 = np.sum((Z[iu[0]] - Z[iu[1]]) ** 2, axis=-1)
    if np.any(d2 == 0.0):
        return SENTINEL
    return float(gamma * np.sum(1.0 / np.tanh(d2)))


def _penalty_terms(Z, gamma):
    """Penalty value and its gradient with respect to the mapped points."""
    n = len(Z)
    diff = Z[:, None, :] - Z[None, :, :]
    d2 = np.sum(diff**2, axis=-1)
    iu = np.triu_indices(n, k=1)
    if np.any(d2[iu] == 0.0):
        return SENTINEL, None
    val = gamma * np.sum(1.0 / np.tanh(d2[iu]))
    with np.errstate(over="ignore", divide="ignore"):
        w = 1.0 / np.sinh(d2) ** 2          # csch^2, underflows to 0 for far pairs
    np.fill_diagonal(w, 0.0)                # diagonal d2 = 0 is not a pair
    dPdZ = -2.0 * gamma * np.einsum("mn,mnd->md", w, diff)
    return float(val), dPdZ


# -----------------------------
# Interpolation objective (Int)
# -----------------------------

def _interp_core(c, prob, gamma, want_grad):
    with np.errstate(over="ignore", invalid="ignore"):
        Z = prob.images(c)
        Q = prob.outer.cross(Z, Z)
    Q = 0.5 * (Q + Q.T)
    if not np.all(np.isfinite(Q)):   # overflowed images, e.g. runaway line-search trial
        return SENTINEL, np.zeros(prob.n_coeffs), False
    try:
        factor, jitter = spd_factor(Q, prob.policy)
    except SingularMatrixError:
        return SENTINEL, np.zeros(prob.n_coeffs), False
    Qj = Q + jitter * np.eye(len(Q)) if jitter else Q
    beta = cho_solve(factor, prob.y)
    beta = beta + cho_solve(factor, prob.y - Qj @ beta)
    val = float(prob.y @ beta) + inner_norm_sq(c, prob)

    dPdZ = None
    if gamma > 0.0:
        pen, dPdZ = _penalty_terms(Z, gamma)
        if dPdZ is None:
            return SENTINEL, np.zeros(prob.n_coeffs), False
        val += pen
    if not want_grad:
        return val, None, True

    G = prob.outer.grad2_cross(Z, Z)
    dVdZ = -2.0 * beta[:, None] * np.einsum("n,npd->pd", beta, G)
    if dPdZ is not None:
        dVdZ = dVdZ + dPdZ
    grad = np.einsum("djn,nd->jd", prob.B_cd, dVdZ)
    grad += 2.0 * np.einsum("djk,kd->jd", prob.B_cc, prob.coeff_matrix(c))
    return val, grad.ravel(), True


def objective_interp(c, prob, gamma=0.0):
    """y^T Q(c)^{-1} y + N(c) (+ penalty); SENTINEL when Q is numerically singular."""
    val, _, _ = _interp_core(c, prob, gamma, want_grad=False)
    return val


def grad_objective_interp(c, prob, gamma=0.0):
    """Exact gradient of objective_interp; zero vector in the sentinel region."""
    _, grad, _ = _interp_core(c, prob, gamma, want_grad=True)
    return grad


def interp_value_and_grad(c, prob, gamma=0.0):
    """(value, gradient, ok) in one pass; ok=False marks the sentinel region."""
    return _interp_core(c, prob, gamma, want_grad=True)


# -----------------------------
# Regression objective (Reg)
# -----------------------------

def _reg_core(c, prob, lam, mu, want_grad):
    if not (lam > 0.0 and mu > 0.0):
        raise ValueError("regression requires lam > 0 and mu > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        Z = prob.images(c)
        Q = prob.outer.cross(Z, Z)
    Q = 0.5 * (Q + Q.T)
    if not np.all(np.isfinite(Q)):
        return SENTINEL, np.zeros(prob.n_coeffs), False
    A = Q + lam * np.eye(len(Q))
    try:
        factor, jitter = spd_factor(A, prob.policy)
    except SingularMatrixError:   # unreachable for lam > 0 in exact arithmetic
        return SENTINEL, np.zeros(prob.n_coeffs), False
    Aj = A + jitter * np.eye(len(A)) if jitter else A
    alpha = cho_solve(factor, prob.y)
    alpha = alpha + cho_solve(factor, prob.y - Aj @ alpha)
    Qa = Q @ alpha
    val = lam * float(alpha @ Qa)                     # lam y^T A Q A y
    val += float(np.sum((prob.y - Qa) ** 2))          # |(I - Q A) y|^2
    val += mu * inner_norm_sq(c, prob)
    if not want_grad:
        return val, None, True

    G = prob.outer.grad2_cross(Z, Z)
    dVdZ = -2.0 * lam * alpha[:, None] * np.einsum("n,npd->pd", alpha, G)
    grad = np.einsum("djn,nd->jd", prob.B_cd, dVdZ)
    grad += 2.0 * mu * np.einsum("djk,kd->jd", prob.B_cc, prob.coeff_matrix(c))
    return val, grad.ravel(), True


def objective_reg(c, prob, lam, mu):
    """The regularized two-layer least-squares objective."""
    val, _, _ = _reg_core(c, prob, lam, mu, want_grad=False)
    return val


def grad_objective_reg(c, prob, lam, mu):
    """Exact gradient of objective_reg."""
    _, grad, _ = _reg_core(c, prob, lam, mu, want_grad=True)
    return grad


def reg_value_and_grad(c, prob, lam, mu):
    return _reg_core(c, prob, lam, mu, want_grad=True)


def outer_fit(c, prob, lam=0.0):
    """Outer coefficients alpha solving (Q(c) + lam I) alpha = y."""
    Q = q_matrix(c, prob)
    if lam:
        Q = Q + lam * np.eye(len(Q))
    alpha, _ = spd_solve(Q, prob.y, prob.policy)
    return alpha


# -----------------------------
# Fitting driver
# -----------------------------

def _cached_objective_pair(core):
    """f/g callables sharing one value+gradient evaluation per point.

    BFGS asks for the gradient exactly where it just evaluated f, so a
    one-slot cache halves the work without any staleness risk.  The slot is
    per thread: each restart runs entirely in one thread of the multistart
    pool, so concurrent restarts never share or evict each other's entry.
    """
    last = threading.local()

    def value_and_grad(c):
        key = c.tobytes()
        if getattr(last, "key", None) != key:
            last.val, last.grad, _ = core(c)
            last.key = key
        return last.val, last.grad

    return (lambda c: value_and_grad(c)[0]), (lambda c: value_and_grad(c)[1])


def fit_two_layer(X, y, inner, outer, lam=0.0, mu=0.0, gamma=0.0,
                  config=None, threads=1, policy=DEFAULT_POLICY):
    """Fit a two-layer model by multistart BFGS on (Int) or (Reg).

    lam = mu = 0 selects interpolation; otherwise both must be positive.
    Returns (model, optimization_result).
    """
    from .optimize import BfgsConfig, multistart

    interpolation = lam == 0.0 and mu == 0.0
    if not interpolation:
        # checked here: inside a restart this ValueError would be taken for
        # an unusable starting point
        if not (lam > 0.0 and mu > 0.0):
            raise ValueError("regression requires lam > 0 and mu > 0 (or both zero for interpolation)")
        if gamma != 0.0:
            raise ValueError("the separation penalty is an interpolation-mode device")
    config = config or BfgsConfig()
    prob = TwoLayerProblem(X, y, inner, outer, policy=policy)
    if interpolation:
        core = lambda c: _interp_core(c, prob, gamma, want_grad=True)
    else:
        core = lambda c: _reg_core(c, prob, lam, mu, want_grad=True)
    f, g = _cached_objective_pair(core)
    result = multistart(f, g, prob.n_coeffs, config, threads=threads)
    c_best = prob.coeff_matrix(result.x)
    # outer coefficients recomputed from scratch at the final c
    alpha = outer_fit(c_best, prob, lam)
    model = TwoLayerModel(
        X=prob.X, inner=inner, outer=outer, c=c_best, alpha=alpha,
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

    def problem(self, y=None):
        y = np.zeros(len(self.X)) if y is None else y
        return TwoLayerProblem(self.X, y, self.inner, self.outer)


def predict_two_layer(model, points):
    """f(g(.)): map the points through g, then evaluate the outer expansion."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    prob = model.problem()
    z_train = prob.images(model.c)
    z_pts = prob.images_at(model.c, np.atleast_2d(pts))
    vals = model.outer.cross(z_train, z_pts).T @ model.alpha
    return float(vals[0]) if single else vals


def compose_kernel_eval(model, x, t):
    """The composed kernel K(g(x), g(t)), recomputed per pair."""
    gx = inner_eval(model.c, model.inner, model.X, x)
    gt = inner_eval(model.c, model.inner, model.X, t)
    return model.outer(gx, gt)


def predict_via_composed_kernel(model, points):
    """sum_j alpha_j K2(x_j, .): the expansion in the composed kernel."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.array(
        [sum(a * compose_kernel_eval(model, xj, t) for a, xj in zip(model.alpha, model.X))
         for t in pts]
    )
    return vals


# -----------------------------
# Generic-depth stacks
# -----------------------------

@dataclass(frozen=True)
class InnerLayer:
    kernel: object         # matrix-valued
    centers: np.ndarray    # (n, kernel.dim)
    coeffs: np.ndarray     # (n, kernel.out_dim)

    def __post_init__(self):
        object.__setattr__(self, "centers", np.atleast_2d(np.asarray(self.centers, dtype=float)))
        object.__setattr__(self, "coeffs", np.atleast_2d(np.asarray(self.coeffs, dtype=float)))
        if self.centers.shape[1] != self.kernel.dim:
            raise ValueError("layer centers do not match the kernel dimension")
        if self.coeffs.shape != (len(self.centers), self.kernel.out_dim):
            raise ValueError("coefficient matrix must be (n_centers, out_dim)")

    def apply(self, points):
        C = self.kernel.diag_cross(self.centers, points)
        return np.einsum("djm,jd->md", C, self.coeffs)


@dataclass(frozen=True)
class LayerStack:
    """Inner layers in application order (innermost first) plus the outer kernel."""

    inner_layers: tuple
    outer: object
    alpha: np.ndarray = None

    def __post_init__(self):
        layers = tuple(self.inner_layers)
        object.__setattr__(self, "inner_layers", layers)
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.kernel.dim != prev.kernel.out_dim:
                raise ValueError("layer dimension chain is inconsistent")
        last_dim = layers[-1].kernel.out_dim if layers else self.outer.dim
        if self.outer.dim != last_dim:
            raise ValueError("outer kernel dimension does not match the last layer")

    @property
    def input_dim(self):
        return self.inner_layers[0].kernel.dim if self.inner_layers else self.outer.dim

    def degrees_of_freedom(self):
        """N (1 + sum of inner output dimensions) free coefficients."""
        n = len(self.inner_layers[0].centers)
        return n * (1 + sum(l.kernel.out_dim for l in self.inner_layers))


def apply_inner_layers(stack, points):
    v = np.atleast_2d(np.asarray(points, dtype=float))
    if v.shape[1] != stack.input_dim:
        raise ValueError(f"points have dimension {v.shape[1]}, stack expects {stack.input_dim}")
    for layer in stack.inner_layers:
        v = layer.apply(v)
    return v


def deep_kernel_eval(stack, x, y):
    """K1(f_2 o ... o f_L(x), f_2 o ... o f_L(y))."""
    u = apply_inner_layers(stack, np.asarray(x, dtype=float)[None, :])[0]
    w = apply_inner_layers(stack, np.asarray(y, dtype=float)[None, :])[0]
    return stack.outer(u, w)


def two_layer_stack(model):
    return LayerStack(
        inner_layers=(InnerLayer(model.inner, model.X, model.c),),
        outer=model.outer,
        alpha=model.alpha,
    )


def _layer_norm_sq(layer):
    B = layer.kernel.diag_cross(layer.centers, layer.centers)
    return float(np.einsum("jd,djk,kd->", layer.coeffs, B, layer.coeffs))


def objective_general_L(stack, X, y, loss="squared", thetas=None, policy=DEFAULT_POLICY,
                        interp_tol=None):
    """The full multi-layer objective at explicit coefficient stacks.

    thetas are linear regularization weights, outer layer first.  The
    ``interpolation`` loss returns SENTINEL when any residual exceeds the
    tolerance (default 1e-8 scaled by the target magnitude).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n_layers = 1 + len(stack.inner_layers)
    if thetas is None:
        thetas = (1.0,) * n_layers
    if len(thetas) != n_layers:
        raise ValueError("need one theta per layer (outer first)")
    if stack.alpha is None:
        raise ValueError("stack carries no outer coefficients")

    Z = apply_inner_layers(stack, X)
    Q = stack.outer.cross(Z, Z)
    Q = 0.5 * (Q + Q.T)
    preds = Q @ stack.alpha
    if loss == "squared":
        data_term = float(np.sum((preds - y) ** 2))
    elif loss == "interpolation":
        tol = interp_tol if interp_tol is not None else 1e-8 * (np.max(np.abs(y)) + 1.0)
        if np.max(np.abs(preds - y)) > tol:
            return SENTINEL
        data_term = 0.0
    else:
        raise ValueError(f"unknown loss {loss!r}")

    total = data_term + thetas[0] * float(stack.alpha @ Q @ stack.alpha)
    # inner_layers run innermost first; thetas run outer first
    for layer, theta in zip(stack.inner_layers, thetas[:0:-1]):
        total += theta * _layer_norm_sq(layer)
    return total


# -----------------------------
# MLMKL equivalence
# -----------------------------

def radial_profile(kernel):
    """The profile a with kernel(z1, z2) = a(|z1 - z2|); errors if not radial."""
    if kernel.family == "gauss":
        return lambda t: float(np.exp(-float(t) ** 2 / (2.0 * kernel.sigma**2)))
    if kernel.family == "tensor_matern" and kernel.dim == 1:
        return lambda t: float(kernel._factors(np.abs(float(t))))
    raise ValueError(f"kernel {kernel!r} is not of radial form")


def mlmkl_equivalence_check(outer, inner_scalar, X, nu, x, y):
    """Both sides of the MLMKL identity for radial outer kernels, d2 = 1.

    lhs = a(|sum_i nu_i (K2(x_i, x) - K2(x_i, y))|)  — the chained-MKL form
    rhs = K1(sum_i nu_i K2(x_i, x), sum_i nu_i K2(x_i, y))  — the composed kernel
    """
    if outer.dim != 1:
        raise ValueError("the identity is stated for a one-dimensional outer domain")
    profile = radial_profile(outer)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nu = np.asarray(nu, dtype=float)
    kx = inner_scalar.cross(X, np.asarray(x, dtype=float)[None, :])[:, 0]
    ky = inner_scalar.cross(X, np.asarray(y, dtype=float)[None, :])[:, 0]
    lhs = profile(abs(float(nu @ (kx - ky))))
    rhs = outer(np.array([float(nu @ kx)]), np.array([float(nu @ ky)]))
    return lhs, rhs


# -----------------------------
# Model (de)serialization
# -----------------------------

MODEL_FORMAT = "deepkern-two-layer-v1"


def _flat_items(prefix, params):
    for key, val in params.items():
        name = f"{prefix}.{key}"
        if isinstance(val, dict):
            yield from _flat_items(name, val)
        elif isinstance(val, (list, tuple)):
            if val and isinstance(val[0], dict):
                yield f"{name}.count", str(len(val))
                for i, sub in enumerate(val):
                    yield from _flat_items(f"{name}.{i}", sub)
            else:
                yield name, ",".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            yield name, repr(val)
        else:
            yield name, str(val)


def _vector_text(v):
    return ",".join(repr(float(x)) for x in v)


def model_to_text(model):
    """Flat key=value record; floats use repr so reloads are bit-identical.

    Key order: format, outer.* (kernel spec), inner.* (kernel spec), n, d,
    out_dim, lambda, mu, gamma, objective_value, x.0..x.{n-1} (training
    points), c.0..c.{n-1} (inner coefficient rows), alpha.
    """
    lines = [f"format={MODEL_FORMAT}"]
    lines += [f"{k}={v}" for k, v in _flat_items("outer", scalar_to_params(model.outer))]
    lines += [f"{k}={v}" for k, v in _flat_items("inner", matrix_to_params(model.inner))]
    n, d = model.X.shape
    lines.append(f"n={n}")
    lines.append(f"d={d}")
    lines.append(f"out_dim={model.inner.out_dim}")
    lines.append(f"lambda={model.lam!r}")
    lines.append(f"mu={model.mu!r}")
    lines.append(f"gamma={model.gamma!r}")
    lines.append(f"objective_value={model.objective_value!r}")
    for i, row in enumerate(model.X):
        lines.append(f"x.{i}={_vector_text(row)}")
    for i, row in enumerate(model.c):
        lines.append(f"c.{i}={_vector_text(row)}")
    lines.append(f"alpha={_vector_text(model.alpha)}")
    return "\n".join(lines) + "\n"


def _unflatten(entries, prefix):
    sub = {}
    plen = len(prefix) + 1
    for key, val in entries.items():
        if key.startswith(prefix + "."):
            sub[key[plen:]] = val
    return sub


def _nest(flat):
    out = {}
    for key, val in flat.items():
        parts = key.split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    return out


def _coerce_kernel_params(node):
    if "count" in node:   # mixture component list
        count = int(node["count"])
        comps = [_coerce_kernel_params(node[str(i)]) for i in range(count)]
        return comps
    out = {}
    for key, val in node.items():
        if isinstance(val, dict):
            out[key] = _coerce_kernel_params(val)
        elif key in ("family",):
            out[key] = val
        elif key in ("p", "s", "dim"):
            out[key] = int(val)
        elif key == "weights":
            out[key] = [float(v) for v in val.split(",")]
        else:
            out[key] = float(val)
    return out


def model_from_text(text):
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        entries[key] = val
    if entries.get("format") != MODEL_FORMAT:
        raise ValueError(f"unrecognized model format {entries.get('format')!r}")
    outer = scalar_from_params(_coerce_kernel_params(_nest(_unflatten(entries, "outer"))))
    inner = matrix_from_params(_coerce_kernel_params(_nest(_unflatten(entries, "inner"))))
    n = int(entries["n"])
    X = np.array([[float(v) for v in entries[f"x.{i}"].split(",")] for i in range(n)])
    c = np.array([[float(v) for v in entries[f"c.{i}"].split(",")] for i in range(n)])
    alpha = np.array([float(v) for v in entries["alpha"].split(",")])
    return TwoLayerModel(
        X=X, inner=inner, outer=outer, c=c, alpha=alpha,
        lam=float(entries["lambda"]), mu=float(entries["mu"]),
        gamma=float(entries["gamma"]),
        objective_value=float(entries["objective_value"]),
    )


def save_model(model, path):
    with open(path, "w") as fh:
        fh.write(model_to_text(model))


def load_model(path):
    with open(path) as fh:
        return model_from_text(fh.read())
