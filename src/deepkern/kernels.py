"""Closed-form scalar and matrix-valued kernels with first derivatives.

Three scalar families are provided:

    poly            k(x, y) = (x.y + 1)^p
    gauss           k(x, y) = exp(-|x - y|^2 / (2 sigma^2))
    tensor_matern   k(x, y) = prod_i kappa_{s-1/2}(|x_i - y_i|) |x_i - y_i|^{s-1/2}

where kappa_a is the modified Bessel function of the second kind.  For
integer order s the per-coordinate factor collapses to the smooth closed
form sqrt(pi/2) * exp(-r) * P_{s-1}(r) with a polynomial P, so no special
function library is needed; the r -> 0 limit is built in.  The product
over coordinates is then (pi/2)^(D/2) exp(-sum_i r_i) prod_i P(r_i): one
exp per entry, and no polynomial at all for s = 1.

Each scalar family offers ``cross(X, Z)``, the (n, m) Gram block, and
``vjp(Z, K, w)``, the (N, D) array sum_n w_n dk(Z_n, Z_p)/dZ_p.  For the
Gaussian and tensor-Matern kernels the derivative is the kernel value times
a cheap factor, so ``vjp`` reuses the Gram matrix K = cross(Z, Z) that the
caller already holds; both methods go one coordinate at a time, with no
(n, m, D) temporary, and ``cross`` finishes in one reused scratch array,
with the allocating form's operations in its order, so the bits are the
same.  ``grad2_cross(X, Z)``, the (n, m, D) tensor of the same
derivatives, is the reference that ``vjp`` is tested against.
``cross(X, X)`` of one argument is the Gram matrix as it comes, exactly
symmetric, as is each block of ``diag_cross(X, X)``: entry (i, j) comes
from x_i - x_j by sign-symmetric steps (a square or an absolute value,
then sums and products in coordinate order), and numpy forms the
polynomial kernel's ``X @ X.T`` of one array as a symmetric rank-k update
(an argument passed as both X and Z, a list say, is converted once).

Matrix-valued (diagonal) kernels come in two flavors: a scalar kernel
scaled by a per-output weight vector, and a diagonal mixture of distinct
scalar kernels.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def bessel_k_half(n, r):
    """Modified Bessel function of the second kind at half-integer order n + 1/2.

    Uses the terminating series K_{n+1/2}(r) = sqrt(pi/(2r)) e^{-r}
    sum_k (n+k)!/(k!(n-k)!) (2r)^{-k}.  Requires r > 0 (the kernel
    evaluation handles the r -> 0 limit separately).
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"order index must be a nonnegative integer, got {n!r}")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("bessel_k_half requires r > 0")
    acc = np.zeros_like(r)
    for k in range(int(n) + 1):
        a_nk = math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k))
        acc = acc + a_nk * (2.0 * r) ** (-k)
    out = np.sqrt(np.pi / (2.0 * r)) * np.exp(-r) * acc
    return out if out.ndim else float(out)


@lru_cache(maxsize=None)
def _matern_polys(order):
    """Coefficient arrays (P, P') of the degree-(order-1) Matern polynomial.

    The univariate tensor-Matern factor of order s is
    phi_s(r) = r^{s-1/2} K_{s-1/2}(r) = sqrt(pi/2) exp(-r) P_{s-1}(r)
    with P_n(r) = sum_k (n+k)!/(k!(n-k)!) r^{n-k} / 2^k; P_n(0) gives the
    coincidence limit 2^{s-3/2} Gamma(s-1/2) automatically.
    """
    n = order - 1
    coeffs = np.array(
        [math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k)) / 2.0**k
         for k in range(n + 1)]
    )
    return coeffs, np.polyder(coeffs) if n > 0 else np.zeros(1)


def _check_pair(kernel, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (kernel.dim,) or y.shape != (kernel.dim,):
        raise ValueError(
            f"points must have shape ({kernel.dim},), got {x.shape} and {y.shape}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("kernel arguments must be finite")
    return x, y


def _check_points(kernel, X, Z):
    """X and Z as 2-D float arrays of the kernel's dimension; one object passed as both is converted once."""
    same = Z is X
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = X if same else np.atleast_2d(np.asarray(Z, dtype=float))
    for P in (X, Z):
        if P.shape[1] != kernel.dim:
            raise ValueError(f"points have dimension {P.shape[1]}, kernel expects {kernel.dim}")
    return X, Z


def _read_fields(kernel, name, read):
    """Set a scalar kernel's field name to read(value, name) and dim to an int >= 1."""
    object.__setattr__(kernel, name, read(getattr(kernel, name), name))
    object.__setattr__(kernel, "dim", integer_field(kernel.dim, "dim"))
    if kernel.dim < 1:
        raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class PolyKernel:
    """Polynomial kernel (x.y + 1)^p on R^dim."""

    degree: int
    dim: int

    def __post_init__(self):
        _read_fields(self, "degree", integer_field)
        if self.degree < 1:
            raise ValueError("polynomial degree must be a positive integer")

    family = "poly"

    def __call__(self, x, y):
        x, y = _check_pair(self, x, y)
        return float((x @ y + 1.0) ** self.degree)

    def cross(self, X, Z):
        X, Z = _check_points(self, X, Z)
        return (X @ Z.T + 1.0) ** self.degree

    def grad2_cross(self, X, Z):
        """(n, m, dim) array of the gradients of k(X_i, Z_j) with respect to Z_j."""
        X, Z = _check_points(self, X, Z)
        base = self.degree * (X @ Z.T + 1.0) ** (self.degree - 1)
        return base[:, :, None] * X[:, None, :]

    def vjp(self, Z, K, w):
        """sum_n w_n dk(Z_n, Z_p)/dZ_p = sum_n w_n p (Z_n.Z_p + 1)^(p-1) Z_n.

        K is not used: recovering (Z_n.Z_p + 1)^(p-1) from it would divide
        by a base that can vanish.
        """
        base = self.degree * (Z @ Z.T + 1.0) ** (self.degree - 1)
        return (w[:, None] * base).T @ Z


@dataclass(frozen=True)
class GaussKernel:
    """Gaussian kernel exp(-|x - y|^2 / (2 sigma^2)) on R^dim."""

    sigma: float
    dim: int

    def __post_init__(self):
        _read_fields(self, "sigma", real_field)
        if not (0.0 < self.sigma < math.inf):   # also rejects NaN
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")

    family = "gauss"

    def __call__(self, x, y):
        x, y = _check_pair(self, x, y)
        d = x - y
        return float(np.exp(-(d @ d) / (2.0 * self.sigma**2)))

    def cross(self, X, Z):
        X, Z = _check_points(self, X, Z)
        sq = np.zeros((len(X), len(Z)))
        d = np.empty_like(sq)   # scratch for one coordinate's differences
        for i in range(self.dim):
            np.subtract.outer(X[:, i], Z[:, i], out=d)
            sq += np.multiply(d, d, out=d)
        # -sq / t and sq / -t round alike, so this is exp(-|x - y|^2 / (2 sigma^2))
        np.divide(sq, -(2.0 * self.sigma**2), out=sq)
        return np.exp(sq, out=sq)

    def grad2_cross(self, X, Z):
        X, Z = _check_points(self, X, Z)
        diff = X[:, None, :] - Z[None, :, :]
        k = np.exp(-np.sum(diff**2, axis=-1) / (2.0 * self.sigma**2))
        return k[:, :, None] * diff / self.sigma**2

    def vjp(self, Z, K, w):
        """sum_n w_n K_np (Z_n - Z_p) / sigma^2, one coordinate at a time.

        The differences are formed before the sum: the expanded form
        W^T Z - Z colsum(W) cancels to rounding noise where K is nearly
        diagonal (sigma small against the point spacing).
        """
        W = w[:, None] * K
        out = np.empty_like(Z)
        for i in range(self.dim):
            out[:, i] = np.einsum("np,np->p", W, np.subtract.outer(Z[:, i], Z[:, i]))
        return out / self.sigma**2


@dataclass(frozen=True)
class TensorMaternKernel:
    """Tensor product of univariate Matern factors of integer order s >= 1.

    Differentiable away from coordinate coincidences for s = 1 (the
    per-coordinate factor sqrt(pi/2) e^{-r} has a kink at r = 0); the
    derivative there uses the symmetric subgradient 0, which np.sign
    supplies for free.
    """

    order: int
    dim: int

    def __post_init__(self):
        _read_fields(self, "order", integer_field)
        if self.order < 1:
            raise ValueError("Matern order must be a positive integer")

    family = "tensor_matern"

    def _factors(self, R):
        poly, _ = _matern_polys(self.order)
        return SQRT_HALF_PI * np.exp(-R) * np.polyval(poly, R)

    def __call__(self, x, y):
        x, y = _check_pair(self, x, y)
        return float(np.prod(self._factors(np.abs(x - y))))

    def cross(self, X, Z):
        X, Z = _check_points(self, X, Z)
        poly, _ = _matern_polys(self.order)
        r_sum = np.zeros((len(X), len(Z)))
        r = np.empty_like(r_sum)   # scratch for one coordinate's distances
        p_prod = None
        for i in range(self.dim):
            np.abs(np.subtract.outer(X[:, i], Z[:, i], out=r), out=r)
            r_sum += r
            if self.order > 1:   # P = 1 at order 1
                p = np.polyval(poly, r)
                p_prod = p if p_prod is None else np.multiply(p_prod, p, out=p_prod)
        K = np.exp(np.negative(r_sum, out=r_sum), out=r_sum)
        K *= SQRT_HALF_PI**self.dim
        return K if p_prod is None else np.multiply(K, p_prod, out=K)

    def grad2_cross(self, X, Z):
        X, Z = _check_points(self, X, Z)
        diff = Z[None, :, :] - X[:, None, :]
        R = np.abs(diff)
        poly, dpoly = _matern_polys(self.order)
        # one exp for both factors: d/dr [E P(r)] = E (P'(r) - P(r))
        E = SQRT_HALF_PI * np.exp(-R)
        P = np.polyval(poly, R)
        F = E * P
        dF = E * (np.polyval(dpoly, R) - P) * np.sign(diff)
        out = np.empty_like(F)
        for i in range(self.dim):
            # product over the other coordinates, left to right as np.prod multiplies
            others = [F[:, :, j] for j in range(self.dim) if j != i]
            out[:, :, i] = dF[:, :, i] * reduce(np.multiply, others) if others else dF[:, :, i]
        return out

    def vjp(self, Z, K, w):
        """sum_n w_n K_np (P' - P)/P(r_npi) sign(Z_pi - Z_ni), one coordinate at a time.

        P has positive coefficients, so P > 0 for r >= 0 and the ratio is
        finite; at order 1 it is -1, and a coincident coordinate keeps the
        subgradient 0 through sign(0) = 0.
        """
        poly, dpoly = _matern_polys(self.order)
        W = w[:, None] * K
        out = np.empty_like(Z)
        for i in range(self.dim):
            diff = np.subtract.outer(Z[:, i], Z[:, i])   # Z_ni - Z_pi
            if self.order == 1:
                factor = np.sign(diff)
            else:
                r = np.abs(diff)
                p = np.polyval(poly, r)
                factor = (p - np.polyval(dpoly, r)) / p * np.sign(diff)
            out[:, i] = np.einsum("np,np->p", W, factor)
        return out


@dataclass(frozen=True)
class DiagScaledKernel:
    """Matrix-valued kernel K_I(x, y) * diag(a) for a scalar kernel K_I."""

    scalar: object
    weights: tuple

    def __post_init__(self):
        w = tuple(real_field(v, "weights") for v in self.weights)
        if not (w and all(0.0 < v < math.inf for v in w)):   # also NaN
            raise ValueError("weights must be a vector of finite positive reals")
        object.__setattr__(self, "weights", w)

    family = "diag_scaled"

    @property
    def out_dim(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.scalar.dim

    def diag_cross(self, X, Z):
        """(D, n, m) stack of per-output scalar Gram blocks."""
        k = self.scalar.cross(X, Z)
        return np.asarray(self.weights)[:, None, None] * k[None, :, :]


@dataclass(frozen=True)
class DiagMixtureKernel:
    """Diagonal matrix-valued kernel with one scalar kernel per output."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        dims = {k.dim for k in comps}
        if len(dims) != 1:
            raise ValueError("mixture components must share the input dimension")
        object.__setattr__(self, "components", comps)

    family = "diag_mixture"

    @property
    def out_dim(self):
        return len(self.components)

    @property
    def dim(self):
        return self.components[0].dim

    def diag_cross(self, X, Z):
        # in place: np.stack of a list held every block twice, a peak that made half
        # of reg-d5-n100's post-fit prediction jobs take ~76k minor faults, not ~1k
        out = np.empty((len(self.components), len(X), len(Z)))
        for l, k in enumerate(self.components):
            out[l] = k.cross(X, Z)
        return out


# -----------------------------
# Parameter-dict conversion (config files, model records)
# -----------------------------

def integer_field(value, key):
    """value as an int: a JSON number with an integer value, such as 3 or 3.0.

    A bool, a string or any other type raises TypeError, and a fraction or
    a non-finite number ValueError; both name key.  Every count, degree,
    order, dimension and seed the package is given is read through this.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if not isinstance(value, float):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    if not value.is_integer():   # also NaN and the infinities
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def real_field(value, key):
    """value as a float: a JSON number; a bool, a string or any other type raises TypeError naming key."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{key} must be a number, got {value!r}")


# family -> (class, parameter key, constructor argument); the class reads its fields
_SCALAR_PARAMS = {
    "poly": (PolyKernel, "p", "degree"),
    "gauss": (GaussKernel, "sigma", "sigma"),
    "tensor_matern": (TensorMaternKernel, "s", "order"),
}


def _scalar_entry(family):
    if not (isinstance(family, str) and family in _SCALAR_PARAMS):
        raise ValueError(f"unknown scalar kernel family {family!r}")
    return _SCALAR_PARAMS[family]


def scalar_to_params(kernel):
    _, key, arg = _scalar_entry(kernel.family)
    return {"family": kernel.family, key: getattr(kernel, arg), "dim": kernel.dim}


def scalar_from_params(params):
    cls, key, arg = _scalar_entry(params.get("family"))
    # p and s are integers read under their own key, so an error names the key
    value = params[key] if key == arg else integer_field(params[key], key)
    return cls(**{arg: value, "dim": params["dim"]})


def matrix_to_params(kernel):
    if kernel.family == "diag_scaled":
        return {
            "family": "diag_scaled",
            "weights": list(kernel.weights),
            "components": [scalar_to_params(kernel.scalar)],
        }
    if kernel.family == "diag_mixture":
        return {
            "family": "diag_mixture",
            "components": [scalar_to_params(k) for k in kernel.components],
        }
    raise ValueError(f"unknown matrix kernel {kernel!r}")


def matrix_from_params(params):
    family = params.get("family")
    comps = [scalar_from_params(p) for p in params["components"]]
    if family == "diag_scaled":
        if len(comps) != 1:
            raise ValueError("diag_scaled takes exactly one scalar component")
        return DiagScaledKernel(comps[0], params["weights"])
    if family == "diag_mixture":
        return DiagMixtureKernel(components=tuple(comps))
    raise ValueError(f"unknown matrix kernel family {family!r}")
