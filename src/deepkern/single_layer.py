"""Single-layer kernel interpolation and ridge regression baselines."""

from dataclasses import dataclass

import numpy as np

from .gram import by_point_blocks, gram, solve_interpolation, solve_ridge


@dataclass(frozen=True)
class SingleLayerModel:
    kernel: object
    centers: np.ndarray   # (N, d) training points
    alpha: np.ndarray     # (N,) expansion coefficients
    lam: float            # 0 means interpolation

    def __post_init__(self):
        if len(self.alpha) != len(self.centers):
            raise ValueError("alpha and centers lengths differ")


def fit_single(kernel, X, y, lam=0.0):
    """Fit sum_i alpha_i K(x_i, .) by solving (M + lam*I) alpha = y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if len(y) != len(X):
        raise ValueError("X and y lengths differ")
    if lam == 0.0:
        alpha = solve_interpolation(kernel, X, y)
    else:
        alpha = solve_ridge(kernel, X, y, lam)
    return SingleLayerModel(kernel=kernel, centers=X, alpha=alpha, lam=float(lam))


def predict_single(model, points):
    """Evaluate the fitted expansion at one point or a (m, d) batch.

    The batch is evaluated in blocks of ``gram.POINT_BLOCK`` points, so
    memory is O(N POINT_BLOCK) for any m; a point's value can differ in
    the last bits with the batch it is in (see ``gram``).
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    vals = by_point_blocks(lambda block: model.kernel.cross(model.centers, block).T @ model.alpha,
                           np.atleast_2d(pts))
    return float(vals[0]) if single else vals


def rkhs_norm_sq_single(model):
    """alpha^T M alpha, the squared RKHS norm of the fitted function."""
    M = gram(model.kernel, model.centers)
    return float(model.alpha @ M @ model.alpha)
