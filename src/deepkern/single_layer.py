"""Single-layer kernel interpolation and ridge regression baselines."""

from dataclasses import dataclass

import numpy as np

from .gram import by_point_blocks, shift_diagonal, spd_solve


@dataclass(frozen=True)
class SingleLayerModel:
    """The fitted expansion sum_i alpha_i K(x_i, .), all that prediction reads; no lambda."""
    kernel: object
    centers: np.ndarray   # (N, d) training points
    alpha: np.ndarray     # (N,) expansion coefficients

    def __post_init__(self):
        if len(self.alpha) != len(self.centers):
            raise ValueError("alpha and centers lengths differ")


def fit_single(kernel, X, y, lam=0.0):
    """Fit sum_i alpha_i K(x_i, .) by solving (M + lam*I) alpha = y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if not lam >= 0.0:   # also rejects NaN
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if len(y) != len(X):
        raise ValueError("X and y lengths differ")
    alpha, _ = spd_solve(shift_diagonal(kernel.cross(X, X), lam), y)
    return SingleLayerModel(kernel=kernel, centers=X, alpha=alpha)


def predict_single(model, points):
    """The fitted expansion at (m, d) points as an (m,) array; a 1-D point is one row.

    The points are evaluated in blocks of ``gram.POINT_BLOCK`` = 256, so
    memory is O(N POINT_BLOCK) for any m; a point's value can differ in
    the last bits with the batch it is in (see ``gram``).
    """
    return by_point_blocks(lambda block: model.kernel.cross(model.centers, block).T @ model.alpha,
                           np.atleast_2d(np.asarray(points, dtype=float)))


def rkhs_norm_sq_single(model):
    """alpha^T M alpha, the squared RKHS norm of the fitted function."""
    M = model.kernel.cross(model.centers, model.centers)
    return float(model.alpha @ M @ model.alpha)
