"""Single-layer kernel interpolation and ridge regression baselines."""

from dataclasses import dataclass

import numpy as np

from .gram import by_point_blocks, shift_diagonal, spd_solve


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
    if not lam >= 0.0:   # also rejects NaN
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if len(y) != len(X):
        raise ValueError("X and y lengths differ")
    M = kernel.cross(X, X)
    alpha, _ = spd_solve(shift_diagonal(M, lam) if lam else M, y)
    return SingleLayerModel(kernel=kernel, centers=X, alpha=alpha, lam=float(lam))


def predict_single(model, points):
    """Evaluate the fitted expansion at one point or a (m, d) batch.

    The batch is evaluated in blocks of ``gram.POINT_BLOCK`` = 256 points, so
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
    M = model.kernel.cross(model.centers, model.centers)
    return float(model.alpha @ M @ model.alpha)
