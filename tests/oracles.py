"""Test oracles: the paper's Q(c), N(c), separation penalty and block Gram matrix.

The objective never forms these on their own; the tests and the acceptance
suite check it against them.
"""

import numpy as np

from deepkern.deep_model import _block_times, _penalty_terms


def q_matrix(c, prob):
    """Outer Gram matrix of the mapped data points, exactly symmetric."""
    Z = prob.images(c)
    return prob.outer.cross(Z, Z)


def inner_norm_sq(c, prob):
    """Squared inner-space norm of g: sum_{j,k} c_j^T Kmat(x_j, x_k) c_k."""
    cm = prob.coeff_matrix(c)
    return float(np.sum(cm * _block_times(prob, cm)))


def block_gram(inner, X):
    """The (N D, N D) block matrix of Kmat(x_j, x_k), row-major coefficient order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B = inner.diag_cross(X, X)
    D, n, _ = B.shape
    out = np.zeros((n * D, n * D))
    for l in range(D):
        out[l::D, l::D] = B[l]
    return out


def penalty_coth(c, prob, gamma):
    """Separation penalty gamma * sum_{m<n} coth(|g(x_m) - g(x_n)|^2); SENTINEL near coincidence."""
    return _penalty_terms(prob.images(c), gamma)[0] if gamma else 0.0
