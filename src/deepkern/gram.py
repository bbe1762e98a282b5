"""Symmetric positive-definite solves and blocked kernel evaluation.

Every linear solve in the package goes through ``spd_solve``: a Cholesky
factorization with an escalating diagonal jitter, one rung of ``JITTERS``
at a time.  The first rung is no jitter at all, so well-conditioned
systems are solved exactly as assembled; a semidefinite matrix (e.g. two
coincident data points) picks up the smallest jitter that lets the
factorization succeed, and a matrix that fails at 1e-6 raises
``SingularMatrixError``.  Solutions get one step of iterative refinement,
which keeps residuals near machine precision even close to the jitter
boundary.  Every M + t I is ``shift_diagonal(M, t)``, which is M at t = 0.

Kernel evaluations at m new points go through ``by_point_blocks``, which
evaluates them ``POINT_BLOCK`` = 256 rows at a time, so a read path holds
O(N D POINT_BLOCK) memory however large m is.  The block is small enough
that a process does not page-fault its temporaries in again for every
block (see the constant).  Each block runs the same formula as a single
call would, so the results agree up to rounding: the same points array at
the same BLAS thread count gives the same bits, but a point's value can
differ in the last bits with the batch it is evaluated in, blocked or
not, because BLAS orders its reductions by the shape of the call.

scipy's LAPACK routines (``dpotrf``/``dpotrs``) load on the first solve, not
at import, so the commands that only read a model never load them.  A
solve loads the top-level ``scipy`` package and the one extension module
that holds both routines, ``scipy/linalg/_flapack``, and never the
``scipy.linalg`` package: see ``_lapack``.
"""

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np


class SingularMatrixError(RuntimeError):
    """Factorization failed for every jitter in ``JITTERS``."""


JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


# rows per block.  A block's largest temporary is the (D, N, rows) stack of
# inner kernel values.  Once a block's temporaries pass a few MB, a fresh
# process page-faults them in again block after block (ru_minflt).
# Predicting a 40,401-point grid with an N = 100, D = 5 model (1 BLAS
# thread): 256 rows (a 1 MB stack) took a few hundred minor faults and
# 0.25 s of CPU, 1024 rows 83k faults and 0.55 s, 4096 rows 52k faults and
# 0.51 s.  The cliff lies between 512 and 1024 rows; 256 keeps a factor
# of two.
POINT_BLOCK = 256


def by_point_blocks(fn, points):
    """fn applied to consecutive POINT_BLOCK-row slices of points, results concatenated.

    ``points`` is an (m, d) array; ``fn`` maps a (b, d) slice to an array
    with b leading rows.  Up to one block, including m = 0, fn is called
    once on the whole array, so its result and shape are fn's own.
    """
    if len(points) <= POINT_BLOCK:
        return fn(points)
    return np.concatenate([fn(points[i:i + POINT_BLOCK])
                           for i in range(0, len(points), POINT_BLOCK)])


def shift_diagonal(M, t):
    """M + t I without forming I: M itself when t = 0, else a new array; M is left as it is.

    The diagonal gets the same sums as ``M + t * np.eye(n)``; off it, that
    form adds t * 0 = +0, which changes no value, and this adds nothing.
    """
    if not t:
        return M
    out = np.array(M, dtype=float, order="C")
    out.ravel()[::len(out) + 1] += t
    return out


@functools.cache
def _lapack():
    """(dpotrf, dpotrs) from scipy's ``_flapack`` extension, loaded on first use.

    These are the very objects ``scipy.linalg.lapack`` exports, without its
    package: importing ``scipy.linalg`` runs 85 scipy modules, and through
    its array-API layer numpy.f2py, numpy.testing and numpy.ma among others;
    after numpy it adds 26 MB of peak RSS and 0.15-0.18 s of CPU.  The
    top-level ``scipy`` package costs 0.9 MB and about 10 ms (on wheels that
    bundle OpenBLAS, Windows ones for example, it also sets up where the
    shared libraries are found), and the extension 2.5 MB and about 5 ms
    (scipy 1.17.1, numpy 2.4.6, x86-64 Linux).  Every scipy wheel from 1.10
    on ships ``linalg/_flapack``.
    """
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dpotrf, flapack.dpotrs


def spd_factor(M):
    """Cholesky factor of M + jitter*I, escalating jitter until it succeeds.

    Returns ``(factor, used_jitter)``: dpotrf's lower factor, whose strict
    upper triangle keeps input entries that dpotrs never reads.  A
    non-finite entry in M raises ``ValueError``.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    dpotrf = _lapack()[0]
    for jitter in JITTERS:
        # info > 0: not positive definite; info < 0 (a bad argument) cannot
        # occur, as the wrapper checks shapes and types before LAPACK runs
        factor, info = dpotrf(shift_diagonal(M, jitter), lower=1, clean=0)
        if info == 0:
            return factor, jitter
    raise SingularMatrixError(
        f"matrix not positive definite up to jitter {JITTERS[-1]:g} "
        f"(condition estimate {float(np.linalg.cond(M)):.3e})"
    )


def spd_solve(M, b):
    """Solve (M + jitter*I) x = b, reporting the jitter actually used.

    A non-finite entry in M or b raises ``ValueError``.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    factor, jitter = spd_factor(M)
    dpotrs = _lapack()[1]
    x = dpotrs(factor, b, lower=1)[0]
    # one refinement pass; negligible cost next to the factorization
    x = x + dpotrs(factor, b - shift_diagonal(M, jitter) @ x, lower=1)[0]
    return x, jitter
