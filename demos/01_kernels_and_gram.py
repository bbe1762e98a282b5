"""Kernel zoo walkthrough: closed forms, derivatives, Gram solves.

Run:  python3 demos/01_kernels_and_gram.py
"""

import math

import numpy as np

from deepkern import (
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
    bessel_k_half,
    fit_single,
    spd_solve,
)

x = np.array([0.3, -0.4])
y = np.array([-0.1, 0.5])

print("== scalar kernels ==")
for k in (PolyKernel(2, 2), GaussKernel(0.5, 2), TensorMaternKernel(1, 2)):
    print(f"{k.family:>14}: k(x,y) = {k(x, y):.6f}   k(x,x) = {k(x, x):.6f}")

print("\n== half-integer Bessel functions (terminating series) ==")
print(f"K_1/2(1)  = {bessel_k_half(0, 1.0):.6f}   (sqrt(pi/2) e^-1 = {math.sqrt(math.pi/2)*math.e**-1:.6f})")
print(f"K_3/2(1)  = {bessel_k_half(1, 1.0):.6f}   (recurrence: K_1/2(1) * (1 + 1/1))")
print(f"K_5/2(10) = {bessel_k_half(2, 10.0):.3e}")

print("\n== the tensor-Matern factor is smooth through r = 0 ==")
m = TensorMaternKernel(1, 1)
for r in (0.0, 1e-8, 0.5, 1.0):
    print(f"  factor(|x-y| = {r:<6}) = {m(np.array([0.0]), np.array([r])):.8f}")
print(f"  limit value sqrt(pi/2)  = {math.sqrt(math.pi/2):.8f}")

print("\n== Gram matrices and solves ==")
rng = np.random.default_rng(0)
X = rng.uniform(-1, 1, (6, 2))
targets = np.sin(3 * X[:, 0]) * X[:, 1]
k = GaussKernel(0.5, 2)
M = k.cross(X, X)
alpha = fit_single(k, X, targets).alpha
print(f"interpolation residual: {np.max(np.abs(M @ alpha - targets)):.2e}")
print(f"native-space energy y^T M^-1 y = {targets @ alpha:.4f}")

print("\n== jitter escalation on a semidefinite system ==")
ones = np.ones((2, 2))
sol, used = spd_solve(ones, np.array([1.0, 1.0]))
print(f"solve(ones, [1,1]) -> {sol} with jitter {used:g}")
