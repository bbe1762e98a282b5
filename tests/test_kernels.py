"""Kernel evaluations, derivatives, and the half-integer Bessel closed forms."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from deepkern.kernels import (
    DiagMixtureKernel,
    DiagScaledKernel,
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
    _matern_polys,
    bessel_k_half,
    integer_field,
    matrix_from_params,
    matrix_to_params,
    real_field,
    scalar_from_params,
    scalar_to_params,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def grad2(kernel, x, y):
    """Gradient of kernel(x, y) with respect to y, through the batched grad2_cross."""
    return kernel.grad2_cross(x[None, :], y[None, :])[0, 0]


def diag_at(K, x, y):
    """Diagonal of the D x D matrix kernel value at one pair, through diag_cross."""
    return K.diag_cross(x[None, :], y[None, :])[:, 0, 0]


def central_diff_grad2(kernel, x, y, h=1e-6):
    out = np.empty_like(y)
    for i in range(len(y)):
        e = np.zeros_like(y)
        e[i] = h
        out[i] = (kernel(x, y + e) - kernel(x, y - e)) / (2 * h)
    return out


class TestBesselKHalf:
    def test_order_half(self):
        assert bessel_k_half(0, 1.0) == pytest.approx(SQRT_HALF_PI * math.exp(-1.0), rel=1e-14)

    def test_recurrence_three_halves(self):
        # K_{3/2}(r) = K_{1/2}(r) (1 + 1/r)
        assert bessel_k_half(1, 1.0) == pytest.approx(bessel_k_half(0, 1.0) * 2.0, rel=1e-14)

    def test_large_argument(self):
        assert bessel_k_half(0, 10.0) == pytest.approx(
            math.sqrt(math.pi / 20.0) * math.exp(-10.0), rel=1e-14
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_matches_scipy(self, n):
        r = np.array([0.05, 0.3, 1.0, 4.5, 12.0])
        np.testing.assert_allclose(bessel_k_half(n, r), sp.kv(n + 0.5, r), rtol=1e-12)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            bessel_k_half(0, 0.0)
        with pytest.raises(ValueError):
            bessel_k_half(0, -1.0)


class TestScalarValues:
    def test_poly_orthogonal_points(self):
        k = PolyKernel(degree=2, dim=2)
        assert k(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_gauss_diagonal(self):
        k = GaussKernel(sigma=0.37, dim=3)
        x = np.array([0.2, -1.0, 0.5])
        assert k(x, x) == 1.0

    def test_matern_unit_distance(self):
        k = TensorMaternKernel(order=1, dim=1)
        val = k(np.array([0.0]), np.array([1.0]))
        assert val == pytest.approx(SQRT_HALF_PI * math.exp(-1.0), rel=1e-12)
        assert val == pytest.approx(0.461069, abs=1e-6)

    def test_matern_diagonal_d2(self):
        k = TensorMaternKernel(order=1, dim=2)
        x = np.array([0.4, -0.9])
        assert k(x, x) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_matern_factor_matches_bessel(self):
        # per-coordinate factor is r^{s-1/2} K_{s-1/2}(r)
        for s in (1, 2, 4):
            k = TensorMaternKernel(order=s, dim=1)
            for r in (0.1, 0.8, 3.0):
                expected = r ** (s - 0.5) * bessel_k_half(s - 1, r)
                assert k(np.array([0.0]), np.array([r])) == pytest.approx(expected, rel=1e-12)

    def test_matern_coincidence_limit(self):
        # limit 2^{s-3/2} Gamma(s-1/2) per coordinate
        for s in (1, 2, 3):
            k = TensorMaternKernel(order=s, dim=1)
            lim = 2.0 ** (s - 1.5) * math.gamma(s - 0.5)
            assert k(np.array([0.3]), np.array([0.3])) == pytest.approx(lim, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        k = GaussKernel(sigma=1.0, dim=2)
        with pytest.raises(ValueError):
            k(np.array([1.0]), np.array([0.0, 1.0]))

    def test_nonfinite_raises(self):
        k = PolyKernel(degree=1, dim=2)
        with pytest.raises(ValueError):
            k(np.array([np.nan, 0.0]), np.array([0.0, 1.0]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussKernel(sigma=0.0, dim=2)
        with pytest.raises(ValueError):
            PolyKernel(degree=0, dim=2)
        with pytest.raises(ValueError):
            TensorMaternKernel(order=0, dim=2)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -1.0])
    def test_gauss_refuses_a_nonfinite_or_negative_sigma(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be finite and positive"):
            GaussKernel(sigma=sigma, dim=2)

    # what load_model refuses in a file, so that every fitted model reloads
    @pytest.mark.parametrize("build, error, field", [
        (lambda: GaussKernel(sigma=True, dim=2), TypeError, "sigma"),
        (lambda: GaussKernel(sigma="0.5", dim=2), TypeError, "sigma"),
        (lambda: TensorMaternKernel(order=True, dim=2), TypeError, "order"),
        (lambda: TensorMaternKernel(order=1, dim=True), TypeError, "dim"),
        (lambda: PolyKernel(degree=2, dim=2.5), ValueError, "dim"),
        (lambda: PolyKernel(degree=1.5, dim=2), ValueError, "degree"),
        (lambda: DiagScaledKernel(GaussKernel(1.0, 2), weights=("2", 1.0)), TypeError, "weights"),
        (lambda: DiagScaledKernel(GaussKernel(1.0, 2), weights=(1.0, True)), TypeError, "weights"),
    ], ids=["sigma-bool", "sigma-string", "order-bool", "dim-bool", "dim-fraction",
            "degree-fraction", "weight-string", "weight-bool"])
    def test_refuses_a_parameter_that_is_not_a_number_of_its_kind(self, build, error, field):
        with pytest.raises(error, match=f"^{field} must be"):
            build()

    def test_reads_numbers_as_python_ints_and_floats(self):
        kernels = (PolyKernel(np.int64(2), 2.0), GaussKernel(np.float32(0.5), np.int32(2)),
                   TensorMaternKernel(2.0, np.int64(3)))
        assert kernels == (PolyKernel(2, 2), GaussKernel(0.5, 2), TensorMaternKernel(2, 3))
        for k, kind in zip(kernels, (int, float, int)):
            _, value, dim = scalar_to_params(k).values()   # family, p / sigma / s, dim
            assert type(value) is kind and type(dim) is int
        weights = DiagScaledKernel(kernels[0], np.array([1.0, 2.0], np.float32)).weights
        assert weights == (1.0, 2.0) and all(type(w) is float for w in weights)


ALL_SCALARS = [
    PolyKernel(degree=1, dim=2),
    PolyKernel(degree=3, dim=2),
    GaussKernel(sigma=0.1, dim=2),
    GaussKernel(sigma=1.5, dim=2),
    TensorMaternKernel(order=1, dim=2),
    TensorMaternKernel(order=2, dim=2),
]


class TestScalarProperties:
    @pytest.mark.parametrize("kernel", ALL_SCALARS)
    def test_symmetry_exact(self, kernel):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert kernel(x, y) == kernel(y, x)

    @pytest.mark.parametrize("kernel", ALL_SCALARS)
    def test_positive_semidefinite_small_sets(self, kernel):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.uniform(-1, 1, size=(rng.integers(2, 9), 2))
            M = kernel.cross(X, X)
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-10

    @pytest.mark.parametrize("kernel", ALL_SCALARS)
    def test_cross_matches_pair(self, kernel):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 2))
        Z = rng.standard_normal((3, 2))
        M = kernel.cross(X, Z)
        for i in range(4):
            for j in range(3):
                assert M[i, j] == pytest.approx(kernel(X[i], Z[j]), rel=1e-14)


class TestScalarGradients:
    def test_gauss_stationary_at_coincidence(self):
        k = GaussKernel(sigma=0.5, dim=2)
        x = np.array([0.1, 0.2])
        np.testing.assert_array_equal(grad2(k, x, x), np.zeros(2))

    def test_poly1_gradient_is_x(self):
        k = PolyKernel(degree=1, dim=2)
        x, y = np.array([2.0, -1.0]), np.array([0.3, 0.4])
        np.testing.assert_array_equal(grad2(k, x, y), x)

    def test_gauss_finite_difference_example(self):
        k = GaussKernel(sigma=0.1, dim=2)
        x, y = np.array([0.0, 0.0]), np.array([0.1, 0.0])
        fd = central_diff_grad2(k, x, y)
        np.testing.assert_allclose(grad2(k, x, y), fd, rtol=1e-6)

    @pytest.mark.parametrize("kernel", ALL_SCALARS)
    def test_gradient_matches_central_differences(self, kernel):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            if kernel.family == "tensor_matern" and np.min(np.abs(x - y)) < 1e-4:
                continue   # keep finite differences away from the kink locus
            fd = central_diff_grad2(kernel, x, y)
            ga = grad2(kernel, x, y)
            scale = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(ga - fd) / scale) <= 1e-5
            checked += 1

    def test_matern_kink_uses_zero_subgradient(self):
        k = TensorMaternKernel(order=1, dim=2)
        x = np.array([0.5, -0.2])
        y = np.array([0.5, 0.3])   # first coordinates coincide
        g = grad2(k, x, y)
        assert g[0] == 0.0
        assert g[1] != 0.0

    def test_grad2_cross_matches_grad2(self):
        for kernel in ALL_SCALARS:
            rng = np.random.default_rng(23)
            X = rng.standard_normal((3, 2))
            Z = rng.standard_normal((4, 2))
            G = kernel.grad2_cross(X, Z)
            for i in range(3):
                for j in range(4):
                    np.testing.assert_allclose(G[i, j], grad2(kernel, X[i], Z[j]), rtol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matern_grad2_cross_matches_product_of_others(self, order, dim):
        def reference(kernel, X, Z):
            # separate exps for the factors and their derivatives, and a
            # fancy-indexed copy of the other coordinates fed to np.prod
            poly, dpoly = _matern_polys(kernel.order)
            diff = Z[None, :, :] - X[:, None, :]
            R = np.abs(diff)
            F = SQRT_HALF_PI * np.exp(-R) * np.polyval(poly, R)
            dF = (SQRT_HALF_PI * np.exp(-R) * (np.polyval(dpoly, R) - np.polyval(poly, R))
                  * np.sign(diff))
            out = np.empty_like(F)
            for i in range(kernel.dim):
                others = [j for j in range(kernel.dim) if j != i]
                out[:, :, i] = dF[:, :, i] * np.prod(F[:, :, others], axis=-1)
            return out

        kernel = TensorMaternKernel(order, dim)
        rng = np.random.default_rng(100 * order + dim)
        for n, m, scale in ((30, 30, 1.0), (50, 40, 3.0), (100, 100, 0.2)):
            X = rng.standard_normal((n, dim))
            Z = scale * rng.standard_normal((m, dim))
            Z[:3] = X[:3]              # coincident points
            Z[5, 0] = X[5, 0]          # one coincident coordinate (sign 0)
            got, want = kernel.grad2_cross(X, Z), reference(kernel, X, Z)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _points_with_coincidences(rng, n, dim, scale=1.0):
    """Random points with one duplicated point and one shared coordinate."""
    Z = scale * rng.standard_normal((n, dim))
    Z[3] = Z[0]                # a duplicated point
    Z[5, 0] = Z[4, 0]          # a coordinate two points share (sign 0)
    return Z


VJP_KERNELS = {
    **{f"poly{p}": (lambda d, p=p: PolyKernel(p, d)) for p in (1, 2, 3)},
    **{f"gauss{s}": (lambda d, s=s: GaussKernel(s, d)) for s in (0.3, 1.0, 3.0)},
    **{f"matern{s}": (lambda d, s=s: TensorMaternKernel(s, d)) for s in (1, 2, 3)},
}


class TestVjp:
    """vjp(Z, K, w) against the contraction of the (N, N, D) grad2_cross tensor."""

    @pytest.mark.parametrize("make", VJP_KERNELS.values(), ids=VJP_KERNELS.keys())
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matches_grad2_cross_contraction(self, make, dim):
        kernel = make(dim)
        rng = np.random.default_rng(7 * dim + 1)
        for n, scale in ((8, 1.0), (40, 0.5), (60, 2.0)):
            Z = _points_with_coincidences(rng, n, dim, scale)
            w = rng.standard_normal(n)
            G = kernel.grad2_cross(Z, Z)
            want = np.einsum("n,npd->pd", w, G)
            got = kernel.vjp(Z, kernel.cross(Z, Z), w)
            assert got.shape == (n, dim)
            # relative to the sum of the absolute terms, so an entry whose
            # terms cancel (or are all exactly zero) is held to the same bound
            terms = np.einsum("n,npd->pd", np.abs(w), np.abs(G))
            assert np.all(np.abs(got - want) <= 1e-12 * terms)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matern_order1_shared_coordinate_gives_subgradient_zero(self, dim):
        kernel = TensorMaternKernel(1, dim)
        Z = np.random.default_rng(dim).standard_normal((2, dim))
        Z[1, 0] = Z[0, 0]
        got = kernel.vjp(Z, kernel.cross(Z, Z), np.array([0.7, -1.3]))
        np.testing.assert_array_equal(got[:, 0], [0.0, 0.0])
        assert np.all(got[:, 1:] != 0.0)
        # a duplicated point contributes nothing to either copy
        Zd = np.vstack([Z[:1], Z[:1]])
        np.testing.assert_array_equal(kernel.vjp(Zd, kernel.cross(Zd, Zd), np.ones(2)), 0.0)


class TestCrossFormulas:
    """The per-coordinate cross against the direct (n, m, D) formulas."""

    @staticmethod
    def _points(rng, n, m, dim):
        X = rng.standard_normal((n, dim))
        Z = rng.standard_normal((m, dim))
        if m > 2:
            Z[0] = X[0]                  # coincident points
            Z[1, 0] = X[1, 0]            # a shared coordinate
            Z[2] = X[2] + 2000.0         # far enough that the value underflows to 0
        return X, Z

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matern_matches_product_of_factors(self, order, dim):
        kernel = TensorMaternKernel(order, dim)
        rng = np.random.default_rng(10 * order + dim)
        for n, m in ((6, 0), (6, 9), (40, 30)):
            X, Z = self._points(rng, n, m, dim)
            want = np.prod(kernel._factors(np.abs(X[:, None, :] - Z[None, :, :])), axis=-1)
            got = kernel.cross(X, Z)
            assert got.shape == (n, m)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            if m:
                assert got[2, 2] == 0.0

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 4.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_gauss_matches_direct_formula(self, sigma, dim):
        kernel = GaussKernel(sigma, dim)
        rng = np.random.default_rng(dim)
        for n, m in ((6, 0), (6, 9), (40, 30)):
            X, Z = self._points(rng, n, m, dim)
            sq = np.sum((X[:, None, :] - Z[None, :, :]) ** 2, axis=-1)
            want = np.exp(-sq / (2.0 * sigma**2))
            got = kernel.cross(X, Z)
            assert got.shape == (n, m)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            if m:
                assert got[2, 2] == 0.0


def reference_gauss_cross(kernel, X, Z):
    """The per-coordinate Gauss cross written with a fresh array per operation."""
    sq = np.zeros((len(X), len(Z)))
    for i in range(kernel.dim):
        d = np.subtract.outer(X[:, i], Z[:, i])
        sq += d * d
    return np.exp(-sq / (2.0 * kernel.sigma**2))


def reference_matern_cross(kernel, X, Z):
    """The per-coordinate tensor-Matern cross written with a fresh array per operation."""
    poly, _ = _matern_polys(kernel.order)
    r_sum = np.zeros((len(X), len(Z)))
    p_prod = None
    for i in range(kernel.dim):
        r = np.abs(np.subtract.outer(X[:, i], Z[:, i]))
        r_sum += r
        if kernel.order > 1:
            p = np.polyval(poly, r)
            p_prod = p if p_prod is None else p_prod * p
    K = SQRT_HALF_PI**kernel.dim * np.exp(-r_sum)
    return K if p_prod is None else K * p_prod


CROSS_SHAPES = ((6, 0), (0, 4), (1, 9), (7, 1), (6, 9), (40, 30), (30, 257))


class TestCrossInPlace:
    """cross reuses scratch arrays; its bits are those of the allocating formulas."""

    @staticmethod
    def _check(kernel, reference, rng):
        for n, m in CROSS_SHAPES:
            if min(n, m) > 2:   # with coincident, shared and far coordinates
                X, Z = TestCrossFormulas._points(rng, n, m, kernel.dim)
            else:
                X, Z = rng.standard_normal((n, kernel.dim)), rng.standard_normal((m, kernel.dim))
            X0, Z0 = X.copy(), Z.copy()
            got = kernel.cross(X, Z)
            want = reference(kernel, X, Z)
            assert got.shape == (n, m)
            assert np.array_equal(got, want), (n, m)
            np.testing.assert_array_equal(X, X0)
            np.testing.assert_array_equal(Z, Z0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matern_bits(self, order, dim):
        self._check(TensorMaternKernel(order, dim), reference_matern_cross,
                    np.random.default_rng(100 + 10 * order + dim))

    @pytest.mark.parametrize("sigma", [0.1, 0.7, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_gauss_bits(self, sigma, dim):
        self._check(GaussKernel(sigma, dim), reference_gauss_cross,
                    np.random.default_rng(200 + dim))


class TestMatrixKernels:
    def test_diag_scaled_identity_at_coincidence(self):
        K = DiagScaledKernel(GaussKernel(sigma=1.0, dim=2), weights=(1.0, 1.0))
        x = np.array([0.3, 0.4])
        np.testing.assert_array_equal(diag_at(K, x, x), np.ones(2))

    def test_diag_scaled_poly_weights(self):
        K = DiagScaledKernel(PolyKernel(degree=1, dim=2), weights=(2.0, 3.0))
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(diag_at(K, x, x), [4.0, 6.0])

    def test_diag_mixture_at_origin(self):
        K = DiagMixtureKernel((GaussKernel(sigma=1.0, dim=2), PolyKernel(degree=1, dim=2)))
        z = np.zeros(2)
        np.testing.assert_allclose(diag_at(K, z, z), [1.0, 1.0])

    def test_matrix_symmetry(self):
        K = DiagScaledKernel(GaussKernel(sigma=0.7, dim=2), weights=(0.5, 2.0))
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        np.testing.assert_array_equal(diag_at(K, x, y), diag_at(K, y, x))

    def test_diag_cross_layout(self):
        K = DiagMixtureKernel((GaussKernel(sigma=1.0, dim=2), PolyKernel(degree=2, dim=2)))
        rng = np.random.default_rng(9)
        X, Z = rng.standard_normal((3, 2)), rng.standard_normal((5, 2))
        C = K.diag_cross(X, Z)
        assert C.shape == (2, 3, 5)
        np.testing.assert_allclose(C[0], K.components[0].cross(X, Z))
        np.testing.assert_allclose(C[1], K.components[1].cross(X, Z))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DiagScaledKernel(GaussKernel(sigma=1.0, dim=2), weights=(1.0, -1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_weights(self, bad):
        with pytest.raises(ValueError, match="^weights must be"):
            DiagScaledKernel(GaussKernel(sigma=1.0, dim=2), weights=(bad, 1.0))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            DiagMixtureKernel((GaussKernel(sigma=1.0, dim=2), PolyKernel(degree=1, dim=3)))


def _kernels_on(dim):
    """Hypothesis strategy: any scalar family on R^dim, or a diagonal kernel built from them."""
    scalar = st.one_of(
        st.builds(PolyKernel, degree=st.integers(1, 3), dim=st.just(dim)),
        st.builds(GaussKernel, sigma=st.floats(0.05, 10.0), dim=st.just(dim)),
        st.builds(TensorMaternKernel, order=st.integers(1, 3), dim=st.just(dim)),
    )
    return st.one_of(
        scalar,
        st.builds(DiagScaledKernel, scalar=scalar,
                  weights=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3)),
        st.builds(DiagMixtureKernel, components=st.lists(scalar, min_size=1, max_size=3)),
    )


def _uses_poly(kernel):
    scalars = getattr(kernel, "components", None) or (getattr(kernel, "scalar", kernel),)
    return any(k.family == "poly" for k in scalars)


class TestGramSymmetry:
    """cross(X, X) and diag_cross(X, X) equal their transposes bit for bit (see ``kernels``).

    Difference-based kernels are checked for one array and for a copy.  The
    polynomial kernel is symmetric for one array only: with a copy, BLAS's
    general product can round (i, j) and (j, i) apart.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_gram_equals_its_transpose(self, data):
        dim = data.draw(st.integers(1, 5), label="dim")
        kernel = data.draw(_kernels_on(dim), label="kernel")
        n = data.draw(st.integers(1, 130), label="n")
        scale = data.draw(st.sampled_from([0.1, 1.0, 3.0]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = scale * rng.standard_normal((n, dim))
        X[-1] = X[0]   # a coincident pair, or the one point twice
        gram = kernel.cross if hasattr(kernel, "cross") else kernel.diag_cross
        for other in (X,) if _uses_poly(kernel) else (X, X.copy()):
            bits = gram(X, other).view(np.uint64)
            assert np.array_equal(bits, np.swapaxes(bits, -1, -2))

    def test_one_list_passed_twice_is_converted_once(self):
        # converted twice, the list made two arrays, and X @ Z.T rounded K[i, j] and
        # K[j, i] apart: by up to 8.5e-14 at this draw
        L = np.random.default_rng(0).standard_normal((303, 3)).tolist()
        for kernel in (PolyKernel(degree=3, dim=3), DiagScaledKernel(PolyKernel(3, 3), (1.0, 2.0))):
            gram = kernel.cross if hasattr(kernel, "cross") else kernel.diag_cross
            bits = gram(L, L).view(np.uint64)
            assert np.array_equal(bits, np.swapaxes(bits, -1, -2))


class TestParamRoundTrip:
    @pytest.mark.parametrize("kernel", ALL_SCALARS)
    def test_scalar_round_trip(self, kernel):
        assert scalar_from_params(scalar_to_params(kernel)) == kernel

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3)])
    def test_integer_field_takes_an_integer_valued_number(self, value):
        assert type(integer_field(value, "p")) is int and integer_field(value, "p") == 3

    @pytest.mark.parametrize("value, error", [
        (True, TypeError), ("3", TypeError), (None, TypeError), ([3], TypeError),
        (2.5, ValueError), (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    ])
    def test_integer_field_names_the_key_of_what_it_refuses(self, value, error):
        with pytest.raises(error, match="^restarts must be an integer"):
            integer_field(value, "restarts")

    @pytest.mark.parametrize("value, want", [
        (3, 3.0), (0.25, 0.25), (np.int64(3), 3.0), (np.float32(0.5), 0.5), (-2, -2.0),
        (math.inf, math.inf),   # the range is the owner's to check
    ])
    def test_real_field_takes_any_number(self, value, want):
        assert type(real_field(value, "sigma")) is float and real_field(value, "sigma") == want

    def test_real_field_keeps_nan_for_the_owner_to_refuse(self):
        assert math.isnan(real_field(math.nan, "sigma"))

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, [0.5], {"v": 1}])
    def test_real_field_names_the_key_of_what_it_refuses(self, value):
        with pytest.raises(TypeError, match="^sigma must be a number"):
            real_field(value, "sigma")

    def test_matrix_round_trip(self):
        kernels = [
            DiagScaledKernel(PolyKernel(degree=1, dim=2), weights=(1.0, 1.0)),
            DiagMixtureKernel((
                GaussKernel(sigma=0.1, dim=2),
                GaussKernel(sigma=1.0, dim=2),
                PolyKernel(degree=2, dim=2),
            )),
        ]
        for K in kernels:
            assert matrix_from_params(matrix_to_params(K)) == K
