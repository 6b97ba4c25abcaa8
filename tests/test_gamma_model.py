import numpy as np
import pytest
import scipy.integrate as integrate

from tpcmg import GammaModelConfig, assemble_gamma_system, gamma_coefficients, gamma_exact_forcing
from tpcmg.oracle import gamma_dense_reference, gamma_forcing_quadrature


def closed_forms(g):
    """m_k, q_k and eta_k of gamma_coefficients, each evaluated on its own
    argument array k."""
    s3, s2, s1 = 3.0 - g, 2.0 - g, 1.0 - g

    def mfun(k):
        return 4.0 * ((k + 1) ** s3 - (k - 1) ** s3) \
            - s3 * ((k + 1) ** s2 + 6.0 * k ** s2 + (k - 1) ** s2)

    def qfun(k):
        return -8.0 * ((k + 1) ** s3 - k ** s3) + 4.0 * s3 * ((k + 1) ** s2 + k ** s2)

    def etafun(k):
        return 4.0 * (k ** s3 - (k - 1) ** s3) \
            - s3 * (3.0 * k ** s2 + (k - 1) ** s2 - s2 * k ** s1)

    return mfun, qfun, etafun


class TestCoefficients:
    def test_gamma_zero_heads(self):
        co = gamma_coefficients(0.0, 8)
        assert co.m[0] == pytest.approx(2.0)       # m_0 = 2(1+gamma)
        assert co.n[0] == pytest.approx(4.0)       # n_0 = (2-gamma) 2^{gamma+1}
        assert co.q[0] == pytest.approx(4.0)       # q_0 = -8 + 4*3
        assert co.m[1] == pytest.approx(2.0)       # 4*8 - 3*(4+6)
        assert co.eta[0] == pytest.approx(1.0)     # eta_{1/2} = (2-g)(1-g)2^{g-1}

    def test_half_index_identities(self):
        # p_k = m_{k+1/2} and n_k = q_{k-1/2} for k >= 1
        g = 0.37
        co = gamma_coefficients(g, 16)
        mfun, qfun, _ = closed_forms(g)
        for k in (1, 2, 5):
            assert co.p[k] == pytest.approx(mfun(k + 0.5), rel=1e-14)
            assert co.n[k] == pytest.approx(qfun(k - 0.5), rel=1e-14)

    def test_diagonal_positive(self):
        for g in (0.0, 0.3, 0.5, 0.9, 0.999):
            co = gamma_coefficients(min(g, 0.999), 32)
            assert np.all(co.d > 0.0)

    def test_diagonal_constant_at_gamma_zero(self):
        co = gamma_coefficients(0.0, 4)
        assert np.allclose(co.d, 24.0)             # 6N with N = 4

    def test_quadrature_certifies_tables(self):
        """Every coefficient family equals the eta-scaled basis integral."""
        N, g = 4, 0.6
        h = 1.0 / N
        eta_sc = (3 - g) * (2 - g) * (1 - g) / h ** (1 - g)
        co = gamma_coefficients(g, N)

        def phi_int(mnode):
            xm = mnode * h

            def f(y):
                if mnode > 0 and xm - h <= y <= xm:
                    return ((y - xm + h) / h) * ((2 * y - 2 * xm + h) / h)
                if mnode < N and xm <= y <= xm + h:
                    return ((xm + h - y) / h) * ((2 * xm + h - 2 * y) / h)
                return 0.0
            return f

        def phi_half(mnode):
            a, b = (mnode - 1) * h, mnode * h

            def f(y):
                return 4 * (y - a) * (b - y) / h ** 2 if a <= y <= b else 0.0
            return f

        def coupling(x, basis):
            total = 0.0
            for c in range(N):
                lo, hi = c * h, (c + 1) * h
                val, _ = integrate.quad(
                    lambda y: basis(y) * abs(x - y) ** (-g), lo, hi,
                    points=[x] if lo < x < hi else None,
                    limit=400, epsabs=1e-13, epsrel=1e-13)
                total += val
            return eta_sc * total

        x1, xh1, xh2 = h, 0.5 * h, 1.5 * h
        assert coupling(x1, phi_int(1)) == pytest.approx(co.m[0], abs=1e-9)
        assert coupling(x1, phi_int(2)) == pytest.approx(co.m[1], abs=1e-9)
        assert coupling(x1, phi_half(1)) == pytest.approx(co.q[0], abs=1e-9)
        assert coupling(x1, phi_half(2)) == pytest.approx(co.q[0], abs=1e-9)
        assert coupling(x1, phi_half(3)) == pytest.approx(co.q[1], abs=1e-9)
        assert coupling(xh1, phi_half(1)) == pytest.approx(co.n[0], abs=1e-9)
        assert coupling(xh1, phi_half(2)) == pytest.approx(co.n[1], abs=1e-9)
        assert coupling(xh1, phi_int(1)) == pytest.approx(co.p[0], abs=1e-9)
        assert coupling(xh2, phi_int(1)) == pytest.approx(co.p[0], abs=1e-9)
        assert coupling(xh1, phi_int(2)) == pytest.approx(co.p[1], abs=1e-9)
        # boundary weights eta_{i/2}: coupling to the phi_0 half-basis
        assert coupling(xh1, phi_int(0)) == pytest.approx(co.eta[0], abs=1e-9)
        assert coupling(x1, phi_int(0)) == pytest.approx(co.eta[1], abs=1e-9)
        assert coupling(xh2, phi_int(0)) == pytest.approx(co.eta[2], abs=1e-9)
        assert coupling(2 * h, phi_int(0)) == pytest.approx(co.eta[3], abs=1e-9)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 1024, 2 ** 15])
    @pytest.mark.parametrize("g", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_families_equal_closed_forms(self, N, g):
        """The power-table slices give bitwise the values of the closed
        forms evaluated at every argument k."""
        s2, s1 = 2.0 - g, 1.0 - g
        mfun, qfun, etafun = closed_forms(g)
        ks = np.arange(1, max(N, 2), dtype=float)
        half = np.arange(1, 2 * N) / 2.0
        p0 = 2.0 ** (g - 2.0) * (9.0 * (3.0 + g) * 3.0 ** (-g) + 7.0 * g - 19.0)
        want = {
            "m": np.concatenate([[2.0 * (1.0 + g)], mfun(ks[:N - 2])]),
            "n": np.concatenate([[s2 * 2.0 ** (g + 1.0)], qfun(ks[:N - 1] - 0.5)]),
            "p": np.concatenate([[p0], mfun(ks[:N - 2] + 0.5)]),
            "q": qfun(np.arange(max(N - 1, 1), dtype=float)),
            "d": (3.0 - g) * s2 * (half ** s1 + (N - half) ** s1),
            "eta": np.concatenate([[s2 * s1 * 2.0 ** (g - 1.0)], etafun(half[1:])]),
        }
        co = gamma_coefficients(g, N)
        for name, values in want.items():
            assert np.array_equal(getattr(co, name), values), name

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            gamma_coefficients(1.0, 8)
        with pytest.raises(ValueError):
            gamma_coefficients(-0.1, 8)

    @pytest.mark.parametrize("count", [8.7, 8.0, float("nan"), "8", None])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            gamma_coefficients(0.5, count)

    def test_numpy_integer_count_accepted(self):
        assert np.array_equal(gamma_coefficients(0.5, np.int64(8)).m,
                              gamma_coefficients(0.5, 8).m)


class TestAssembly:
    @pytest.mark.parametrize("N", [4, 8, 16])
    @pytest.mark.parametrize("g", [0.0, 0.5, 0.9])
    def test_matches_dense_reference(self, N, g):
        cfg = GammaModelConfig(N=N, gamma=g)
        system = assemble_gamma_system(cfg)
        ref, scale = gamma_dense_reference(cfg)
        assert np.abs(system.op.dense() - ref).max() <= 1e-12 * np.abs(ref).max()
        assert system.scale == pytest.approx(scale)

    @pytest.mark.parametrize("N", [4, 8, 16])
    @pytest.mark.parametrize("g", [0.0, 0.5, 0.9])
    def test_constants_identity(self, N, g):
        """A_h . 1 = eta * K(1, 1): the scheme annihilates constants."""
        system = assemble_gamma_system(GammaModelConfig(N=N, gamma=g))
        resid = system.op.matvec(np.ones(2 * N - 1)) \
            - system.scale * system.boundary_vector(1.0, 1.0)
        assert np.abs(resid).max() <= 1e-10 * system.scale

    def test_zero_boundary_gives_zero_k(self):
        system = assemble_gamma_system(GammaModelConfig(N=8, gamma=0.3))
        assert np.abs(system.boundary_vector(0.0, 0.0)).max() == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GammaModelConfig(N=6, gamma=0.5)
        with pytest.raises(ValueError):
            GammaModelConfig(N=8, gamma=1.0)

    @pytest.mark.parametrize("N", [64.0, "64", None, 8.5])
    def test_non_integer_N_rejected_by_name(self, N):
        with pytest.raises(ValueError, match="N must be an integer"):
            GammaModelConfig(N=N, gamma=0.5)

    @pytest.mark.parametrize("gamma", ["abc", "0.5", None, float("nan"), 1j])
    def test_bad_gamma_rejected_by_name(self, gamma):
        """A non-number is rejected by type, NaN by range."""
        message = "gamma must be " + ("in" if isinstance(gamma, float) else "a real number")
        with pytest.raises(ValueError, match=message):
            GammaModelConfig(N=64, gamma=gamma)

    def test_numpy_scalars_accepted(self):
        cfg = GammaModelConfig(N=np.int64(64), gamma=np.float64(0.5))
        assert cfg.h == 1.0 / 64


class TestForcing:
    def test_kernel_annihilates_constants(self):
        # the operator integral of a constant is identically zero
        for g in (0.0, 0.5):
            val, _ = integrate.quad(lambda y: (3.0 - 3.0) * abs(0.4 - y) ** (-g), 0, 1)
            assert val == 0.0

    def test_one_line_quadratic_integral(self):
        # int_0^1 ((1) - (1+y)^2) dy = -4/3 at x = 0, gamma = 0
        val, _ = integrate.quad(lambda y: 1.0 - (1.0 + y) ** 2, 0.0, 1.0)
        assert val == pytest.approx(-4.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.9])
    def test_matches_quadrature_oracle(self, g):
        for x in (0.0, 0.1, 0.43, 0.77, 1.0):
            closed = gamma_exact_forcing(x, 0.3, g)
            ref = gamma_forcing_quadrature(x, 0.3, g)
            assert closed == pytest.approx(ref, abs=1e-10)

    def test_vectorized(self):
        xs = np.linspace(0, 1, 9)
        out = gamma_exact_forcing(xs, 0.0, 0.5)
        assert out.shape == xs.shape
