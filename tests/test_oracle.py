import numpy as np
import pytest

from tpcmg import PdModelConfig, coarsen_tpc
from tpcmg.oracle import (certify_section4, dense_galerkin, dense_solve,
                          sym_eig_extremes)

from conftest import identity_tpc, random_tpc


class TestDenseExpand:
    def test_identity(self):
        assert np.array_equal(identity_tpc(4).dense(), np.eye(9))

    def test_matvec_round_trip(self, rng):
        op = random_tpc(rng, 12, banded_bw=1)
        dense = op.dense()
        x = rng.standard_normal(op.n)
        assert np.abs(op.matvec(x) - dense @ x).max() <= 1e-12 * (1 + np.abs(dense @ x).max())


class TestDenseGalerkin:
    def test_identity_seven(self):
        expected = (np.diag(np.full(3, 6.0)) + np.diag([1, 1], 1) + np.diag([1, 1], -1)) / 8.0
        assert np.allclose(dense_galerkin(np.eye(7)), expected)

    def test_zero(self):
        assert np.abs(dense_galerkin(np.zeros((9, 9)))).max() == 0.0

    def test_cross_checks_fast_coarsening(self, rng):
        """The module's raison d'etre: dense R A P vs the closed forms."""
        op = random_tpc(rng, 7, banded_bw=1)
        fast = coarsen_tpc(op).dense()
        assert np.abs(fast - dense_galerkin(op.dense())).max() <= 1e-12

    def test_double_coarsening_commutes(self, rng):
        op = random_tpc(rng, 15)
        twice_fast = coarsen_tpc(coarsen_tpc(op)).dense()
        twice_dense = dense_galerkin(dense_galerkin(op.dense()))
        assert np.abs(twice_fast - twice_dense).max() <= 1e-11

    def test_parity_error(self):
        with pytest.raises(ValueError):
            dense_galerkin(np.eye(8))


class TestDenseSolve:
    def test_identity(self, rng):
        b = rng.standard_normal(6)
        assert np.allclose(dense_solve(np.eye(6), b), b)

    def test_two_identity(self, rng):
        b = rng.standard_normal(6)
        assert np.allclose(dense_solve(2 * np.eye(6), b), b / 2)

    def test_random_spd_manufactured(self, rng):
        G = rng.standard_normal((50, 50))
        A = G @ G.T + 50 * np.eye(50)
        x_true = rng.standard_normal(50)
        x = dense_solve(A, A @ x_true)
        assert np.abs(x - x_true).max() <= 1e-10 * np.abs(x_true).max()

    def test_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            dense_solve(np.zeros((3, 3)), np.ones(3))


class TestSymEig:
    def test_identity(self):
        assert sym_eig_extremes(np.eye(5)) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_diag(self):
        lo, hi = sym_eig_extremes(np.diag([1.0, 2, 3, 4, 5]))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(5.0))

    def test_tridiagonal_closed_form(self):
        n = 40
        A = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) \
            + np.diag(np.full(n - 1, -1.0), -1)
        lo, hi = sym_eig_extremes(A)
        assert lo == pytest.approx(2 - 2 * np.cos(np.pi / (n + 1)), rel=1e-8)
        assert hi == pytest.approx(2 - 2 * np.cos(n * np.pi / (n + 1)), rel=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eig_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCertifySection4:
    @pytest.mark.parametrize("N,r", [(16, 1), (32, 3)])
    def test_all_checks_pass(self, N, r):
        report = certify_section4(PdModelConfig(N=N, delta=r / N, symmetric=True))
        assert report.passed, "\n".join(report.lines())
        names = [c.name for c in report.checks]
        assert any("mu*" in n for n in names)
        assert any("lambda_max" in n for n in names)

    def test_jacobi_range_recorded(self):
        report = certify_section4(PdModelConfig(N=32, delta=0.125, symmetric=True))
        check = next(c for c in report.checks if "lambda_max" in c.name)
        assert 1.0 - 1e-10 <= check.value <= 2.0 + 1e-10

    def test_nonsym_rejected(self):
        with pytest.raises(ValueError):
            certify_section4(PdModelConfig(N=16, delta=0.25, symmetric=False))
