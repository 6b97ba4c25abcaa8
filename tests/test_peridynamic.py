import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcmg import (PdModelConfig, assemble_pd_system,
                   fold_boundary_rhs, pd_coefficients, pd_exact_forcing,
                   sample_collar)
from tpcmg import kernels
from tpcmg.oracle import (pd_dense_reference, pd_forcing_quadrature,
                          pd_full_domain_operator, sym_eig_extremes)


class TestCoefficients:
    def test_r1_values(self):
        co = pd_coefficients(1, symmetric=False)
        assert co.a.tolist() == [10.0, -1.0]
        assert co.a_half.tolist() == [-4.0]
        assert co.c.tolist() == [-9.0 / 4.0, 0.25]
        assert co.d.tolist() == [8.0, -2.0]

    def test_r2_values(self):
        co = pd_coefficients(2, symmetric=False)
        assert co.a.tolist() == [22.0, -2.0, -1.0]
        assert co.a_half.tolist() == [-4.0, -4.0]
        assert co.c.tolist() == [-2.0, -9.0 / 4.0, 0.25]
        assert co.d.tolist() == [20.0, -4.0, -2.0]

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 17])
    def test_zero_row_sum_identity(self, r):
        co = pd_coefficients(r, symmetric=False)
        assert co.a[0] + 2 * co.a[1:].sum() + 2 * co.a_half.sum() == pytest.approx(0.0)
        # w-row analogue: d_0 + 2 sum d_m + 2 sum c_m = 0
        assert co.d[0] + 2 * co.d[1:].sum() + 2 * co.c.sum() == pytest.approx(0.0)

    @pytest.mark.parametrize("r", [1, 2, 3, 17])
    def test_symmetric_tables_mirror_v_rows(self, r):
        co = pd_coefficients(r, symmetric=True)
        assert co.c.tolist() == co.a_half.tolist() + [0.0]
        assert co.d.tolist() == co.a.tolist()
        op = kernels._tpc_from_tables(2 * r + 1, co.a, co.a_half, co.c, co.d)
        assert op.symmetric and op.row is op.col

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            pd_coefficients(0, symmetric=True)

    @pytest.mark.parametrize("r", [2.5, 2.0, float("nan"), "2", None])
    def test_non_integer_r_rejected(self, r):
        with pytest.raises(ValueError, match="r must be an integer"):
            pd_coefficients(r, symmetric=True)


class TestConfig:
    def test_ratio_floor(self):
        assert PdModelConfig(N=32, delta=0.25).r == 8
        assert PdModelConfig(N=32, delta=1.0 / 64.0).r == 1   # delta <= h
        assert PdModelConfig(N=32, delta="sqrt-h").r == 5     # floor(sqrt(32))
        assert PdModelConfig(N=64, delta="sqrt-h").r == 8

    def test_eta_scale(self):
        cfg = PdModelConfig(N=32, delta=0.25)
        assert cfg.eta == pytest.approx(2.0 * 0.25 ** 3 * 32.0)

    def test_stencil_overflow(self):
        with pytest.raises(ValueError):
            PdModelConfig(N=4, delta=0.9)

    @pytest.mark.parametrize("delta", [float("inf"), float("1e400"), float("nan"),
                                       0.0, -0.25])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            PdModelConfig(N=64, delta=delta)

    @pytest.mark.parametrize("delta", ["abc", "0.25", None, 1j])
    def test_non_number_delta_rejected_by_name(self, delta):
        with pytest.raises(ValueError, match="delta must be a real number"):
            PdModelConfig(N=64, delta=delta)

    @pytest.mark.parametrize("N", [64.0, "64", None, 8.5])
    def test_non_integer_N_rejected_by_name(self, N):
        with pytest.raises(ValueError, match="N must be an integer"):
            PdModelConfig(N=N, delta=0.25)

    def test_numpy_scalars_accepted(self):
        assert PdModelConfig(N=np.int64(64), delta=np.float64(0.25)).r == 16


class TestAssembly:
    def test_symmetric_row_one(self):
        system = assemble_pd_system(PdModelConfig(N=4, delta=0.25, symmetric=True))
        assert system.cfg.r == 1
        dense = system.op.dense()
        assert dense[0].tolist() == [10.0, -1.0, 0.0, -4.0, -4.0, 0.0, 0.0]

    def test_symmetric_is_exactly_symmetric(self):
        system = assemble_pd_system(PdModelConfig(N=16, delta=0.25, symmetric=True))
        dense = system.op.dense()
        assert np.abs(dense - dense.T).max() == 0.0

    def test_nonsym_cross_entries(self):
        system = assemble_pd_system(PdModelConfig(N=8, delta=1.0 / 8.0, symmetric=False))
        assert system.cfg.r == 1
        assert system.op.o == 8.0          # d_0
        assert system.op.zeta[0] == -2.0   # d_1
        assert system.op.q[0] == -9.0 / 4.0  # c_0

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("N,r", [(8, 1), (8, 2), (16, 3), (16, 6), (8, 6)])
    def test_matches_dense_reference(self, N, r, symmetric):
        cfg = PdModelConfig(N=N, delta=r / N, symmetric=symmetric)
        assert cfg.r == r
        system = assemble_pd_system(cfg)
        ref = pd_dense_reference(cfg)
        assert np.abs(system.op.dense() - ref).max() <= 1e-12

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_matches_full_domain_stencil(self, symmetric):
        cfg = PdModelConfig(N=16, delta=0.25, symmetric=symmetric)
        interior, _, _ = pd_full_domain_operator(cfg)
        system = assemble_pd_system(cfg)
        assert np.abs(system.op.dense() - interior).max() <= 1e-12

    def test_spd(self):
        for (N, r) in ((16, 1), (32, 3), (64, 8)):
            cfg = PdModelConfig(N=N, delta=r / N, symmetric=True)
            lam_min, _ = sym_eig_extremes(assemble_pd_system(cfg).op.dense())
            assert lam_min > 0.0

    def test_weak_dominance_zero_interior_rows(self):
        cfg = PdModelConfig(N=32, delta=4.0 / 32.0, symmetric=True)
        dense = assemble_pd_system(cfg).op.dense()
        rows = dense.sum(axis=1)
        assert rows.min() >= -1e-12
        r, N = cfg.r, cfg.N
        interior = np.concatenate([np.arange(r, N - 1 - r),
                                   N - 1 + np.arange(r, N - r)])
        assert np.abs(rows[interior]).max() <= 1e-12 * dense[0, 0]

    def test_jacobi_spectrum_range(self):
        # lambda_max(D^{-1} A) in [1, 2] for the SPD variant
        for (N, r) in ((16, 1), (32, 2), (64, 5)):
            cfg = PdModelConfig(N=N, delta=r / N, symmetric=True)
            A = assemble_pd_system(cfg).op.dense()
            d = np.diag(A)
            G = A / np.sqrt(np.outer(d, d))
            _, lam_max = sym_eig_extremes(0.5 * (G + G.T))
            assert 1.0 - 1e-10 <= lam_max <= 2.0 + 1e-10


def _fold_by_convolution(system, F, collar):
    """The fold as eight direct convolutions: each exterior sum is an entry
    of the full linear convolution of a collar vector (the right collar
    reversed) with one of the weight vectors, read off the coefficient
    tables of the system's configuration."""
    cfg = system.cfg
    N, r, eta = cfg.N, cfg.r, system.scale
    lv, lw, rv, rw = np.split(np.asarray(collar, dtype=float),
                              [r + 1, 2 * r + 1, 3 * r + 2])
    data = np.array(F, dtype=float)
    Fv, Fw = data[:N - 1], data[N - 1:]
    co = pd_coefficients(r, cfg.symmetric)
    wA, wB = np.append(co.a[1:], 0.0), np.append(co.a_half[1:], 0.0)
    wC, wD = co.c, co.d[1:]

    def sums(cv, cw):
        # v rows j = 1..r and w rows j = 1..r+1, counted from the collar;
        # the w-collar (length r) reaches no w row beyond j = r
        sv = np.convolve(cv, wA)[r:2 * r] + np.convolve(cw, wB)[r - 1:2 * r - 1]
        sw = np.convolve(cv, wC)[r:2 * r + 1]
        sw[:r] += np.convolve(cw, wD)[r - 1:2 * r - 1]
        return sv / eta, sw / eta

    sv, sw = sums(lv, lw)
    Fv[:r] -= sv
    Fw[:r + 1] -= sw
    sv, sw = sums(rv[::-1], rw[::-1])
    Fv[N - 1 - r:] -= sv[::-1]
    Fw[N - 1 - r:] -= sw[::-1]
    return data


class TestFolding:
    def test_zero_collar_leaves_f(self, rng):
        cfg = PdModelConfig(N=8, delta=0.25, symmetric=True)
        system = assemble_pd_system(cfg)
        F = rng.standard_normal(15)
        collar = sample_collar(cfg, lambda x: 0.0)
        assert np.array_equal(fold_boundary_rhs(system, F, collar), F)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_constants_identity(self, symmetric):
        """u = 1 with g = 1, f = 0: op @ 1 = eta * F_folded exactly."""
        cfg = PdModelConfig(N=16, delta=4.0 / 16.0, symmetric=symmetric)
        system = assemble_pd_system(cfg)
        folded = fold_boundary_rhs(system, np.zeros(31), sample_collar(cfg, lambda x: 1.0))
        resid = system.op.matvec(np.ones(31)) - system.scale * folded
        assert np.abs(resid).max() <= 1e-12 * abs(system.op.o)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("N,r", [(8, 1), (8, 2), (16, 5)])
    def test_matches_dense_elimination(self, rng, N, r, symmetric):
        cfg = PdModelConfig(N=N, delta=r / N, symmetric=symmetric)
        system = assemble_pd_system(cfg)
        _, exterior, ext_x = pd_full_domain_operator(cfg)
        gvals = {round(2 * N * x): rng.standard_normal() for x in ext_x}
        g = lambda x: np.array([gvals[k] for k in
                                np.rint(2 * N * np.atleast_1d(x)).astype(int)])
        F = rng.standard_normal(2 * N - 1)
        folded = fold_boundary_rhs(system, F, sample_collar(cfg, g))
        gvec = g(ext_x)
        truth = F - (exterior @ gvec) / system.scale
        assert np.abs(folded - truth).max() <= 1e-12 * (1 + np.abs(truth).max())

    @settings(max_examples=60, deadline=None)
    @given(N=st.sampled_from([4, 8, 16, 32, 64]), data=st.data(),
           symmetric=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_r_matches_dense_elimination(self, N, data, symmetric, seed):
        r = data.draw(st.integers(1, N - 2), label="r")
        cfg = PdModelConfig(N=N, delta=r / N, symmetric=symmetric)
        assert cfg.r == r
        system = assemble_pd_system(cfg)
        _, exterior, ext_x = pd_full_domain_operator(cfg)
        rng = np.random.default_rng(seed)
        gvec = rng.standard_normal(ext_x.size)
        F = rng.standard_normal(2 * N - 1)
        folded = fold_boundary_rhs(system, F, sample_collar(cfg, lambda x: gvec))
        truth = F - (exterior @ gvec) / system.scale
        assert np.abs(folded - truth).max() <= 1e-12 * (1 + np.abs(truth).max())

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("delta", [0.25, "sqrt-h"])
    @pytest.mark.parametrize("N", [512, 1024, 2048, 4096])
    def test_large_r_matches_convolution(self, rng, N, delta, symmetric):
        """From the benchmark's N = 512, delta = 1/4 (r = 128) up to r = 1024,
        where the transform fold is longest."""
        cfg = PdModelConfig(N=N, delta=delta, symmetric=symmetric)
        system = assemble_pd_system(cfg)
        F = rng.standard_normal(2 * N - 1)
        collar = rng.standard_normal(4 * cfg.r + 2)
        F_before = F.copy()
        folded = fold_boundary_rhs(system, F, collar)
        assert np.array_equal(F, F_before)          # F is not written
        ref = _fold_by_convolution(system, F, collar)
        assert np.abs(folded - ref).max() <= 1e-13 * np.abs(ref - F).max()

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("delta", [0.25, "sqrt-h"])
    @pytest.mark.parametrize("N", [8, 256, 1024])
    def test_row_path_matches_convolution(self, rng, monkeypatch, N, delta, symmetric):
        """The fold's block product taken row by row (as above
        _BATCH_MAX_LENGTH) matches the convolutions, and the batched fold
        bitwise."""
        cfg = PdModelConfig(N=N, delta=delta, symmetric=symmetric)
        system = assemble_pd_system(cfg)
        F = rng.standard_normal(2 * N - 1)
        collar = rng.standard_normal(4 * cfg.r + 2)
        batched = fold_boundary_rhs(system, F, collar)
        monkeypatch.setattr(kernels, "_BATCH_MAX_LENGTH", 0)
        folded = fold_boundary_rhs(system, F, collar)
        assert np.array_equal(folded, batched)
        ref = _fold_by_convolution(system, F, collar)
        assert np.abs(folded - ref).max() <= 1e-13 * np.abs(ref - F).max()

    def test_collar_length_validation(self):
        cfg = PdModelConfig(N=8, delta=0.25, symmetric=True)
        system = assemble_pd_system(cfg)
        collar = sample_collar(cfg, lambda x: 1.0)
        for bad in (collar[:-1], np.append(collar, 1.0), collar[None, :]):
            with pytest.raises(ValueError, match=r"collar must have length 4r\+2"):
                fold_boundary_rhs(system, np.zeros(15), bad)

    def test_forcing_length_validation(self):
        cfg = PdModelConfig(N=8, delta=0.25, symmetric=True)
        system = assemble_pd_system(cfg)
        collar = sample_collar(cfg, lambda x: 1.0)
        for bad in (np.zeros(14), np.zeros(16), np.zeros((1, 15))):
            with pytest.raises(ValueError, match="F must have length 15"):
                fold_boundary_rhs(system, bad, collar)
        folded = fold_boundary_rhs(system, [0.0] * 15, collar)     # a list works
        assert np.array_equal(folded, fold_boundary_rhs(system, np.zeros(15), collar))


class TestCollar:
    def test_g_called_once_on_collar_coordinates(self):
        cfg = PdModelConfig(N=16, delta=0.25, symmetric=True)
        calls = []
        collar = sample_collar(cfg, lambda x: calls.append(x) or 2.0 * x)
        assert len(calls) == 1
        _, _, ext_x = pd_full_domain_operator(cfg)
        np.testing.assert_allclose(calls[0], ext_x, rtol=0, atol=1e-15)
        # flat, in the order of the full-domain operator's exterior columns
        assert collar.shape == (4 * cfg.r + 2,)
        assert np.array_equal(collar, 2.0 * calls[0])

    def test_scalar_result_broadcasts(self):
        cfg = PdModelConfig(N=8, delta=0.25, symmetric=True)
        collar = sample_collar(cfg, lambda x: 1.5)
        assert np.array_equal(collar, np.full(4 * cfg.r + 2, 1.5))

    def test_wrong_shape_rejected(self):
        cfg = PdModelConfig(N=8, delta=0.25, symmetric=True)
        with pytest.raises(ValueError, match="g must return shape"):
            sample_collar(cfg, lambda x: np.ones(3))


class TestForcing:
    def test_matches_quadrature(self):
        for delta in (0.25, 0.125):
            for x in (0.1, 0.5, 0.93):
                closed = pd_exact_forcing(x, 0.4, delta)
                ref = pd_forcing_quadrature(x, 0.4, delta)
                assert closed == pytest.approx(ref, abs=1e-10)
