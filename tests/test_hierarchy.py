import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcmg import (BandedCorrection, GammaModelConfig, PdModelConfig,
                   ToeplitzSpec, TpcOperator, assemble_gamma_system,
                   assemble_pd_system, build_hierarchy, build_step_operator,
                   coarsen_banded, coarsen_tpc, prolong, restrict)
from tpcmg.oracle import dense_galerkin, restriction_matrix, sym_eig_extremes

from conftest import (identity_spec, identity_tpc, random_tpc, scale_shift, transpose_tpc,
                      zero_spec)


# coarse matrix of the all-ones/identity worked example, frozen times 8;
# equals the dense R A P product (cross-checked below)
EXAMPLE_COARSE_X8 = np.array([
    [6, 1, 0, 12, 16, 16, 16],
    [1, 6, 1, 12, 16, 16, 16],
    [0, 1, 6, 13, 16, 16, 16],
    [12, 12, 13, 12, 5, 4, 4],
    [16, 16, 16, 5, 6, 1, 0],
    [16, 16, 16, 4, 1, 6, 1],
    [16, 16, 16, 4, 0, 1, 6],
], dtype=float)


def example_fine_operator():
    """Identity A (7x7) and D (8x8), all-ones B (7x8) and C (8x7)."""
    m = 7
    ones = np.ones(2 * m - 1)
    return TpcOperator(
        identity_spec(m), ToeplitzSpec(m, ones), ToeplitzSpec(m, ones),
        identity_spec(m), np.ones(m), np.ones(m), np.zeros(m),
        np.zeros(m), 1.0)


class TestTransfer:
    def test_restrict_constants(self):
        assert np.allclose(restrict(np.ones(7)), np.ones(3))

    def test_restrict_unit_center(self):
        e = np.zeros(7)
        e[3] = 1.0
        assert np.allclose(restrict(e), [0, 0.5, 0])

    def test_restrict_linear(self):
        x = np.arange(1.0, 16.0)
        assert np.allclose(restrict(x), np.arange(2.0, 15.0, 2.0))

    def test_prolong_constants(self):
        assert np.allclose(prolong(np.ones(3)), [0.5, 1, 1, 1, 1, 1, 0.5])

    def test_prolong_unit(self):
        assert np.allclose(prolong([1.0, 0.0, 0.0]), [0.5, 1, 0.5, 0, 0, 0, 0])

    def test_transpose_identity(self, rng):
        x = rng.standard_normal(7)
        y = rng.standard_normal(15)
        assert np.isclose(prolong(x) @ y, 2.0 * (x @ restrict(y)))

    def test_matrix_forms_match(self, rng):
        n = 11
        R = restriction_matrix(n)
        x = rng.standard_normal(n)
        assert np.allclose(restrict(x), R @ x)
        xc = rng.standard_normal((n - 1) // 2)
        assert np.allclose(prolong(xc), 2.0 * R.T @ xc)

    @pytest.mark.parametrize("n", [3, 5, 127, 1023])
    def test_restrict_equals_stencil_sum(self, rng, n):
        """Bitwise the sum (x_{2i-1} + 2 x_{2i}) + x_{2i+1}, then / 4."""
        x = rng.standard_normal(n)
        assert np.array_equal(restrict(x), (x[:-2:2] + 2.0 * x[1::2] + x[2::2]) * 0.25)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            restrict(np.ones(8))

    @pytest.mark.parametrize("nc", [1, 2, 3, 31])
    def test_match_dense_transfers(self, rng, nc):
        n = 2 * nc + 1
        R = restriction_matrix(n)
        x, xc = rng.standard_normal(n), rng.standard_normal(nc)
        before = x.tobytes(), xc.tobytes()
        assert np.abs(restrict(x) - R @ x).max() <= 1e-15 * np.abs(x).max()
        assert np.abs(prolong(xc) - 2.0 * R.T @ xc).max() <= 1e-15 * np.abs(xc).max()
        assert (x.tobytes(), xc.tobytes()) == before

    @pytest.mark.parametrize("n", [0, 1, 2, 8])
    def test_restrict_needs_odd_length_at_least_3(self, n):
        with pytest.raises(ValueError, match="odd length >= 3"):
            restrict(np.ones(n))

    def test_prolong_rejects_empty(self):
        with pytest.raises(ValueError, match="empty coarse vector"):
            prolong(np.ones(0))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 3), (3, 1), ()])
    def test_restrict_needs_1d(self, shape):
        with pytest.raises(ValueError, match=rf"1-D .*shape {re.escape(str(shape))}"):
            restrict(np.ones(shape))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 3), ()])
    def test_prolong_needs_1d(self, shape):
        with pytest.raises(ValueError, match=rf"1-D .*shape {re.escape(str(shape))}"):
            prolong(np.ones(shape))


class TestCoarsenTpc:
    def test_example_reproduction(self):
        coarse = coarsen_tpc(example_fine_operator())
        assert np.abs(8.0 * coarse.dense() - EXAMPLE_COARSE_X8).max() <= 1e-14

    def test_zero_operator(self):
        m = 7
        z = zero_spec(m)
        fine = TpcOperator(z, z, z, z, np.zeros(m), np.zeros(m), np.zeros(m),
                           np.zeros(m), 0.0)
        coarse = coarsen_tpc(fine)
        assert np.abs(coarse.dense()).max() == 0.0

    @pytest.mark.parametrize("m", [7, 15, 31])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_random_vs_dense_galerkin(self, rng, m, symmetric):
        for _ in range(12):
            fine = random_tpc(rng, m, symmetric=symmetric)
            coarse = coarsen_tpc(fine)
            truth = dense_galerkin(fine.dense())
            assert np.abs(coarse.dense() - truth).max() <= 1e-12
            assert coarse.symmetric == symmetric

    def test_too_small(self, rng):
        with pytest.raises(ValueError):
            coarsen_tpc(random_tpc(rng, 1))

    def test_banded_vs_dense_galerkin(self, rng):
        for bw in range(4):
            for symmetric in (False, True):
                fine = random_tpc(rng, 15, symmetric=symmetric, banded_bw=bw)
                coarse = coarsen_tpc(fine)
                truth = dense_galerkin(fine.dense())
                assert np.abs(coarse.dense() - truth).max() <= 1e-12


def _windowed_tpc(rng, m, symmetric):
    """random_tpc with each generating sequence zeroed outside a random
    band of offsets, so the stored windows are short."""
    def window(spec, sym):
        c = spec.coeffs.copy()
        lo, hi = sorted(rng.integers(-(m - 1), m, size=2))
        if sym:
            lo, hi = -max(-lo, hi), max(-lo, hi)
        c[:lo + m - 1] = 0.0
        c[hi + m:] = 0.0
        return ToeplitzSpec(m, c)

    op = random_tpc(rng, m, symmetric=symmetric)
    A, D, B = window(op.A, symmetric), window(op.Dbar, symmetric), window(op.Bbar, False)
    C = B.transpose() if symmetric else window(op.Cbar, False)
    return TpcOperator(A, B, C, D, op.p, op.q, op.xi, op.zeta, op.o)


class TestCoarsenRandomised:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6), symmetric=st.booleans(), short=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_tpc_vs_dense_galerkin(self, k, symmetric, short, seed):
        rng = np.random.default_rng(seed)
        m = 2 ** k - 1
        fine = (_windowed_tpc if short else random_tpc)(rng, m, symmetric=symmetric)
        coarse = coarsen_tpc(fine)
        truth = dense_galerkin(fine.dense())
        assert np.abs(coarse.dense() - truth).max() <= 1e-12
        assert coarse.symmetric == symmetric

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6), short=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_coarsening_commutes_with_transpose(self, k, short, seed):
        """coarsen(op^T) = coarsen(op)^T: bitwise in the blocks and the
        cross lines, to roundoff in o (taken from the column of each)."""
        rng = np.random.default_rng(seed)
        fine = (_windowed_tpc if short else random_tpc)(rng, 2 ** k - 1, symmetric=False)
        coarse, coarse_t = coarsen_tpc(fine), coarsen_tpc(transpose_tpc(fine))
        for got, block in ((coarse_t.A, coarse.A), (coarse_t.Bbar, coarse.Cbar),
                           (coarse_t.Cbar, coarse.Bbar), (coarse_t.Dbar, coarse.Dbar)):
            assert np.array_equal(got.coeffs, block.transpose().coeffs)
        for got, want in ((coarse_t.p, coarse.q), (coarse_t.q, coarse.p),
                          (coarse_t.xi, coarse.zeta), (coarse_t.zeta, coarse.xi)):
            assert np.array_equal(got, want)
        assert abs(coarse_t.o - coarse.o) <= 1e-15 * np.abs(coarse.dense()).max()

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6), bw=st.integers(0, 3), symmetric=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_banded_vs_dense_galerkin(self, k, bw, symmetric, seed):
        rng = np.random.default_rng(seed)
        bc = random_tpc(rng, 2 ** k - 1, symmetric=symmetric, banded_bw=bw).banded
        truth = dense_galerkin(bc.dense())
        assert np.abs(coarsen_banded(bc).dense() - truth).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6), bw=st.integers(0, 3), symmetric=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_banded_equals_index_gather(self, k, bw, symmetric, seed):
        """The strided slices read bitwise what an index-array gather of
        band[min(row, col)] over every coarse entry reads, with the terms
        of a band below the diagonal summed in (db, da) order."""
        rng = np.random.default_rng(seed)
        bc = random_tpc(rng, 2 ** k - 1, symmetric=symmetric, banded_bw=bw).banded
        nc = (bc.n - 1) // 2
        bwc = min(nc - 1, (bc.bandwidth + 2) // 2) if bc.bands else 0
        weights = ((-1, 1.0), (0, 2.0), (1, 1.0))
        want = {}
        for lc in range(-bwc, bwc + 1):
            count = nc - abs(lc)
            acc = np.zeros(count)
            rows = 2 * (np.arange(count) + max(0, -lc)) + 1
            cols = rows + 2 * lc
            for outer in weights:
                for inner in weights:
                    (da, wa), (db, wb) = (outer, inner) if lc >= 0 else (inner, outer)
                    band = bc.band(2 * lc + db - da)
                    if band is not None:
                        acc += (wa * wb / 8.0) * band[np.minimum(rows + da, cols + db)]
            if np.any(acc):
                want[lc] = acc
        got = coarsen_banded(bc).bands
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[l], want[l]) for l in want)


class TestCoarsenBanded:
    @pytest.mark.parametrize("bw", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_part_stays_symmetric(self, bw, seed):
        """Mirrored bands sum their terms in mirrored order, so a symmetric
        banded part coarsens to bitwise-mirrored bands, twice over."""
        op = random_tpc(np.random.default_rng(seed), 15, symmetric=True, banded_bw=bw)
        for _ in range(2):
            op = coarsen_tpc(op)
            assert op.banded.is_symmetric()
            assert op.symmetric

    def test_identity_becomes_tridiag(self):
        bc = BandedCorrection(7, {0: np.ones(7)})
        coarse = coarsen_banded(bc)
        expected = (np.diag(np.full(3, 6.0)) + np.diag([1.0, 1.0], 1)
                    + np.diag([1.0, 1.0], -1)) / 8.0
        assert np.abs(coarse.dense() - expected).max() < 1e-14

    def test_zero(self):
        coarse = coarsen_banded(BandedCorrection(9, {}))
        assert coarse.bands == {}

    @pytest.mark.parametrize("bw", [0, 1, 2])
    def test_random_vs_dense(self, rng, bw):
        n = 15
        bands = {l: rng.standard_normal(n - abs(l)) for l in range(-bw, bw + 1)}
        bc = BandedCorrection(n, bands)
        truth = dense_galerkin(bc.dense())
        assert np.abs(coarsen_banded(bc).dense() - truth).max() <= 1e-13


class TestBuildHierarchy:
    def test_level_sizes(self, rng):
        finest = random_tpc(rng, 7)          # n = 15, K = 3
        hier = build_hierarchy(finest, coarsest_size_limit=7)
        assert [op.n for op in hier.levels] == [15, 7]

    def test_symmetry_preserved_densely(self, rng):
        finest = random_tpc(rng, 15, symmetric=True)
        hier = build_hierarchy(finest)
        for op in hier.levels:
            dense = op.dense()
            assert np.abs(dense - dense.T).max() <= 1e-12
            assert op.symmetric

    @pytest.mark.parametrize("delta", [0.25, "sqrt-h"])
    def test_pd_sym_step_levels_keep_one_cross_line(self, delta):
        system = assemble_pd_system(PdModelConfig(N=512, delta=delta, symmetric=True))
        hier = build_hierarchy(build_step_operator(system, 1.0 / 512))
        for op in hier.levels:
            assert op.row is op.col
            assert op.symmetric

    def test_galerkin_master_invariant(self, rng):
        # every level with n <= 255 equals R (dense fine) P
        finest = random_tpc(rng, 127, banded_bw=0)
        hier = build_hierarchy(finest)
        for fine, coarse in zip(hier.levels, hier.levels[1:]):
            truth = dense_galerkin(fine.dense())
            assert np.abs(coarse.dense() - truth).max() <= 1e-11

    def test_gamma_banded_bandwidth(self):
        system = assemble_gamma_system(GammaModelConfig(N=16, gamma=0.5))
        hier = build_hierarchy(system.op)
        for op in hier.levels[1:]:
            assert op.banded is not None
            assert op.banded.bandwidth <= 1

    def test_spd_preserved_on_coarse_levels(self):
        system = assemble_pd_system(PdModelConfig(N=32, delta=0.25, symmetric=True))
        hier = build_hierarchy(system.op)
        for op in hier.levels:
            lam_min, _ = sym_eig_extremes(op.dense())
            assert lam_min > 0.0

    def test_storage_bound(self):
        for symmetric in (True, False):
            system = assemble_pd_system(
                PdModelConfig(N=256, delta=0.25, symmetric=symmetric))
            hier = build_hierarchy(system.op)
            assert hier.coefficient_storage() <= 8 * system.op.n

    def test_storage_counts_banded_part(self):
        """Each gamma level's count is its Toeplitz and cross pieces plus
        every stored band."""
        hier = build_hierarchy(assemble_gamma_system(GammaModelConfig(N=16, gamma=0.5)).op)
        expected = 0
        for op in hier.levels:
            bands = sum(band.size for band in op.banded.bands.values())
            assert bands > 0
            plain = TpcOperator(op.A, op.Bbar, op.Cbar, op.Dbar, op.p, op.q,
                                op.xi, op.zeta, op.o)
            expected += plain.stored_count + bands
        assert hier.coefficient_storage() == expected

    def test_singular_coarsest_rejected(self):
        zero = scale_shift(identity_tpc(7), 0.0, 0.0)
        with pytest.raises(ValueError, match=r"n = 7 is singular"):
            build_hierarchy(zero)

    def test_non_finite_coarsest_rejected(self):
        """Every piece is finite, but a_0 plus the band-0 correction
        overflows to inf in the dense coarsest matrix."""
        m, n = 3, 7
        op = TpcOperator(identity_spec(m).scaled(1e308), zero_spec(m),
                         zero_spec(m), identity_spec(m),
                         np.zeros(m), np.zeros(m), np.zeros(m), np.zeros(m), 1.0,
                         banded=BandedCorrection(n, {0: np.full(n, 1e308)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow warning first
            with pytest.raises(ValueError, match=r"n = 7 has non-finite entries"):
                build_hierarchy(op)

    def test_bad_finest_size(self, rng):
        with pytest.raises(ValueError):
            build_hierarchy(random_tpc(rng, 6))

    @pytest.mark.parametrize("limit", [float("nan"), "7", 3.5, 7.0])
    def test_non_integer_coarsest_size_limit(self, rng, limit):
        with pytest.raises(ValueError, match="coarsest_size_limit must be an integer"):
            build_hierarchy(random_tpc(rng, 7), limit)
