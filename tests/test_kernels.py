import copy
import functools
import sys
import time

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcmg import (BandedCorrection, GammaModelConfig, PdModelConfig,
                   ToeplitzSpec, TpcOperator, assemble_gamma_system,
                   assemble_pd_system, build_hierarchy, build_step_operator,
                   coarsen_banded, coarsen_tpc, solve, toeplitz_matvec, vcycle)
from tpcmg import kernels, solver

from conftest import (assert_same_bytes, break_mirror, dense_toeplitz, identity_spec,
                      identity_tpc, random_tpc, scale_shift, tpc_pieces, zero_spec)


class TestToeplitz:
    def test_tridiagonal_laplacian_on_constants(self):
        # offsets -2..2: (t_{-1}, t_0, t_1) = (-1, 2, -1)
        spec = ToeplitzSpec(3, [0, -1, 2, -1, 0])
        assert np.allclose(toeplitz_matvec(spec, [1, 1, 1]), [1, 0, 1])

    def test_identity(self, rng):
        spec = identity_spec(9)
        x = rng.standard_normal(9)
        assert np.allclose(toeplitz_matvec(spec, x), x)

    def test_random_vs_dense_m257(self, rng):
        m = 257
        spec = ToeplitzSpec(m, rng.standard_normal(2 * m - 1))
        x = rng.standard_normal(m)
        ref = dense_toeplitz(spec) @ x
        assert np.abs(toeplitz_matvec(spec, x) - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 64, 129, 1000])
    def test_sizes_vs_dense(self, rng, m):
        spec = ToeplitzSpec(m, rng.standard_normal(2 * m - 1))
        x = rng.standard_normal(m)
        ref = dense_toeplitz(spec) @ x
        scale = 1.0 + np.abs(x).max() * np.abs(spec.coeffs).sum()
        assert np.abs(toeplitz_matvec(spec, x) - ref).max() <= 1e-11 * scale

    @pytest.mark.slow
    def test_scaled_accuracy_invariant(self, rng):
        # 100 random trials, sizes up to m = 4097, scaled tolerance
        sizes = np.unique(np.geomspace(2, 4097, 99).astype(int)).tolist() + [4097]
        while len(sizes) < 100:
            sizes.append(int(rng.integers(2, 4098)))
        for m in sizes:
            spec = ToeplitzSpec(m, rng.standard_normal(2 * m - 1))
            x = rng.standard_normal(m)
            ref = dense_toeplitz(spec) @ x
            scale = 1.0 + np.abs(x).max() * np.abs(spec.coeffs).sum()
            assert np.abs(toeplitz_matvec(spec, x) - ref).max() <= 1e-11 * scale

    def test_window_storage(self):
        spec = ToeplitzSpec(100, np.zeros(199))
        assert spec.stored_count == 1
        c = np.zeros(199)
        c[99 + 3] = 5.0
        spec = ToeplitzSpec(100, c)
        assert spec.stored_count == 1
        assert spec.coeff(3) == 5.0
        assert spec.coeff(4) == 0.0
        assert np.array_equal(spec.coeffs, c)

    def test_scaled_to_zero_trims_window(self, rng):
        spec = ToeplitzSpec(9, rng.standard_normal(17)).scaled(0.0)
        assert (spec.lo, spec.stored_count, spec.reach) == (0, 1, 0)
        assert not spec.coeffs.any()

    @pytest.mark.parametrize("scale", [0.0, 1.0, -2.5, 1e-300])
    def test_scaled_and_transpose_match_constructor(self, rng, scale):
        """Both work on the stored window and give bitwise the window that
        the constructor trims from the scaled or reversed full sequence;
        1e-300 underflows the 1e-30-sized window ends to zero."""
        def same_window(spec, ref):
            return ((spec.m, spec.lo, spec.data.tobytes())
                    == (ref.m, ref.lo, ref.data.tobytes())
                    and not spec.data.flags.writeable)

        for _ in range(60):
            m = int(rng.integers(1, 40))
            c = rng.standard_normal(2 * m - 1)
            c[rng.random(c.size) < 0.3] = 0.0              # interior zeros
            lo, hi = np.sort(rng.integers(0, c.size, size=2))
            c[:lo] = 0.0
            c[hi + 1:] = 0.0
            c[[lo, hi]] = 1e-30 * rng.choice([-1.0, 1.0], size=2)
            spec = ToeplitzSpec(m, c)
            assert same_window(spec.scaled(scale), ToeplitzSpec(m, c * scale))
            assert same_window(spec.transpose(), ToeplitzSpec(m, c[::-1]))
            assert same_window(spec.scaled(scale).transpose(),
                               ToeplitzSpec(m, (c * scale)[::-1]))
            if scale == 1e-300 and hi > lo:
                assert spec.scaled(scale).stored_count < spec.stored_count

    def test_length_mismatch(self):
        spec = identity_spec(4)
        with pytest.raises(ValueError):
            toeplitz_matvec(spec, np.ones(5))

    @pytest.mark.parametrize("m,match", [(2.5, "m must be an integer"),
                                         (2.0, "m must be an integer"),
                                         (0, "m must be positive")])
    def test_bad_half_size_rejected(self, m, match):
        with pytest.raises(ValueError, match=match):
            ToeplitzSpec(m, np.ones(4))

    def test_numpy_integer_half_size_accepted(self):
        spec = ToeplitzSpec(np.int64(2), np.ones(3))
        assert spec.m == 2 and spec.lo == -1


class TestBanded:
    def test_matvec_vs_dense(self, rng):
        n = 13
        bands = {0: rng.standard_normal(n), 1: rng.standard_normal(n - 1),
                 -2: rng.standard_normal(n - 2)}
        bc = BandedCorrection(n, bands)
        x = rng.standard_normal(n)
        assert np.abs(bc.matvec(x) - bc.dense() @ x).max() < 1e-13

    def test_band_length_validation(self):
        with pytest.raises(ValueError):
            BandedCorrection(5, {1: np.ones(5)})

    def test_mirrored_bands_share_one_array(self, rng):
        """A band bitwise equal to its mirror is stored once, read-only,
        through the constructor, scaled and coarsen_banded; the products do
        not change bitwise, and stored_count counts both bands."""
        n = 15
        near, far = rng.standard_normal(n - 1), rng.standard_normal(n - 2)
        bc = BandedCorrection(n, {-2: far, -1: near, 0: rng.standard_normal(n),
                                  1: near.copy(), 2: far.copy()})
        assert bc.stored_count == 5 * n - 6
        for part in (bc, bc.scaled(-0.3), coarsen_banded(bc)):
            for l in (1, 2):
                if l in part.bands:
                    assert part.bands[-l] is part.bands[l]
            assert not any(b.flags.writeable for b in part.bands.values())
            unshared = copy.copy(part)
            unshared.bands = {l: b.copy() for l, b in part.bands.items()}
            x = rng.standard_normal(part.n)
            assert part.matvec(x).tobytes() == unshared.matvec(x).tobytes()
            assert part.dense().tobytes() == unshared.dense().tobytes()

    @pytest.mark.parametrize("mirror", [
        pytest.param(lambda b: b + 1.0, id="values"),
        pytest.param(lambda b: np.where(b == 0.0, -0.0, b), id="signed-zero"),
    ])
    def test_asymmetric_pair_stays_two_arrays(self, rng, mirror):
        band = rng.standard_normal(12)
        band[3] = 0.0
        bc = BandedCorrection(13, {1: band, -1: mirror(band)})
        assert bc.bands[1] is not bc.bands[-1]
        assert bc.bands[-1].tobytes() == mirror(band).tobytes()

    def test_gamma_coarse_levels_share_their_off_diagonals(self):
        cfg = GammaModelConfig(N=64, gamma=0.5)
        op = build_step_operator(assemble_gamma_system(cfg), cfg.h)
        for level in build_hierarchy(op).levels[1:]:
            assert level.banded.bands[-1] is level.banded.bands[1]


class TestTpcOperator:
    def test_identity(self, rng):
        op = identity_tpc(6)
        x = rng.standard_normal(13)
        assert np.allclose(op.matvec(x), x)

    def test_example_fine_cross_column(self):
        # identity diagonals, all-ones off blocks; column through the center
        m = 7
        op = TpcOperator(
            identity_spec(m), ToeplitzSpec(m, np.ones(2 * m - 1)),
            ToeplitzSpec(m, np.ones(2 * m - 1)), identity_spec(m),
            np.ones(m), np.ones(m), np.zeros(m), np.zeros(m), 1.0)
        e = np.zeros(op.n)
        e[m] = 1.0
        assert np.allclose(op.matvec(e), op.dense()[:, m])

    def test_random_vs_dense_with_banded(self, rng):
        m = 63
        op = random_tpc(rng, m, symmetric=True, banded_bw=1)
        x = rng.standard_normal(op.n)
        ref = op.dense() @ x
        assert np.abs(op.matvec(x) - ref).max() <= 1e-11 * (1 + np.abs(ref).max())

    def test_linearity(self, rng):
        op = random_tpc(rng, 15, banded_bw=1)
        x, y = rng.standard_normal(op.n), rng.standard_normal(op.n)
        a, b = 0.7, -1.3
        lhs = op.matvec(a * x + b * y)
        rhs = a * op.matvec(x) + b * op.matvec(y)
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(rhs).max())

    def test_symmetry_read_from_data(self, rng):
        op = TpcOperator(**tpc_pieces(random_tpc(rng, 15, symmetric=True)))
        assert op.symmetric
        coarse = coarsen_tpc(op).dense()
        assert np.array_equal(coarse, coarse.T)

    @pytest.mark.parametrize("piece", ["A", "Cbar", "Dbar", "q", "zeta", "banded"])
    def test_one_broken_mirror_reads_nonsymmetric(self, rng, piece):
        op = random_tpc(rng, 15, symmetric=True, banded_bw=1)
        assert op.symmetric
        assert not break_mirror(op, piece).symmetric

    def test_banded_part_read_for_symmetry(self, rng):
        parts = tpc_pieces(random_tpc(rng, 7, symmetric=True))
        lower = BandedCorrection(2 * 7 + 1, {-1: np.ones(2 * 7)})
        assert not TpcOperator(**dict(parts, banded=lower)).symmetric
        assert TpcOperator(**parts).symmetric

    def test_empty_banded_part_reads_as_none(self, rng):
        parts = tpc_pieces(random_tpc(rng, 7, symmetric=True))
        op = TpcOperator(**dict(parts, banded=BandedCorrection(2 * 7 + 1, {})))
        assert op.banded is None
        assert op.symmetric
        assert op.stored_count == TpcOperator(**parts).stored_count

    @pytest.mark.parametrize("piece", ["p", "q", "xi", "zeta"])
    def test_caller_cross_arrays_not_shared(self, rng, piece):
        parts = tpc_pieces(random_tpc(rng, 15, symmetric=True))
        for name in ("p", "q", "xi", "zeta"):
            parts[name] = parts[name].copy()
        op = TpcOperator(**parts)
        x = rng.standard_normal(op.n)
        before = op.matvec(x)
        parts[piece][0] += 1.0
        assert np.array_equal(op.matvec(x), before)
        dense = op.dense()
        assert op.symmetric and np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("piece", ["p", "q", "xi", "zeta", "col", "row"])
    def test_stored_pieces_read_only(self, rng, piece):
        op = random_tpc(rng, 7, banded_bw=1)
        for arr in (getattr(op, piece), op.A.data, op.banded.bands[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_scale_shift(self, rng):
        op = random_tpc(rng, 9, symmetric=True, banded_bw=0)
        shifted = scale_shift(op, 0.25, 2.0)
        dense = op.dense()
        ref = 2.0 * np.eye(op.n) + 0.25 * dense
        assert np.abs(shifted.dense() - ref).max() < 1e-13
        assert shifted.symmetric

    def test_size_mismatch(self, rng):
        op = random_tpc(rng, 5)
        with pytest.raises(ValueError):
            op.matvec(np.ones(op.n + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("piece", ["A", "Bbar", "Cbar", "Dbar",
                                       "p", "q", "xi", "zeta", "o", "band"])
    def test_non_finite_piece_rejected(self, rng, piece, bad):
        op = random_tpc(rng, 5, banded_bw=1)
        parts = dict(A=op.A.coeffs, Bbar=op.Bbar.coeffs, Cbar=op.Cbar.coeffs,
                     Dbar=op.Dbar.coeffs, p=op.p.copy(), q=op.q.copy(),
                     xi=op.xi.copy(), zeta=op.zeta.copy(), o=op.o)
        bands = {l: b.copy() for l, b in op.banded.bands.items()}
        if piece == "o":
            parts["o"] = bad
        else:
            (bands[-1] if piece == "band" else parts[piece])[2] = bad
        specs = [ToeplitzSpec(5, parts[k]) for k in ("A", "Bbar", "Cbar", "Dbar")]
        named = {"band": "banded band -1", "o": "center o"}.get(piece, piece)
        with pytest.raises(ValueError, match=f"n = 11 has non-finite entries in .*{named}$"):
            TpcOperator(*specs, parts["p"], parts["q"], parts["xi"], parts["zeta"],
                        parts["o"], banded=BandedCorrection(op.n, bands))

    @pytest.mark.parametrize("m", [1, 2, 7, 63, 200])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_row_by_row_transforms_match_dense(self, rng, monkeypatch, m, symmetric):
        monkeypatch.setattr(kernels, "_BATCH_MAX_LENGTH", 0)
        op = random_tpc(rng, m, symmetric=symmetric, banded_bw=1)
        x = rng.standard_normal(op.n)
        dense = op.dense()
        ref = dense @ x
        scale = 1.0 + np.abs(x).max() * np.abs(dense).sum(axis=1).max()
        assert np.abs(op.matvec(x) - ref).max() <= 1e-11 * scale

    def test_row_by_row_equals_batched_above_cutover(self, rng, monkeypatch):
        m = 16385                     # embedding length 65536 > 32768
        op = random_tpc(rng, m, banded_bw=1)
        x = rng.standard_normal(op.n)
        by_row = op.matvec(x)
        monkeypatch.setattr(kernels, "_BATCH_MAX_LENGTH", 2 ** 20)
        batched = op.matvec(x)
        assert np.abs(by_row - batched).max() <= 1e-13 * np.abs(batched).max()

    def test_non_finite_banded_rejected(self, rng):
        parts = tpc_pieces(random_tpc(rng, 5))
        band = np.ones(2 * 5 + 1)
        band[0] = np.nan
        with pytest.raises(ValueError, match="banded band 0"):
            TpcOperator(**dict(parts, banded=BandedCorrection(band.size, {0: band})))


class TestTablesBuilder:
    @pytest.mark.parametrize("banded", [False, True])
    @pytest.mark.parametrize("m", [3, 7, 31, 255])
    def test_dense_equals_toeplitz_blocks(self, rng, m, banded):
        """Each table runs through every length 1 .. m+2, so it is shorter
        than, as long as and longer than its block; the four lengths are
        staggered so that they differ within a draw."""
        def pad(table, size):
            return np.concatenate([table, np.zeros(size)])[:size]

        span = m + 2
        for k in range(span):
            tM, tQ, tP, tN = (rng.standard_normal((k + shift) % span + 1)
                              for shift in (0, 1, span // 2, span - 1))
            M = scipy.linalg.toeplitz(pad(tM, m))
            N = scipy.linalg.toeplitz(pad(tN, m + 1))
            Q = scipy.linalg.toeplitz(pad(tQ, m), pad(np.r_[tQ[0], tQ], m + 1))
            P = scipy.linalg.toeplitz(pad(np.r_[tP[0], tP], m + 1), pad(tP, m))
            expected = np.block([[M, Q], [P, N]])
            diag = None
            if banded:
                diag = rng.standard_normal(2 * m + 1)
                diag = BandedCorrection(diag.size, {0: diag})
                expected += np.diag(diag.bands[0])
            op = kernels._tpc_from_tables(m, tM, tQ, tP, tN, diag)
            assert np.array_equal(op.dense(), expected)
            # scaled and shifted: bitwise conftest's scale_shift of the operator
            scale, shift = np.random.default_rng(k).uniform(0.0, 2.0, size=2)
            assert_same_bytes(
                kernels._tpc_from_tables(m, tM, tQ, tP, tN, diag, scale, shift),
                scale_shift(op, scale, shift))


def _windowed_spec(rng, m, short, sym=False):
    """Random ToeplitzSpec whose nonzero window may be a short subrange."""
    c = rng.standard_normal(2 * m - 1)
    if short:
        lo, hi = np.sort(rng.integers(-(m - 1), m, size=2))
        if sym:
            hi = max(-lo, hi)
            lo = -hi
        l = np.arange(-(m - 1), m)
        c[(l < lo) | (l > hi)] = 0.0
    if sym:
        c = 0.5 * (c + c[::-1])
    return ToeplitzSpec(m, c)


def _assert_matches_dense(op, x, dense=None):
    dense = op.dense() if dense is None else dense
    ref = dense @ x
    scale = 1.0 + np.abs(x).max() * np.abs(dense).sum(axis=1).max()
    assert np.abs(op.matvec(x) - ref).max() <= 1e-11 * scale


half_sizes = st.one_of(st.sampled_from([1, 2, 3]),
                       st.integers(1, 9).map(lambda k: 2 ** k - 1),
                       st.integers(1, 600))


class TestFusedKernelRandomised:
    @settings(max_examples=60, deadline=None)
    @given(m=half_sizes, symmetric=st.booleans(), short=st.booleans(),
           bw=st.one_of(st.none(), st.integers(0, 2)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matvec_vs_dense(self, m, symmetric, short, bw, seed):
        rng = np.random.default_rng(seed)
        A = _windowed_spec(rng, m, short, sym=symmetric)
        D = _windowed_spec(rng, m, short, sym=symmetric)
        B = _windowed_spec(rng, m, short)
        C = B.transpose() if symmetric else _windowed_spec(rng, m, short)
        p, xi = rng.standard_normal(m), rng.standard_normal(m)
        q, zeta = (p, xi) if symmetric else (rng.standard_normal(m), rng.standard_normal(m))
        banded = None if bw is None else random_tpc(rng, m, symmetric, banded_bw=bw).banded
        op = TpcOperator(A, B, C, D, p, q, xi, zeta, float(rng.standard_normal()),
                         banded=banded)
        assert op.symmetric == symmetric
        x = rng.standard_normal(op.n)
        _assert_matches_dense(op, x)
        # derived operators start from their own caches, not the parent's
        _assert_matches_dense(scale_shift(op, 0.3, 1.7), x)
        other = random_tpc(rng, m, symmetric, banded_bw=1).banded
        for banded in (other, None):
            _assert_matches_dense(TpcOperator(**dict(tpc_pieces(op), banded=banded)), x)
        _assert_matches_dense(op, x)


def _level_reach(op):
    return max(spec.reach for spec in (op.A, op.Dbar, op.Bbar, op.Cbar))


def _step_levels(system, N):
    return build_hierarchy(build_step_operator(system, 1.0 / N)).levels


# The benchmark hierarchies: pd-sym N = 512 (n = 1023 down to 7, banded
# windows but for the n = 7 coarsest) and gamma N = 2^15 (n = 65535 down to
# 7, dense windows, with L = 65536 on the row-by-row path), and the
# embedding lengths of their levels.
PDSYM_LEVELS = _step_levels(
    assemble_pd_system(PdModelConfig(N=512, delta=0.25, symmetric=True)), 512)
GAMMA_LEVELS = _step_levels(
    assemble_gamma_system(GammaModelConfig(N=2 ** 15, gamma=0.5)), 2 ** 15)
PDNONSYM_LEVELS = _step_levels(
    assemble_pd_system(PdModelConfig(N=512, delta="sqrt-h", symmetric=False)), 512)
PDSYM_LENGTHS = tuple(kernels._embedding_length(op.m, _level_reach(op))
                      for op in PDSYM_LEVELS)
GAMMA_LENGTHS = tuple(kernels._embedding_length(op.m, _level_reach(op))
                      for op in GAMMA_LEVELS)


def _window(rng, m, lo, hi):
    """ToeplitzSpec with random coefficients on offsets lo..hi only."""
    c = np.zeros(2 * m - 1)
    c[lo + m - 1:hi + m] = rng.standard_normal(hi - lo + 1)
    return ToeplitzSpec(m, c)


def _windows_operator(rng, specs):
    """TpcOperator with blocks (A, Bbar, Cbar, Dbar) = specs, checked, like
    each spec alone, against its dense form at 1e-11."""
    m = specs[0].m
    op = TpcOperator(*specs, *rng.standard_normal((4, m)), 0.5)
    _assert_matches_dense(op, rng.standard_normal(op.n), op.dense())
    for spec in specs:
        x = rng.standard_normal(m)
        ref = dense_toeplitz(spec) @ x
        assert np.abs(toeplitz_matvec(spec, x) - ref).max() <= 1e-11 * (
            1.0 + np.abs(x).max() * np.abs(spec.data).sum())
    return op


class TestEmbeddingLength:
    def test_pdsym_levels_shorter_than_dense_embedding(self):
        for op in PDSYM_LEVELS[:-1]:        # the n = 7 coarsest is dense
            length = op._block_symbols()[0]
            assert length == scipy.fft.next_fast_len(op.m + _level_reach(op), real=True)
            assert length < scipy.fft.next_fast_len(2 * op.m - 1, real=True)

    def test_gamma_levels_keep_dense_embedding(self):
        for op in GAMMA_LEVELS:
            assert _level_reach(op) == op.m - 1
            assert op._block_symbols()[0] == scipy.fft.next_fast_len(2 * op.m - 1, real=True)

    @pytest.mark.parametrize("m", [1, 2, 9, 64])
    def test_reach_zero(self, rng, m):
        scale = rng.standard_normal(2)
        op = _windows_operator(rng, (
            identity_spec(m).scaled(scale[0]), zero_spec(m),
            zero_spec(m), identity_spec(m).scaled(scale[1])))
        assert _level_reach(op) == 0
        assert op._block_symbols()[0] == scipy.fft.next_fast_len(m, real=True)

    @pytest.mark.parametrize("m", [2, 3, 8, 63, 200])
    def test_one_sided_windows_at_full_reach(self, rng, m):
        specs = (_window(rng, m, 1, m - 1), _window(rng, m, -(m - 1), -1),
                 _window(rng, m, m // 2, m - 1), _window(rng, m, -(m - 1), -(m // 2) - 1))
        assert specs[0].lo > 0 and specs[1].lo + specs[1].stored_count - 1 < 0
        op = _windows_operator(rng, specs)
        assert _level_reach(op) == m - 1

    @pytest.mark.parametrize("m,reach", [(11, 5), (20, 5), (60, 20), (100, 28)])
    def test_fast_length_without_padding(self, rng, m, reach):
        """m + reach is already a fast length, so the embedding has no slack:
        offset +reach lands right after the last of the m rows."""
        specs = (_window(rng, m, -reach, reach), _window(rng, m, 0, reach),
                 _window(rng, m, -reach, 0), _window(rng, m, -reach, reach // 2))
        op = _windows_operator(rng, specs)
        assert op._block_symbols()[0] == m + reach
        for spec in specs:
            assert spec.reach == reach and spec._embedded_symbol()[0] == m + reach


class TestLevelProducts:
    @pytest.mark.parametrize("levels", [PDSYM_LEVELS, PDNONSYM_LEVELS, GAMMA_LEVELS],
                             ids=["pdsym-quarter-512", "pdnonsym-sqrth-512", "gamma-half-32k"])
    def test_residuals_bitwise_matvec(self, rng, levels):
        """Through the shared workspace, b - op x is bitwise b - op.matvec(x)
        on every level above the coarsest, in any order of the levels (a
        longer level's data left in the workspace must not leak), and the
        workspace serves exactly the levels up to _WORKSPACE_MAX_LENGTH."""
        ops = levels[:-1]
        products = kernels._level_products(ops)
        served = [isinstance(product, functools.partial) for product in products]
        assert served == [op._block_symbols()[0] <= kernels._WORKSPACE_MAX_LENGTH
                          for op in ops]
        assert any(served)
        order = list(range(len(ops)))
        for k in order + order[::-1] + order:
            op = ops[k]
            x, b = rng.standard_normal((2, op.n))
            assert solver._residual(products[k], x, b).tobytes() == \
                (b - op.matvec(x)).tobytes(), op.n


def _wrapped(pair):
    """The scipy.fft functions under a fallback pair's ``out`` wrappers."""
    return tuple(transform.__wrapped__ for transform in pair)


class TestTransformPair:
    def test_direct_pair_bound(self):
        assert kernels._rfft is not scipy.fft.rfft
        assert kernels._irfft is not scipy.fft.irfft

    def test_lengths_cover_both_paths(self):
        lengths = set(PDSYM_LENGTHS) | set(GAMMA_LENGTHS)
        assert min(lengths) <= kernels._BATCH_MAX_LENGTH
        assert max(lengths) == 65536 > kernels._BATCH_MAX_LENGTH

    @pytest.mark.parametrize("length", sorted(set(PDSYM_LENGTHS) | set(GAMMA_LENGTHS)))
    def test_bitwise_equal_to_scipy_fft(self, rng, length):
        X = rng.standard_normal((2, length))
        spectrum = scipy.fft.rfft(X)
        assert np.array_equal(kernels._rfft(X), spectrum)
        assert np.array_equal(kernels._irfft(spectrum, length),
                              scipy.fft.irfft(spectrum, length))
        # one row at a time, as above the batching cutover
        assert np.array_equal(kernels._rfft(X[0]), scipy.fft.rfft(X[0]))
        assert np.array_equal(kernels._irfft(spectrum[1], length),
                              scipy.fft.irfft(spectrum[1], length))

    def test_probe_rejects_one_ulp(self):
        def off_by_one_ulp(x):
            spectrum = scipy.fft.rfft(x)
            spectrum[0, 0] = np.nextafter(spectrum[0, 0].real, np.inf)
            return spectrum

        assert kernels._agrees_with_scipy(kernels._rfft, kernels._irfft)
        assert not kernels._agrees_with_scipy(off_by_one_ulp, kernels._irfft)

    def test_falls_back_when_probe_fails(self, rng, monkeypatch):
        monkeypatch.setattr(kernels, "_agrees_with_scipy", lambda rfft, irfft: False)
        pair = kernels._transform_pair()
        assert _wrapped(pair) == (scipy.fft.rfft, scipy.fft.irfft)
        monkeypatch.setattr(kernels, "_rfft", pair[0])
        monkeypatch.setattr(kernels, "_irfft", pair[1])
        for m in (1, 7, 63, 200):
            op = random_tpc(rng, m, banded_bw=1)
            x = rng.standard_normal(op.n)
            _assert_matches_dense(op, x)
            _assert_matches_dense(TpcOperator(**dict(tpc_pieces(op), banded=None)), x)
        monkeypatch.setattr(kernels, "_BATCH_MAX_LENGTH", 0)    # row by row
        _assert_matches_dense(op, x)

    @pytest.mark.parametrize("model", ["pd-sym", "gamma"])
    def test_fallback_solve_bitwise(self, rng, monkeypatch, model):
        """scipy.fft's rfft/irfft take no ``out``: through the fallback
        pair's wrappers the workspace products, and so solve and vcycle,
        give bitwise the direct pair's results."""
        if model == "pd-sym":
            system = assemble_pd_system(PdModelConfig(N=64, delta=0.25, symmetric=True))
        else:
            system = assemble_gamma_system(GammaModelConfig(N=64, gamma=0.5))
        b = rng.standard_normal(2 * 64 - 1)

        def run():
            hier = build_hierarchy(build_step_operator(system, 1.0 / 64))
            x, report = solve(hier, b)
            return x.tobytes(), report.iterations, vcycle(hier, b).tobytes()

        direct = run()
        monkeypatch.setattr(kernels, "_agrees_with_scipy", lambda rfft, irfft: False)
        pair = kernels._transform_pair()
        monkeypatch.setattr(kernels, "_rfft", pair[0])
        monkeypatch.setattr(kernels, "_irfft", pair[1])
        assert run() == direct

    def test_falls_back_when_import_fails(self, monkeypatch):
        import scipy.fft._pocketfft as package
        monkeypatch.delattr(package, "pypocketfft")
        monkeypatch.setitem(sys.modules, "scipy.fft._pocketfft.pypocketfft", None)
        assert _wrapped(kernels._transform_pair()) == (scipy.fft.rfft, scipy.fft.irfft)


@pytest.mark.slow
def test_toeplitz_matvec_runtime_growth(rng):
    """time(4n)/time(n) <= 5.5, median of 15, for n in {2^12, 2^14}."""
    def median_time(spec, x):
        for _ in range(2):         # warm the cached symbol and FFT plan
            toeplitz_matvec(spec, x)
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            toeplitz_matvec(spec, x)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    for attempt in range(2):
        ok = True
        for n in (2 ** 12, 2 ** 14):
            spec1 = ToeplitzSpec(n, rng.standard_normal(2 * n - 1))
            spec4 = ToeplitzSpec(4 * n, rng.standard_normal(8 * n - 1))
            t1 = median_time(spec1, rng.standard_normal(n))
            t4 = median_time(spec4, rng.standard_normal(4 * n))
            ok = ok and (t4 / t1 <= 5.5)
        if ok:
            break
    assert ok
