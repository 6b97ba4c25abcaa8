import sys
import threading

import numpy as np
import pytest

from tpcmg import (GammaModelConfig, Hierarchy, PdModelConfig,
                   SmootherConfig, TpcOperator, assemble_gamma_system,
                   assemble_pd_system, build_hierarchy, build_step_operator,
                   fold_boundary_rhs, solve, vcycle)
from tpcmg.oracle import (dense_galerkin, dense_vcycle, restriction_matrix,
                          two_grid_a_norm)
from tpcmg import kernels, solver
from tpcmg.solver import SingularSmootherError

from conftest import break_mirror, identity_tpc, random_tpc, scale_shift, tpc_pieces


def spd_hierarchy(N, r, tau=None):
    system = assemble_pd_system(PdModelConfig(N=N, delta=r / N, symmetric=True))
    op = system.op
    if tau is not None:
        op = scale_shift(op, tau / system.scale, 25.0 / 12.0)
    return build_hierarchy(op), op


SMOOTHERS = [SmootherConfig(), SmootherConfig(m1=0), SmootherConfig(m1=2, m2=0),
             SmootherConfig(omega_pre=0.7, omega_post=0.3)]


def assert_matches_dense_cycle(hier, cfg, b):
    ref = dense_vcycle([op.dense() for op in hier.levels], cfg) @ b
    assert np.abs(vcycle(hier, b, cfg) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSmootherConfig:
    @pytest.mark.parametrize("name", ["omega_pre", "omega_post"])
    @pytest.mark.parametrize("omega", [0.0, -0.5, np.nan, np.inf])
    def test_bad_omega_rejected(self, name, omega):
        with pytest.raises(ValueError, match=name):
            SmootherConfig(**{name: omega})

    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_negative_sweeps_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SmootherConfig(**{name: -1})

    @pytest.mark.parametrize("name", ["m1", "m2"])
    @pytest.mark.parametrize("sweeps", [1.5, 1.0])
    def test_non_integer_sweeps_rejected(self, name, sweeps):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SmootherConfig(**{name: sweeps})

    def test_no_sweeps_rejected(self):
        with pytest.raises(ValueError, match="m1 and m2"):
            SmootherConfig(m1=0, m2=0)
        SmootherConfig(m1=0, m2=1)
        SmootherConfig(m1=1, m2=0)


class TestVcycle:
    def test_identity_hierarchy_solves(self, rng):
        hier = build_hierarchy(identity_tpc(7))
        b = rng.standard_normal(15)
        assert np.allclose(vcycle(hier, b), b)

    def test_matches_dense_two_grid_composition(self, rng):
        """One cycle equals the dense S_post (I - P Ac^{-1} R A) S_pre step."""
        hier, op = spd_hierarchy(8, 2)
        two = Hierarchy(hier.levels[:2])
        A = op.dense()
        n = op.n
        R = restriction_matrix(n)
        P = 2.0 * R.T
        Ac = two.levels[1].dense()
        D = np.diag(A)
        Spre = np.eye(n) - 1.0 * (A / D[:, None])
        Spost = np.eye(n) - 0.5 * (A / D[:, None])
        b = rng.standard_normal(n)
        # error propagation from the zero initial guess: e0 = x*
        x_star = np.linalg.solve(A, b)
        e = Spre @ x_star
        e = e - P @ np.linalg.solve(Ac, R @ (A @ e))
        e = Spost @ e
        x_cycle = vcycle(two, b)
        assert np.abs((x_star - x_cycle) - e).max() <= 1e-10 * (1 + np.abs(e).max())

    @pytest.mark.parametrize("N", [8, 16, 32, 64])        # finest n = 2N - 1
    @pytest.mark.parametrize("cfg", SMOOTHERS)
    def test_matches_dense_recursive_cycle(self, rng, N, cfg):
        hier, op = spd_hierarchy(N, max(1, N // 8), tau=1.0 / N)
        assert_matches_dense_cycle(hier, cfg, rng.standard_normal(op.n))

    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("cfg", SMOOTHERS)
    def test_two_level_matches_oracle_cycle(self, rng, N, cfg):
        """The fast two-grid cycle is the oracle's dense one on the finest
        matrix and its dense Galerkin product."""
        hier, op = spd_hierarchy(N, 2)
        A = op.dense()
        b = rng.standard_normal(op.n)
        ref = dense_vcycle([A, dense_galerkin(A)], cfg) @ b
        out = vcycle(Hierarchy(hier.levels[:2]), b, cfg)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nonsymmetric_matches_dense_recursive_cycle(self, rng):
        system = assemble_pd_system(PdModelConfig(N=64, delta=0.25, symmetric=False))
        hier = build_hierarchy(scale_shift(system.op, 1.0 / 64 / system.scale, 25.0 / 12.0))
        for cfg in SMOOTHERS:
            assert_matches_dense_cycle(hier, cfg, rng.standard_normal(hier.finest.n))

    def test_smoothers_alternate_on_one_hierarchy(self, rng):
        hier, op = spd_hierarchy(64, 8, tau=1.0 / 64)
        b = rng.standard_normal(op.n)
        for cfg in (SMOOTHERS[0], SMOOTHERS[3], SMOOTHERS[0], SMOOTHERS[3]):
            assert_matches_dense_cycle(hier, cfg, b)

    def test_coarsest_63_has_no_tail(self, rng):
        _, op = spd_hierarchy(64, 8, tau=1.0 / 64)
        hier = build_hierarchy(op, coarsest_size_limit=63)
        assert [level.n for level in hier.levels] == [127, 63]
        for cfg in SMOOTHERS[:2]:
            assert_matches_dense_cycle(hier, cfg, rng.standard_normal(op.n))
            assert hier.cycle_cache[cfg].tail is None

    def test_default_hierarchy_caches_tail_at_63(self, rng):
        hier, op = spd_hierarchy(64, 8, tau=1.0 / 64)
        assert [level.n for level in hier.levels] == [127, 63, 31, 15, 7]
        for cfg in SMOOTHERS[:2]:
            assert_matches_dense_cycle(hier, cfg, rng.standard_normal(op.n))
            cache = hier.cycle_cache[cfg]
            assert cache.tail_level == 1 and cache.tail.shape == (63, 63)

    def test_contraction_bound_two_level(self, rng):
        hier, op = spd_hierarchy(8, 1)
        two = Hierarchy(hier.levels[:2])
        A = op.dense()
        x_star = rng.standard_normal(op.n)
        b = A @ x_star
        e = x_star - vcycle(two, b)
        before = np.sqrt(x_star @ A @ x_star)
        after = np.sqrt(e @ A @ e)
        assert after <= np.sqrt(47.0 / 48.0) * before


class TestSolve:
    def test_manufactured_solution(self, rng):
        hier, op = spd_hierarchy(32, 4, tau=1.0 / 32.0)
        x_star = rng.standard_normal(op.n)
        b = op.matvec(x_star)
        x, report = solve(hier, b)
        assert report.converged and not report.stalled
        assert report.status == "converged"
        assert np.abs(x - x_star).max() <= 1e-12 * np.abs(x_star).max()
        assert report.relative_residuals[-1] < 1e-15
        assert 0 < report.contraction_estimate < 1

    def test_zero_rhs_short_circuits(self):
        hier, op = spd_hierarchy(8, 1)
        x, report = solve(hier, np.zeros(op.n))
        assert report.iterations == 0 and report.converged
        assert np.abs(x).max() == 0.0

    @pytest.mark.parametrize("N", [8, 64])                # finest n = 15 and 127
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, rng, N, bad):
        hier, op = spd_hierarchy(N, 1, tau=1.0 / N)
        b = rng.standard_normal(op.n)
        b[op.n // 3] = bad
        with pytest.raises(ValueError, match="b has non-finite"):
            solve(hier, b)
        with pytest.raises(ValueError, match="b has non-finite"):
            vcycle(hier, b)

    @pytest.mark.parametrize("shape", [(14,), (16,), (1, 15)])
    def test_wrong_length_rhs_rejected(self, shape):
        hier, _ = spd_hierarchy(8, 1)
        with pytest.raises(ValueError, match="b must have length 15"):
            solve(hier, np.ones(shape))
        with pytest.raises(ValueError, match="b must have length 15"):
            vcycle(hier, np.ones(shape))

    @pytest.mark.parametrize("kwargs,name", [({"tol": 0.0}, "tol"), ({"tol": -1e-15}, "tol"),
                                             ({"tol": np.nan}, "tol"),
                                             ({"max_iter": 0}, "max_iter"),
                                             ({"max_iter": 2.5}, "max_iter"),
                                             ({"max_iter": 2.0}, "max_iter")])
    def test_bad_stopping_rule_rejected(self, rng, kwargs, name):
        hier, op = spd_hierarchy(8, 1)
        with pytest.raises(ValueError, match=name):
            solve(hier, rng.standard_normal(op.n), **kwargs)

    def test_zero_diagonal_raises_on_first_use(self):
        hier = Hierarchy([scale_shift(identity_tpc(7), 0.0, 0.0),
                          identity_tpc(3)])
        with pytest.raises(SingularSmootherError):
            solve(hier, np.ones(15))

    def test_max_iter_flagged_not_raised(self, rng):
        hier, op = spd_hierarchy(8, 1)
        b = rng.standard_normal(op.n)
        x, report = solve(hier, b, max_iter=1, tol=1e-300)
        assert report.iterations == 1
        assert not report.converged
        assert report.status == "max_iter"

    @pytest.mark.parametrize("max_iter,iterations", [(200, 4), (2, 2)])
    def test_divergence_reported(self, rng, max_iter, iterations):
        # omega = 3 overshoots: the residual grows by orders of magnitude
        hier, op = spd_hierarchy(64, 16, tau=1.0 / 64.0)
        b = rng.standard_normal(op.n)
        cfg = SmootherConfig(omega_pre=3.0, omega_post=3.0)
        _, report = solve(hier, b, cfg, max_iter=max_iter)
        assert report.status == "diverged"
        assert not report.converged and not report.stalled
        assert report.iterations == iterations
        assert report.relative_residuals[-1] > 1.0

    def test_stall_far_from_roundoff_fails(self):
        # omega = 1e-3 barely smooths: the residual ratios stay above 0.99
        system = assemble_pd_system(PdModelConfig(N=16, delta=0.25, symmetric=True))
        op = build_step_operator(system, 1.0 / 16.0)
        cfg = SmootherConfig(omega_pre=1e-3, omega_post=1e-3)
        _, report = solve(build_hierarchy(op), np.ones(op.n), cfg)
        assert report.status == "stagnated"
        assert not report.converged and not report.stalled
        assert report.iterations == 4
        assert 0.3 < report.relative_residuals[-1] < 1.0

    def test_stall_at_roundoff_succeeds(self, rng):
        hier, op = spd_hierarchy(64, 16, tau=1.0 / 64.0)
        _, report = solve(hier, rng.standard_normal(op.n), tol=1e-30)
        assert report.status == "stalled"
        assert report.converged and report.stalled
        assert report.relative_residuals[-1] < solver._STALL_BOUND

    def test_non_finite_residual_stops_at_once(self, rng):
        hier, op = spd_hierarchy(16, 2, tau=1.0 / 16.0)
        b = rng.standard_normal(op.n)
        cfg = SmootherConfig(omega_pre=1e300, omega_post=1e300)
        with np.errstate(all="ignore"):
            _, report = solve(hier, b, cfg)
        assert report.status == "non_finite"
        assert report.iterations == 1 and not report.converged

    @pytest.mark.parametrize("model", ["gamma-banded", "pd-sym"])
    @pytest.mark.parametrize("cfg", [SmootherConfig(), SmootherConfig(m1=2, m2=2)])
    def test_rhs_not_written(self, rng, model, cfg):
        if model == "pd-sym":
            hier, op = spd_hierarchy(64, 4, tau=1.0 / 64.0)
        else:
            system = assemble_gamma_system(GammaModelConfig(N=64, gamma=0.5))
            op = build_step_operator(system, 1.0 / 64.0)
            assert op.banded is not None
            hier = build_hierarchy(op)
        b = rng.standard_normal(op.n)
        before = b.tobytes()
        vcycle(hier, b, cfg)
        assert b.tobytes() == before
        _, report = solve(hier, b, cfg)
        assert report.converged
        assert b.tobytes() == before

    def test_stop_test_and_transfers_go_through_traced_names(self, monkeypatch):
        """marchbench/spans.py times the solve by wrapping
        TpcOperator.matvec, solver.restrict and solver.prolong where the
        solver looks them up: every transfer of a solve, the tail build
        included, and the stop test's residual of every iteration must be
        a call through those names.  The cycle's own products run through
        the solve's transform workspace, not TpcOperator.matvec."""
        counts = dict.fromkeys(("matvec", "restrict", "prolong"), 0)

        def counted(name, owner):
            fn = getattr(owner, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted("matvec", kernels.TpcOperator)
        counted("restrict", solver)
        counted("prolong", solver)
        system = assemble_pd_system(PdModelConfig(N=64, delta=0.25, symmetric=True))
        hier = build_hierarchy(build_step_operator(system, 1.0 / 64))
        b = np.ones(hier.finest.n)
        cfg = SmootherConfig()
        seen = []
        for _ in range(2):
            before = dict(counts)
            _, report = solve(hier, b, cfg)
            assert report.converged
            seen.append({k: counts[k] - before[k] for k in counts})
        cache = hier.cycle_cache[cfg]
        k, depth, its = cache.tail_level, hier.depth, report.iterations
        assert [op.n for op in hier.levels] == [127, 63, 31, 15, 7] and k == 1
        below = cache.tail.shape[0] * (depth - 1 - k)   # tail build visits
        per_solve = {"matvec": its, "restrict": its * k, "prolong": its * k}
        build = {"matvec": 0, "restrict": below, "prolong": below}
        assert seen == [{key: build[key] + per_solve[key] for key in counts}, per_solve]

    def test_residual_history_positive_decreasing_overall(self, rng):
        hier, op = spd_hierarchy(16, 2, tau=1.0 / 16.0)
        b = rng.standard_normal(op.n)
        _, report = solve(hier, b)
        rels = np.array(report.relative_residuals)
        assert np.all(rels > 0)
        assert rels[-1] <= 1e-15 or report.stalled


def step_hierarchy(model, N):
    """The hierarchy of the tau = h BDF4 step operator of a pd-sym
    (delta = 1/4) or gamma = 0.5 system; the gamma one has a banded part."""
    if model == "pd-sym":
        system = assemble_pd_system(PdModelConfig(N=N, delta=0.25, symmetric=True))
    else:
        system = assemble_gamma_system(GammaModelConfig(N=N, gamma=0.5))
    return build_hierarchy(build_step_operator(system, 1.0 / N))


def run_concurrently(run, calls=20):
    """Two threads that start together and each call run(i) ``calls``
    times, switching often so that the calls interleave; for each thread,
    the set of distinct results."""
    results = [None, None]
    start = threading.Barrier(2)

    def thread(i):
        start.wait(timeout=60)
        results[i] = {run(i) for _ in range(calls)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=thread, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


class TestConcurrency:
    @pytest.mark.parametrize("model", ["pd-sym", "gamma"])
    def test_concurrent_solves_on_one_hierarchy_match_serial(self, rng, model):
        """Two threads that solve and cycle at once on one shared
        hierarchy, its cycle cache filled while they run, give bitwise the
        serial solutions and iteration counts: each call's transform
        workspace is its own."""
        serial_hier = step_hierarchy(model, 64)
        if model == "gamma":
            assert serial_hier.finest.banded is not None
        bs = rng.standard_normal((2, serial_hier.finest.n))
        serial = []
        for b in bs:
            x, report = solve(serial_hier, b)
            serial.append((x.tobytes(), report.iterations,
                           vcycle(serial_hier, b).tobytes()))
        shared = step_hierarchy(model, 64)

        def run(i):
            x, report = solve(shared, bs[i])
            return x.tobytes(), report.iterations, vcycle(shared, bs[i]).tobytes()

        assert run_concurrently(run) == [{serial[0]}, {serial[1]}]

    def test_concurrent_matvecs_and_folds_match_serial(self, rng):
        """Two threads that run TpcOperator.matvec on shared operators, one
        on each side of _BATCH_MAX_LENGTH (m = 16385 embeds in L = 65536),
        and fold_boundary_rhs on one shared PdSystem give bitwise the
        serial results: each call allocates its own transform workspace."""
        ops = [random_tpc(rng, m, banded_bw=1) for m in (200, 16385)]
        assert [op._block_symbols()[0] > kernels._BATCH_MAX_LENGTH for op in ops] == \
            [False, True]
        cfg = PdModelConfig(N=512, delta=0.25, symmetric=False)
        system = assemble_pd_system(cfg)
        inputs = [([rng.standard_normal(op.n) for op in ops],
                   rng.standard_normal(2 * cfg.N - 1), rng.standard_normal(4 * cfg.r + 2))
                  for _ in range(2)]

        def run(i):
            xs, F, collar = inputs[i]
            return (*(op.matvec(x).tobytes() for op, x in zip(ops, xs)),
                    fold_boundary_rhs(system, F, collar).tobytes())

        serial = [run(0), run(1)]
        assert run_concurrently(run, calls=10) == [{serial[0]}, {serial[1]}]


class TestTgmFactor:
    """The oracle's exact two-grid A-norm on the operators the solver sees."""

    def test_identity_contracts_immediately(self):
        assert two_grid_a_norm(identity_tpc(7).dense()) <= 1e-8

    @pytest.mark.parametrize("N,r", [(16, 1), (32, 2), (64, 3)])
    def test_below_theory_bound(self, N, r):
        _, op = spd_hierarchy(N, r)
        assert two_grid_a_norm(op.dense()) <= np.sqrt(47.0 / 48.0)

    def test_matches_dense_spectral_radius(self):
        """||E||_A^2 is the spectral radius of E^* E, E^* = A^{-1} E^T A,
        with E the explicit composition S_post (I - P Ac^{-1} R A) S_pre;
        it bounds the spectral radius of E."""
        _, op = spd_hierarchy(16, 2)
        A = op.dense()
        n = op.n
        R = restriction_matrix(n)
        P = 2.0 * R.T
        D = np.diag(A)
        T = np.eye(n) - P @ np.linalg.solve(R @ A @ P, R @ A)
        E = (np.eye(n) - 0.5 * (A / D[:, None])) @ T @ (np.eye(n) - 1.0 * (A / D[:, None]))
        norm2 = max(abs(np.linalg.eigvals(np.linalg.solve(A, E.T @ A @ E))))
        norm = two_grid_a_norm(A)
        assert norm == pytest.approx(np.sqrt(norm2), rel=1e-10)
        assert max(abs(np.linalg.eigvals(E))) <= norm * (1 + 1e-12)

    def test_nonsym_rejected(self, rng):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            two_grid_a_norm(random_tpc(rng, 7).dense())

    def test_indefinite_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            two_grid_a_norm(-identity_tpc(7).dense())

    def test_symmetric_data_accepted(self, rng):
        op = random_tpc(rng, 15, symmetric=True)
        # shifted past its Gershgorin radius: diagonally dominant, so SPD
        op = scale_shift(op, 1.0, np.abs(op.dense()).sum(axis=1).max())
        assert 0.0 <= two_grid_a_norm(TpcOperator(**tpc_pieces(op)).dense()) < 1.0

    @pytest.mark.parametrize("piece", ["Cbar", "q", "banded"])
    def test_one_broken_mirror_rejected(self, rng, piece):
        op = random_tpc(rng, 15, symmetric=True)
        shift = np.abs(op.dense()).sum(axis=1).max()
        with pytest.raises(ValueError, match="symmetric positive definite"):
            two_grid_a_norm(break_mirror(scale_shift(op, 1.0, shift), piece).dense())

    def test_zero_horizon_step_operator_accepted(self):
        """tau = 0 scales the nonsymmetric pd operator away: 25/12 I, whose
        emptied off-diagonal windows must not keep their old reach."""
        system = assemble_pd_system(PdModelConfig(N=16, delta=0.25, symmetric=False))
        op = build_step_operator(system, 0.0)
        assert np.array_equal(op.dense(), 25.0 / 12.0 * np.eye(op.n))
        assert op.symmetric
        assert [spec.reach for spec in (op.A, op.Bbar, op.Cbar, op.Dbar)] == [0] * 4
        assert two_grid_a_norm(op.dense()) <= 1e-8
