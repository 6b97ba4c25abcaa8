import threading
import weakref

import numpy as np
import pytest

from tpcmg import (BandedCorrection, GammaModelConfig, PdModelConfig,
                   TpcOperator, TransientConfig, TransientProblem,
                   assemble_gamma_system, assemble_pd_system, bdf4_march,
                   build_step_operator, fold_boundary_rhs, gamma_coefficients,
                   gamma_exact_forcing, gamma_manufactured_problem,
                   pd_coefficients, pd_exact_forcing, pd_manufactured_problem,
                   sample_collar, solver, timestepper)
from tpcmg.kernels import _tpc_from_tables
from tpcmg.oracle import gamma_dense_reference, sym_eig_extremes

from conftest import assert_same_bytes, scale_shift


class TestStepOperator:
    def test_tau_zero_is_scaled_identity(self):
        system = assemble_pd_system(PdModelConfig(N=8, delta=0.25, symmetric=True))
        op = build_step_operator(system, 0.0)
        assert np.abs(op.dense() - (25.0 / 12.0) * np.eye(15)).max() == 0.0

    def test_spd_shift(self):
        system = assemble_pd_system(PdModelConfig(N=16, delta=0.25, symmetric=True))
        op = build_step_operator(system, 1.0 / 16.0)
        assert op.symmetric
        lam_min, _ = sym_eig_extremes(op.dense())
        assert lam_min > 25.0 / 12.0 - 1e-12

    def test_gamma_dense_match(self):
        cfg = GammaModelConfig(N=8, gamma=0.0)
        system = assemble_gamma_system(cfg)
        op = build_step_operator(system, 1.0 / 8.0)
        ref_A, scale = gamma_dense_reference(cfg)
        ref = (25.0 / 12.0) * np.eye(15) + (1.0 / 8.0 / scale) * ref_A
        assert np.abs(op.dense() - ref).max() <= 1e-12 * np.abs(ref).max()


def _gamma_case(gamma, N):
    """The system, and its operator as assembled from gamma_coefficients."""
    co = gamma_coefficients(gamma, N)
    banded = BandedCorrection(2 * N - 1, {0: np.concatenate([co.d[1::2], co.d[0::2]])})
    op = _tpc_from_tables(N - 1, -co.m, -co.q, -co.p, -co.n, banded)
    return assemble_gamma_system(GammaModelConfig(N=N, gamma=gamma)), op


def _pd_case(symmetric, delta, N):
    cfg = PdModelConfig(N=N, delta=delta, symmetric=symmetric)
    co = pd_coefficients(cfg.r, symmetric)
    return assemble_pd_system(cfg), _tpc_from_tables(N - 1, co.a, co.a_half, co.c, co.d)


STEP_CASES = (
    [pytest.param(_gamma_case, (gamma, N), id=f"gamma-{gamma}-N{N}")
     for gamma in (0.0, 0.3, 0.5, 0.9) for N in (4, 8, 32, 256)]
    + [pytest.param(_pd_case, (symmetric, delta, N),
                    id=f"pd-{'sym' if symmetric else 'nonsym'}-{delta}-N{N}")
       for symmetric in (True, False) for delta in (0.25, 0.5, "sqrt-h")
       for N in (4, 16, 64, 512)])


@pytest.mark.parametrize("case, args", STEP_CASES)
def test_step_operator_from_tables_is_scale_shift(case, args):
    """The step operator built from the tables is bitwise conftest's
    scale_shift of the stationary operator, and that operator bitwise the
    assembly from the coefficient tables, at tau = h and tau = 0."""
    system, stationary = case(*args)
    assert_same_bytes(system.op, stationary)
    for tau in (system.cfg.h, 0.0):
        assert_same_bytes(build_step_operator(system, tau),
                          scale_shift(stationary, tau / system.scale, 25.0 / 12.0))


TIMES = (0.0, 0.125, 0.37, 1.0, 2.5)


class TestManufacturedRhs:
    """rhs(t) scales a lazily cached t-free array; it must equal the direct
    evaluation bitwise, and building the problem must evaluate nothing."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_gamma_rhs_bitwise_uncached(self, gamma):
        cfg = GammaModelConfig(N=32, gamma=gamma)
        problem = gamma_manufactured_problem(cfg)
        for t in TIMES:
            bound = problem.system.boundary_vector(np.exp(t) * (1.0 + 0.0) ** 6,
                                                   np.exp(t) * (1.0 + 1.0) ** 6)
            ref = gamma_exact_forcing(cfg.grid, t, gamma) + bound
            assert np.array_equal(problem.rhs(t), ref)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_pd_rhs_bitwise_uncached(self, symmetric):
        cfg = PdModelConfig(N=32, delta=0.25, symmetric=symmetric)
        problem = pd_manufactured_problem(cfg)
        for t in TIMES:
            collar = sample_collar(cfg, lambda x: np.exp(t) * (1.0 + x) ** 6)
            ref = fold_boundary_rhs(problem.system,
                                    pd_exact_forcing(cfg.grid, t, cfg.delta_eff), collar)
            assert np.array_equal(problem.rhs(t), ref)

    def test_forcing_evaluated_lazily_once(self, monkeypatch):
        calls = {}

        def counted(name):
            fn = getattr(timestepper, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(timestepper, name, wrapper)

        for name in ("gamma_exact_forcing", "pd_exact_forcing", "sample_collar"):
            counted(name)
        problems = [gamma_manufactured_problem(GammaModelConfig(N=16, gamma=0.5)),
                    pd_manufactured_problem(PdModelConfig(N=16, delta=0.25, symmetric=True))]
        assert calls == {}
        for problem in problems:
            for t in TIMES:
                problem.rhs(t)
        assert calls == {"gamma_exact_forcing": 1, "pd_exact_forcing": 1,
                         "sample_collar": 1}


class TestMarch:
    def test_pd_sym_table_row(self):
        problem = pd_manufactured_problem(PdModelConfig(N=32, delta=0.25, symmetric=True))
        result = bdf4_march(problem, TransientConfig(tau=1.0 / 32.0))
        assert result.max_error == pytest.approx(1.1628e-05, rel=0.01)
        assert abs(result.avg_iterations - 9) <= 2
        # derived from the per-step counts on read, not stored
        assert result.avg_iterations == np.mean(result.iterations)
        with pytest.raises(AttributeError):
            result.avg_iterations = 0.0

    def test_gamma_table_row(self):
        problem = gamma_manufactured_problem(GammaModelConfig(N=32, gamma=0.0))
        result = bdf4_march(problem, TransientConfig(tau=1.0 / 32.0))
        assert result.max_error == pytest.approx(1.4460e-05, rel=0.01)
        assert result.avg_iterations <= 5

    def test_u_final_is_flat_array(self):
        problem = pd_manufactured_problem(PdModelConfig(N=16, delta=0.25, symmetric=True))
        result = bdf4_march(problem, TransientConfig(tau=1.0 / 16.0))
        assert type(result.u_final) is np.ndarray and result.u_final.shape == (31,)
        assert np.abs(result.u_final - problem.exact(1.0)).max() == result.max_error

    def test_oldest_history_freed_before_each_solve(self, monkeypatch):
        """Step k's solve starts after the march has let go of step k - 4's
        solution: each solve runs with three history vectors alive."""
        solve = timestepper.solve
        solutions = []          # a weakref to the solution of step 4 + i

        def tracked(hier, b, *args, **kwargs):
            k = 4 + len(solutions)
            if k >= 8:          # step k - 4 was a solve, not the startup
                assert solutions[k - 8]() is None, f"step {k - 4} alive at step {k}"
            x, rep = solve(hier, b, *args, **kwargs)
            solutions.append(weakref.ref(x))
            return x, rep

        monkeypatch.setattr(timestepper, "solve", tracked)
        problem = pd_manufactured_problem(PdModelConfig(N=16, delta=0.25, symmetric=True))
        result = bdf4_march(problem, TransientConfig(tau=1.0 / 16.0, final_time=12.0 / 16.0))
        assert len(solutions) == 9
        assert solutions[-1]() is result.u_final

    @pytest.mark.parametrize("make_problem", [
        lambda: gamma_manufactured_problem(GammaModelConfig(N=16, gamma=0.5)),
        lambda: pd_manufactured_problem(PdModelConfig(N=16, delta=0.25, symmetric=True)),
    ], ids=["gamma", "pd-sym"])
    def test_no_stationary_operator_held(self, monkeypatch, make_problem):
        """From the problem's construction on, every TpcOperator still alive
        after the first solve is a level of the march's hierarchy: no
        stationary operator is built and held."""
        built = []
        # every constructor, public or from cross lines, stores through this
        set_pieces = TpcOperator._set_pieces

        def tracked_set_pieces(self, *args, **kwargs):
            set_pieces(self, *args, **kwargs)
            built.append(weakref.ref(self))

        solve = timestepper.solve
        checked = []

        def checked_solve(hier, b, *args, **kwargs):
            out = solve(hier, b, *args, **kwargs)
            if not checked:
                live = [ref() for ref in built if ref() is not None]
                checked.append(len(live))
                strays = [op.n for op in live
                          if not any(op is level for level in hier.levels)]
                assert not strays, f"operators of size {strays} alive beside the levels"
            return out

        monkeypatch.setattr(TpcOperator, "_set_pieces", tracked_set_pieces)
        monkeypatch.setattr(timestepper, "solve", checked_solve)
        problem = make_problem()
        bdf4_march(problem, TransientConfig(tau=1.0 / 16.0, final_time=6.0 / 16.0))
        assert checked and checked[0] >= 2      # the levels themselves are seen

    @pytest.mark.parametrize("make_problem", [
        lambda: gamma_manufactured_problem(GammaModelConfig(N=64, gamma=0.5)),
        lambda: pd_manufactured_problem(PdModelConfig(N=64, delta=0.25, symmetric=True)),
        lambda: pd_manufactured_problem(PdModelConfig(N=4, delta=0.25, symmetric=True)),
    ], ids=["gamma", "pd-sym", "one-level"])
    def test_setup_built_before_first_solve(self, monkeypatch, make_problem):
        """The cycle's set-up is built before the step loop: inside the
        march's solves no cycle cache is built and no level computes its
        block symbols, so solve_time times solves only.  The one-level
        hierarchy (n = 7, the coarsest) still gets the stop test's symbols."""
        solving, built, missed = [False], [], []
        solve = timestepper.solve

        def flagged_solve(*args, **kwargs):
            solving[0] = True
            try:
                return solve(*args, **kwargs)
            finally:
                solving[0] = False

        cycle_cache = solver._CycleCache
        block_symbols = TpcOperator._block_symbols

        def counted_cycle_cache(*args, **kwargs):
            built.append(solving[0])
            return cycle_cache(*args, **kwargs)

        def counted_block_symbols(op):
            if op._symbols is None:
                missed.append(solving[0])
            return block_symbols(op)

        monkeypatch.setattr(timestepper, "solve", flagged_solve)
        monkeypatch.setattr(solver, "_CycleCache", counted_cycle_cache)
        monkeypatch.setattr(TpcOperator, "_block_symbols", counted_block_symbols)
        problem = make_problem()
        N = problem.system.cfg.N
        result = bdf4_march(problem, TransientConfig(tau=1.0 / N, final_time=8.0 / N))
        assert len(result.reports) == 5 and all(rep.converged for rep in result.reports)
        assert built == [False]
        assert missed and not any(missed)

    def test_concurrent_marches_match_serial(self):
        """Each march keeps its state per call: two marches on two threads
        give bitwise the solution and iteration counts of a serial one."""
        def march():
            problem = pd_manufactured_problem(PdModelConfig(N=16, delta=0.25, symmetric=True))
            return bdf4_march(problem, TransientConfig(tau=1.0 / 16.0))

        serial = march()
        results = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait(timeout=60)
            results[i] = march()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for r in results:
            assert np.array_equal(r.u_final, serial.u_final)
            assert r.iterations == serial.iterations

    def test_quadratic_steady_state_reproduced(self):
        """Collocation is exact on quadratics: u = (1+x)^2, f = u_t + Ku = -2,
        constant in time, is reproduced to solver accuracy."""
        cfg = PdModelConfig(N=16, delta=0.25, symmetric=True)
        system = assemble_pd_system(cfg)
        xs = cfg.grid

        def exact(t):
            return (1.0 + xs) ** 2

        def rhs(t):
            F = np.full(xs.size, -2.0)
            collar = sample_collar(cfg, lambda x: (1.0 + x) ** 2)
            return fold_boundary_rhs(system, F, collar)

        problem = TransientProblem(system, rhs, exact=exact)
        result = bdf4_march(problem, TransientConfig(tau=1.0 / 16.0))
        assert result.max_error <= 1e-10

    def test_fourth_order_vs_exact_startup(self):
        errs = {}
        for N in (16, 32):
            problem = pd_manufactured_problem(
                PdModelConfig(N=N, delta=0.25, symmetric=True))
            errs[N] = bdf4_march(problem, TransientConfig(tau=1.0 / N)).max_error
        rate = np.log2(errs[16] / errs[32])
        assert 3.2 <= rate <= 4.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransientConfig(tau=0.5)           # fewer than 4 steps to T = 1
        with pytest.raises(ValueError):
            TransientConfig(tau=0.3)           # not a divisor of T
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^tau must be finite"):
                TransientConfig(tau=bad)
            with pytest.raises(ValueError, match="^final_time must be finite"):
                TransientConfig(tau=0.1, final_time=bad)
        system = assemble_pd_system(PdModelConfig(N=8, delta=0.25, symmetric=True))
        for bad in (np.nan, np.inf, -0.1):
            with pytest.raises(ValueError, match="^tau must be finite and nonnegative"):
                build_step_operator(system, bad)
