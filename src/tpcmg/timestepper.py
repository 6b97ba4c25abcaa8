"""BDF4 time marching with a single AMG hierarchy shared across steps.

The semi-discrete systems read U' = -(1/eta) A U + G(t) with A the
stationary stiffness operator, eta its scale and G the forcing including
boundary contributions, so one BDF4 step solves

    (25/12 I + (tau/eta) A) U^k
        = 4 U^{k-1} - 3 U^{k-2} + 4/3 U^{k-3} - 1/4 U^{k-4} + tau G(t_k).

The step operator is time-independent: its hierarchy, the cycle's set-up
and products, and the transform workspace that every product of the
march writes through are made once per march, before the first step.
It is assembled straight from the system's distance tables, the identity
shift entering through them at a_0, o and d_0, so no stationary operator
is built or held during a march.  The startup values U^0 ...
U^3 come from the exact solution: the fourth-order tables are only
reproducible with non-polluting startup.

In the manufactured problems the forcing (and, for peridynamics, the
collar data) is e^t times a t-free array.  Each problem evaluates that
array on its first ``rhs`` call, not when it is built, so set-up pays
nothing for it, and every step only scales it; since exp(0.0) == 1.0
exactly, ``rhs(t)`` is bitwise the direct evaluation at t.  The boundary
fold still runs per step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gamma_model import GammaSystem, assemble_gamma_system, gamma_exact_forcing
from .hierarchy import build_hierarchy
from .kernels import _check_instance, _check_real, _holding_workspace, _tpc_from_tables
from .peridynamic import (PdSystem, assemble_pd_system, fold_boundary_rhs,
                          pd_exact_forcing, sample_collar)
from .solver import _cycle_cache, _products, _smoother, solve

__all__ = [
    "TransientConfig",
    "TransientProblem",
    "MarchResult",
    "build_step_operator",
    "bdf4_march",
    "gamma_manufactured_problem",
    "pd_manufactured_problem",
]

BDF4_HISTORY = (4.0, -3.0, 4.0 / 3.0, -0.25)


@dataclass(frozen=True)
class TransientConfig:
    """Marching parameters; the benchmark runs use tau = h and T = 1."""

    tau: float
    final_time: float = 1.0

    def __post_init__(self):
        for name in ("tau", "final_time"):
            _check_real(name, getattr(self, name))
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        steps = self.final_time / self.tau
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 4:
            raise ValueError("final_time must be >= 4 tau and a multiple of tau")

    @property
    def steps(self):
        return int(round(self.final_time / self.tau))


class TransientProblem:
    """Everything a march needs: the stationary system, the per-step
    forcing in f-units (boundary terms folded in), and the exact solution,
    which gives the startup values and the error at the final time."""

    def __init__(self, system, rhs, exact):
        self.system = system
        self.rhs = rhs
        self.exact = exact


@dataclass
class MarchResult:
    u_final: np.ndarray
    max_error: float
    iterations: list = field(default_factory=list)
    solve_time: float = 0.0
    wall_time: float = 0.0
    reports: list = field(default_factory=list)

    @property
    def avg_iterations(self):
        """Mean V-cycles per step; 0.0 before any step."""
        return float(np.mean(self.iterations)) if self.iterations else 0.0


def build_step_operator(system, tau):
    """Implicit BDF4 step operator 25/12 I + (tau/eta) * A_stationary.

    Built straight from the system's distance tables by
    kernels._tpc_from_tables, which scales them and adds the identity
    shift at the diagonal coefficients a_0, o, d_0 of the cross
    representation; the stationary operator is never assembled.
    """
    _check_instance("system", system, (PdSystem, GammaSystem))
    _check_real("tau", tau)
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
    return _tpc_from_tables(system.cfg.N - 1, *system.tables, system.banded,
                            scale=tau / system.scale, shift=25.0 / 12.0)


def bdf4_march(problem, cfg, smoother=None, tol=1e-15, max_iter=200, coarsest=7):
    """March the problem to final time; returns the solution and a report.

    Startup values U^0 ... U^3 are the exact solution at 0, tau, 2 tau and
    3 tau; the max-norm error is measured at the final time.  wall_time
    covers the whole call; solve_time only the solves, the hierarchy, the
    cycle's set-up (solver._cycle_cache) and its products being made
    before them, in the workspace the march holds for all its products.
    """
    start = time.perf_counter()
    _check_instance("problem", problem, TransientProblem)
    _check_instance("cfg", cfg, TransientConfig)
    smoother = _smoother(smoother)
    tau = cfg.tau
    history = [problem.exact(j * tau) for j in range(4)]
    hier = build_hierarchy(build_step_operator(problem.system, tau), coarsest)

    result = MarchResult(u_final=None, max_error=np.nan)
    t_solve = 0.0
    with _holding_workspace(hier.finest):
        _products(hier, _cycle_cache(hier, smoother))   # made once, for every solve
        for k in range(4, cfg.steps + 1):
            b = tau * problem.rhs(k * tau)
            for w, uj in zip(BDF4_HISTORY, reversed(history)):
                b += w * uj
            # no later step reads the oldest vector: free it before the solve
            del history[0], uj
            t0 = time.perf_counter()
            u, rep = solve(hier, b, smoother, tol=tol, max_iter=max_iter)
            t_solve += time.perf_counter() - t0
            result.iterations.append(rep.iterations)
            result.reports.append(rep)
            history.append(u)

    result.u_final = u
    result.solve_time = t_solve
    result.max_error = float(np.abs(u - problem.exact(cfg.final_time)).max())
    result.wall_time = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# manufactured problems, exact solution u(x, t) = e^t (1+x)^6

def gamma_manufactured_problem(model_cfg):
    system = assemble_gamma_system(model_cfg)
    xs = model_cfg.grid
    forcing0 = None

    def exact(t):
        return np.exp(t) * (1.0 + xs) ** 6

    def rhs(t):
        nonlocal forcing0
        if forcing0 is None:
            forcing0 = gamma_exact_forcing(xs, 0.0, model_cfg.gamma)
        e = np.exp(t)           # boundary values u(0, t) = e^t, u(1, t) = 2^6 e^t
        return e * forcing0 + system.boundary_vector(e, 64.0 * e)

    return TransientProblem(system, rhs, exact=exact)


def pd_manufactured_problem(model_cfg):
    system = assemble_pd_system(model_cfg)
    xs = model_cfg.grid
    delta = model_cfg.delta_eff
    cached = None

    def exact(t):
        return np.exp(t) * (1.0 + xs) ** 6

    def rhs(t):
        nonlocal cached
        if cached is None:
            cached = (pd_exact_forcing(xs, 0.0, delta),
                      sample_collar(model_cfg, lambda x: (1.0 + x) ** 6))
        forcing0, collar0 = cached
        e = np.exp(t)
        return fold_boundary_rhs(system, e * forcing0, e * collar0)

    return TransientProblem(system, rhs, exact=exact)
