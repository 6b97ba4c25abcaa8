"""BDF4 time marching with a single AMG hierarchy shared across steps.

The semi-discrete systems read U' = -(1/eta) A U + G(t) with A the
stationary stiffness operator, eta its scale and G the forcing including
boundary contributions, so one BDF4 step solves

    (25/12 I + (tau/eta) A) U^k
        = 4 U^{k-1} - 3 U^{k-2} + 4/3 U^{k-3} - 1/4 U^{k-4} + tau G(t_k).

The step operator is time-independent; its hierarchy is built once per
march (bootstrap startup builds small extra hierarchies for its own step
operators).

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

from .gamma_model import assemble_gamma_system, gamma_exact_forcing
from .hierarchy import build_hierarchy
from .peridynamic import (CollarSamples, assemble_pd_system, fold_boundary_rhs,
                          pd_exact_forcing, sample_collar)
from .solver import SmootherConfig, solve

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
    startup: str = "exact"          # "exact" or "bootstrap"
    bootstrap_substeps: int = 32

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.startup not in ("exact", "bootstrap"):
            raise ValueError(f"unknown startup policy {self.startup!r}")
        steps = self.final_time / self.tau
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 4:
            raise ValueError("final_time must be >= 4 tau and a multiple of tau")

    @property
    def steps(self):
        return int(round(self.final_time / self.tau))


class TransientProblem:
    """Everything a march needs: the stationary system, the per-step
    forcing in f-units (boundary terms folded in), the initial value, and
    optionally the exact solution for startup and error measurement."""

    def __init__(self, system, rhs, exact=None, initial=None):
        self.system = system
        self.rhs = rhs
        self.exact = exact
        self.initial = initial


@dataclass
class MarchResult:
    u_final: np.ndarray
    max_error: float
    iterations: list = field(default_factory=list)
    avg_iterations: float = 0.0
    solve_time: float = 0.0
    wall_time: float = 0.0
    hierarchy_builds: int = 0
    reports: list = field(default_factory=list)


def build_step_operator(system, tau, shift=25.0 / 12.0):
    """Implicit step operator shift*I + (tau/eta) * A_stationary.

    The identity shift folds into the diagonal coefficients a_0, o, d_0 of
    the cross representation.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return system.op.scale_shift(tau / system.scale, shift)


def _bdf_k_step(system, u_hist, tau, coeff_lhs, weights, rhs_vec,
                smoother, tol, max_iter, build):
    hier = build(build_step_operator(system, tau, shift=coeff_lhs))
    b = tau * rhs_vec
    for w, u in zip(weights, u_hist):
        b = b + w * u
    x, _ = solve(hier, b, smoother, tol=tol, max_iter=max_iter)
    return x


def _bootstrap_startup(problem, u0, cfg, smoother, tol, max_iter, build):
    """Lower-order BDF bootstrap: BDF1 on refined substeps for U^1, then
    one BDF2 and one BDF3 step.  Adequate for non-manufactured runs; the
    benchmark tables use exact startup."""
    sys_ = problem.system
    tau = cfg.tau
    s = cfg.bootstrap_substeps
    tau_sub = tau / s
    hier1 = build(build_step_operator(sys_, tau_sub, shift=1.0))
    u = np.array(u0, dtype=float)
    for j in range(1, s + 1):
        b = u + tau_sub * problem.rhs(j * tau_sub)
        u, _ = solve(hier1, b, smoother, tol=tol, max_iter=max_iter)
    u1 = u
    u2 = _bdf_k_step(sys_, [u1, u0], tau, 1.5, (2.0, -0.5),
                     problem.rhs(2 * tau), smoother, tol, max_iter, build)
    u3 = _bdf_k_step(sys_, [u2, u1, u0], tau, 11.0 / 6.0, (3.0, -1.5, 1.0 / 3.0),
                     problem.rhs(3 * tau), smoother, tol, max_iter, build)
    return [u0, u1, u2, u3]


def bdf4_march(problem, cfg, smoother=None, tol=1e-15, max_iter=200, coarsest=7):
    """March the problem to final time; returns the solution and a report.

    Startup values come from the exact solution when available (the tables
    are only reproducible with non-polluting startup) or from the BDF
    bootstrap.  The max-norm error is measured at the final time.
    wall_time covers the whole call; solve_time only the solves after
    startup.
    """
    start = time.perf_counter()
    smoother = smoother or SmootherConfig()
    tau = cfg.tau
    system = problem.system
    builds = 0

    def build(op):
        nonlocal builds
        builds += 1
        return build_hierarchy(op, coarsest)

    if cfg.startup == "exact":
        if problem.exact is None:
            raise ValueError("exact startup requires problem.exact")
        history = [problem.exact(j * tau) for j in range(4)]
    else:
        u0 = problem.initial if problem.initial is not None else problem.exact(0.0)
        history = _bootstrap_startup(problem, u0, cfg, smoother, tol, max_iter, build)

    hier = build(build_step_operator(system, tau))

    result = MarchResult(u_final=None, max_error=np.nan)
    t_solve = 0.0
    u = history[-1]
    for k in range(4, cfg.steps + 1):
        t = k * tau
        b = tau * problem.rhs(t)
        for w, uj in zip(BDF4_HISTORY, reversed(history)):
            b += w * uj
        t0 = time.perf_counter()
        u, rep = solve(hier, b, smoother, tol=tol, max_iter=max_iter)
        t_solve += time.perf_counter() - t0
        result.iterations.append(rep.iterations)
        result.reports.append(rep)
        history = history[1:] + [u]

    result.u_final = u
    result.solve_time = t_solve
    result.avg_iterations = float(np.mean(result.iterations)) if result.iterations else 0.0
    result.hierarchy_builds = builds
    if problem.exact is not None:
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
        collar = CollarSamples(left_v=e * collar0.left_v, left_w=e * collar0.left_w,
                               right_v=e * collar0.right_v, right_w=e * collar0.right_w)
        return fold_boundary_rhs(system, e * forcing0, collar)

    return TransientProblem(system, rhs, exact=exact)
