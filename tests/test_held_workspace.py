"""The transform workspace a march, solve or vcycle holds for its products.

bdf4_march, solve and vcycle each hold one workspace, sized to the finest
level, for every product they make: the V-cycle's levels, the cycle
cache's build, the stop test's TpcOperator.matvec and the boundary fold;
a solve inside a march holds the march's, with the level products the
march made.  The held workspace is caller-scoped (a context variable), so
it is gone when the call returns or raises, a matvec outside such a call
allocates its own, and another thread never sees it.
"""

import sys
import threading

import numpy as np
import pytest

from tpcmg import (GammaModelConfig, PdModelConfig, TpcOperator, TransientConfig,
                   bdf4_march, build_hierarchy, build_step_operator,
                   gamma_manufactured_problem, pd_manufactured_problem, solve, vcycle)
from tpcmg import kernels, timestepper
from tpcmg.solver import SingularSmootherError

from conftest import random_tpc

PROBLEMS = {
    "gamma": lambda: gamma_manufactured_problem(GammaModelConfig(N=64, gamma=0.5)),
    "pd-sym": lambda: pd_manufactured_problem(PdModelConfig(N=64, delta=0.25, symmetric=True)),
}


def counted_workspaces(monkeypatch, where):
    """Patch kernels._workspace to append where() at each call; the list."""
    calls = []
    workspace = kernels._workspace

    def counted(length):
        calls.append(where())
        return workspace(length)

    monkeypatch.setattr(kernels, "_workspace", counted)
    return calls


def step_hierarchy(problem):
    N = problem.system.cfg.N
    return build_hierarchy(build_step_operator(problem.system, 1.0 / N))


@pytest.mark.parametrize("model", sorted(PROBLEMS))
def test_march_allocates_one_workspace_before_its_steps(monkeypatch, model):
    """A whole march allocates one workspace, before its first step: every
    product of the step loop, the stop test's matvec and (pd) the boundary
    fold included, writes through it.  The level products are made before
    the first step too: in the loop only the stop tests (and the fold,
    through its own import) take views of the workspace."""
    problem = PROBLEMS[model]()
    rhs, steps, matvecs, views = problem.rhs, [], [], []

    def counted_rhs(t):
        steps.append(t)
        return rhs(t)

    matvec = TpcOperator.matvec

    def counted_matvec(op, x):
        matvecs.append(len(steps))
        return matvec(op, x)

    workspace_views = kernels._workspace_views

    def counted_views(workspace, length, m):
        views.append(len(steps))
        return workspace_views(workspace, length, m)

    problem.rhs = counted_rhs
    monkeypatch.setattr(TpcOperator, "matvec", counted_matvec)
    monkeypatch.setattr(kernels, "_workspace_views", counted_views)
    calls = counted_workspaces(monkeypatch, lambda: len(steps))
    N = problem.system.cfg.N
    result = bdf4_march(problem, TransientConfig(tau=1.0 / N, final_time=12.0 / N))
    assert all(rep.converged for rep in result.reports)
    assert len(steps) == 9
    assert calls == [0]                     # one workspace, before step 4's rhs
    assert matvecs and min(matvecs) >= 1    # the stop tests ran in the loop
    assert sum(k >= 1 for k in views) == len(matvecs)


def test_no_workspace_held_after_return_or_raise(rng):
    """solve, vcycle and bdf4_march leave no workspace held in the caller's
    context, whether they return or raise from inside the held block."""
    problem = PROBLEMS["gamma"]()
    hier = step_hierarchy(problem)
    b = rng.standard_normal(hier.finest.n)
    assert kernels._held.get() is None
    solve(hier, b)
    assert kernels._held.get() is None
    vcycle(hier, b)
    assert kernels._held.get() is None
    N = problem.system.cfg.N
    bdf4_march(problem, TransientConfig(tau=1.0 / N, final_time=6.0 / N))
    assert kernels._held.get() is None

    op = random_tpc(rng, 15)
    singular = TpcOperator(op.A, op.Bbar, op.Cbar, op.Dbar, op.p, op.q, op.xi,
                           op.zeta, 0.0)            # zero diagonal at the cross
    singular_hier = build_hierarchy(singular)
    for call in (solve, vcycle):
        with pytest.raises(SingularSmootherError):
            call(singular_hier, rng.standard_normal(singular.n))
        assert kernels._held.get() is None
    with pytest.raises(ValueError, match="b has non-finite"):
        solve(hier, np.full(hier.finest.n, np.nan))
    assert kernels._held.get() is None

    def failing_rhs(t):
        raise RuntimeError("forcing failed")

    problem.rhs = failing_rhs
    with pytest.raises(RuntimeError, match="forcing failed"):
        bdf4_march(problem, TransientConfig(tau=1.0 / N, final_time=6.0 / N))
    assert kernels._held.get() is None


def test_matvec_outside_a_march_allocates_its_own(rng, monkeypatch):
    """Outside a held workspace, or inside one too short for it, each
    TpcOperator.matvec allocates a workspace; a solve before it leaves
    none behind, and the operator keeps none."""
    hier = step_hierarchy(PROBLEMS["pd-sym"]())
    op = hier.finest
    x = rng.standard_normal(op.n)
    ref = op.matvec(x)
    calls = counted_workspaces(monkeypatch, lambda: None)
    assert op.matvec(x).tobytes() == ref.tobytes()
    assert op.matvec(x).tobytes() == ref.tobytes()
    assert len(calls) == 2
    solve(hier, x)
    assert len(calls) == 3                  # the solve's one
    assert op.matvec(x).tobytes() == ref.tobytes()
    assert len(calls) == 4
    with kernels._holding_workspace(hier.levels[1]):
        assert op.matvec(x).tobytes() == ref.tobytes()
    assert len(calls) == 6                  # the short held one, and the matvec's


def test_thread_beside_a_march_matches_serial(rng, monkeypatch):
    """A thread that calls matvec, solve and vcycle on the hierarchy that a
    march on another thread is using gets bitwise its serial results, and
    the march its serial solution and cycle counts."""
    problem = PROBLEMS["gamma"]()
    N = problem.system.cfg.N
    transient = TransientConfig(tau=1.0 / N, final_time=1.0)
    serial_march = bdf4_march(problem, transient)
    hier = step_hierarchy(problem)
    x, b = rng.standard_normal((2, hier.finest.n))

    def calls():
        u, report = solve(hier, b)
        return (hier.finest.matvec(x).tobytes(), u.tobytes(), report.iterations,
                vcycle(hier, b).tobytes())

    serial = calls()
    monkeypatch.setattr(timestepper, "build_hierarchy", lambda op, coarsest: hier)
    results = {}
    start = threading.Barrier(2)

    def march():
        start.wait(timeout=60)
        results["march"] = bdf4_march(problem, transient)

    def beside():
        start.wait(timeout=60)
        results["beside"] = {calls() for _ in range(40)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for target in (march, beside)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results["beside"] == {serial}
    assert results["march"].u_final.tobytes() == serial_march.u_final.tobytes()
    assert results["march"].iterations == serial_march.iterations
