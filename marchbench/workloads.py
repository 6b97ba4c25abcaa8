"""The three march workloads and the checks that gate their results.

Every workload is the manufactured solution u(x, t) = e^t (1+x)^6 marched
with BDF4 at tau = h, so its inputs are fixed; only the public tpcmg API is
called.  The frozen reference errors were taken from the code this
benchmark was written against; a march whose final max-norm error is off
by more than REFERENCE_RTOL (two significant figures) fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import tpcmg
from tpcmg import oracle, timestepper

REFERENCE_RTOL = 0.02
DENSE_RTOL = 1e-10
MEMORY_STEPS = 16
# BDF4 weights of U^{k-1} .. U^{k-4}, written out so the dense check does
# not reuse the stepper's own table.
BDF4_WEIGHTS = (4.0, -3.0, 4.0 / 3.0, -0.25)


@dataclass(frozen=True)
class Workload:
    name: str
    model_cfg: object
    steps: int
    reference_error: float

    @property
    def is_pd(self):
        return isinstance(self.model_cfg, tpcmg.PdModelConfig)

    @property
    def tau(self):
        return 1.0 / self.model_cfg.N

    def problem(self):
        """Assemble the manufactured problem."""
        if self.is_pd:
            return timestepper.pd_manufactured_problem(self.model_cfg)
        return timestepper.gamma_manufactured_problem(self.model_cfg)

    def transient(self, steps=None):
        steps = self.steps if steps is None else steps
        return tpcmg.TransientConfig(tau=self.tau, final_time=steps * self.tau)


WORKLOADS = {
    w.name: w for w in (
        Workload("pdsym-quarter-512",
                 tpcmg.PdModelConfig(N=512, delta=0.25, symmetric=True),
                 steps=512, reference_error=1.8135182244805037e-10),
        Workload("pdnonsym-sqrth-512",
                 tpcmg.PdModelConfig(N=512, delta="sqrt-h", symmetric=False),
                 steps=512, reference_error=1.7721681899729447e-08),
        Workload("gamma-half-32k",
                 tpcmg.GammaModelConfig(N=2 ** 15, gamma=0.5),
                 steps=32, reference_error=2.6332447333743403e-10),
    )
}


def setup(w):
    """Assembly, step operator and hierarchy, called directly."""
    problem = w.problem()
    op = tpcmg.build_step_operator(problem.system, w.tau)
    return tpcmg.build_hierarchy(op)


def march(w, steps=None, wrap_rhs=None):
    """Assembly plus bdf4_march; returns the MarchResult."""
    problem = w.problem()
    if wrap_rhs is not None:
        problem.rhs = wrap_rhs(problem.rhs)
    return timestepper.bdf4_march(problem, w.transient(steps))


def march_failures(w, result):
    """(solves that did not converge, 1 if the final error misses the
    frozen reference else 0)."""
    unconverged = sum(not rep.converged for rep in result.reports)
    off = abs(result.max_error - w.reference_error) > REFERENCE_RTOL * w.reference_error
    return unconverged, int(not np.isfinite(result.max_error) or off)


def dense_step_error(w, k):
    """Relative max-norm gap between one multigrid BDF4 step k (history
    from the exact solution) and an independent dense LU solve of the same
    step system, assembled from the coefficient tables."""
    problem = w.problem()
    tau = w.tau
    b = tau * problem.rhs(k * tau)
    for weight, j in zip(BDF4_WEIGHTS, range(k - 1, k - 5, -1)):
        b = b + weight * problem.exact(j * tau)
    hier = tpcmg.build_hierarchy(tpcmg.build_step_operator(problem.system, tau))
    x, report = tpcmg.solve(hier, b)
    dense = oracle.pd_dense_reference(w.model_cfg)
    step = 25.0 / 12.0 * np.eye(dense.shape[0]) + (tau / problem.system.scale) * dense
    ref = oracle.dense_solve(step, b)
    gap = float(np.abs(x - ref).max() / np.abs(ref).max())
    return gap, report.converged
