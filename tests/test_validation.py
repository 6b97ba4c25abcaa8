"""Integer and real parameters are rejected by name at the API boundary
when they have the wrong type: a bool is not a count, and a string or a
bool is not a step size or a tolerance."""

import numpy as np
import pytest

from tpcmg import (GammaModelConfig, PdModelConfig, SmootherConfig,
                   ToeplitzSpec, TransientConfig, assemble_pd_system,
                   build_hierarchy, build_step_operator, gamma_coefficients,
                   pd_coefficients, solve)
from tpcmg.bench import run_scaling


def _pd_system():
    return assemble_pd_system(PdModelConfig(N=8, delta=0.25, symmetric=True))


def _solve(**kwargs):
    hier = build_hierarchy(_pd_system().op)
    return solve(hier, np.ones(hier.finest.n), **kwargs)


INTEGER_CALLERS = {
    "ToeplitzSpec.m": ("m", lambda v: ToeplitzSpec(v, np.ones(1))),
    "GammaModelConfig.N": ("N", lambda v: GammaModelConfig(N=v, gamma=0.5)),
    "gamma_coefficients.count": ("count", lambda v: gamma_coefficients(0.5, v)),
    "PdModelConfig.N": ("N", lambda v: PdModelConfig(N=v)),
    "pd_coefficients.r": ("r", lambda v: pd_coefficients(v, True)),
    "build_hierarchy.coarsest_size_limit": (
        "coarsest_size_limit",
        lambda v: build_hierarchy(_pd_system().op, coarsest_size_limit=v)),
    "SmootherConfig.m1": ("m1", lambda v: SmootherConfig(m1=v)),
    "SmootherConfig.m2": ("m2", lambda v: SmootherConfig(m1=1, m2=v)),
    "solve.max_iter": ("max_iter", lambda v: _solve(max_iter=v)),
    "run_scaling.reps": ("reps", lambda v: run_scaling("pd-sym", [16], reps=v)),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("caller", sorted(INTEGER_CALLERS))
def test_bool_count_rejected(caller, value):
    name, call = INTEGER_CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        call(value)


REAL_CALLERS = {
    "TransientConfig.tau": ("tau", lambda v: TransientConfig(tau=v)),
    "TransientConfig.final_time": (
        "final_time", lambda v: TransientConfig(tau=0.25, final_time=v)),
    "build_step_operator.tau": ("tau", lambda v: build_step_operator(_pd_system(), v)),
    "SmootherConfig.omega_pre": ("omega_pre", lambda v: SmootherConfig(omega_pre=v)),
    "SmootherConfig.omega_post": ("omega_post", lambda v: SmootherConfig(omega_post=v)),
    "solve.tol": ("tol", lambda v: _solve(tol=v)),
}


@pytest.mark.parametrize("value", ["a", "1", None, True])
@pytest.mark.parametrize("caller", sorted(REAL_CALLERS))
def test_non_number_real_rejected(caller, value):
    name, call = REAL_CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        call(value)
