"""Integer and real parameters are rejected by name at the API boundary
when they have the wrong type: a bool is not a count, and a string or a
bool is not a step size or a tolerance; nor is a string, a dict or a
zero a smoother, a finest level, a system, a problem or a configuration,
nor one model's system or configuration the other's.  Values of the right
type but outside what the API accepts are rejected with a message of
their own."""

import re

import numpy as np
import pytest

from tpcmg import (BandedCorrection, GammaModelConfig, Hierarchy,
                   PdModelConfig, SmootherConfig, ToeplitzSpec, TpcOperator,
                   TransientConfig, assemble_gamma_system, assemble_pd_system,
                   bdf4_march, build_hierarchy, build_step_operator,
                   coarsen_banded, fold_boundary_rhs, gamma_coefficients,
                   pd_coefficients, pd_manufactured_problem, sample_collar,
                   solve, vcycle)
from tpcmg.bench import run_scaling, run_table
from tpcmg.oracle import certify_section4, dense_galerkin

from conftest import zero_spec


def _pd_system():
    return assemble_pd_system(PdModelConfig(N=8, delta=0.25, symmetric=True))


def _hierarchy():
    return build_hierarchy(_pd_system().op)


def _pd_problem():
    return pd_manufactured_problem(PdModelConfig(N=8))


def _solve(**kwargs):
    hier = _hierarchy()
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
    "GammaModelConfig.gamma": ("gamma", lambda v: GammaModelConfig(N=8, gamma=v)),
    "gamma_coefficients.gamma": ("gamma", lambda v: gamma_coefficients(v, 8)),
    "PdModelConfig.delta": ("delta", lambda v: PdModelConfig(N=8, delta=v)),
}


@pytest.mark.parametrize("value", ["a", "1", None, True])
@pytest.mark.parametrize("caller", sorted(REAL_CALLERS))
def test_non_number_real_rejected(caller, value):
    name, call = REAL_CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        call(value)


INSTANCE_CALLERS = {
    "solve.cfg": ("smoother", "SmootherConfig",
                  lambda v: solve(_hierarchy(), np.ones(15), v)),
    "vcycle.cfg": ("smoother", "SmootherConfig",
                   lambda v: vcycle(_hierarchy(), np.ones(15), v)),
    "bdf4_march.smoother": ("smoother", "SmootherConfig", lambda v: bdf4_march(
        _pd_problem(), TransientConfig(tau=0.125), smoother=v)),
    "run_table.smoother": ("smoother", "SmootherConfig",
                           lambda v: run_table("pd-sym", [8], smoother=v)),
    "build_hierarchy.finest": ("finest", "TpcOperator", build_hierarchy),
    "bdf4_march.problem": ("problem", "TransientProblem",
                           lambda v: bdf4_march(v, TransientConfig(tau=0.125))),
    "bdf4_march.cfg": ("cfg", "TransientConfig", lambda v: bdf4_march(_pd_problem(), v)),
    "build_step_operator.system": ("system", "PdSystem or GammaSystem",
                                   lambda v: build_step_operator(v, 0.1)),
    "fold_boundary_rhs.system": ("system", "PdSystem", lambda v: fold_boundary_rhs(
        v, np.zeros(15), np.zeros(6))),
    "sample_collar.cfg": ("cfg", "PdModelConfig", lambda v: sample_collar(v, np.cos)),
}


@pytest.mark.parametrize("value", ["fast", {"omega_pre": 1.0}, {}, 0])
@pytest.mark.parametrize("caller", sorted(INSTANCE_CALLERS))
def test_wrong_instance_rejected(caller, value):
    name, kind, call = INSTANCE_CALLERS[caller]
    message = re.escape(f"{name} must be a {kind}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


def _gamma_system():
    return assemble_gamma_system(GammaModelConfig(N=8, gamma=0.5))


# one model's objects, or a number, where another type is expected
WRONG_KIND_CALLS = {
    "fold_boundary_rhs.gamma_system": (
        "system", "PdSystem", _gamma_system,
        lambda v: fold_boundary_rhs(v, np.zeros(15), np.zeros(6))),
    "sample_collar.gamma_cfg": (
        "cfg", "PdModelConfig", lambda: GammaModelConfig(N=8, gamma=0.5),
        lambda v: sample_collar(v, np.cos)),
    "bdf4_march.cfg_float": ("cfg", "TransientConfig", lambda: 0.25,
                             lambda v: bdf4_march(_pd_problem(), v)),
    "bdf4_march.problem_system": (
        "problem", "TransientProblem", _pd_system,
        lambda v: bdf4_march(v, TransientConfig(tau=0.125))),
    "build_step_operator.gamma_cfg": (
        "system", "PdSystem or GammaSystem", lambda: GammaModelConfig(N=8, gamma=0.5),
        lambda v: build_step_operator(v, 0.1)),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND_CALLS))
def test_wrong_kind_rejected(case):
    name, kind, make_value, call = WRONG_KIND_CALLS[case]
    value = make_value()
    message = re.escape(f"{name} must be a {kind}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


def _tpc(m, *, block_m=None, p_len=None, banded=None):
    """A TpcOperator of half-size m with one piece of the wrong size."""
    zeros = np.zeros(m)
    return TpcOperator(zero_spec(m), zero_spec(block_m or m), zero_spec(m), zero_spec(m),
                       np.zeros(p_len or m), zeros, zeros, zeros, 1.0,
                       banded=banded)


REJECTED_CALLS = {
    "TransientConfig.tau=0": (
        "tau must be positive", lambda: TransientConfig(tau=0.0)),
    "TransientConfig.tau<0": (
        "tau must be positive", lambda: TransientConfig(tau=-0.25)),
    "build_hierarchy.limit=2": (
        "coarsest size limit must be at least 3",
        lambda: build_hierarchy(_pd_system().op, 2)),
    "Hierarchy.empty": ("empty hierarchy", lambda: Hierarchy([])),
    "Hierarchy.not_halving": (
        "level sizes must halve: 15 -> 15",
        lambda: Hierarchy([_pd_system().op] * 2)),
    "ToeplitzSpec.coeffs": (
        r"coeffs must have length 2m-1=5, got \(4,\)",
        lambda: ToeplitzSpec(3, np.zeros(4))),
    "TpcOperator.block_m": (
        "all Toeplitz blocks must share the half-size m",
        lambda: _tpc(3, block_m=2)),
    "TpcOperator.cross": (
        "cross vector p must have length 3", lambda: _tpc(3, p_len=2)),
    "TpcOperator.banded": (
        "banded correction size 5 != 7",
        lambda: _tpc(3, banded=BandedCorrection(5, {0: np.ones(5)}))),
    "gamma_coefficients.count=0": (
        "count must be >= 1", lambda: gamma_coefficients(0.5, 0)),
    "coarsen_banded.even": (
        "cannot coarsen banded correction of size 8",
        lambda: coarsen_banded(BandedCorrection(8, {0: np.ones(8)}))),
    "dense_galerkin.non_square": (
        "dense_galerkin needs a square matrix",
        lambda: dense_galerkin(np.zeros((7, 5)))),
    "certify_section4.N=128": (
        "certification is a dense check; use N <= 64",
        lambda: certify_section4(PdModelConfig(N=128))),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
def test_out_of_range_rejected(case):
    message, call = REJECTED_CALLS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
