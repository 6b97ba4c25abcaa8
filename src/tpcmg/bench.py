"""Benchmark runners: convergence tables, theory certification, scaling.

run_table produces the standard convergence-study layout (max-norm error at
T = 1, observed order, solve-phase wall time, average AMG iterations per
step with tau = h = 1/N); run_verify evaluates the dense convergence-theory
checks; run_scaling measures set-up, matvec and V-cycle cost growth.  Output is
CSV, JSON or pretty text; error/rate/iteration columns are deterministic.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .gamma_model import GammaModelConfig, assemble_gamma_system
from .hierarchy import build_hierarchy
from .kernels import _check_integer
from .oracle import certify_section4, gamma_dense_reference, pd_dense_reference
from .peridynamic import PdModelConfig, assemble_pd_system
from .solver import vcycle
from .timestepper import (TransientConfig, bdf4_march, build_step_operator,
                          gamma_manufactured_problem, pd_manufactured_problem)

__all__ = [
    "BenchRow",
    "model_config",
    "run_table",
    "run_verify",
    "run_scaling",
    "rows_to_csv",
    "table_json",
]

MODELS = ("gamma", "pd-nonsym", "pd-sym")


@dataclass
class BenchRow:
    N: int
    error: float
    rate: float | None
    cpu: float
    iter: float
    wall: float = 0.0


def model_config(model, N, gamma=0.0, delta=0.25):
    """The configuration of one model at grid size N; raises ValueError
    for an unknown model or invalid parameters."""
    if model == "gamma":
        return GammaModelConfig(N=N, gamma=gamma)
    if model in ("pd-nonsym", "pd-sym"):
        return PdModelConfig(N=N, delta=delta, symmetric=(model == "pd-sym"))
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _make_problem(model, N, gamma, delta):
    cfg = model_config(model, N, gamma, delta)
    if model == "gamma":
        return gamma_manufactured_problem(cfg)
    return pd_manufactured_problem(cfg)


def run_table(model, Ns, gamma=0.0, delta=0.25, tol=1e-15, max_iter=200,
              smoother=None, coarsest=7):
    """March each N with tau = h = 1/N to T = 1 and collect a table row.

    The cpu column is the wall time of the solve phase only (assembly and
    hierarchy construction excluded); the wall column is the whole march,
    assembly included.  Rows fail soft: a non-convergent solve gives the
    row a nan error and leaves its rate and the next row's rate unset, and
    the run continues.
    """
    rows = []
    prev_N = prev_error = None
    for N in Ns:
        t0 = time.perf_counter()
        problem = _make_problem(model, N, gamma, delta)
        assembly = time.perf_counter() - t0
        cfg = TransientConfig(tau=1.0 / N, final_time=1.0)
        result = bdf4_march(problem, cfg, smoother=smoother, tol=tol,
                            max_iter=max_iter, coarsest=coarsest)
        bad = any(not rep.converged for rep in result.reports)
        error = float("nan") if bad else float(result.max_error)
        # observed order: error reduction per halving of h, between two
        # converged rows only
        rate = None
        if not bad and prev_error is not None and N != prev_N:
            rate = float(np.log2(prev_error / error) / np.log2(N / prev_N))
        rows.append(BenchRow(N=N, error=error, rate=rate,
                             cpu=result.solve_time,
                             iter=result.avg_iterations,
                             wall=assembly + result.wall_time))
        prev_N, prev_error = N, None if bad else error
    return rows


def rows_to_csv(rows):
    buf = io.StringIO()
    buf.write("N,error,rate,cpu,iter\n")
    for r in rows:
        rate = "" if r.rate is None else f"{r.rate:.4f}"
        buf.write(f"{r.N},{r.error:.6e},{rate},{r.cpu:.4f},{r.iter:.2f}\n")
    return buf.getvalue()


def table_json(model, params, rows):
    return {
        "model": model,
        "params": params,
        "rows": [
            {"N": r.N, "error": r.error, "rate": r.rate, "cpu": r.cpu, "iter": r.iter,
             "wall": r.wall}
            for r in rows
        ],
    }


def rows_pretty(rows):
    lines = [f"{'N':>6} {'error':>12} {'rate':>7} {'cpu[s]':>9} {'iter':>6} {'wall[s]':>9}"]
    for r in rows:
        rate = "  --- " if r.rate is None else f"{r.rate:6.3f}"
        lines.append(f"{r.N:>6} {r.error:12.4e} {rate:>7} {r.cpu:9.3f} {r.iter:6.2f} "
                     f"{r.wall:9.3f}")
    return "\n".join(lines)


def run_verify(model, N, gamma=0.0, delta=0.25, r=None):
    """Certification report for one configuration.

    The SPD theory checks apply to the symmetric peridynamic variant only;
    for the other models they are reported as skipped.  An assembly check
    (structured representation against the dense reference) runs for every
    model.  Returns (lines, passed).
    """
    cfg = model_config(model, N, gamma, delta if r is None else r / N)
    if model == "gamma":
        dense = assemble_gamma_system(cfg).op.dense()
        ref, _ = gamma_dense_reference(cfg)
    else:
        dense = assemble_pd_system(cfg).op.dense()
        ref = pd_dense_reference(cfg)
    err = float(np.abs(dense - ref).max())
    passed = err <= 1e-12 * max(1.0, np.abs(ref).max())
    lines = [f"{'PASS' if passed else 'FAIL'}  assembly matches dense reference: "
             f"max abs diff = {err:.3e}"]
    if model != "pd-sym":
        for name in ("positive definiteness", "lambda_max(D^{-1} A)",
                     "smoothing inequality", "approximation constant",
                     "two-grid ||E||_A"):
            lines.append(f"SKIP  {name}: nonsymmetric: not applicable")
        return lines, passed
    report = certify_section4(cfg)
    lines.extend(report.lines())
    passed &= report.passed
    return lines, passed


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_scaling(model, Ns, gamma=0.0, delta=0.25, reps=5, coarsest=7,
                dense_compare_N=None):
    """Time set-up, one structured matvec and one V-cycle per N (median of
    reps); set-up is assembly, the tau = h step operator and the hierarchy
    build.

    Returns a dict with per-N timings, consecutive time(2N)/time(N) growth
    ratios, hierarchy storage counts, and optionally a dense comparison:
    the dense path materializes the operator and multiplies, which is what
    the structured representation avoids.
    """
    _check_integer("reps", reps)
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    rows = []
    for N in Ns:
        def setup():
            problem = _make_problem(model, N, gamma, delta)
            return build_hierarchy(build_step_operator(problem.system, 1.0 / N),
                                   coarsest)

        hier = setup()
        op = hier.finest
        rng = np.random.default_rng(0)
        x = rng.standard_normal(op.n)
        op.matvec(x)                      # warm the cached transforms
        vcycle(hier, x)
        t_mv = _median_time(lambda: op.matvec(x), reps)
        t_vc = _median_time(lambda: vcycle(hier, x), reps)
        t_setup = _median_time(setup, reps)
        rows.append({"N": N, "n": op.n, "setup": t_setup, "matvec": t_mv,
                     "vcycle": t_vc, "storage": hier.coefficient_storage(),
                     "levels": hier.depth})
    ratios = []
    for a, b in zip(rows, rows[1:]):
        if b["N"] == 2 * a["N"]:
            ratios.append({"N": a["N"]} | {key: b[key] / a[key] for key in
                                           ("setup", "matvec", "vcycle")})
    out = {"model": model, "rows": rows, "ratios": ratios}
    if dense_compare_N is not None:
        problem = _make_problem(model, dense_compare_N, gamma, delta)
        op = build_step_operator(problem.system, 1.0 / dense_compare_N)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(op.n)
        op.matvec(x)
        t_fast = _median_time(lambda: op.matvec(x), reps)
        t_dense = _median_time(lambda: op.dense() @ x, reps)
        out["dense_compare"] = {"N": dense_compare_N, "fast": t_fast,
                                "dense": t_dense, "speedup": t_dense / t_fast}
    return out
