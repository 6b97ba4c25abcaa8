"""Generate the pinned outputs: the tables, marches, V-cycles, boundary
folds and level products that the code must reproduce bitwise.

    PYTHONPATH=src python tests/pinned_outputs.py

recomputes them and rewrites pinned_outputs.json beside this file;
test_pinned_outputs.py recomputes them and compares.  Arrays are kept as
SHA-256 digests of their raw float64 bytes (iteration counts as int64),
each table also as the CSV text of its N, error, rate and iter columns so
that a diff reads.  Rounding can differ with the library versions, the
CPU (the SIMD kernels numpy and the transforms pick at run time) and the
BLAS thread count (a dot product longer than about 10^4 entries is summed
in one piece per thread), so the file records the machine it was made on.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from tpcmg import (GammaModelConfig, PdModelConfig, TransientConfig, bdf4_march,
                   build_hierarchy, build_step_operator, gamma_manufactured_problem,
                   pd_manufactured_problem, vcycle)
from tpcmg.bench import rows_to_csv, run_table

REFERENCE = Path(__file__).with_suffix(".json")

TABLE_NS = (32, 64, 128, 256)
TABLES = {
    "gamma-0": ("gamma", {"gamma": 0.0}),
    "gamma-half": ("gamma", {"gamma": 0.5}),
    "pdsym-quarter": ("pd-sym", {"delta": 0.25}),
    "pdsym-sqrth": ("pd-sym", {"delta": "sqrt-h"}),
    "pdnonsym-quarter": ("pd-nonsym", {"delta": 0.25}),
    "pdnonsym-sqrth": ("pd-nonsym", {"delta": "sqrt-h"}),
}
# the benchmark's marches: (problem, steps at tau = h)
MARCHES = {
    "pdsym-quarter-512": (lambda: pd_manufactured_problem(
        PdModelConfig(N=512, delta=0.25, symmetric=True)), 512),
    "pdnonsym-sqrth-512": (lambda: pd_manufactured_problem(
        PdModelConfig(N=512, delta="sqrt-h", symmetric=False)), 512),
    "gamma-half-32k": (lambda: gamma_manufactured_problem(
        GammaModelConfig(N=2 ** 15, gamma=0.5)), 32),
}
FOLD_TIMES = (0.0, 0.25, 1.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine():
    """What the rounding depends on: the library versions, the CPU, the
    SIMD extensions numpy dispatches to and the BLAS thread settings."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:                 # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu": model, "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "simd": sorted(name for name, found in features.items() if found)}


def digest(array, dtype=np.float64):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def table_entries(name, model, params):
    rows = run_table(model, TABLE_NS, **params)
    csv = "".join(",".join(line.split(",")[i] for i in (0, 1, 2, 4)) + "\n"
                  for line in rows_to_csv(rows).splitlines())
    raw = [(row.error, np.nan if row.rate is None else row.rate, row.iter) for row in rows]
    return {f"table/{name}/csv": csv, f"table/{name}/raw": digest(raw)}


def march_entries(name, make_problem, steps):
    """The march's u_final, per-step iterations and max_error; on its step
    hierarchy, one V-cycle and every level's matvec on seeded vectors; for
    the peridynamic problems the folded right-hand side at FOLD_TIMES."""
    problem = make_problem()
    tau = 1.0 / problem.system.cfg.N
    result = bdf4_march(problem, TransientConfig(tau=tau, final_time=steps * tau))
    out = {f"march/{name}/u_final": digest(result.u_final),
           f"march/{name}/iterations": digest(result.iterations, np.int64),
           f"march/{name}/max_error": repr(result.max_error)}
    hier = build_hierarchy(build_step_operator(problem.system, tau))
    rng = np.random.default_rng(20240817)
    out[f"vcycle/{name}"] = digest(vcycle(hier, rng.standard_normal(hier.finest.n)))
    for op in hier.levels:
        out[f"matvec/{name}/n{op.n}"] = digest(op.matvec(rng.standard_normal(op.n)))
    if isinstance(problem.system.cfg, PdModelConfig):
        for t in FOLD_TIMES:
            out[f"fold/{name}/t{t}"] = digest(problem.rhs(t))
    return out


def compute():
    entries = {}
    for name, (model, params) in TABLES.items():
        entries.update(table_entries(name, model, params))
    for name, (make_problem, steps) in MARCHES.items():
        entries.update(march_entries(name, make_problem, steps))
    return entries


def main():
    REFERENCE.write_text(json.dumps({"machine": machine(), "entries": compute()},
                                    indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
