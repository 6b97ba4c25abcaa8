"""Damped-Jacobi smoothing, the block-structured V-cycle, and the outer solve.

One V(m1, m2) cycle per level does m1 damped-Jacobi pre-sweeps from the
zero initial guess, restricts the residual, recurses, prolong-corrects and
post-smooths m2 times; the coarsest level is solved with the hierarchy's
dense LU factors.  The cycle below n = 63 (from the first level above the
coarsest with n <= 63 down) is applied as one dense matrix, built on first
use from that same recursion and cached on the hierarchy per smoother,
together with each level's smoother diagonals omega_pre D^{-1} and
omega_post D^{-1}, scaled once so a sweep multiplies by one array.  The
cycle's products come from kernels._level_products: each solve, each
vcycle call and each tail build takes one set, whose small levels share
one transform workspace that lives only as long as that call, so a
hierarchy can serve concurrent calls.  The sweeps and residuals work in
place on the cycle's own iterate and on each fresh product, never on the
right-hand side.  The outer iteration applies cycles to the residual,
whose stop-test product is the public TpcOperator.matvec, until the
Euclidean relative residual drops below the tolerance, or reports why it
stopped short.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .hierarchy import prolong, restrict
from .kernels import _check_instance, _check_integer, _check_real, _level_products

__all__ = [
    "SmootherConfig",
    "SolveReport",
    "SingularSmootherError",
    "vcycle",
    "solve",
]


class SingularSmootherError(Exception):
    """The operator has a zero entry on its main diagonal."""


@dataclass(frozen=True)
class SmootherConfig:
    """Damped-Jacobi parameters; the defaults match the benchmark runs."""

    omega_pre: float = 1.0
    omega_post: float = 0.5
    m1: int = 1
    m2: int = 1

    def __post_init__(self):
        for name in ("omega_pre", "omega_post"):
            omega = getattr(self, name)
            _check_real(name, omega)
            if not (math.isfinite(omega) and omega > 0):
                raise ValueError(f"{name} must be positive and finite, got {omega}")
        for name in ("m1", "m2"):
            _check_integer(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.m1 == 0 and self.m2 == 0:
            raise ValueError("m1 and m2 must not both be 0: the cycle would not smooth")


@dataclass
class SolveReport:
    """Outcome of one outer AMG iteration.

    status says why the iteration stopped:

    - "converged": the relative residual dropped below the tolerance;
    - "stalled": three successive residual ratios above 0.99 with the
      relative residual below 1024 eps (about 2.3e-13): the residual has
      reached roundoff, so this counts as success;
    - "stagnated": the same three ratios with the relative residual
      between that bound and 1: the cycle stopped reducing the residual
      far from roundoff, a failure;
    - "diverged": the residual stopped decreasing, or the iterations ran
      out, above the starting residual;
    - "max_iter": the iterations ran out below the starting residual;
    - "non_finite": the residual became NaN or infinite (checked after
      every cycle, so this stops at once).
    """

    iterations: int
    relative_residuals: list = field(default_factory=list)
    wall_time: float = 0.0
    contraction_estimate: float = 0.0
    status: str = "max_iter"

    @property
    def converged(self):
        """Success: converged, or stalled at roundoff."""
        return self.status in ("converged", "stalled")

    @property
    def stalled(self):
        return self.status == "stalled"


# A stall counts as success only below this relative residual.  Stalls at
# roundoff end near 1e-16 to 1e-15, and at 2e-14 on a gamma = 0.5 step
# operator with tau = 100; a smoother damped to omega = 1e-3 stalls at 0.36.
_STALL_BOUND = 1024 * np.finfo(float).eps

# The tail matrix costs n^2 doubles and n cycles to build: 32 KB at n = 63.
# Peak memory of a pd-sym N = 512 march (tracemalloc, set-up and 16 steps)
# went 0.303 -> 0.330 MB (+9%) when the tail moved from n = 31 to 63.  From
# n = 127 (129 KB), 400 alternating solves of that march's step operator on
# a 2-core VM took 0.79 -> 0.66 ms median (-13% to -16% over four runs), with
# the same cycles and solutions 5.5e-16 apart (relative, not bitwise), and
# the peak rose 0.333 -> 0.432 MB (+30%).
_TAIL_SIZE = 63


def _smoother_diagonals(op, cfg):
    """(omega_pre D^{-1}, omega_post D^{-1}) of one level."""
    d = op.diagonal()
    if np.any(d == 0.0):
        raise SingularSmootherError("zero diagonal entry in smoother")
    dinv = 1.0 / d
    return cfg.omega_pre * dinv, cfg.omega_post * dinv


@dataclass
class _CycleCache:
    """What one smoother's cycles on one hierarchy reuse: the smoother
    diagonals (omega_pre D^{-1}, omega_post D^{-1}) of every level above the
    coarsest, and the matrix of the cycle from level tail_level down (unset
    while it is being built)."""

    diagonals: list
    tail_level: int | None = None
    tail: np.ndarray | None = None


def _cycle_cache(hier, cfg):
    cache = hier.cycle_cache.get(cfg)
    if cache is None:
        above = hier.levels[:-1]
        cache = _CycleCache([_smoother_diagonals(op, cfg) for op in above])
        small = [k for k, op in enumerate(above) if op.n <= _TAIL_SIZE]
        if small:
            k, n = small[0], above[small[0]].n
            products = _products(hier, cache, k)
            tail, e = np.empty((n, n)), np.zeros(n)
            for j in range(n):      # column by column: no n x n identity
                e[j] = 1.0
                tail[:, j] = _cycle(hier, k, e, cfg, cache, products)
                e[j] = 0.0
            cache.tail_level, cache.tail = k, tail
        hier.cycle_cache[cfg] = cache
    return cache


def _products(hier, cache, start=0):
    """The products x -> op x that cycles from level start use, indexed by
    level (None above start): one kernels._level_products set, whose
    transform workspace belongs to the calling solve, vcycle or tail
    build alone."""
    stop = hier.depth - 1 if cache.tail_level is None else cache.tail_level
    return [None] * start + _level_products(hier.levels[start:stop])


def _cycle(hier, k, b, cfg, cache, products):
    if k == cache.tail_level:
        return cache.tail @ b
    if k == hier.depth - 1:
        # unchecked: a NaN here propagates to the solve's non_finite status
        return sla.lu_solve(hier.coarsest_lu, b, check_finite=False)
    product = products[k]
    pre, post = cache.diagonals[k]
    # first pre-sweep from the zero guess needs no product
    x = pre * b if cfg.m1 > 0 else np.zeros_like(b)
    for _ in range(cfg.m1 - 1):
        _smooth(product, x, b, pre)
    e = _cycle(hier, k + 1, restrict(_residual(product, x, b)), cfg, cache, products)
    x += prolong(e)
    for _ in range(cfg.m2):
        _smooth(product, x, b, post)
    return x


def _residual(product, x, b):
    """b - product(x), computed in the fresh product; b is not written."""
    r = product(x)
    np.subtract(b, r, out=r)
    return r


def _smooth(product, x, b, wdinv):
    """One damped-Jacobi sweep x += (omega D^{-1}) (b - op x), in place on
    x and on the residual buffer, with wdinv = omega D^{-1} from the cycle
    cache.  Whenever omega is a power of two this is bitwise the product
    scaled by D^{-1} and then by omega."""
    r = _residual(product, x, b)
    r *= wdinv
    x += r


def _smoother(cfg):
    """cfg, or the default SmootherConfig for None; anything else that is
    not a SmootherConfig is rejected."""
    if cfg is None:
        return SmootherConfig()
    _check_instance("smoother", cfg, SmootherConfig)
    return cfg


def _rhs_array(n, b):
    """b as a float array, checked against the system size n."""
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    if not np.isfinite(b).all():
        raise ValueError("b has non-finite entries")
    return b


def vcycle(hier, b, cfg=None):
    """One V(m1, m2) cycle for the finest system, zero initial guess."""
    cfg = _smoother(cfg)
    b = _rhs_array(hier.finest.n, b)
    cache = _cycle_cache(hier, cfg)
    return _cycle(hier, 0, b, cfg, cache, _products(hier, cache))


def _check_stopping(tol, max_iter):
    """Reject a stopping rule that solve cannot meet: tol must be positive
    (not NaN) and max_iter an integer at least 1."""
    _check_real("tol", tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _check_integer("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def solve(hier, b, cfg=None, tol=1e-15, max_iter=200):
    """Iterate x <- x + Vcycle(b - op x) until ||r||/||r0|| < tol.

    Returns (x, SolveReport); report.status says how the iteration ended
    (see SolveReport).  Running out of iterations, divergence and a
    non-finite residual are reported, not raised; a bad b, tol or max_iter
    raises ValueError.  b is never written.
    """
    cfg = _smoother(cfg)
    _check_stopping(tol, max_iter)
    b = _rhs_array(hier.finest.n, b)
    op = hier.finest

    start = time.perf_counter()
    x = np.zeros_like(b)
    r0 = math.sqrt(b.dot(b))
    report = SolveReport(iterations=0)
    if r0 == 0.0:
        report.status = "converged"
        report.wall_time = time.perf_counter() - start
        return x, report

    cache = _cycle_cache(hier, cfg)
    products = _products(hier, cache)
    r, rel = b, 1.0
    history = report.relative_residuals
    for it in range(1, max_iter + 1):
        x += _cycle(hier, 0, r, cfg, cache, products)
        # the stop test's residual by the public matvec
        r = _residual(op.matvec, x, b)
        # sqrt(r.r): bitwise np.linalg.norm(r), without its dispatch
        rel = math.sqrt(r.dot(r)) / r0
        history.append(rel)
        report.iterations = it
        if not math.isfinite(rel):
            report.status = "non_finite"
            break
        if rel < tol:
            report.status = "converged"
            break
        if len(history) >= 4 and all(
                history[-k] > 0.99 * history[-k - 1] for k in (1, 2, 3)):
            report.status = ("diverged" if rel > 1.0 else
                             "stagnated" if rel >= _STALL_BOUND else "stalled")
            break
    else:
        report.status = "diverged" if rel > 1.0 else "max_iter"
    report.wall_time = time.perf_counter() - start
    if history:
        report.contraction_estimate = history[-1] ** (1.0 / len(history))
    return x, report

