"""Collocation system for the nonlocal diffusion model with |x-y|^(-gamma) kernel.

Piecewise-quadratic collocation of the stationary operator

    Ku(x) = int_0^1 (u(x) - u(y)) |x - y|^(-gamma) dy

on a uniform grid produces a nonsymmetric, indefinite block system

    A_h U = eta_{h,gamma} * (F + K),

where A_h is a diagonal matrix minus a 2x2 block-Toeplitz arrangement; here
A_h is represented as a Toeplitz-plus-Cross operator plus a bandwidth-0
correction holding the (non-Toeplitz) diagonal.  The boundary vector K is
kept in forcing units, i.e. op @ U = scale * (F + K) holds exactly for
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .kernels import BandedCorrection, _check_integer, _check_real, _tpc_from_tables

__all__ = [
    "GammaModelConfig",
    "GammaCoefficients",
    "gamma_coefficients",
    "GammaSystem",
    "assemble_gamma_system",
    "gamma_exact_forcing",
]


@dataclass(frozen=True)
class GammaModelConfig:
    """Grid and kernel parameters on the domain (0, 1); N must be a power
    of two >= 4."""

    N: int
    gamma: float

    def __post_init__(self):
        _check_integer("N", self.N)
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        # gamma = 0 is admitted: the coefficient formulas are continuous there
        # and the reported experiments include it.
        _check_real("gamma", self.gamma)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma!r}")

    @property
    def h(self):
        return 1.0 / self.N

    @property
    def grid(self):
        """Collocation points in block order: integer nodes then half nodes."""
        h = self.h
        xv = np.arange(1, self.N) * h
        xw = (np.arange(self.N) + 0.5) * h
        return np.concatenate([xv, xw])


@dataclass
class GammaCoefficients:
    """Generating coefficients for grid parameter N.

    m (N-1), n (N), p (N-1), q (N-1) generate the four interaction blocks;
    d holds d_{i/2} for i = 1..2N-1 (diagonal, half-index order) and eta
    the boundary weights eta_{i/2} on the same index set.
    """

    m: np.ndarray
    n: np.ndarray
    p: np.ndarray
    q: np.ndarray
    d: np.ndarray
    eta: np.ndarray


def gamma_coefficients(gamma, count):
    """All generating coefficients of the collocation matrix for grid count.

    The interior tables follow the closed forms

        m_0 = 2(1+gamma),
        m_k = 4[(k+1)^{3-g} - (k-1)^{3-g}]
              - (3-g)[(k+1)^{2-g} + 6 k^{2-g} + (k-1)^{2-g}],   k >= 1,
        q_k = -8[(k+1)^{3-g} - k^{3-g}] + 4(3-g)[(k+1)^{2-g} + k^{2-g}],
        p_k = m_{k+1/2}  and  n_k = q_{k-1/2}  for k >= 1,

    with the two origin-adjacent values n_0 = (2-g) 2^{g+1} and
    p_0 = 2^{g-2} (9 (3+g) 3^{-g} + 7 g - 19), where the kernel singularity
    sits inside the basis support.  The diagonal and boundary weights are

        d_{i/2}  = (3-g)(2-g) [ (i/2)^{1-g} + (N - i/2)^{1-g} ],
        eta_k    = 4[k^{3-g} - (k-1)^{3-g}]
                   - (3-g)[3 k^{2-g} + (k-1)^{2-g} - (2-g) k^{1-g}],  k >= 1,
        eta_{1/2} = (2-g)(1-g) 2^{g-1},

    evaluated at half-integer arguments k = i/2.  Every formula is certified
    against an adaptive-quadrature assembly of the basis integrals in the
    test suite.

    The arguments are all half-integers j/2 with 0 <= j <= 2N + 2, so the
    three powers (j/2)^{3-g}, (j/2)^{2-g} and (j/2)^{1-g} are computed once
    each into one half-integer power table, and each family reads shifted
    slices of it (stride 2 for the block tables, stride 1 for eta).
    """
    _check_real("gamma", gamma)
    g = float(gamma)
    if not 0.0 <= g < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    _check_integer("count", count)
    N = int(count)
    if N < 1:
        raise ValueError("count must be >= 1")
    s3, s2, s1 = 3.0 - g, 2.0 - g, 1.0 - g
    half = np.arange(2 * N + 3) / 2.0
    t3, t2, t1 = half ** s3, half ** s2, half ** s1

    # arguments(start, count, step) stands for k = j/2, j = start,
    # start + step, ... (count of them); the reader it returns, at(t, o),
    # gives table t at the arguments k + o/2.
    def arguments(start, count, step=2):
        return lambda t, o=0: t[start + o:start + o + step * count:step]

    def mfun(at):
        return 4.0 * (at(t3, 2) - at(t3, -2)) \
            - s3 * (at(t2, 2) + 6.0 * at(t2) + at(t2, -2))

    def qfun(at):
        return -8.0 * (at(t3, 2) - at(t3)) + 4.0 * s3 * (at(t2, 2) + at(t2))

    def etafun(at):
        return 4.0 * (at(t3) - at(t3, -2)) \
            - s3 * (3.0 * at(t2) + at(t2, -2) - s2 * at(t1))

    inner = max(N - 2, 0)
    m = np.concatenate([[2.0 * (1.0 + g)], mfun(arguments(2, inner))])
    n = np.concatenate([[s2 * 2.0 ** (g + 1.0)], qfun(arguments(1, N - 1))])
    p0 = 2.0 ** (g - 2.0) * (9.0 * (3.0 + g) * 3.0 ** (-g) + 7.0 * g - 19.0)
    p = np.concatenate([[p0], mfun(arguments(3, inner))])
    q = qfun(arguments(0, max(N - 1, 1)))

    d = s3 * s2 * (t1[1:2 * N] + t1[2 * N - 1:0:-1])    # i/2 and N - i/2
    eta = np.concatenate([[s2 * s1 * 2.0 ** (g - 1.0)],
                          etafun(arguments(2, 2 * N - 2, 1))])
    return GammaCoefficients(m=m, n=n, p=p, q=q, d=d, eta=eta)


class GammaSystem:
    """Collocation system A_h = diag(D1, D2) - [M Q; P N], kept as its
    tables: cfg, scale, ``tables`` (-m, -q, -p, -n, read-only), ``banded``
    (the diagonal as a bandwidth-0 BandedCorrection) and eta, the one
    coefficient table boundary_vector reads."""

    def __init__(self, cfg, tables, banded, scale, eta):
        self.cfg = cfg
        self.tables = tables
        self.banded = banded
        self.scale = scale
        self.eta = eta

    @property
    def op(self):
        """The stationary operator, assembled from the tables on each
        access and not kept."""
        return _tpc_from_tables(self.cfg.N - 1, *self.tables, self.banded)

    def boundary_vector(self, u_a, u_b):
        """Boundary contribution K(u_a, u_b) in forcing units, so that the
        assembled system reads op @ U = scale * (F + K)."""
        ev = self.eta[1::2]       # integer rows: eta_1 .. eta_{N-1}
        ew = self.eta[0::2]       # half rows: eta_{1/2} .. eta_{N-1/2}
        kv = ev * u_a + ev[::-1] * u_b
        kw = ew * u_a + ew[::-1] * u_b
        return np.concatenate([kv, kw]) / self.scale


def assemble_gamma_system(cfg):
    """Assemble the gamma-kernel system as its tables.

    Its operator is the Toeplitz-plus-Cross part -[M Q; P N], built from
    the tables -m, -q, -p, -n by kernels._tpc_from_tables, plus the
    diagonal diag(D1, D2) in a bandwidth-0 BandedCorrection, because it is
    not constant along diagonals for gamma > 0.
    """
    N = cfg.N
    co = gamma_coefficients(cfg.gamma, N)
    tables = (-co.m, -co.q, -co.p, -co.n)
    for table in tables:
        table.flags.writeable = False
    banded = BandedCorrection(2 * N - 1, {0: np.concatenate([co.d[1::2], co.d[0::2]])})
    scale = (3.0 - cfg.gamma) * (2.0 - cfg.gamma) * (1.0 - cfg.gamma) / cfg.h ** (1.0 - cfg.gamma)
    return GammaSystem(cfg, tables, banded, scale, co.eta)


def gamma_exact_forcing(x, t, gamma):
    """Forcing of the manufactured solution u(x,t) = e^t (1+x)^6 on (0, 1).

    f = u_t + Ku with Ku(x) = int_0^1 (u(x) - u(y)) |x-y|^(-gamma) dy; the
    integral is evaluated in closed form by binomial expansion of the
    degree-6 polynomial (each term carries the integrable factor
    |x-y|^{j+1-gamma}, j >= 1, so the sum is finite):

        f = e^t [ (1+x)^6 - sum_{j=1}^{6} C(6,j) (1+x)^{6-j}
                  ((-1)^j x^{j+1-g} + (1-x)^{j+1-g}) / (j+1-g) ].
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for j in range(1, 7):
        e = j + 1.0 - gamma
        acc += comb(6, j) * (1.0 + x) ** (6 - j) \
            * ((-1.0) ** j * x ** e + (1.0 - x) ** e) / e
    return np.exp(t) * ((1.0 + x) ** 6 - acc)
