"""Collocation systems for the constant-kernel peridynamic model.

Piecewise-quadratic collocation of

    K_d u(x) = int_{|y-x|<delta} 3 delta^{-3} (u(x) - u(y)) dy

on (0, 1) with volume constraints on the collars [-delta, 0] and
[1, 1+delta] yields either the nonsymmetric indefinite system or the
shifted-symmetric SPD system, both pure Toeplitz-plus-Cross (no banded
part), scaled so that  op @ U = eta_h * F_folded  with eta_h = 2 delta^3/h.

The integer coefficient lists assume the horizon is a whole number of
cells; the model therefore works with the effective horizon r*h (for
delta = 1/4 on the benchmark grids the two coincide, and for
delta = sqrt(h) this is what reproduces the reported convergence orders).

F_folded is the forcing minus the collar data's exterior-stencil sums;
fold_boundary_rhs computes them as one kernels block product per collar
side, in O(r log r) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (_block_product, _check_integer, _check_real, _embedded_symbols,
                      _embedding_length, _tpc_from_tables)

__all__ = [
    "PdModelConfig",
    "PdCoefficients",
    "pd_coefficients",
    "PdSystem",
    "assemble_pd_system",
    "sample_collar",
    "fold_boundary_rhs",
    "pd_exact_forcing",
]

SQRT_H = "sqrt-h"


@dataclass(frozen=True)
class PdModelConfig:
    """Grid, horizon and variant selection.

    delta is either a positive number or the string "sqrt-h".  The mesh
    ratio is r = floor(delta/h) (and r = 1 whenever delta <= h); for the
    symbolic horizon, r = floor(sqrt(N)) exactly.
    """

    N: int
    delta: float | str = 0.25
    symmetric: bool = True

    def __post_init__(self):
        _check_integer("N", self.N)
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if self.delta != SQRT_H:
            _check_real("delta", self.delta)
            if not 0 < self.delta < math.inf:
                raise ValueError(f"delta must be positive and finite or '{SQRT_H}', "
                                 f"got {self.delta!r}")
        if self.r + 2 > self.N:
            raise ValueError(
                f"stencil overflow: r+2 = {self.r + 2} exceeds N = {self.N}")

    @property
    def h(self):
        return 1.0 / self.N

    @property
    def r(self):
        if self.delta == SQRT_H:
            return max(1, math.isqrt(self.N))
        d = float(self.delta)
        if d <= self.h:
            return 1
        return max(1, int(math.floor(d / self.h + 1e-12)))

    @property
    def delta_eff(self):
        """Horizon actually discretized: r*h (see module docstring)."""
        return self.r * self.h

    @property
    def eta(self):
        """Right-hand-side scale eta_h = 2 delta^3 / h."""
        return 2.0 * self.delta_eff ** 3 / self.h

    @property
    def grid(self):
        h = self.h
        xv = np.arange(1, self.N) * h
        xw = (np.arange(self.N) + 0.5) * h
        return np.concatenate([xv, xw])


@dataclass
class PdCoefficients:
    """Stencil weights: a (r+1, integer offsets) and a_half (r, half
    offsets) of the v rows; c (r+1, half offsets) and d (r+1, integer
    offsets) of the w rows."""

    a: np.ndarray
    a_half: np.ndarray
    c: np.ndarray
    d: np.ndarray


def pd_coefficients(r, symmetric):
    """Integer and half-integer coefficient tables for mesh ratio r.

    a_0 = 12r-2, a_m = -2 (1 <= m <= r-1), a_r = -1, a_{m+1/2} = -4;
    nonsymmetric w-rows have c_m = -2 (0 <= m <= r-2), c_{r-1} = -9/4,
    c_r = 1/4 and d_0 = 12r-4, d_m = -4, d_r = -2.  Where the ranges
    collide at small r the later, more specific assignments win (r = 1
    leaves the generic ranges empty).  The shifted-symmetric w-rows mirror
    the v rows: c = (a_{1/2}, .., a_{r-1/2}, 0) and d = a.
    """
    _check_integer("r", r)
    r = int(r)
    if r < 1:
        raise ValueError(f"mesh ratio r must be >= 1, got {r}")
    a = np.full(r + 1, -2.0)
    a[0] = 12.0 * r - 2.0
    a[r] = -1.0
    a_half = np.full(r, -4.0)
    if symmetric:
        return PdCoefficients(a=a, a_half=a_half, c=np.append(a_half, 0.0), d=a.copy())
    c = np.full(r + 1, -2.0)
    c[r - 1] = -9.0 / 4.0
    c[r] = 1.0 / 4.0
    d = np.full(r + 1, -4.0)
    d[0] = 12.0 * r - 4.0
    d[r] = -2.0
    return PdCoefficients(a=a, a_half=a_half, c=c, d=d)


class PdSystem:
    """Assembled system, kept as its tables: cfg, its scale eta_h,
    ``tables`` (the O(r) tables a, a_half, c, d, read-only), ``banded``
    (None: the operator has no banded part) and the spectra of the collar
    fold weights (see fold_boundary_rhs)."""

    banded = None

    def __init__(self, cfg, coeffs):
        self.cfg = cfg
        self.scale = cfg.eta
        self.tables = (coeffs.a, coeffs.a_half, coeffs.c, coeffs.d)
        for table in self.tables:
            table.flags.writeable = False
        # the embedding columns of the fold's blocks (K00, K11, K01, K10):
        # the weights wA = (a_1 .. a_r, 0), wD = d_1 .. d_r,
        # wB = (a_{3/2} .. a_{r-1/2}, 0) and wC = c, over eta, zero-padded
        # to a length that no linear sum wraps past
        length = _embedding_length(cfg.r + 1, cfg.r)
        columns = np.zeros((4, length))
        for col, w in zip(columns, (coeffs.a[1:], coeffs.d[1:], coeffs.a_half[1:], coeffs.c)):
            col[:w.size] = w
        columns /= self.scale
        self._fold_spectra = _embedded_symbols(columns)

    @property
    def op(self):
        """The stationary operator, assembled from the tables on each
        access and not kept."""
        return _tpc_from_tables(self.cfg.N - 1, *self.tables)


def assemble_pd_system(cfg):
    """The block system [A B; C D], kept as the v-row tables a, a_half and
    the w-row tables c, d; its operator is kernels._tpc_from_tables of
    them.  The variants differ only in their tables: the shifted-symmetric
    c and d mirror the v rows, which makes C = B^T and gives D the
    distance table of A."""
    return PdSystem(cfg, pd_coefficients(cfg.r, cfg.symmetric))


def sample_collar(cfg, g):
    """Evaluate g on the collar nodes of cfg with one array call.

    g receives a 1-D float array of the 4r+2 collar coordinates and must
    return an array of that shape, or anything that broadcasts to it (a
    scalar constant does); other shapes raise ValueError.  The result is
    flat, in the order of the coordinates:

    left_v:  x_{-r} .. x_0                (r+1 values)
    left_w:  x_{-r+1/2} .. x_{-1/2}       (r values)
    right_v: x_N .. x_{N+r}               (r+1 values)
    right_w: x_{N+1/2} .. x_{N+r-1/2}     (r values)
    """
    h, N, r = cfg.h, cfg.N, cfg.r
    xs = np.concatenate([
        np.arange(-r, 1) * h,
        (np.arange(-r, 0) + 0.5) * h,
        np.arange(N, N + r + 1) * h,
        (np.arange(N, N + r) + 0.5) * h,
    ])
    gx = np.asarray(g(xs), dtype=float)
    vals = np.empty_like(xs)
    try:
        vals[:] = gx
    except ValueError:
        raise ValueError(f"g must return shape {xs.shape} or a value that "
                         f"broadcasts to it, got shape {gx.shape}") from None
    return vals


def fold_boundary_rhs(system, F, collar):
    """Fold the collar data into the right-hand side F, returned as a new
    array (F is not written).

    collar is the flat array of 4r+2 values in sample_collar's order.  The
    first/last r entries of F^v and the first/last r+1 entries of F^w
    receive the exterior-stencil sums; the result keeps forcing units, so
    op @ U = eta_h * F_folded reproduces constants exactly (validated
    against dense elimination of the full-domain operator in the tests).

    Each sum is an entry of the linear convolution of a collar vector (the
    right collar reversed) with one of the weights wA, wB (v rows) or wC,
    wD (w rows).  With the w collars one place on, every sum reads the
    window [r, 2r], so each side's four are one kernels block product,
    O(r log r) per step.
    """
    cfg = system.cfg
    N, r = cfg.N, cfg.r
    collar = np.asarray(collar, dtype=float)
    if collar.shape != (4 * r + 2,):
        raise ValueError(f"collar must have length 4r+2 = {4 * r + 2}, "
                         f"got shape {collar.shape}")
    lv, lw = collar[:r + 1], collar[r + 1:2 * r + 1]
    rv, rw = collar[2 * r + 1:3 * r + 2], collar[3 * r + 2:]

    F = np.asarray(F, dtype=float)
    if F.shape != (2 * N - 1,):
        raise ValueError(f"F must have length {2 * N - 1}, got {F.shape}")

    # the w collars one place on, so that the v rows read offsets [r, 2r)
    # and the w rows [r, 2r] of every sum
    lzv, lzw = _block_product(lv, np.concatenate(([0.0], lw)),
                              *system._fold_spectra)
    rzv, rzw = _block_product(rv[::-1], np.concatenate(([0.0], rw[::-1])),
                              *system._fold_spectra)
    data = F.copy()
    Fv, Fw = data[:N - 1], data[N - 1:]
    Fv[:r] -= lzv[r:2 * r]
    Fw[:r + 1] -= lzw[r:2 * r + 1]
    Fv[N - 1 - r:] -= rzv[r:2 * r][::-1]
    Fw[N - 1 - r:] -= rzw[r:2 * r + 1][::-1]
    return data


def pd_exact_forcing(x, t, delta):
    """Forcing of the manufactured solution u(x,t) = e^t (1+x)^6.

    f = u_t + K_d u; with the constant kernel the horizon integral of the
    polynomial collapses to

        f = e^t [ (1+x)^6 - 30 (1+x)^4 - 18 d^2 (1+x)^2 - (6/7) d^4 ].
    """
    ax = 1.0 + np.asarray(x, dtype=float)
    return np.exp(t) * (ax ** 6 - 30.0 * ax ** 4
                        - 18.0 * delta ** 2 * ax ** 2 - (6.0 / 7.0) * delta ** 4)
