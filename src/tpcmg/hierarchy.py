"""Transfer operators and Galerkin coarsening of Toeplitz-plus-Cross levels.

Restriction is the full-weighting [1,2,1]/4 stencil applied directly to the
block-ordered vector (no reordering), prolongation is twice its transpose.
The Galerkin product R A P of a Toeplitz-plus-Cross operator is again
Toeplitz-plus-Cross and is built here in closed form, coefficient by
coefficient, in O(n) per level; the banded part coarsens by direct stencil
convolution.  Both closed forms agree with the dense triple product to
roundoff, which is the module's master invariant.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .kernels import BandedCorrection, ToeplitzSpec, TpcOperator

__all__ = [
    "restrict",
    "prolong",
    "coarsen_tpc",
    "coarsen_banded",
    "Hierarchy",
    "build_hierarchy",
]

def restrict(x):
    """Full weighting: (Rx)_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4, built
    in one fresh array."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n % 2 == 0 or n < 3:
        raise ValueError(f"restriction needs odd length >= 3, got {n}")
    out = x[1::2] * 2.0
    out += x[:-2:2]
    out += x[2::2]
    out *= 0.25
    return out


def prolong(x):
    """Prolongation P = 2 R^T: copy to odd fine nodes, average to even ones
    (the two end nodes halve their one coarse neighbour)."""
    x = np.asarray(x, dtype=float)
    nc = x.size
    if nc < 1:
        raise ValueError("empty coarse vector")
    y = np.empty(2 * nc + 1)
    y[1::2] = x
    even = y[::2]
    np.add(x[:-1], x[1:], out=even[1:-1])
    even[0], even[-1] = x[0], x[-1]
    even *= 0.5
    return y


def _coarsen_sequence(full, m, mc):
    """Five-point rule 8 s'_l = s_{2l-2} + 4 s_{2l-1} + 6 s_{2l} + 4 s_{2l+1} + s_{2l+2}.

    Out-of-range fine coefficients read as zero (they never occur for
    full-length sequences, but stored windows may be shorter).
    """
    ext = np.concatenate([np.zeros(2), full, np.zeros(2)])
    centers = 2 * np.arange(-(mc - 1), mc) + (m - 1) + 2
    out = (ext[centers - 2] + 4.0 * ext[centers - 1] + 6.0 * ext[centers]
           + 4.0 * ext[centers + 1] + ext[centers + 2]) / 8.0
    return out


def _mirror(seq_half):
    """Assemble a symmetric full sequence from its l >= 0 half."""
    return np.concatenate([seq_half[:0:-1], seq_half])


def _coarse_cross_column(fa, fb, p, m, mc):
    """Closed form for the coarse cross column p' (and, by symmetry of the
    layout, xi' with (c, d, xi) inputs):

        8 p'_i = a_{m+1-2i} + 2 a_{m-2i} + a_{m-1-2i}
               + 2 (p_{2i-1} + 2 p_{2i} + p_{2i+1})
               + b_{-2i+2} + 2 b_{-2i+1} + b_{-2i}
    """
    i = np.arange(1, mc + 1)
    ka = (m + 1 - 2 * i) + (m - 1)          # index of offset l in the full array
    kb = (-2 * i + 2) + (m - 1)
    out = (fa[ka] + 2.0 * fa[ka - 1] + fa[ka - 2]
           + 2.0 * (p[2 * i - 2] + 2.0 * p[2 * i - 1] + p[2 * i])
           + fb[kb] + 2.0 * fb[kb - 1] + fb[kb - 2])
    return out / 8.0


def _coarse_cross_row(fa, fc, q, m, mc):
    """Closed form for the coarse cross row q' (and zeta' with (b, d, zeta)):

        8 q'_i = a_{-(m+1)+2i} + 2 a_{-m+2i} + a_{-(m-1)+2i}
               + 2 (q_{2i-1} + 2 q_{2i} + q_{2i+1})
               + c_{2i-2} + 2 c_{2i-1} + c_{2i}
    """
    i = np.arange(1, mc + 1)
    ka = (-(m + 1) + 2 * i) + (m - 1)
    kc = (2 * i - 2) + (m - 1)
    out = (fa[ka] + 2.0 * fa[ka + 1] + fa[ka + 2]
           + 2.0 * (q[2 * i - 2] + 2.0 * q[2 * i - 1] + q[2 * i])
           + fc[kc] + 2.0 * fc[kc + 1] + fc[kc + 2])
    return out / 8.0


def coarsen_tpc(fine):
    """Galerkin-coarsen a banded-free Toeplitz-plus-Cross operator.

    Returns the coarse operator with half-size (m-1)/2; its dense expansion
    equals R @ dense(fine) @ P up to roundoff.
    """
    if fine.banded is not None:
        raise ValueError("coarsen_tpc handles the Toeplitz-plus-Cross part only")
    m = fine.m
    if fine.n < 7 or m % 2 == 0:
        raise ValueError(f"coarsest level reached: cannot coarsen size {fine.n}")
    mc = (m - 1) // 2

    fa, fb, fc, fd = (fine.A.coeffs, fine.Bbar.coeffs, fine.Cbar.coeffs,
                      fine.Dbar.coeffs)
    B = ToeplitzSpec(mc, _coarsen_sequence(fb, m, mc))
    pc = _coarse_cross_column(fa, fb, fine.p, m, mc)
    xic = _coarse_cross_column(fc, fd, fine.xi, m, mc)
    if fine.symmetric:
        # the five-point sum is not order-symmetric: building A and D from
        # their mirrored l >= 0 halves keeps the coarse level exactly symmetric
        A, D = (ToeplitzSpec(mc, _mirror(_coarsen_sequence(f, m, mc)[mc - 1:]))
                for f in (fa, fd))
        C = B.transpose()
        qc, zetac = pc, xic
    else:
        A, C, D = (ToeplitzSpec(mc, _coarsen_sequence(f, m, mc))
                   for f in (fa, fc, fd))
        qc = _coarse_cross_row(fa, fc, fine.q, m, mc)
        zetac = _coarse_cross_row(fb, fd, fine.zeta, m, mc)

    # 8 o' = (a_0 + 2 p_m + b_{1-m}) + 2 (q_m + 2 o + zeta_1) + (c_{m-1} + 2 xi_1 + d_0)
    oc = ((fa[m - 1] + 2.0 * fine.p[m - 1] + fb[0])
          + 2.0 * (fine.q[m - 1] + 2.0 * fine.o + fine.zeta[0])
          + (fc[2 * m - 2] + 2.0 * fine.xi[0] + fd[m - 1])) / 8.0

    return TpcOperator(A, B, C, D, pc, qc, xic, zetac, oc)


def coarsen_banded(fine):
    """Galerkin-coarsen a banded correction by direct stencil convolution.

    Coarse entry (i, j) = (1/8) sum over the 3x3 neighbourhood of fine
    entries (2i+da, 2j+db) with weights [1,2,1] x [1,2,1]; O(beta * n).
    """
    n = fine.n
    nc = (n - 1) // 2
    if nc < 1 or n % 2 == 0:
        raise ValueError(f"cannot coarsen banded correction of size {n}")
    bwc = min(nc - 1, (fine.bandwidth + 2) // 2) if fine.bands else 0
    weights = ((-1, 1.0), (0, 2.0), (1, 1.0))
    bands = {}
    for lc in range(-bwc, bwc + 1):
        count = nc - abs(lc)
        acc = np.zeros(count)
        ic = np.arange(count)
        rows = 2 * (ic + max(0, -lc)) + 1     # fine row of the coarse entry's pivot
        cols = rows + 2 * lc
        for da, wa in weights:
            for db, wb in weights:
                lf = 2 * lc + db - da
                band = fine.band(lf)
                if band is None:
                    continue
                k = np.minimum(rows + da, cols + db)
                acc += (wa * wb / 8.0) * band[k]
        if np.any(acc):
            bands[lc] = acc
    return BandedCorrection(nc, bands)


def _coarsen_level(op):
    coarse = coarsen_tpc(op.without_banded())
    if op.banded is not None:
        cb = coarsen_banded(op.banded)
        if cb.bands:
            coarse = coarse.with_banded(cb)
    return coarse


def _factor_coarsest(op):
    """LU factors of the coarsest level, as sla.lu_factor returns them.

    A non-finite matrix, or one singular to working precision (a pivot
    within n * eps * max|LU| of zero, the rule of oracle.dense_solve), is
    rejected with ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dense = op.dense()          # finite pieces may still sum to inf
    if not np.isfinite(dense).all():
        raise ValueError(f"coarsest level of size n = {op.n} has non-finite entries")
    # getrf directly: lu_factor would first warn on an exact zero pivot
    lu, piv, _ = sla.lapack.dgetrf(dense)
    tiny = np.finfo(float).eps * max(float(np.abs(lu).max()), 1.0) * op.n
    if np.any(np.abs(np.diag(lu)) <= tiny):
        raise ValueError(f"coarsest level of size n = {op.n} is singular "
                         "to working precision")
    return lu, piv


class Hierarchy:
    """Level stack from finest to coarsest with a dense coarsest factorization."""

    def __init__(self, levels):
        if not levels:
            raise ValueError("empty hierarchy")
        for fine, coarse in zip(levels, levels[1:]):
            if coarse.n != (fine.n - 1) // 2:
                raise ValueError("level sizes must halve: "
                                 f"{fine.n} -> {coarse.n}")
        self.levels = list(levels)
        self.coarsest_lu = _factor_coarsest(levels[-1])
        # filled by the solver on first use, one entry per SmootherConfig
        self.cycle_cache = {}

    @property
    def depth(self):
        return len(self.levels)

    @property
    def finest(self):
        return self.levels[0]

    def coefficient_storage(self):
        """Total stored coefficient count across all levels."""
        return sum(op.stored_count for op in self.levels)


def build_hierarchy(finest, coarsest_size_limit=7):
    """Repeatedly Galerkin-coarsen until n <= coarsest_size_limit."""
    n = finest.n
    if n < 3 or (n + 1) & n:
        raise ValueError(f"finest size must be 2^(K+1)-1, got {n}")
    if coarsest_size_limit < 3:
        raise ValueError("coarsest size limit must be at least 3")
    levels = [finest]
    while levels[-1].n > coarsest_size_limit:
        levels.append(_coarsen_level(levels[-1]))
    return Hierarchy(levels)
