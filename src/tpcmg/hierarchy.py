"""Transfer operators and Galerkin coarsening of Toeplitz-plus-Cross levels.

Restriction is the full-weighting [1,2,1]/4 stencil applied directly to the
block-ordered vector (no reordering), prolongation is twice its transpose.
The Galerkin product R A P of a Toeplitz-plus-Cross operator is again
Toeplitz-plus-Cross and is built here in one closed form for every level,
symmetric or not, in O(n) per level; a banded part coarsens by direct
stencil convolution in the same call, so coarsen_tpc returns whole levels.
Both closed forms agree with the dense triple product to roundoff, which is
the module's master invariant.

A level is evaluated stacked: its four Toeplitz blocks coarsen together as
the rows of one array, its two cross sums are added in place into one
line each, and each band accumulates through one scratch array.  Every
sum is taken in the order of a block-by-block evaluation, so the levels
are bitwise the same.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .kernels import (BandedCorrection, ToeplitzSpec, TpcOperator, _check_instance,
                      _check_integer, _full_sequences)

__all__ = [
    "restrict",
    "prolong",
    "coarsen_tpc",
    "coarsen_banded",
    "Hierarchy",
    "build_hierarchy",
]

_FULL_WEIGHTING = np.array([0.25, 0.5, 0.25])
_FULL_WEIGHTING.flags.writeable = False


def restrict(x):
    """Full weighting: (Rx)_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4, the
    stencil's correlation with x kept at every other point."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if x.ndim != 1 or n % 2 == 0 or n < 3:
        raise ValueError("restriction needs a 1-D array of odd length >= 3, "
                         f"got shape {x.shape}")
    return np.correlate(x, _FULL_WEIGHTING)[::2]


def prolong(x):
    """Prolongation P = 2 R^T: copy to odd fine nodes, average to even ones
    (the two end nodes halve their one coarse neighbour)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"prolongation needs a 1-D array, got shape {x.shape}")
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


def _coarsen_sequences(full):
    """Five-point rule 8 s'_l = s_{2l-2} + 4 s_{2l-1} + 6 s_{2l} + 4 s_{2l+1} + s_{2l+2}
    on each row of a (k, 2m - 1) array of full generating sequences, giving
    a (k, 2mc - 1) array, with two temporaries for all rows.

    Each sum is taken in mirrored pairs, so a palindrome coarsens to a
    palindrome and a reversed sequence to the reversed result, bitwise.
    """
    even, odd = full[:, 0::2], full[:, 1::2]
    coarse = np.add(even[:, :-2], even[:, 2:])
    term = np.add(odd[:, :-1], odd[:, 1:])
    term *= 4.0
    coarse += term
    np.multiply(even[:, 1:-1], 6.0, out=term)
    coarse += term
    coarse /= 8.0
    return coarse


def coarsen_tpc(fine):
    """Galerkin-coarsen a Toeplitz-plus-Cross operator, banded part included.

    Returns the coarse operator with half-size (m-1)/2; its dense expansion
    equals R @ dense(fine) @ P up to roundoff.  The four Toeplitz blocks
    coarsen together, as one (4, 2m - 1) array of generating sequences, by
    the five-point rule.  The coarse cross column is R M P e_c, and P e_c is
    1 at the fine cross index m and 1/2 at m - 1 and m + 1, so it is the
    restriction of [p, o, xi] plus half the sum of the fine columns m - 1
    and m + 1; the cross row is the same on rows.  Each sum is formed in
    place in one line, read from the same array.  Coarsening commutes with
    transposition bitwise (o aside, taken from the column), so a symmetric
    level coarsens to an exactly symmetric one.  A banded part coarsens by
    coarsen_banded.
    """
    m = fine.m
    if fine.n < 7 or m % 2 == 0:
        raise ValueError(f"coarsest level reached: cannot coarsen size {fine.n}")
    mc = (m - 1) // 2

    # rows A, Bbar, Cbar, Dbar; index k holds offset k - (m - 1), so
    # full[:, :m] runs over offsets 1-m..0 and full[:, m-1:] over 0..m-1
    full = _full_sequences((fine.A, fine.Bbar, fine.Cbar, fine.Dbar))
    blocks = ToeplitzSpec._from_windows(mc, 1 - mc, _coarsen_sequences(full))
    a, b, c, d = full
    col, row = np.empty(fine.n), np.empty(fine.n)
    # the sum of fine columns m - 1 and m + 1, whose entries run through
    # each block's sequence backwards, then of fine rows m - 1 and m + 1
    np.add(a[m - 1:], b[:m], out=col[m - 1::-1])
    col[m] = fine.q[-1] + fine.zeta[0]
    np.add(c[m - 1:], d[:m], out=col[:m:-1])
    np.add(a[:m], c[m - 1:], out=row[:m])
    row[m] = fine.p[-1] + fine.xi[0]
    np.add(b[:m], d[m - 1:], out=row[m + 1:])
    # freed before the banded part and the restrictions: at gamma
    # N = 2^15 the set-up's tracemalloc peak reads 10.6 MB with, 12.1 without
    del full, a, b, c, d
    for line, cross in ((col, fine.col), (row, fine.row)):
        line *= 0.5
        line += cross
    banded = None if fine.banded is None else coarsen_banded(fine.banded)
    return TpcOperator._from_lines(*blocks, restrict(col).copy(),
                                   restrict(row).copy(), banded)


def coarsen_banded(fine):
    """Galerkin-coarsen a banded correction by direct stencil convolution.

    Coarse entry (i, j) = (1/8) sum over the 3x3 neighbourhood of fine
    entries (2i+da, 2j+db) with weights [1,2,1] x [1,2,1]; O(beta * n).
    Band l stores entry (r, r + l) at index min(r, r + l), so each term
    reads one stride-2 slice of a fine band, weighted into one scratch
    array and added into the coarse band.
    """
    n = fine.n
    nc = (n - 1) // 2
    if nc < 1 or n % 2 == 0:
        raise ValueError(f"cannot coarsen banded correction of size {n}")
    bwc = min(nc - 1, (fine.bandwidth + 2) // 2) if fine.bands else 0
    weights = ((-1, 1.0), (0, 2.0), (1, 1.0))
    terms = [(a, b) for a in weights for b in weights]
    # band -lc sums the mirror of band lc's terms in the same order, so a
    # symmetric part coarsens to bitwise-mirrored bands
    mirrored = [(b, a) for a, b in terms]
    scratch = np.empty(nc)
    bands = {}
    for lc in range(-bwc, bwc + 1):
        count = nc - abs(lc)
        acc = np.zeros(count)
        term = scratch[:count]
        row = 2 * max(0, -lc) + 1     # fine row of the first coarse entry's pivot
        for (da, wa), (db, wb) in terms if lc >= 0 else mirrored:
            lf = 2 * lc + db - da
            band = fine.band(lf)
            if band is None:
                continue
            start = row + da if lf >= 0 else row + 2 * lc + db
            np.multiply(band[start:start + 2 * count - 1:2], wa * wb / 8.0, out=term)
            acc += term
        if np.any(acc):
            bands[lc] = acc
    return BandedCorrection(nc, bands)


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
    _check_instance("finest", finest, TpcOperator)
    n = finest.n
    if n < 3 or (n + 1) & n:
        raise ValueError(f"finest size must be 2^(K+1)-1, got {n}")
    _check_integer("coarsest_size_limit", coarsest_size_limit)
    if coarsest_size_limit < 3:
        raise ValueError("coarsest size limit must be at least 3")
    levels = [finest]
    while levels[-1].n > coarsest_size_limit:
        levels.append(coarsen_tpc(levels[-1]))
    return Hierarchy(levels)
