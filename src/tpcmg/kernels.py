"""FFT-backed structured matrix kernels.

Square-Toeplitz and Toeplitz-plus-Cross matrix-vector products in
O(n log n) via circulant embedding.  The circulant of an m x m block
whose stored offsets reach |l| <= r has length next_fast_len(m + r): a
dense window gets the usual 2m - 1, a banded one (the peridynamic
levels, r about m/4) a shorter transform.  A 2x2 block-of-Toeplitz
product is one batched rfft of two zero-padded rows, a contraction with
the blocks' embedded symbols and one batched irfft (row by row above an
embedding length of 32768).  _circulant_product is the one function that
takes these steps, through the views of a transform workspace: two
complex arrays, sized to the longest embedding they serve, that belong to
one caller at a time.

Every transform calls pocketfft's ``r2c``/``c2r`` directly, the entry
points under ``scipy.fft.rfft``/``irfft``, with the arguments ``scipy.fft``
passes them and an ``out`` array: on the small levels that skips a
dispatch layer that costs more than the transforms.  The pair is checked
bitwise against ``scipy.fft`` at import, which is the fallback (its
results copied into ``out``) if the entry points are missing or disagree.
The direct calls run on one thread, out of reach of
``scipy.fft.set_backend``/``set_workers``.

A Toeplitz-plus-Cross operator stores its cross as two length-n lines,
the column [p, o, xi] and the row [q, o, zeta] (one array when they are
equal), so every product is assembled the same way, by _tpc_product:
x[m] times the column, the block product's two rows added into its
slices, the row's dot product with x as entry m, and the banded product
added if there is one.  TpcOperator.matvec runs it through a workspace
allocated for that call.  _level_products gives a caller, such as one
solve, products for a list of levels that share one workspace, sized to
the longest level it serves and with each level's views taken once; the
peridynamic boundary fold takes one workspace for both collar sides.

_tpc_from_tables is the one mapping of a block matrix [M Q; P N], given
by distance tables, onto the cross layout; both models assemble through it.
It also applies a scale and an identity shift, so the BDF4 step operator
shift*I + scale*[M Q; P N] is built straight from the tables, with the
shift entering at a_0, o and d_0.  The four tables and the four generating
sequences are the rows of one array each, and the cross lines go to
TpcOperator._from_lines, which __init__ shares, so every check runs; each
sum is taken as for one block at a time, so the operator is bitwise the same.

The operator classes here store only generating sequences (O(n) memory),
each a read-only copy of what the constructor was given, and are
immutable after construction apart from lazily filled symbol caches, so
they can be shared freely across threads; no transform workspace is kept
on an operator or in the module.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
import scipy.fft as _fft

__all__ = [
    "ToeplitzSpec",
    "BandedCorrection",
    "TpcOperator",
    "toeplitz_matvec",
]


def _transform_pair():
    """(rfft, irfft) over the last axis, with the signatures rfft(x, out=None)
    and irfft(X, n, out=None), the result written into ``out`` if one is
    given: pocketfft's r2c/c2r called directly with the arguments
    ``scipy.fft`` passes them (forward unnormalised, inverse divided by n,
    one thread) if they pass _agrees_with_scipy, else ``scipy.fft.rfft`` and
    ``irfft`` themselves, which take no ``out``, with their results copied
    into it."""
    try:
        from scipy.fft._pocketfft import pypocketfft
        r2c, c2r = pypocketfft.r2c, pypocketfft.c2r

        def rfft(x, out=None):
            return r2c(x, (-1,), True, 0, out, 1)

        def irfft(X, n, out=None):
            return c2r(X, (-1,), n, False, 2, out, 1)

        if _agrees_with_scipy(rfft, irfft):
            return rfft, irfft
    except (ImportError, AttributeError, TypeError, ValueError):
        pass                # a missing entry point, or a changed signature
    return _writing_into(_fft.rfft), _writing_into(_fft.irfft)


def _writing_into(transform):
    """transform with an ``out`` argument that receives a copy of its result."""
    @functools.wraps(transform)
    def into(*args, out=None):
        result = transform(*args)
        if out is None:
            return result
        out[...] = result
        return out
    return into


def _agrees_with_scipy(rfft, irfft):
    """Whether the pair reproduces ``scipy.fft`` bitwise on a probe array."""
    probe = np.sin(np.arange(30.0)).reshape(2, 15)
    spectrum = _fft.rfft(probe)
    return (np.array_equal(rfft(probe), spectrum)
            and np.array_equal(irfft(spectrum, 15), _fft.irfft(spectrum, 15)))


_rfft, _irfft = _transform_pair()


def _check_integer(name, value):
    """Reject a count that is not an integer: a float such as 2.0, or a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name, value):
    """Reject a parameter that is not a real number: a string, or a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_instance(name, value, cls):
    """Reject an argument that is not a cls instance, such as a string or a
    dict in place of a configuration."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


# Above this embedding length _circulant_product transforms its two rows
# one at a time.  In gamma N = 2^15 BDF4 marches (32 steps, two marches per
# fresh process, on a 2-core x86-64 host), batching the n = 65535 level too
# cost 9700-10100 minor page faults per step in the first march and
# 3550-6020 in the second, for 0.98-0.99 s and 0.78-0.86 s of solve time;
# row by row it cost 5850 and 55-1020 faults per step, for 0.88-0.94 s and
# 0.67-0.75 s.  Below the cutover batching saves two transform calls per
# product, which the small levels need.
_BATCH_MAX_LENGTH = 32768


def _embedding_length(m, reach):
    """Length of the embedding circulant of m x m Toeplitz blocks whose
    stored offsets satisfy |l| <= reach: the product needs no wrap-around
    past m + reach, so a banded window gets a shorter transform than the
    2m - 1 of a dense one."""
    return _fft.next_fast_len(m + reach, real=True)


def _embedding_column(spec, length):
    """First column of the length-``length`` circulant whose leading m x m
    block is ``spec`` (length >= m + spec.reach): t_0, t_{-1}, ..., zeros,
    ..., t_1, written straight from the stored window."""
    col = np.zeros(length)
    lo, data = spec.lo, spec.data
    split = min(max(1 - lo, 0), data.size)        # data[:split]: offsets <= 0
    col[1 - lo - split:1 - lo] = data[:split][::-1]
    hi = spec.hi                                  # data[split:]: offsets >= 1
    col[length - hi:length - lo - split + 1] = data[split:][::-1]
    return col


def _circulant_product(views, length, S0, S1, u0, u1):
    """Write (K00 u0 + K01 u1, K10 u0 + K11 u1) into the rows X of a
    workspace's views (see _workspace_views) for Toeplitz blocks K whose
    length-L embedded symbols are S0 = (K00, K11) and S1 = (K01, K10).

    u0 and u1 are loaded into the rows, zero-padded to L; each row becomes
    the whole length-L circulant product, the Toeplitz one in its first
    u0.size entries.  One batched rfft, the contraction and one batched
    irfft, written through the views; above _BATCH_MAX_LENGTH the two rows
    are transformed one at a time."""
    X, F, off, swapped, pad, z0, z1 = views
    pad.fill(0.0)
    z0[...] = u0
    z1[...] = u1
    batched = length <= _BATCH_MAX_LENGTH
    if batched:
        _rfft(X, out=F)
    else:
        for row, spectrum in zip(X, F):
            _rfft(row, out=spectrum)
    np.multiply(swapped, S1, out=off)   # (K01 u1, K10 u0)
    F *= S0                             # (K00 u0, K11 u1)
    F += off
    if batched:
        _irfft(F, length, out=X)
    else:
        for spectrum, row in zip(F, X):
            _irfft(spectrum, length, out=row)


def _embedded_symbols(columns):
    """(L, S0, S1) for _circulant_product from the (4, L) array of the
    embedding columns of the blocks (K00, K11, K01, K10): one batched rfft."""
    length = columns.shape[1]
    S = _rfft(columns).reshape(2, 2, length // 2 + 1)
    return length, S[0], S[1]


class ToeplitzSpec:
    """Square Toeplitz matrix described by its generating sequence.

    Entry (i, j) equals ``t[j - i]``; offsets run over [-(m-1), m-1].  Only
    the nonzero window of the sequence is kept (coarse-level operators of
    the banded models have short supports), and the FFT of the embedding
    circulant's first column is cached lazily for matvecs.  No symmetry is
    declared here: an operator built from these blocks reads it from the
    windows.
    """

    def __init__(self, m, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        _check_integer("m", m)
        if m < 1:
            raise ValueError("m must be positive")
        if coeffs.shape != (2 * m - 1,):
            raise ValueError(f"coeffs must have length 2m-1={2 * m - 1}, got {coeffs.shape}")
        self._set_window(m, -(m - 1), coeffs, _window_ends(coeffs[None])[0])

    @classmethod
    def _from_windows(cls, m, lo, rows):
        """One m x m matrix per row of the 2-D array rows, whose offsets
        lo, lo + 1, ... hold that row; the zero ends of all rows are found
        at once."""
        specs = []
        for row, ends in zip(rows, _window_ends(rows)):
            spec = cls.__new__(cls)
            spec._set_window(m, lo, row, ends)
            specs.append(spec)
        return specs

    @classmethod
    def _from_window(cls, m, lo, data):
        """The m x m matrix whose offsets lo, lo + 1, ... hold data."""
        return cls._from_windows(m, lo, data[None])[0]

    def _set_window(self, m, lo, data, ends):
        """Store data, its first entry at offset lo, trimmed to its nonzero
        ends (first, last); ends None stores the zero matrix as the
        one-entry window [0.0] at 0."""
        self.m = int(m)
        if ends is None:
            self.lo = 0
            self.data = np.zeros(1)
        else:
            first, last = ends
            self.lo = lo + first
            self.data = data[first:last + 1].copy()
        self.data.flags.writeable = False
        self._symbol = None

    @property
    def coeffs(self):
        """Full generating sequence, length 2m-1, index l + m - 1."""
        return _full_sequences((self,))[0]

    @property
    def stored_count(self):
        return self.data.size

    @property
    def hi(self):
        """Largest stored offset."""
        return self.lo + self.data.size - 1

    @property
    def reach(self):
        """Largest stored |offset|; 0 for a diagonal or zero matrix."""
        return max(-self.lo, self.hi, 0)

    def coeff(self, l):
        """Coefficient t_l; out-of-window offsets read as zero."""
        k = l - self.lo
        if 0 <= k < self.data.size:
            return self.data[k]
        return 0.0

    def transpose(self):
        """The transpose: the window reversed, its offsets mirrored."""
        return ToeplitzSpec._from_window(self.m, -self.hi, self.data[::-1])

    def _embedded_symbol(self):
        """rfft of the first column of the embedding circulant (cached)."""
        if self._symbol is None:
            length = _embedding_length(self.m, self.reach)
            self._symbol = (length, _rfft(_embedding_column(self, length)))
        return self._symbol


def _window_ends(rows):
    """(first, last) index of the nonzero entries of each row of a 2-D
    array, or None for a zero row: argmax on a mask, so no index array for
    dense rows."""
    nz = rows != 0.0
    firsts = nz.argmax(axis=1).tolist()
    lasts = (rows.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)).tolist()
    return [(first, last) if mask[first] else None
            for mask, first, last in zip(nz, firsts, lasts)]


def _full_sequences(specs):
    """The (k, 2m - 1) array whose rows are the full generating sequences
    of k m x m blocks, each window written into a row of zeros."""
    m = specs[0].m
    full = np.zeros((len(specs), 2 * m - 1))
    for row, spec in zip(full, specs):
        k = spec.lo + m - 1
        row[k:k + spec.data.size] = spec.data
    return full


def toeplitz_matvec(T, x):
    """Dense-equivalent product T @ x through the circulant embedding."""
    x = np.asarray(x, dtype=float)
    if x.shape != (T.m,):
        raise ValueError(f"x must have length {T.m}, got {x.shape}")
    length, symbol = T._embedded_symbol()
    X = np.zeros(length)
    X[:T.m] = x
    X = _rfft(X)
    np.multiply(symbol, X, out=X)
    return _irfft(X, length)[:T.m]


class BandedCorrection:
    """Position-dependent banded matrix stored by diagonals.

    Band l holds the entries (i, i+l) for l >= 0 and (i-l, i) for l < 0, in
    both cases indexed from the top-left; band l has length n - |l|.  Houses
    the non-Toeplitz diagonal part of the gamma-kernel model and its
    Galerkin descendants (diagonal coarsens to tridiagonal, then stays).
    Each band is a read-only copy, and a band bitwise equal to its mirror
    is stored once: bands[-l] is bands[l].
    """

    def __init__(self, n, bands):
        self.n = int(n)
        self.bands = {}
        for l, band in bands.items():
            band = np.asarray(band, dtype=float)
            if band.shape != (n - abs(l),):
                raise ValueError(f"band {l} must have length {n - abs(l)}, got {band.shape}")
            if np.any(band):
                mirror = self.bands.get(-int(l))
                # bitwise, as integers of the same width: no byte copies
                shared = mirror is not None and np.array_equal(
                    band.view(np.int64), mirror.view(np.int64))
                band = self.bands[int(l)] = mirror if shared else band.copy()
                band.flags.writeable = False

    @property
    def bandwidth(self):
        return max((abs(l) for l in self.bands), default=0)

    @property
    def stored_count(self):
        """Entries of all bands, a shared mirror pair counted twice."""
        return sum(b.size for b in self.bands.values())

    def band(self, l):
        return self.bands.get(l)

    def matvec(self, x):
        """Product with x in a fresh array that starts as band_0 * x, with
        the off-diagonal bands added into it."""
        y = self.bands[0] * x if 0 in self.bands else np.zeros(self.n)
        for l, band in self.bands.items():
            if l > 0:
                y[:self.n - l] += band * x[l:]
            elif l < 0:
                y[-l:] += band * x[:self.n + l]
        return y

    def scaled(self, s):
        return BandedCorrection(self.n, {l: b * s for l, b in self.bands.items()})

    def dense(self):
        out = np.zeros((self.n, self.n))
        for l, band in self.bands.items():
            i = np.arange(self.n - abs(l))
            if l >= 0:
                out[i, i + l] = band
            else:
                out[i - l, i] = band
        return out

    def is_symmetric(self):
        """Whether every band equals its mirror (a missing band reads as
        unequal: zero bands are never stored)."""
        return all(np.array_equal(band, self.bands.get(-l))
                   for l, band in self.bands.items())


class TpcOperator:
    """One level's Toeplitz-plus-Cross operator.

    Dense layout for half-size m (total size n = 2m+1):

        [ A      p   Bbar ]
        [ q      o   zeta ]
        [ Cbar   xi  Dbar ]

    with A, Bbar, Cbar, Dbar square Toeplitz blocks of size m, the cross
    row/column through index m+1, plus an optional banded correction (one
    with no bands is stored as None).

    ``symmetric`` is read from the data, not declared: it is true when A
    and Dbar are palindromic about offset 0, Cbar's window is Bbar's
    reversed (Cbar = Bbar^T), q = p, zeta = xi and the banded part, if
    any, is symmetric, all compared bitwise.  Such an operator's dense
    matrix equals its transpose; it is the case the SPD theory covers.
    """

    def __init__(self, A, Bbar, Cbar, Dbar, p, q, xi, zeta, o, banded=None):
        m = A.m
        for name, vec in (("p", p), ("q", q), ("xi", xi), ("zeta", zeta)):
            if np.shape(vec) != (m,):
                raise ValueError(f"cross vector {name} must have length {m}")
        # copies: the operator does not share the caller's arrays
        self._set_pieces(A, Bbar, Cbar, Dbar, np.concatenate([p, [o], xi], dtype=float),
                         np.concatenate([q, [o], zeta], dtype=float), banded)

    @classmethod
    def _from_lines(cls, A, Bbar, Cbar, Dbar, col, row, banded=None):
        """The operator whose cross column is col and cross row is row,
        two length-n float arrays that it takes over (see _set_pieces)."""
        op = cls.__new__(cls)
        op._set_pieces(A, Bbar, Cbar, Dbar, col, row, banded)
        return op

    def _set_pieces(self, A, Bbar, Cbar, Dbar, col, row, banded):
        """Store the blocks and the cross lines col and row, which become
        the operator's own, read-only: the centre o is col's (row's entry
        m is overwritten with it), and row is col when they are equal.
        Then check every piece and read ``symmetric`` from the data."""
        m = A.m
        if not (Bbar.m == Cbar.m == Dbar.m == m):
            raise ValueError("all Toeplitz blocks must share the half-size m")
        self.A, self.Bbar, self.Cbar, self.Dbar = A, Bbar, Cbar, Dbar
        self.m = m
        self.n = 2 * m + 1
        row[m] = col[m]
        self.col = col
        self.row = col if np.array_equal(row, col) else row
        self.col.flags.writeable = self.row.flags.writeable = False
        self.p, self.xi = self.col[:m], self.col[m + 1:]
        self.q, self.zeta = self.row[:m], self.row[m + 1:]
        self.o = float(self.col[m])
        self._check_finite()
        if banded is not None:
            self._check_banded(banded)
            if not banded.bands:
                banded = None
        self.banded = banded
        self.symmetric = self._is_symmetric()
        self._symbols = None

    def _check_finite(self):
        """Reject NaN or infinite Toeplitz windows, cross vectors and the
        center o, naming the piece: one isfinite pass over each stored
        array, the cross pieces looked at one by one only when a cross
        line fails."""
        for name in ("A", "Bbar", "Cbar", "Dbar"):
            if not np.isfinite(getattr(self, name).data).all():
                self._reject_non_finite(f"Toeplitz block {name}")
        lines = (self.col,) if self.row is self.col else (self.col, self.row)
        if all(np.isfinite(line).all() for line in lines):
            return
        for name in ("p", "q", "xi", "zeta", "o"):
            if not np.isfinite(getattr(self, name)).all():
                kind = "center" if name == "o" else "cross vector"
                self._reject_non_finite(f"{kind} {name}")

    def _reject_non_finite(self, piece):
        raise ValueError(f"operator of size n = {self.n} has non-finite "
                         f"entries in {piece}")

    def _check_banded(self, banded):
        if banded.n != self.n:
            raise ValueError(f"banded correction size {banded.n} != {self.n}")
        for l, band in banded.bands.items():
            if not np.isfinite(band).all():
                self._reject_non_finite(f"banded band {l}")

    def _is_symmetric(self):
        """The ``symmetric`` value, read from the stored windows without
        expanding them, cheapest test first: the window offsets, then the
        cross lines (a gamma-model level stops at row != col), then the
        window data and the banded part."""
        A, B, C, D = self.A, self.Bbar, self.Cbar, self.Dbar
        return (A.lo == -A.hi and D.lo == -D.hi and C.lo == -B.hi
                and C.data.size == B.data.size
                and self.row is self.col
                and np.array_equal(C.data, B.data[::-1])
                and np.array_equal(A.data, A.data[::-1])
                and np.array_equal(D.data, D.data[::-1])
                and (self.banded is None or self.banded.is_symmetric()))

    def _block_symbols(self):
        """The _circulant_product symbols (L, S0, S1) of the blocks
        [[A, Bbar], [Cbar, Dbar]], L fit to their largest reach; computed on
        the first matvec and cached."""
        if self._symbols is None:
            specs = (self.A, self.Dbar, self.Bbar, self.Cbar)
            length = _embedding_length(self.m, max(spec.reach for spec in specs))
            # one column at a time: a (4, L) column stack would hold
            # 2 MiB at once at L = 65536
            S = np.empty((2, 2, length // 2 + 1), dtype=complex)
            for k, spec in enumerate(specs):
                S[k // 2, k % 2] = _rfft(_embedding_column(spec, length))
            self._symbols = (length, S[0], S[1])
        return self._symbols

    def matvec(self, x):
        """Product with a length-n array, by _tpc_product through a transform
        workspace allocated for this call alone: the operator holds none,
        so concurrent callers can share it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have length {self.n}, got {x.shape}")
        length, S0, S1 = self._block_symbols()
        return _tpc_product(self, length, S0, S1,
                            _workspace_views(_workspace(length), length, self.m), x)

    def dense(self):
        """Dense n x n matrix, expanded entry by entry from the blocks, the
        cross and the banded part (no matvecs)."""
        m, n = self.m, self.n
        out = np.zeros((n, n))
        idx = np.arange(m)
        offsets = idx[None, :] - idx[:, None]          # j - i
        for block, (rows, cols) in (
            (self.A, (slice(0, m), slice(0, m))),
            (self.Bbar, (slice(0, m), slice(m + 1, n))),
            (self.Cbar, (slice(m + 1, n), slice(0, m))),
            (self.Dbar, (slice(m + 1, n), slice(m + 1, n))),
        ):
            out[rows, cols] = block.coeffs[offsets + m - 1]
        out[:, m] = self.col
        out[m, :] = self.row
        if self.banded is not None:
            out += self.banded.dense()
        return out

    def diagonal(self):
        """Main diagonal: a_0 entries, o, d_0 entries plus the banded diagonal."""
        d = np.concatenate([
            np.full(self.m, self.A.coeff(0)),
            [self.o],
            np.full(self.m, self.Dbar.coeff(0)),
        ])
        if self.banded is not None:
            d += self.banded.bands.get(0, 0.0)
        return d

    @property
    def stored_count(self):
        """Coefficients a minimal representation keeps: for symmetric
        operators the mirrored pieces (Cbar, q, zeta) are derivable."""
        count = self.A.stored_count + self.Bbar.stored_count + self.Dbar.stored_count
        count += self.p.size + self.xi.size + 1
        if not self.symmetric:
            count += self.Cbar.stored_count + self.q.size + self.zeta.size
        if self.banded is not None:
            count += self.banded.stored_count
        return count


def _tpc_product(op, length, S0, S1, views, x):
    """op x, the one Toeplitz-plus-Cross product: the four blocks as one
    _circulant_product of the rows v, wbar, added into x[m] times the
    cross column, with the cross row's dot product as entry m, plus the
    banded product if there is one.  The arguments before x are op's
    plan: its _block_symbols and the views of a workspace for half-size m
    and embedding length L.  The views are dropped as soon as they are
    read, so a workspace that only this call holds, as in
    TpcOperator.matvec, is freed piece by piece: its spectra before y is
    allocated, its rows before the banded product."""
    m = op.m
    _circulant_product(views, length, S0, S1, x[:m], x[m + 1:])
    z0, z1 = views[5:]                  # the product rows' first m entries
    del views
    y = op.col * x[m]
    y[:m] += z0
    y[m + 1:] += z1
    del z0, z1
    # ndarray.dot: the same BLAS dot as @, at half the call overhead
    y[m] = op.row.dot(x)
    if op.banded is not None:
        y += op.banded.matvec(x)
    return y


def _workspace_views(workspace, length, m):
    """The views of a workspace (spectra, scratch), two flat complex arrays
    of at least 2 (L//2 + 1) entries, that _circulant_product writes
    through for rows of m entries and embedding length L: the real (2, L)
    rows X, their (2, L//2 + 1) spectra F, the contraction temporary off,
    F with its rows swapped, and X's zero padding X[:, m:] and rows
    X[0, :m], X[1, :m].  X and off share the scratch array: off is used
    only between the forward transforms, which last read X, and the
    inverse ones, which write it."""
    spectra, scratch = workspace
    half = length // 2 + 1
    F = spectra[:2 * half].reshape(2, half)
    X = scratch.view(float)[:2 * length].reshape(2, length)
    return (X, F, scratch[:2 * half].reshape(2, half), F[::-1],
            X[:, m:], X[0, :m], X[1, :m])


def _workspace(length):
    """A fresh transform workspace (spectra, scratch) for embedding lengths
    up to length: two complex arrays of 2 (L//2 + 1) entries, apart so that
    each is freed once nothing views it."""
    size = 2 * (length // 2 + 1)
    return np.empty(size, dtype=complex), np.empty(size, dtype=complex)


# The largest embedding length a _level_products workspace serves.  The
# workspace is held for a whole solve, on top of the transient arrays of
# the levels it does not serve.  At 4096 it serves every pd-sym N = 512
# level (L <= 640) and gamma's levels up to n = 4095, and the tracemalloc
# peak of a gamma N = 2^15 march (set-up and 16 steps) went 23.42 ->
# 23.56 MB; serving up to 16384 read 23.95 MB and up to 32768 24.48 MB.
_WORKSPACE_MAX_LENGTH = 4096


def _level_products(ops):
    """One product x -> op x per operator in ops, bitwise op.matvec(x)
    without its checks.  The operators whose embedding length is at most
    _WORKSPACE_MAX_LENGTH share one transform workspace, sized to the
    longest of them and held only by the returned products: each product
    writes it through and is done with it before the next starts, so one
    caller's products must run one at a time, and two threads need two
    sets.  The other operators' products are their own matvec."""
    plans = [(op, op._block_symbols()) for op in ops]
    workspace = _workspace(max((symbols[0] for _, symbols in plans
                                if symbols[0] <= _WORKSPACE_MAX_LENGTH), default=0))
    products = []
    for op, (length, S0, S1) in plans:
        if length > _WORKSPACE_MAX_LENGTH:
            products.append(op.matvec)
        else:
            views = _workspace_views(workspace, length, op.m)
            products.append(functools.partial(_tpc_product, op, length, S0, S1, views))
    return products


def _tpc_from_tables(m, tM, tQ, tP, tN, banded=None, scale=1.0, shift=0.0):
    """The TpcOperator of shift*I + scale*([M Q; P N] + banded), the
    (2m+1) x (2m+1) block matrix whose blocks are given by distance tables:

        M[i, j] = tM[|i - j|]                       (m x m),
        N[i, j] = tN[|i - j|]                       ((m+1) x (m+1)),
        Q = toeplitz(tQ, [tQ_0, tQ_0, tQ_1, ..])    (m x (m+1)),
        P = toeplitz([tP_0, tP_0, tP_1, ..], tP)    ((m+1) x m).

    A table reads as zero past its end, and entries past its block are
    never read.  Both models' collocation systems have this layout
    (integer nodes, then half nodes), and the first half node is the
    cross: p is Q's first column and Bbar its other columns
    (b_l = tQ_l for l >= 0, tQ_{-l-1} for l < 0); q is P's first row and
    Cbar its other rows (c_l = tP_{-l} for l <= 0, tP_{l-1} for l >= 1);
    o = tN_0, zeta = xi = (tN_1, tN_2, ..), A is M and Dbar is N's trailing
    m x m block.  The tables and the banded part are scaled, and the shift
    is added to the scaled tM_0 and tN_0, which are a_0, and o and d_0:
    scale = 1, shift = 0 gives the unscaled operator bitwise.
    """
    # row k: the scaled tM, tQ, tP, tN, each read as zero past its end
    tables = np.zeros((4, m + 1))
    for row, table, size in zip(tables, (tM, tQ, tP, tN), (m, m, m, m + 1)):
        table = np.asarray(table, dtype=float)[:size]
        np.multiply(table, scale, out=row[:table.size])
    tM, tQ, tP, tN = tables
    tM[0] += shift
    tN[0] += shift
    # the generating sequences of A, Bbar, Cbar, Dbar over the offsets
    # -(m-1) .. m-1, index m - 1 holding offset 0
    full = np.empty((4, 2 * m - 1))
    np.concatenate([tM[1:m][::-1], tM[:m]], out=full[0])
    np.concatenate([tQ[:m - 1][::-1], tQ[:m]], out=full[1])
    np.concatenate([tP[:m][::-1], tP[:m - 1]], out=full[2])
    np.concatenate([tN[1:m][::-1], tN[:m]], out=full[3])
    blocks = ToeplitzSpec._from_windows(m, 1 - m, full)
    # the cross column [p, o, xi] = [tQ, tN] and row [q, o, zeta] = [tP, tN]
    col, row = np.concatenate([tQ[:m], tN]), np.concatenate([tP[:m], tN])
    if banded is not None:
        banded = banded.scaled(scale)
    return TpcOperator._from_lines(*blocks, col, row, banded)
