import numpy as np
import pytest
import scipy.linalg as sla

from tpcmg import BandedCorrection, ToeplitzSpec, TpcOperator, kernels, restrict


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def dense_toeplitz(spec):
    """Independent dense form of a ToeplitzSpec via scipy.linalg.toeplitz."""
    full = spec.coeffs
    m = spec.m
    col = full[m - 1::-1]    # t_0, t_{-1}, ...
    row = full[m - 1:]       # t_0, t_1, ...
    return sla.toeplitz(col, row)


def identity_spec(m):
    c = np.zeros(2 * m - 1)
    c[m - 1] = 1.0
    return ToeplitzSpec(m, c)


def zero_spec(m):
    return ToeplitzSpec(m, np.zeros(2 * m - 1))


def identity_tpc(m):
    """The n x n identity, n = 2m + 1, as a TpcOperator."""
    return TpcOperator(identity_spec(m), zero_spec(m), zero_spec(m),
                       identity_spec(m), np.zeros(m), np.zeros(m),
                       np.zeros(m), np.zeros(m), 1.0)


def scaled_spec(spec, s):
    """s times the ToeplitzSpec spec (s finite): the window scaled, and its
    ends trimmed again where the product is zero (s = 0 leaves the zero
    matrix's one-entry window)."""
    return ToeplitzSpec._from_windows(spec.m, spec.lo, spec.data[None] * s)[0]


def scale_shift(op, scale, shift):
    """shift*I + scale*op, built from op's pieces: the identity goes into
    a_0, o and d_0.  The reference that kernels._tpc_from_tables(...,
    scale, shift) must equal bitwise."""
    def shifted(spec):
        full = spec.coeffs * scale
        full[spec.m - 1] += shift
        return ToeplitzSpec(spec.m, full)

    return TpcOperator(
        shifted(op.A), scaled_spec(op.Bbar, scale), scaled_spec(op.Cbar, scale),
        shifted(op.Dbar), op.p * scale, op.q * scale, op.xi * scale,
        op.zeta * scale, scale * op.o + shift,
        banded=None if op.banded is None else op.banded.scaled(scale))


def tpc_pieces(op):
    """The constructor arguments of op, by name."""
    return dict(A=op.A, Bbar=op.Bbar, Cbar=op.Cbar, Dbar=op.Dbar, p=op.p,
                q=op.q, xi=op.xi, zeta=op.zeta, o=op.o, banded=op.banded)


def transpose_tpc(op):
    """The transpose of a banded-free op: blocks A^T, Cbar^T, Bbar^T and
    Dbar^T, with p and q, and xi and zeta, trading places."""
    return TpcOperator(op.A.transpose(), op.Cbar.transpose(), op.Bbar.transpose(),
                       op.Dbar.transpose(), op.q, op.p, op.zeta, op.xi, op.o)


def assert_same_bytes(op, ref):
    """op and ref store the same operator, compared as raw bytes (0.0 and
    -0.0 differ): every window's offset and data, the cross lines and
    whether they are one array, o, ``symmetric`` and every band."""
    for name in ("A", "Bbar", "Cbar", "Dbar"):
        spec, expected = getattr(op, name), getattr(ref, name)
        assert (spec.lo, spec.data.tobytes()) == (expected.lo, expected.data.tobytes()), name
    assert op.col.tobytes() == ref.col.tobytes()
    assert op.row.tobytes() == ref.row.tobytes()
    assert (op.row is op.col) == (ref.row is ref.col)
    assert np.float64(op.o).tobytes() == np.float64(ref.o).tobytes()
    assert op.symmetric == ref.symmetric
    bands = {} if op.banded is None else op.banded.bands
    expected = {} if ref.banded is None else ref.banded.bands
    assert {l: b.tobytes() for l, b in bands.items()} == \
        {l: b.tobytes() for l, b in expected.items()}


def break_mirror(op, piece):
    """A copy of op whose mirror pair through ``piece`` is broken: Cbar one
    ulp off Bbar^T at offset 0, A or Dbar one ulp off palindromic at offset
    1, q or zeta one ulp off p or xi in its first entry, or (piece
    "banded") a banded part holding band -1 only."""
    m = op.m
    parts = tpc_pieces(op)
    if piece == "banded":
        parts["banded"] = BandedCorrection(op.n, {-1: np.ones(op.n - 1)})
    elif piece in ("A", "Cbar", "Dbar"):
        c = parts[piece].coeffs
        k = m - 1 if piece == "Cbar" else m
        c[k] = np.nextafter(c[k], np.inf)
        parts[piece] = ToeplitzSpec(m, c)
    else:
        v = parts[piece].copy()
        v[0] = np.nextafter(v[0], np.inf)
        parts[piece] = v
    return TpcOperator(**parts)


def random_tpc(rng, m, symmetric=False, banded_bw=None):
    """Random TpcOperator with symmetric data (which it then reports) or
    without, optionally with a banded part."""
    def spec(sym):
        c = rng.standard_normal(2 * m - 1)
        if sym:
            c = 0.5 * (c + c[::-1])
        return ToeplitzSpec(m, c)

    if symmetric:
        A = spec(True)
        Dbar = spec(True)
        Bbar = spec(False)
        Cbar = Bbar.transpose()
        p = rng.standard_normal(m)
        q = p.copy()
        xi = rng.standard_normal(m)
        zeta = xi.copy()
    else:
        A, Bbar, Cbar, Dbar = spec(False), spec(False), spec(False), spec(False)
        p, q, xi, zeta = (rng.standard_normal(m) for _ in range(4))
    o = float(rng.standard_normal())
    banded = None
    if banded_bw is not None:
        n = 2 * m + 1
        bands = {}
        for l in range(-banded_bw, banded_bw + 1):
            if symmetric and l < 0:
                continue
            bands[l] = rng.standard_normal(n - abs(l))
        if symmetric:
            for l in list(bands):
                if l > 0:
                    bands[-l] = bands[l].copy()
        banded = BandedCorrection(n, bands)
    return TpcOperator(A, Bbar, Cbar, Dbar, p, q, xi, zeta, o, banded=banded)


# ---------------------------------------------------------------------------
# References for the stacked set-up: coarsen_tpc, coarsen_banded and
# kernels._tpc_from_tables as they were written block by block, each block
# and each band through fresh arrays.  The package must equal them bitwise.

def ref_coeffs(spec):
    """spec's full generating sequence, written out here."""
    full = np.zeros(2 * spec.m - 1)
    k = spec.lo + spec.m - 1
    full[k:k + spec.data.size] = spec.data
    return full


def ref_coarsen_sequence(full):
    """The five-point rule on one full generating sequence."""
    even, odd = full[0::2], full[1::2]
    return ((even[:-2] + even[2:]) + 4.0 * (odd[:-1] + odd[1:])
            + 6.0 * even[1:-1]) / 8.0


def ref_coarsen_tpc(fine):
    """Block-by-block Galerkin coarsening of a Toeplitz-plus-Cross level."""
    m = fine.m
    mc = (m - 1) // 2
    fa, fb, fc, fd = (ref_coeffs(fine.A), ref_coeffs(fine.Bbar),
                      ref_coeffs(fine.Cbar), ref_coeffs(fine.Dbar))
    A, B, C, D = (ToeplitzSpec(mc, ref_coarsen_sequence(f)) for f in (fa, fb, fc, fd))
    left = np.concatenate([fa[m - 1:][::-1], [fine.q[-1]], fc[m - 1:][::-1]])
    right = np.concatenate([fb[:m][::-1], [fine.zeta[0]], fd[:m][::-1]])
    col = restrict(fine.col + 0.5 * (left + right))
    above = np.concatenate([fa[:m], [fine.p[-1]], fb[:m]])
    below = np.concatenate([fc[m - 1:], [fine.xi[0]], fd[m - 1:]])
    row = restrict(fine.row + 0.5 * (above + below))
    banded = None if fine.banded is None else ref_coarsen_banded(fine.banded)
    return TpcOperator(A, B, C, D, col[:mc], row[:mc], col[mc + 1:],
                       row[mc + 1:], col[mc], banded=banded)


def ref_coarsen_banded(fine):
    """Band-by-band stencil coarsening, one temporary per stencil term."""
    n = fine.n
    nc = (n - 1) // 2
    bwc = min(nc - 1, (fine.bandwidth + 2) // 2) if fine.bands else 0
    weights = ((-1, 1.0), (0, 2.0), (1, 1.0))
    terms = [(a, b) for a in weights for b in weights]
    mirrored = [(b, a) for a, b in terms]
    bands = {}
    for lc in range(-bwc, bwc + 1):
        count = nc - abs(lc)
        acc = np.zeros(count)
        row = 2 * max(0, -lc) + 1
        for (da, wa), (db, wb) in terms if lc >= 0 else mirrored:
            lf = 2 * lc + db - da
            band = fine.band(lf)
            if band is None:
                continue
            start = row + da if lf >= 0 else row + 2 * lc + db
            acc += (wa * wb / 8.0) * band[start:start + 2 * count - 1:2]
        if np.any(acc):
            bands[lc] = acc
    return BandedCorrection(nc, bands)


def ref_tpc_from_tables(m, tM, tQ, tP, tN, banded=None, scale=1.0, shift=0.0):
    """The operator of shift*I + scale*([M Q; P N] + banded), each table
    fitted and each generating sequence concatenated on its own."""
    def fit(table, size):
        out = np.zeros(size)
        table = np.asarray(table, dtype=float)[:size]
        np.multiply(table, scale, out=out[:table.size])
        return out

    tM, tQ, tP, tN = fit(tM, m), fit(tQ, m), fit(tP, m), fit(tN, m + 1)
    tM[0] += shift
    tN[0] += shift
    A = ToeplitzSpec(m, np.concatenate([tM[1:][::-1], tM]))
    Bbar = ToeplitzSpec(m, np.concatenate([tQ[:m - 1][::-1], tQ]))
    Cbar = ToeplitzSpec(m, np.concatenate([tP[::-1], tP[:m - 1]]))
    Dbar = ToeplitzSpec(m, np.concatenate([tN[1:m][::-1], tN[:m]]))
    xi = tN[1:]
    if banded is not None:
        banded = banded.scaled(scale)
    return TpcOperator(A, Bbar, Cbar, Dbar, tQ, tP, xi, xi, tN[0], banded)


# ---------------------------------------------------------------------------
# References for the embedded symbols: TpcOperator._block_symbols as it was
# written block by block, and the peridynamic fold spectra as one batched
# transform of the stacked weight columns.  kernels._embedded_symbols, the
# one builder of both, must equal them bitwise.

def ref_block_symbols(op):
    """(L, S0, S1) of op's blocks ((A, Dbar), (Bbar, Cbar)), each block's
    embedding column transformed on its own and stored into the stack."""
    specs = (op.A, op.Dbar, op.Bbar, op.Cbar)
    length = kernels._embedding_length(op.m, max(spec.reach for spec in specs))
    S = np.empty((2, 2, length // 2 + 1), dtype=complex)
    for k, spec in enumerate(specs):
        S[k // 2, k % 2] = kernels._rfft(kernels._embedding_column(spec, length))
    return length, S[0], S[1]


def ref_fold_spectra(system):
    """(L, S0, S1) of a PdSystem's fold weights wA, wD, wB, wC over eta:
    one batched transform of the (4, L) column stack."""
    r = system.cfg.r
    a, a_half, c, d = system.tables
    length = kernels._embedding_length(r + 1, r)
    columns = np.zeros((4, length))
    for col, w in zip(columns, (a[1:], d[1:], a_half[1:], c)):
        col[:w.size] = w
    columns /= system.scale
    S = kernels._rfft(columns).reshape(2, 2, length // 2 + 1)
    return length, S[0], S[1]


def same_symbols(symbols, ref):
    """Whether two (L, S0, S1) agree bitwise."""
    return (symbols[0] == ref[0]
            and all(s.shape == t.shape and s.tobytes() == t.tobytes()
                    for s, t in zip(symbols[1:], ref[1:])))


def row_by_row_circulant_product(views, length, S0, S1, u0, u1):
    """kernels._circulant_product with each of the two rows transformed on
    its own, through the same views: the reference that the batched
    transforms must equal bitwise."""
    X, F, off, swapped, pad, z0, z1 = views
    pad.fill(0.0)
    z0[...] = u0
    z1[...] = u1
    for row, spectrum in zip(X, F):
        kernels._rfft(row, out=spectrum)
    np.multiply(swapped, S1, out=off)   # (K01 u1, K10 u0)
    F *= S0                             # (K00 u0, K11 u1)
    F += off
    for spectrum, row in zip(F, X):
        kernels._irfft(spectrum, length, out=row)
