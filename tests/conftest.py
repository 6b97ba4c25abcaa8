import numpy as np
import pytest
import scipy.linalg as sla

from tpcmg import BandedCorrection, ToeplitzSpec, TpcOperator


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
    return ToeplitzSpec._from_window(spec.m, spec.lo, spec.data * s)


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
