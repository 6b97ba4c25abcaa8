"""Brute-force dense references used by the test suite and the verify command.

Everything here is deliberately independent of the fast kernels: dense
matrices are assembled entry-by-entry or through scipy.linalg.toeplitz,
Galerkin products use explicit stencil matrices, the V-cycle is a product
of dense level matrices, and products/solves go through BLAS/LAPACK.
Agreement between this module and the structured path is evidence, not
tautology.  Sizes are capped around n = 257 to keep the O(n^3) work
sub-second.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate as integrate
import scipy.linalg as sla

from . import gamma_model, peridynamic
from .solver import SmootherConfig

__all__ = [
    "restriction_matrix",
    "dense_galerkin",
    "dense_solve",
    "sym_eig_extremes",
    "dense_vcycle",
    "two_grid_a_norm",
    "gamma_dense_reference",
    "gamma_forcing_quadrature",
    "pd_dense_reference",
    "pd_full_domain_operator",
    "pd_forcing_quadrature",
    "CheckResult",
    "CertificationReport",
    "certify_section4",
]


def restriction_matrix(n):
    """Dense full-weighting restriction, shape ((n-1)/2, n)."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"restriction needs odd n >= 3, got {n}")
    nc = (n - 1) // 2
    R = np.zeros((nc, n))
    for i in range(nc):
        R[i, 2 * i:2 * i + 3] = (0.25, 0.5, 0.25)
    return R


def dense_galerkin(A):
    """Coarse operator R A P with explicit stencil matrices, P = 2 R^T."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("dense_galerkin needs a square matrix")
    R = restriction_matrix(n)
    return R @ A @ (2.0 * R.T)


def dense_solve(A, b):
    """LU solve with partial pivoting; raises on singular input."""
    A = np.asarray(A, dtype=float)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = sla.lu_factor(A)
    tiny = np.finfo(float).eps * max(float(np.abs(lu).max()), 1.0) * A.shape[0]
    if np.any(np.abs(np.diag(lu)) <= tiny):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    return sla.lu_solve((lu, piv), np.asarray(b, dtype=float))


def sym_eig_extremes(A, tol=1e-12):
    """Extreme eigenvalues of a symmetric matrix via LAPACK."""
    A = np.asarray(A, dtype=float)
    scale = np.abs(A).max() or 1.0
    if np.abs(A - A.T).max() > tol * scale:
        raise ValueError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(vals[0]), float(vals[-1])


def dense_vcycle(levels, cfg):
    """Dense matrix of one V(m1, m2) cycle from the zero guess on the dense
    level matrices ``levels`` (finest first), built recursively with R,
    P = 2 R^T and a dense solve at the coarsest level."""
    A = np.asarray(levels[0], dtype=float)
    eye = np.eye(A.shape[0])
    if len(levels) == 1:
        return dense_solve(A, eye)
    R = restriction_matrix(A.shape[0])
    Dinv = np.diag(1.0 / np.diag(A))
    X = np.zeros_like(A)
    for _ in range(cfg.m1):
        X = X + cfg.omega_pre * Dinv @ (eye - A @ X)
    X = X + 2.0 * R.T @ dense_vcycle(levels[1:], cfg) @ R @ (eye - A @ X)
    for _ in range(cfg.m2):
        X = X + cfg.omega_post * Dinv @ (eye - A @ X)
    return X


def two_grid_a_norm(A):
    """||E||_A of the two-grid error propagator E = I - B A, B one default
    V(1, 1) cycle on [A, dense_galerkin(A)].  With A = L L^T this is the
    spectral norm of L^T E L^{-T} = I - L^T B L.  A must be exactly
    symmetric, as a TpcOperator's symmetry is read bitwise, and positive
    definite."""
    A = np.asarray(A, dtype=float)
    if not np.array_equal(A, A.T):
        raise ValueError("the A-norm needs a symmetric positive definite A")
    L = np.linalg.cholesky(A)   # LinAlgError, a ValueError, unless A is SPD
    B = dense_vcycle([A, dense_galerkin(A)], SmootherConfig())
    return float(np.linalg.norm(np.eye(A.shape[0]) - L.T @ B @ L, 2))


# ---------------------------------------------------------------------------
# reference assemblies (no Toeplitz-plus-Cross mapping involved)

def gamma_dense_reference(cfg):
    """Dense gamma-kernel system straight from the coefficient tables."""
    co = gamma_model.gamma_coefficients(cfg.gamma, cfg.N)
    N = cfg.N
    M = sla.toeplitz(co.m)
    Nn = sla.toeplitz(co.n)
    P = sla.toeplitz(np.concatenate([[co.p[0]], co.p]), co.p)
    Q = sla.toeplitz(co.q, np.concatenate([[co.q[0]], co.q]))
    diag = np.concatenate([co.d[1::2], co.d[0::2]])
    A = np.diag(diag) - np.block([[M, Q], [P, Nn]])
    scale = (3.0 - cfg.gamma) * (2.0 - cfg.gamma) * (1.0 - cfg.gamma) \
        / cfg.h ** (1.0 - cfg.gamma)
    return A, scale


def gamma_forcing_quadrature(x, t, gamma):
    """Adaptive-quadrature forcing f = u_t + Ku for u = e^t (1+x)^6; the
    integral is split at the kernel singularity."""
    u = lambda y: (1.0 + y) ** 6

    def integrand(y):
        return (u(x) - u(y)) * abs(x - y) ** (-gamma)

    total = 0.0
    for lo, hi in ((0.0, x), (x, 1.0)):
        if hi > lo:
            val, _ = integrate.quad(integrand, lo, hi, limit=400,
                                    epsabs=1e-13, epsrel=1e-13)
            total += val
    return np.exp(t) * ((1.0 + x) ** 6 + total)


def pd_dense_reference(cfg):
    """Dense peridynamic system from the coefficient lists via toeplitz."""
    co = peridynamic.pd_coefficients(cfg.r, cfg.symmetric)
    N, r = cfg.N, cfg.r
    pad = lambda v, ln: np.concatenate([v, np.zeros(ln - v.size)])
    A = sla.toeplitz(pad(co.a, N - 1))
    B = sla.toeplitz(pad(co.a_half, N - 1),
                     pad(np.concatenate([[co.a_half[0]], co.a_half]), N))
    if cfg.symmetric:
        C = B.T
        D = sla.toeplitz(pad(co.a, N))
    else:
        C = sla.toeplitz(pad(np.concatenate([[co.c[0]], co.c]), N),
                         pad(co.c, N - 1))
        D = sla.toeplitz(pad(co.d, N))
    return np.block([[A, B], [C, D]])


def pd_full_domain_operator(cfg):
    """Stencil assembly over interior plus collar nodes.

    Returns (A_in, A_out, exterior_x): interior columns in block order,
    exterior (collar) columns in sample_collar's flat order (left_v,
    left_w, right_v, right_w), and the collar coordinates.  Used to
    validate fold_boundary_rhs by dense elimination.
    """
    co = peridynamic.pd_coefficients(cfg.r, cfg.symmetric)
    N, r, h = cfg.N, cfg.r, cfg.h
    if cfg.symmetric:
        c_row = np.concatenate([co.a_half, [0.0]])   # distance m+1/2 -> a_{m+1/2}
        d_row = co.a
    else:
        c_row = co.c
        d_row = co.d

    # columns: all nodes at doubled coordinates 2*x/h in [-2r, 2(N+r)]
    col_of = {}
    order = []
    for i in range(-r, N + r + 1):
        col_of[2 * i] = len(order)
        order.append(2 * i)
    for i in range(-r, N + r):
        col_of[2 * i + 1] = len(order)
        order.append(2 * i + 1)
    G = np.zeros((2 * N - 1, len(order)))
    for i in range(1, N):                  # integer rows
        row = i - 1
        G[row, col_of[2 * i]] += co.a[0]
        for mm in range(1, r + 1):
            G[row, col_of[2 * (i + mm)]] += co.a[mm]
            G[row, col_of[2 * (i - mm)]] += co.a[mm]
        for mm in range(r):
            G[row, col_of[2 * i + 2 * mm + 1]] += co.a_half[mm]
            G[row, col_of[2 * i - 2 * mm - 1]] += co.a_half[mm]
    for i in range(1, N + 1):              # half rows, node i - 1/2
        row = N - 2 + i
        x2 = 2 * i - 1
        G[row, col_of[x2]] += d_row[0]
        for mm in range(1, r + 1):
            G[row, col_of[x2 + 2 * mm]] += d_row[mm]
            G[row, col_of[x2 - 2 * mm]] += d_row[mm]
        for mm in range(c_row.size):
            G[row, col_of[x2 + 2 * mm + 1]] += c_row[mm]
            G[row, col_of[x2 - 2 * mm - 1]] += c_row[mm]

    interior = [col_of[2 * i] for i in range(1, N)] \
        + [col_of[2 * i + 1] for i in range(N)]
    left_v = [col_of[2 * i] for i in range(-r, 1)]
    left_w = [col_of[2 * i + 1] for i in range(-r, 0)]
    right_v = [col_of[2 * i] for i in range(N, N + r + 1)]
    right_w = [col_of[2 * i + 1] for i in range(N, N + r)]
    exterior = left_v + left_w + right_v + right_w
    ext_x = np.array([order[k] * h / 2.0 for k in exterior])
    return G[:, interior], G[:, exterior], ext_x


def pd_forcing_quadrature(x, t, delta):
    """Quadrature forcing for the peridynamic manufactured solution."""
    u = lambda y: (1.0 + y) ** 6
    val, _ = integrate.quad(lambda y: u(x) - u(y), x - delta, x + delta, limit=200)
    return np.exp(t) * (1.0 + x) ** 6 + 3.0 * delta ** (-3.0) * np.exp(t) * val


# ---------------------------------------------------------------------------
# section-4 certification

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: value={self.value:.6g} threshold={self.threshold:.6g}{extra}"


@dataclass
class CertificationReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]


def certify_section4(cfg):
    """Evaluate the checkable convergence-theory inequalities densely.

    For the shifted-symmetric peridynamic operator at modest N this checks:
    zero interior row sums with weak diagonal dominance, positive
    definiteness, lambda_max(D^{-1} A) in [1, 2], the omega = 1/2 smoothing
    inequality as a PSD test, the sharp approximation constant mu* <= 24,
    and the A-norm ||E||_A of the two-grid error propagator (two_grid_a_norm,
    the quantity the theorem bounds) against sqrt(47/48).
    """
    if not cfg.symmetric:
        raise ValueError("section-4 certification applies to the symmetric variant")
    if cfg.N > 64:
        raise ValueError("certification is a dense check; use N <= 64")

    A = peridynamic.assemble_pd_system(cfg).op.dense()
    n = A.shape[0]
    r = cfg.r
    a0 = float(A[0, 0])
    checks = []

    rows = A.sum(axis=1)
    offdiag_max = float((A - np.diag(np.diag(A))).max())
    # interior rows: full stencil inside the domain
    vin = np.arange(r, cfg.N - 1 - r)
    win = cfg.N - 1 + np.arange(r, cfg.N - r)
    interior = np.concatenate([vin, win])
    zero_sum = float(np.abs(rows[interior]).max()) if interior.size else 0.0
    checks.append(CheckResult(
        "zero interior row sums", zero_sum <= 1e-12 * a0, zero_sum, 1e-12 * a0))
    checks.append(CheckResult(
        "weak diagonal dominance", bool(rows.min() >= -1e-12 * a0) and offdiag_max <= 0.0,
        float(rows.min()), -1e-12 * a0, detail="row sums nonnegative, off-diagonal nonpositive"))

    lam_min, lam_max = sym_eig_extremes(A)
    checks.append(CheckResult("positive definiteness: lambda_min(A) > 0",
                              lam_min > 0.0, lam_min, 0.0))

    d = np.diag(A)
    dhalf = 1.0 / np.sqrt(d)
    G = dhalf[:, None] * A * dhalf[None, :]
    _, g_max = sym_eig_extremes(0.5 * (G + G.T))
    checks.append(CheckResult("lambda_max(D^{-1} A) <= 2",
                              1.0 - 1e-10 <= g_max <= 2.0 + 1e-10, g_max, 2.0,
                              detail="smoothing-lemma range [1, 2]"))

    S = np.eye(n) - 0.5 * (A / d[:, None])
    Msm = A - 0.5 * (A @ ((1.0 / d)[:, None] * A)) - S.T @ A @ S
    sm_min, _ = sym_eig_extremes(0.5 * (Msm + Msm.T))
    norm_a = float(np.abs(A).max())
    checks.append(CheckResult("smoothing inequality PSD at omega = 1/2",
                              sm_min >= -1e-10 * norm_a, sm_min, -1e-10 * norm_a))

    R = restriction_matrix(n)
    P = 2.0 * R.T
    PtDP = P.T @ (d[:, None] * P)
    proj = P @ sla.solve(PtDP, P.T @ np.diag(d), assume_a="pos")
    Qc = np.eye(n) - proj
    Mq = Qc.T @ np.diag(d) @ Qc
    mu = float(np.max(np.real(sla.eigvals(0.5 * (Mq + Mq.T), A))))
    checks.append(CheckResult("approximation constant mu* <= 24", mu <= 24.0, mu, 24.0))

    norm_e = two_grid_a_norm(A)
    bound = float(np.sqrt(47.0 / 48.0))
    checks.append(CheckResult("two-grid ||E||_A <= sqrt(47/48)",
                              norm_e <= bound, norm_e, bound))
    return CertificationReport(checks)
