"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s; shown on
failure otherwise).  Expected table values are frozen reference results;
hardware-dependent absolute CPU seconds are not asserted, only growth
ratios.
"""

import time

import numpy as np
import pytest

from tpcmg import (PdModelConfig, ToeplitzSpec, assemble_pd_system,
                   coarsen_tpc, toeplitz_matvec)
from tpcmg.bench import run_scaling, run_table
from tpcmg.oracle import certify_section4, dense_galerkin, two_grid_a_norm

from conftest import dense_toeplitz, random_tpc, scale_shift
from test_hierarchy import EXAMPLE_COARSE_X8, example_fine_operator


def _report(num, ok, detail):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def _sig2(x):
    return f"{x:.1e}"


@pytest.fixture(scope="module")
def table3():
    return run_table("pd-sym", [32, 64, 128, 256], delta=0.25)


@pytest.fixture(scope="module")
def table2():
    return run_table("pd-nonsym", [32, 64, 128, 256], delta=0.25)


@pytest.fixture(scope="module")
def table1_gamma0():
    return run_table("gamma", [32, 64], gamma=0.0)


@pytest.fixture(scope="module")
def table1_gamma5():
    return run_table("gamma", [32, 64, 128, 256], gamma=0.5)


@pytest.fixture(scope="module")
def table3_sqrth():
    return run_table("pd-sym", [32, 64, 128], delta="sqrt-h")


def test_criterion_1_example_reproduction():
    fine = example_fine_operator()
    coarse = coarsen_tpc(fine)              # warm-up call
    # fastest of 5 calls: one descheduled call cannot fail the bound
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        coarsen_tpc(fine)
        times.append(time.perf_counter() - t0)
    elapsed = min(times)
    err = np.abs(8.0 * coarse.dense() - EXAMPLE_COARSE_X8).max()
    _report(1, err <= 1e-14 and elapsed < 1e-3,
            f"worked example coarse matrix: max err x8 = {err:.2e}, "
            f"coarsen time = {elapsed * 1e6:.0f} us")


def test_criterion_2_closed_form_equals_dense_galerkin(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for m in (7, 15, 31, 63):
        for trial in range(50):
            fine = random_tpc(rng, m, symmetric=(trial % 2 == 0))
            fast = coarsen_tpc(fine).dense()
            truth = dense_galerkin(fine.dense())
            worst = max(worst, float(np.abs(fast - truth).max()))
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-12 and elapsed < 10.0,
            f"200 random operators, max |fast - R A P| = {worst:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_3_fft_equals_dense(rng):
    t0 = time.perf_counter()
    worst = 0.0
    sizes = list(np.unique(np.geomspace(2, 4097, 30).astype(int))) + [4097]
    trials = 0
    for m in sizes:                                     # square Toeplitz
        c = rng.uniform(-1, 1, 2 * m - 1)
        c /= 1.0 + np.abs(c).sum()
        spec = ToeplitzSpec(m, c)
        x = rng.uniform(-1, 1, m)
        worst = max(worst, float(np.abs(
            toeplitz_matvec(spec, x) - dense_toeplitz(spec) @ x).max()))
        trials += 1
    while trials < 100:                                  # Toeplitz-plus-Cross
        m = int(rng.integers(3, 2049)) if trials % 3 else 2048
        op = random_tpc(rng, m, symmetric=(trials % 2 == 0),
                        banded_bw=(1 if trials % 5 == 0 else None))
        scale = 1.0 / (1.0 + m)
        op = scale_shift(op, scale, 0.0)
        x = rng.uniform(-1, 1, op.n)
        worst = max(worst, float(np.abs(op.matvec(x) - op.dense() @ x).max()))
        trials += 1
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-11 and elapsed < 30.0,
            f"{trials} trials up to n = 4097, max |fft - dense| = {worst:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_4_table3_spd(table3):
    expect_err = [1.1628e-05, 7.3840e-07, 4.6514e-08, 2.9182e-09]
    expect_rate = [3.98, 3.99, 3.99]
    expect_iter = [9, 7, 6, 5]
    ok = all(_sig2(r.error) == _sig2(e) for r, e in zip(table3, expect_err))
    ok &= all(abs(r.rate - e) <= 0.15 for r, e in zip(table3[1:], expect_rate))
    ok &= all(abs(r.iter - e) <= 2 for r, e in zip(table3, expect_iter))
    _report(4, ok, "SPD horizon-1/4 table: errors "
            + ", ".join(_sig2(r.error) for r in table3)
            + "; rates " + ", ".join(f"{r.rate:.2f}" for r in table3[1:])
            + "; iters " + ", ".join(f"{r.iter:.1f}" for r in table3))


def test_criterion_5_table2_nonsym(table2):
    ok = _sig2(table2[0].error) == _sig2(4.3254e-05)
    ok &= all(abs(r.rate - 4.0) <= 0.15 for r in table2[1:])
    ok &= all(abs(r.iter - e) <= 2 for r, e in zip(table2, [7, 6, 5, 4]))
    _report(5, ok, "nonsymmetric horizon-1/4 table: errors "
            + ", ".join(_sig2(r.error) for r in table2)
            + "; rates " + ", ".join(f"{r.rate:.2f}" for r in table2[1:])
            + "; iters " + ", ".join(f"{r.iter:.1f}" for r in table2))


def test_criterion_6_table1_gamma(table1_gamma0, table1_gamma5):
    ok = _sig2(table1_gamma0[0].error) == _sig2(1.4460e-05)
    ok &= table1_gamma0[0].iter <= 5
    ok &= all(abs(r.rate - 3.69) <= 0.15 for r in table1_gamma5[1:])
    _report(6, ok, "gamma-kernel table: gamma=0 error "
            + _sig2(table1_gamma0[0].error)
            + f", iter {table1_gamma0[0].iter:.1f}; gamma=0.5 rates "
            + ", ".join(f"{r.rate:.2f}" for r in table1_gamma5[1:]))


def test_criterion_7_tgm_contraction():
    t0 = time.perf_counter()
    bound = float(np.sqrt(47.0 / 48.0))
    worst = 0.0
    for r in (1, 2, 3):
        for N in (16, 32, 64, 128):
            system = assemble_pd_system(PdModelConfig(N=N, delta=r / N, symmetric=True))
            worst = max(worst, two_grid_a_norm(system.op.dense()))
    elapsed = time.perf_counter() - t0
    _report(7, worst <= bound and elapsed < 60.0,
            f"two-grid ||E||_A max = {worst:.5f} <= {bound:.5f}, {elapsed:.1f} s")


def test_criterion_8_section4_certification():
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for N, r in ((16, 1), (32, 2), (32, 3), (64, 4), (64, 8)):
        report = certify_section4(PdModelConfig(N=N, delta=r / N, symmetric=True))
        all_ok &= report.passed
        mu = next(c.value for c in report.checks if "mu*" in c.name)
        details.append(f"(N={N}, r={r}: mu*={mu:.2f})")
    elapsed = time.perf_counter() - t0
    _report(8, all_ok and elapsed < 60.0,
            "dominance/SPD/Jacobi-range/smoothing/approximation/factor checks "
            + " ".join(details) + f", {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_9_complexity_and_storage():
    t0 = time.perf_counter()
    ok = True
    ratios = None
    for _ in range(2):                      # one retry for timing noise
        out = run_scaling("pd-sym", [2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15],
                          delta=0.25, reps=5)
        ratios = [r["vcycle"] for r in out["ratios"]]
        ok = all(r <= 2.6 for r in ratios)
        if ok:
            break
    storage_ok = all(row["storage"] <= 8 * row["n"] for row in out["rows"])
    elapsed = time.perf_counter() - t0
    _report(9, ok and storage_ok and elapsed < 60.0,
            "V-cycle growth ratios " + ", ".join(f"{r:.2f}" for r in ratios)
            + " (<= 2.6); storage/n = "
            + ", ".join(f"{row['storage'] / row['n']:.2f}" for row in out["rows"])
            + f" (<= 8), {elapsed:.1f} s")


def test_criterion_10_bdf4_order(table3, table2, table3_sqrth):
    fixed = [r.rate for r in table3[1:]] + [r.rate for r in table2[1:]]
    shrinking = [r.rate for r in table3_sqrth[1:]]
    ok = all(3.2 <= r <= 4.2 for r in fixed)
    ok &= all(2.8 <= r <= 3.6 for r in shrinking)
    _report(10, ok, "observed orders: horizon 1/4 "
            + ", ".join(f"{r:.2f}" for r in fixed)
            + " in [3.2, 4.2]; horizon sqrt(h) "
            + ", ".join(f"{r:.2f}" for r in shrinking) + " in [2.8, 3.6]")
