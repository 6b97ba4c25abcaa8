"""The set-up builds each level from one stacked array of generating
sequences (coarsen_tpc, coarsen_banded and kernels._tpc_from_tables).  It
must store bitwise what the block-by-block references in conftest store:
every window's offset and bytes, both cross lines and whether they are one
array, o, every band and whether a band shares its mirror, and
``symmetric``."""

import numpy as np
import pytest

from tpcmg import (BandedCorrection, GammaModelConfig, PdModelConfig,
                   ToeplitzSpec, TpcOperator, assemble_gamma_system,
                   assemble_pd_system, build_hierarchy, build_step_operator,
                   coarsen_banded, coarsen_tpc)
from tpcmg.kernels import _tpc_from_tables

from conftest import (assert_same_bytes, ref_coarsen_banded, ref_coarsen_tpc,
                      ref_tpc_from_tables)

SIZES_M = (3, 7, 15, 31, 63, 127)         # n = 7 ... 255


def assert_same_level(op, ref):
    assert_same_bytes(op, ref)
    assert_same_bands(op.banded, ref.banded)


def assert_same_bands(banded, ref):
    """Bitwise the same bands, each sharing its mirror exactly when ref's
    does."""
    bands = {} if banded is None else banded.bands
    expected = {} if ref is None else ref.bands
    assert {l: b.tobytes() for l, b in bands.items()} == \
        {l: b.tobytes() for l, b in expected.items()}
    assert {l: b is bands.get(-l) for l, b in bands.items()} == \
        {l: b is expected.get(-l) for l, b in expected.items()}


WORKLOADS = {
    "pdsym-quarter-512": (
        lambda: assemble_pd_system(PdModelConfig(N=512, delta=0.25, symmetric=True))),
    "pdnonsym-sqrth-512": (
        lambda: assemble_pd_system(PdModelConfig(N=512, delta="sqrt-h", symmetric=False))),
    "gamma-half-32k": (
        lambda: assemble_gamma_system(GammaModelConfig(N=2 ** 15, gamma=0.5))),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_hierarchy_matches_reference(name):
    """The stationary and step operators, and every coarse level of the
    step operator's hierarchy coarsened from the level above it."""
    system = WORKLOADS[name]()
    N = system.cfg.N
    tau = 1.0 / N
    assert_same_level(system.op, ref_tpc_from_tables(N - 1, *system.tables, system.banded))
    step = build_step_operator(system, tau)
    assert_same_level(step, ref_tpc_from_tables(
        N - 1, *system.tables, system.banded, scale=tau / system.scale, shift=25.0 / 12.0))
    levels = build_hierarchy(step).levels
    for fine, coarse in zip(levels, levels[1:]):
        assert_same_level(coarse, ref_coarsen_tpc(fine))


def _window(rng, m, lo, hi, palindrome=False):
    """A window over the offsets lo .. hi with some interior zeros, one of
    them -0.0."""
    data = rng.standard_normal(hi - lo + 1)
    zeros = rng.random(data.size) < 0.15
    if palindrome:
        data = 0.5 * (data + data[::-1])
        zeros |= zeros[::-1]
    data[zeros] = 0.0
    if data.size > 2:
        data[data.size // 2] = -0.0
    return ToeplitzSpec._from_window(m, lo, data)


def random_windowed_tpc(rng, m, symmetric, kind, bandwidth):
    """A random operator whose windows are dense (reach about m - 1) or
    banded (reach about m/4), with unequal ends unless symmetry needs them
    mirrored, and with a banded part of the given bandwidth, or none."""
    reach = m - 1 if kind == "dense" else max(1, m // 4)

    def ends():
        return -int(rng.integers(reach // 2, reach + 1)), int(rng.integers(0, reach + 1))

    def palindrome():
        r = int(rng.integers(0, reach + 1))
        return _window(rng, m, -r, r, palindrome=True)

    B = _window(rng, m, *ends())
    if symmetric:
        A, C, D = palindrome(), B.transpose(), palindrome()
        p, xi = rng.standard_normal(m), rng.standard_normal(m)
        q, zeta = p, xi
    else:
        A, C, D = (_window(rng, m, *ends()) for _ in range(3))
        p, q, xi, zeta = (rng.standard_normal(m) for _ in range(4))
    banded = None
    if bandwidth is not None:
        n = 2 * m + 1
        bands = {l: rng.standard_normal(n - l) for l in range(bandwidth + 1)}
        for l in range(1, bandwidth + 1):
            bands[-l] = bands[l].copy() if symmetric else rng.standard_normal(n - l)
        banded = BandedCorrection(n, bands)
    return TpcOperator(A, B, C, D, p, q, xi, zeta, float(rng.standard_normal()),
                       banded=banded)


@pytest.mark.parametrize("bandwidth", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["dense", "banded"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("m", SIZES_M)
def test_random_coarsening_matches_reference(m, symmetric, kind, bandwidth):
    rng = np.random.default_rng([m, int(symmetric), int(kind == "dense"),
                                 0 if bandwidth is None else bandwidth + 1])
    fine = random_windowed_tpc(rng, m, symmetric, kind, bandwidth)
    assert fine.symmetric == symmetric
    coarse = coarsen_tpc(fine)
    assert_same_level(coarse, ref_coarsen_tpc(fine))
    assert coarse.symmetric == symmetric


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2 * m + 1 for m in SIZES_M])
def test_random_banded_coarsening_matches_reference(n, bandwidth):
    """Bands with one off-diagonal missing and one mirror pair equal."""
    rng = np.random.default_rng([n, bandwidth])
    bands = {l: rng.standard_normal(n - abs(l)) for l in range(-bandwidth, bandwidth + 1)}
    if bandwidth >= 1:
        bands[-1] = bands[1].copy()
    if bandwidth >= 2:
        del bands[2]
    fine = BandedCorrection(n, bands)
    assert_same_bands(coarsen_banded(fine), ref_coarsen_banded(fine))


@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("m", SIZES_M)
def test_random_tables_match_reference(m, banded):
    """Tables shorter and longer than their blocks, scaled and shifted or
    not, with a banded part or without."""
    rng = np.random.default_rng([m, int(banded)])
    n = 2 * m + 1
    for scale, shift in ((1.0, 0.0), (float(rng.random()), 25.0 / 12.0)):
        tables = [rng.standard_normal(int(rng.integers(1, m + 4))) for _ in range(4)]
        part = BandedCorrection(n, {0: rng.standard_normal(n)}) if banded else None
        assert_same_level(_tpc_from_tables(m, *tables, part, scale=scale, shift=shift),
                          ref_tpc_from_tables(m, *tables, part, scale=scale, shift=shift))
    # tP = tQ: the symmetric case, one cross line
    tM, tQ, tN = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal(m + 1)
    op = _tpc_from_tables(m, tM, tQ, tQ, tN)
    assert op.symmetric and op.row is op.col
    assert_same_level(op, ref_tpc_from_tables(m, tM, tQ, tQ, tN))
