"""kernels._embedded_symbols is the one builder of block-product symbols:
a TpcOperator's block symbols and a PdSystem's fold spectra both come from
it, bitwise equal to the references in conftest, and a ToeplitzSpec keeps
no transform state of its own."""

import pytest

from tpcmg import (GammaModelConfig, PdModelConfig, ToeplitzSpec, TpcOperator,
                   assemble_gamma_system, assemble_pd_system, build_hierarchy,
                   build_step_operator, kernels, toeplitz_matvec)

from conftest import ref_block_symbols, ref_fold_spectra, same_symbols

WORKLOADS = {
    "pdsym-quarter-512": lambda: assemble_pd_system(
        PdModelConfig(N=512, delta=0.25, symmetric=True)),
    "pdnonsym-sqrth-512": lambda: assemble_pd_system(
        PdModelConfig(N=512, delta="sqrt-h", symmetric=False)),
    "gamma-half-32k": lambda: assemble_gamma_system(GammaModelConfig(N=2 ** 15, gamma=0.5)),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_block_symbols_match_reference(workload):
    """Every level of the workload's step hierarchy, the coarsest too."""
    system = WORKLOADS[workload]()
    hier = build_hierarchy(build_step_operator(system, 1.0 / system.cfg.N))
    for op in hier.levels:
        ref = ref_block_symbols(op)
        assert same_symbols(op._block_symbols(), ref), f"level n = {op.n}"


@pytest.mark.parametrize("symmetric", [True, False], ids=["pd-sym", "pd-nonsym"])
@pytest.mark.parametrize("r", [1, 2, 22, 128])
def test_fold_spectra_match_reference(r, symmetric):
    system = assemble_pd_system(PdModelConfig(N=512, delta=r / 512, symmetric=symmetric))
    assert system.cfg.r == r
    assert same_symbols(system._fold_spectra, ref_fold_spectra(system))


def test_specs_hold_no_transform_state(rng):
    """A spec holds m, lo and data, after its own matvec and after the
    products of an operator built from it."""
    m = 40
    spec = ToeplitzSpec(m, rng.standard_normal(2 * m - 1))
    other = ToeplitzSpec(m, rng.standard_normal(2 * m - 1))
    fields = {"m", "lo", "data"}
    assert set(vars(spec)) == fields
    toeplitz_matvec(spec, rng.standard_normal(m))
    assert set(vars(spec)) == fields
    op = TpcOperator(spec, other, spec.transpose(), spec,
                     *rng.standard_normal((4, m)), 1.0)
    op.matvec(rng.standard_normal(op.n))
    kernels._level_products([op])[0](rng.standard_normal(op.n))
    for block in (op.A, op.Bbar, op.Cbar, op.Dbar):
        assert set(vars(block)) == fields
