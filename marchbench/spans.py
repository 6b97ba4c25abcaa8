"""Spans around the public functions of each tpcmg module, and the
per-layer metrics derived from them.

A span is (name, start, end, parent, trace): the parent is the span that
was open when it started, and trace numbers the march it belongs to.  Spans
stay in memory, in flat arrays, until the run ends.  A layer's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import types
from array import array
from time import perf_counter

import numpy as np

from tpcmg import gamma_model, hierarchy, kernels, solver, timestepper

# Level sizes n = 2^k - 1 reported per level; n = 7 is the coarsest level
# of every hierarchy here and is factored, not multiplied.
LEVEL_SIZES = tuple(2 ** k - 1 for k in range(4, 17))

# (module or class, attribute looked up by its caller, span name)
_FUNCTIONS = (
    (timestepper, "solve", "solver.solve"),
    (timestepper, "build_hierarchy", "hierarchy.build"),
    (timestepper, "fold_boundary_rhs", "peridynamic.fold"),
    (timestepper, "sample_collar", "peridynamic.collar"),
    (timestepper, "pd_exact_forcing", "peridynamic.forcing"),
    (timestepper, "assemble_pd_system", "peridynamic.assemble"),
    (timestepper, "gamma_exact_forcing", "gamma_model.forcing"),
    (timestepper, "assemble_gamma_system", "gamma_model.assemble"),
    (solver, "restrict", "hierarchy.restrict"),
    (solver, "prolong", "hierarchy.prolong"),
    (hierarchy, "coarsen_tpc", "hierarchy.coarsen"),
    (hierarchy, "coarsen_banded", "hierarchy.coarsen"),
    (hierarchy.Hierarchy, "__init__", "hierarchy.coarse_factor"),
    (kernels, "toeplitz_matvec", "kernels.toeplitz"),
    (kernels.BandedCorrection, "matvec", "kernels.banded"),
    (gamma_model.GammaSystem, "boundary_vector", "gamma_model.boundary"),
)


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self.trace_id = 0
        self._open = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid, fn, args, kwargs):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.trace.append(self.trace_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(i)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.start[i] = t0
            self.end[i] = t1

    def wrap(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function where its caller looks it up; the
        originals are back in place when the block exits."""
        saved = []

        def swap(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for owner, attr, name in _FUNCTIONS:
                swap(owner, attr, self.wrap(name, getattr(owner, attr)))
            matvec = kernels.TpcOperator.matvec
            level_ids = {}

            def level_matvec(op, x):
                nid = level_ids.get(op.n)
                if nid is None:
                    nid = level_ids[op.n] = self.name_id(f"kernels.matvec.n{op.n}")
                return self.call(nid, matvec, (op, x), {})
            swap(kernels.TpcOperator, "matvec", level_matvec)
            sla = solver.sla
            swap(solver, "sla", types.SimpleNamespace(
                lu_solve=self.wrap("hierarchy.coarse_solve", sla.lu_solve)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def totals(self, trace):
        """{name: (calls, seconds, self seconds)} of one trace."""
        trace_of = np.frombuffer(self.trace, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        sel = trace_of == trace
        name = np.frombuffer(self.name, dtype=np.int32)[sel]
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name, dur[sel], minlength=len(self.names))
        self_secs = np.bincount(name, own[sel], minlength=len(self.names))
        return {label: (int(calls[i]), float(secs[i]), float(self_secs[i]))
                for i, label in enumerate(self.names) if calls[i]}


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples beyond
    it, as (percentile, value)."""
    n = len(samples)
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.median(samples))


def _summed(per_trace):
    out = {}
    for tot in per_trace:
        for label, values in tot.items():
            out[label] = tuple(a + b for a, b in zip(out.get(label, (0, 0.0, 0.0)), values))
    return out


def matvec_calls(tot):
    return sum(c for label, (c, _, _) in tot.items() if label.startswith("kernels.matvec.n"))


def repeat_counts(tot, result):
    """Counts of one march that must repeat exactly from march to march:
    kernels.matvec.calls, solver.vcycles and peridynamic.fold.calls."""
    return (matvec_calls(tot), sum(result.iterations),
            tot.get("peridynamic.fold", (0,))[0])


def layer_metrics(per_trace, results, hier):
    """Per-march means of the traced spans (one totals dict per march),
    plus counts from the MarchResults and the shape of one hierarchy."""
    tot = _summed(per_trace)
    k = len(per_trace)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0] / k

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0))[1] / k

    def self_secs(name):
        return tot.get(name, (0, 0.0, 0.0))[2] / k

    vcycles = sum(sum(r.iterations) for r in results) / k
    matvec_s = {int(label[len("kernels.matvec.n"):]): s for label, (_, s, _) in tot.items()
                if label.startswith("kernels.matvec.n")}
    m = {
        "kernels.matvec.calls": matvec_calls(tot) / k,
        "kernels.matvec.s": sum(matvec_s.values()) / k,
        "kernels.matvec.n_ge_2047.share":
            sum(s for n, s in matvec_s.items() if n >= 2047) / sum(matvec_s.values()),
    }
    for n in LEVEL_SIZES:
        c = calls(f"kernels.matvec.n{n}")
        m[f"kernels.matvec.n{n}.us"] = secs(f"kernels.matvec.n{n}") / c * 1e6 if c else 0.0
    m.update({
        "kernels.toeplitz.calls": calls("kernels.toeplitz"),
        "kernels.toeplitz.s": secs("kernels.toeplitz"),
        "kernels.banded.s": secs("kernels.banded"),
        "hierarchy.build.s": secs("hierarchy.build"),
        "hierarchy.coarsen.s": secs("hierarchy.coarsen"),
        "hierarchy.coarse_factor.s": secs("hierarchy.coarse_factor"),
        "hierarchy.levels": hier.depth,
        "hierarchy.storage_per_n": hier.coefficient_storage() / hier.finest.n,
        "hierarchy.restrict.s": secs("hierarchy.restrict"),
        "hierarchy.prolong.s": secs("hierarchy.prolong"),
        "hierarchy.transfer.calls": calls("hierarchy.restrict") + calls("hierarchy.prolong"),
        "hierarchy.coarse_solve.s": secs("hierarchy.coarse_solve"),
        "hierarchy.coarse_solve.calls": calls("hierarchy.coarse_solve"),
        "solver.solve.s": secs("solver.solve"),
        "solver.solve.self_s": self_secs("solver.solve"),
        "solver.us_per_vcycle": secs("solver.solve") / vcycles * 1e6,
        "solver.vcycles": vcycles,
        "solver.stalled": sum(sum(rep.stalled for rep in r.reports) for r in results) / k,
        "solver.contraction": float(np.median(
            [rep.contraction_estimate for r in results for rep in r.reports])),
        "timestepper.rhs.s": secs("timestepper.rhs"),
        "timestepper.march.self_s": self_secs("timestepper.march"),
        "timestepper.steps": sum(len(r.reports) for r in results) / k,
        "peridynamic.fold.s": secs("peridynamic.fold"),
        "peridynamic.fold.calls": calls("peridynamic.fold"),
        "peridynamic.collar.s": secs("peridynamic.collar"),
        "peridynamic.forcing.s": secs("peridynamic.forcing"),
        "peridynamic.assemble.s": secs("peridynamic.assemble"),
        "gamma_model.forcing.s": secs("gamma_model.forcing"),
        "gamma_model.boundary.s": secs("gamma_model.boundary"),
        "gamma_model.assemble.s": secs("gamma_model.assemble"),
    })
    return m
