"""Time whole tpcmg BDF4 marches on one workload and print the result.

    python3 marchbench/run.py --workload pdsym-quarter-512 --seed 1 --seconds 60 --trace 0

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, taken from marches whose tpcmg functions are wrapped in
spans, alternated with untraced marches that give the tracing overhead.
The line before it is a JSON object with the run's metadata.  The exit code
is 0 only if every solve converged, every march matched its frozen
reference error, the dense step check agreed, and the traced counts
repeated exactly.  The seed picks the BDF4 step checked against the dense
solve and, when tracing, whether a traced or an untraced march goes first;
the workload inputs themselves are fixed.
"""

import os

# One thread for BLAS and OpenMP; this must happen before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SETUPS_PER_MARCH = 5


def _git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(args, src):
    import scipy
    import scipy.fft
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "fft_workers": scipy.fft.get_workers(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(src.parent), "src": str(src),
    }


class Tally:
    """Operations attempted and failed: solves, marches and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def _timed_march(wl, w, tally, wrap_rhs=None):
    """(wall seconds, MarchResult or None, seconds of each rhs call)."""
    rhs_times = []

    def stopwatch(rhs):
        rhs = wrap_rhs(rhs) if wrap_rhs else rhs

        def timed(t):
            t0 = time.perf_counter()
            out = rhs(t)
            rhs_times.append(time.perf_counter() - t0)
            return out
        return timed

    t0 = time.perf_counter()
    try:
        result = wl.march(w, wrap_rhs=stopwatch)
    except Exception as exc:    # a raising march is a failed operation
        tally.add(1, 1, f"march raised {exc!r}")
        return time.perf_counter() - t0, None, rhs_times
    elapsed = time.perf_counter() - t0
    unconverged, off = wl.march_failures(w, result)
    tally.add(len(result.reports), unconverged, f"{unconverged} solves did not converge")
    tally.add(1, off, f"max_error {result.max_error!r} misses {w.reference_error!r}")
    return elapsed, result, rhs_times


def _setup_batch(wl, w):
    times = []
    for _ in range(SETUPS_PER_MARCH):
        t0 = time.perf_counter()
        wl.setup(w)
        times.append(time.perf_counter() - t0)
    return times


def _memory_pass(wl, w):
    """tracemalloc peak over set-up plus a short march; also the warm-up."""
    tracemalloc.start()
    try:
        wl.setup(w)
        wl.march(w, steps=wl.MEMORY_STEPS)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _dense_check(wl, w, rng, tally):
    if not w.is_pd:
        return
    k = rng.randrange(4, w.steps + 1)
    gap, converged = wl.dense_step_error(w, k)
    tally.add(1, int(not (converged and gap <= wl.DENSE_RTOL)),
              f"dense check at step {k}: gap {gap!r}, converged {converged}")


def _median(values):
    return statistics.median(values) if values else float("nan")


def fastest_repeat(marches):
    """(march seconds, per-step solve ms) of the run's marches, each step
    at its fastest repeat.

    marches holds (wall seconds, MarchResult, rhs seconds per step).  Every
    march repeats the same steps, and host contention on a shared machine
    comes and goes over seconds, so a median over one run inherits that
    run's share of contended time.  Instead the march time is the sum over
    steps of the fastest right-hand side plus solve of that step, plus the
    fastest remainder (assembly, hierarchy build, history sums) of any
    march; the solve time is the median over steps of the fastest solve.
    Set-up time is treated the same way: each march is followed by a batch
    of SETUPS_PER_MARCH set-ups, and setup_s is the median over the batch
    positions of the fastest set-up at that position.
    """
    if not marches:
        return float("nan"), float("nan")
    solves = np.array([[rep.wall_time for rep in r.reports] for _, r, _ in marches])
    steps = solves + np.array([rhs for _, _, rhs in marches])
    rest = min(t - row.sum() for (t, _, _), row in zip(marches, steps))
    return (float(steps.min(axis=0).sum() + rest),
            float(np.median(solves.min(axis=0)) * 1e3))


def end_to_end(wl, w, seconds, tally):
    peak_mb = _memory_pass(wl, w)
    start = time.perf_counter()
    marches, setups = [], []
    while True:
        t_iter = time.perf_counter()
        march = _timed_march(wl, w, tally)
        if march[1] is not None:
            marches.append(march)
        setups.append(_setup_batch(wl, w))
        now = time.perf_counter()
        if now - start + (now - t_iter) > seconds:
            break
    march_s, solve_ms = fastest_repeat(marches)
    results = [r for _, r, _ in marches]
    iters = [it for r in results for it in r.iterations]
    return {
        "march_s": march_s,
        "setup_s": float(np.median(np.min(setups, axis=0))),
        "solve_ms.p50": solve_ms,
        "vcycles_per_step": statistics.fmean(iters) if iters else float("nan"),
        "max_error": _median([r.max_error for r in results]),
        "peak_mem_mb": peak_mb,
    }


def per_layer(wl, spans, w, seconds, rng, tally):
    wl.march(w, steps=wl.MEMORY_STEPS)             # warm-up
    rec = spans.SpanRecorder()
    march_id = rec.name_id("timestepper.march")
    traced_first = rng.random() < 0.5
    plain, traced, trace_ids, counts = [], [], [], set()
    start = time.perf_counter()
    i = 0
    while True:
        t_iter = time.perf_counter()
        if (i % 2 == 0) == traced_first:
            rec.trace_id = i
            with rec.patched():
                march = rec.call(march_id, _timed_march, (wl, w, tally),
                                 {"wrap_rhs": lambda f: rec.wrap("timestepper.rhs", f)})
            if march[1] is not None:
                traced.append(march)
                trace_ids.append(i)
                counts.add(spans.repeat_counts(rec.totals(i), march[1]))
        else:
            march = _timed_march(wl, w, tally)
            if march[1] is not None:
                plain.append(march)
        i += 1
        now = time.perf_counter()
        if i >= 2 and now - start + (now - t_iter) > seconds:
            break
    tally.add(1, int(len(counts) > 1), f"traced counts differ between marches: {sorted(counts)}")
    metrics = spans.layer_metrics([rec.totals(j) for j in trace_ids],
                                  [r for _, r, _ in traced], wl.setup(w))
    walls = [rep.wall_time * 1e3 for _, r, _ in plain for rep in r.reports]
    pct, tail = spans.tail_percentile(walls)
    traced_s = fastest_repeat(traced)[0]
    metrics.update({
        "solver.solve_ms.tail": tail,
        "solver.solve_ms.tail_pct": pct,
        "solver.solve_ms.samples": len(walls),
        "trace.march_s": traced_s,
        "trace.overhead_s": traced_s - fastest_repeat(plain)[0],
    })
    return metrics


def main(argv=None):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="tpcmg source tree to measure (default: this checkout's)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "tpcmg" / "__init__.py").is_file():
        print(f"marchbench: no tpcmg package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tpcmg
    if Path(tpcmg.__file__).resolve().parent != src / "tpcmg":
        print(f"marchbench: imported tpcmg from {tpcmg.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    rng = random.Random(args.seed)
    tally = Tally()
    _dense_check(wl, w, rng, tally)
    if args.trace:
        values, wanted = per_layer(wl, spans, w, args.seconds, rng, tally), spec["per_layer"]
    else:
        values, wanted = end_to_end(wl, w, args.seconds, tally), spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value if value == value else None, "unit": m["unit"]}
        print(f"{args.workload:20s} {m['name']:28s} {value:.6g} {m['unit']}")
    for note in tally.notes:
        print(f"FAILED: {note}")
    correct = tally.failed == 0
    print(json.dumps({"meta": _metadata(args, src)}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
