"""Compare two result sets written by suite.py.

    python3 marchbench/compare.py .bench_results/base.jsonl .bench_results/new.jsonl \\
        --claim march_s@pdsym-quarter-512

For every end-to-end metric and workload it prints each side's median and
quartiles (statistics.quantiles, n=4) and a verdict against the bound in
BENCHMARK.json:

  better        every new run beats every base run
  unresolved    either side's runs spread (Q3-Q1)/median by more than the bound
  regression    the new median is worse than the base median by more than the bound
  within bound  otherwise

A claim METRIC@WORKLOAD is met when the new side wins at least 9/10 of the
(base, new) pairs that suite.py ran in alternating order, ties counting for
neither, and the medians differ by more than the base side's Q3-Q1.
Per-layer metrics of traced sets are listed without a verdict, and the
counts that must repeat exactly are checked across every run of both sets.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPEATING = ("kernels.matvec.calls", "solver.vcycles", "peridynamic.fold.calls")


def load(path):
    """{workload: {pair: metrics}} of one .jsonl set, and the failed runs."""
    runs, failed = {}, []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        result = rec["result"]
        if rec["returncode"] != 0 or result is None or not result["correct"]:
            failed.append((rec["workload"], rec["seed"]))
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(rec["workload"], {})[rec["pair"]] = values
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med)


def _beats(new, base, metric):
    return new < base if metric["better"] == "lower" else new > base


def verdict(base, new, metric):
    """Verdict of one (metric, workload) for value lists base and new."""
    if all(_beats(n, b, metric) for n in new for b in base):
        return "better"
    if max(spread(base), spread(new)) > metric["bound"]:
        return "unresolved"
    med = quartiles(base)[1]
    change = (quartiles(new)[1] - med) / abs(med)
    if (change if metric["better"] == "lower" else -change) > metric["bound"]:
        return "regression"
    return "within bound"


def claim(base_runs, new_runs, metric):
    """(wins, pairs, met) for the pair-win rule."""
    pairs = sorted(set(base_runs) & set(new_runs))
    if not pairs:
        return 0, 0, False
    base = [base_runs[p][metric["name"]] for p in pairs]
    new = [new_runs[p][metric["name"]] for p in pairs]
    wins = sum(_beats(n, b, metric) for n, b in zip(new, base))
    bq1, bmed, bq3 = quartiles(base)
    met = wins >= 0.9 * len(pairs) and abs(quartiles(new)[1] - bmed) > bq3 - bq1
    return wins, len(pairs), met


def main(argv=None):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)

    base, base_failed = load(args.base)
    new, new_failed = load(args.new)
    for label, failed in (("base", base_failed), ("new", new_failed)):
        for workload, seed in failed:
            print(f"{label}: run of {workload} with seed {seed} failed or was incorrect")

    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    gated = {m["name"] for m in spec["end_to_end"]}
    head = f"{'workload':20s} {'metric':28s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'change':>8s}  verdict"
    print(head)
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        names = sorted(set.intersection(*(set(v) for v in list(b_runs.values()) + list(n_runs.values()))),
                       key=lambda n: (n not in gated, n))
        for name in names:
            bv = [r[name] for r in b_runs.values() if r[name] is not None]
            nv = [r[name] for r in n_runs.values() if r[name] is not None]
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            change = f"{(nq[1] - bq[1]) / bq[1]:+8.2%}" if bq[1] else " " * 8
            text = verdict(bv, nv, metrics[name]) if name in gated else ""
            regressions += text == "regression"
            print(f"{workload:20s} {name:28s} "
                  f"{' / '.join(f'{q:.4g}' for q in bq):>32s} "
                  f"{' / '.join(f'{q:.4g}' for q in nq):>32s} {change}  {text}")
        for name in REPEATING:
            seen = {r[name] for r in list(b_runs.values()) + list(n_runs.values()) if name in r}
            if seen:
                print(f"{workload:20s} {name:28s} repeats exactly: {len(seen) == 1} {sorted(seen)}")

    for text in args.claim:
        name, _, workload = text.partition("@")
        if name not in metrics or workload not in base or workload not in new:
            parser.error(f"no such metric and workload in both sets: {text}")
        wins, pairs, met = claim(base[workload], new[workload], metrics[name])
        print(f"claim {text}: new wins {wins}/{pairs} pairs -> {'met' if met else 'not met'}")
    return 1 if regressions or base_failed or new_failed else 0


if __name__ == "__main__":
    sys.exit(main())
