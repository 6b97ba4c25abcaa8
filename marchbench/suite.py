"""Run every workload, once or many times, on one or two tpcmg trees.

    python3 marchbench/suite.py                        # every workload once
    python3 marchbench/suite.py --runs 10 --out .bench_results
    python3 marchbench/suite.py --runs 10 --out .bench_results \\
        --src base=../parent/src --src new=src         # alternating pairs

Each run is a fresh `run.py` process.  With two trees, run i measures them
in the order (first, second) for even i and (second, first) for odd i, with
the same seed, so the comparator can pair them.  Every result is appended
as one JSON line to <out>/<label>.jsonl.  The exit code is nonzero if any
run failed or reported an incorrect result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def _source(text):
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError("expected LABEL=PATH")
    return label, Path(path).resolve()


def main(argv=None):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="seed of run 0; run i uses seed+i")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", action="append", type=_source,
                        help="LABEL=PATH of a tpcmg source tree, at most twice; "
                             "default: this=<checkout>/src")
    parser.add_argument("--out", type=Path, help="directory for <label>.jsonl result sets")
    args = parser.parse_args(argv)
    sources = args.src or [("this", REPO / "src")]
    if len(sources) > 2 or len({label for label, _ in sources}) != len(sources):
        parser.error("give at most two --src trees with distinct labels")
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    ok = True
    for i in range(args.runs):
        seed = args.seed + i
        order = sources if i % 2 == 0 else sources[::-1]
        for workload in args.workload or names:
            for position, (label, src) in enumerate(order):
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--src", str(src)]
                proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                                      timeout=600)
                lines = proc.stdout.splitlines()
                try:
                    meta = json.loads(lines[-2])["meta"]
                    result = json.loads(lines[-1])
                except (IndexError, KeyError, ValueError):
                    meta, result = None, None
                good = proc.returncode == 0 and result is not None and result["correct"]
                ok = ok and good
                print(f"# run {i} seed {seed} {label}: {'ok' if good else 'FAILED'}")
                sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")))
                print()
                if not good:
                    sys.stdout.write(proc.stderr)
                if args.out:
                    record = {"workload": workload, "seed": seed, "pair": i,
                              "position": position, "returncode": proc.returncode,
                              "meta": meta, "result": result}
                    with open(args.out / f"{label}.jsonl", "a") as fh:
                        fh.write(json.dumps(record) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
