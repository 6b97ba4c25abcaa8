"""Command-line benchmark harness.

Subcommands:
  table    march the manufactured problem and print N/error/rate/cpu/iter
  verify   run the dense convergence-theory certification checks
  scaling  time set-up, matvecs and V-cycles across sizes

Exit codes: 0 success, 1 criteria failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (MODELS, model_config, rows_pretty, rows_to_csv, run_scaling,
                    run_table, run_verify, table_json)
from .peridynamic import SQRT_H
from .solver import SmootherConfig, _check_stopping


def _delta_arg(value):
    if value == SQRT_H:
        return value
    try:
        out = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"delta must be a number or '{SQRT_H}', got {value!r}")
    if out <= 0:
        raise argparse.ArgumentTypeError("delta must be positive")
    return out


def _add_model(p):
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--N", action="append", type=int, required=True,
                   help="grid size, repeatable")
    p.add_argument("--gamma", type=float, help="gamma model only (default 0)")
    p.add_argument("--delta", type=_delta_arg,
                   help=f"pd models only: positive number or '{SQRT_H}' (default 0.25)")


def build_parser():
    """One subparser per command, each with only the flags its branch of
    main reads; any other flag is a usage error."""
    parser = argparse.ArgumentParser(prog="tpcmg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    table, verify, scaling = (sub.add_parser(name) for name in ("table", "verify", "scaling"))
    for p in (table, verify, scaling):
        _add_model(p)
    table.add_argument("--tol", type=float, default=1e-15)
    table.add_argument("--max-iter", type=int, default=200)
    table.add_argument("--omega-pre", type=float, default=1.0)
    table.add_argument("--omega-post", type=float, default=0.5)
    table.add_argument("--m1", type=int, default=1)
    table.add_argument("--m2", type=int, default=1)
    table.add_argument("--coarsest", type=int, default=7)
    table.add_argument("--out", choices=("csv", "json", "pretty"), default="pretty")
    verify.add_argument("--r", type=int, default=None,
                        help="pd models only: mesh ratio r >= 1 for delta = r/N, not with --delta")
    scaling.add_argument("--coarsest", type=int, default=7)
    scaling.add_argument("--reps", type=int, default=5)
    scaling.add_argument("--dense-compare-N", type=int, default=None)
    scaling.add_argument("--out", choices=("json", "pretty"), default="pretty")
    return parser


def _check_args(args):
    """Check every value the command reads before any work: an invalid one,
    or a flag the model does not read, raises ValueError here.  Fills in
    the defaults of --gamma and --delta; returns the smoother for table,
    else None."""
    unread = ("delta", "r") if args.model == "gamma" else ("gamma",)
    for flag in unread:
        if getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} does not apply to --model {args.model}")
    r = getattr(args, "r", None)
    if r is not None and args.delta is not None:
        raise ValueError("--r and --delta both set the horizon: give one of them")
    if r is not None and r < 1:
        raise ValueError(f"--r must be at least 1, got {r}")
    args.gamma = 0.0 if args.gamma is None else args.gamma
    args.delta = 0.25 if args.delta is None else args.delta
    smoother = None
    if args.command == "table":
        smoother = SmootherConfig(omega_pre=args.omega_pre, omega_post=args.omega_post,
                                  m1=args.m1, m2=args.m2)
        _check_stopping(args.tol, args.max_iter)
    if "coarsest" in args and args.coarsest < 3:
        raise ValueError(f"--coarsest must be at least 3, got {args.coarsest}")
    if "reps" in args and args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    for N in args.N:
        model_config(args.model, N, args.gamma, args.delta if r is None else r / N)
    dense_N = getattr(args, "dense_compare_N", None)
    if dense_N is not None:
        try:
            model_config(args.model, dense_N, args.gamma, args.delta)
        except ValueError as exc:
            raise ValueError(f"--dense-compare-N: {exc}") from None
    return smoother


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        smoother = _check_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "table":
        rows = run_table(args.model, args.N, gamma=args.gamma, delta=args.delta,
                         tol=args.tol, max_iter=args.max_iter,
                         smoother=smoother, coarsest=args.coarsest)
        params = {"gamma": args.gamma} if args.model == "gamma" else {"delta": str(args.delta)}
        if args.out == "csv":
            sys.stdout.write(rows_to_csv(rows))
        elif args.out == "json":
            json.dump(table_json(args.model, params, rows), sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(rows_pretty(rows))
        failed = any(r.error != r.error for r in rows)   # NaN marks a bad row
        return 1 if failed else 0

    if args.command == "verify":
        status = 0
        for N in args.N:
            lines, passed = run_verify(args.model, N, gamma=args.gamma,
                                       delta=args.delta, r=args.r)
            print(f"# model={args.model} N={N}")
            for line in lines:
                print(line)
            status |= 0 if passed else 1
        return status

    if args.command == "scaling":
        out = run_scaling(args.model, args.N, gamma=args.gamma, delta=args.delta,
                          reps=args.reps, coarsest=args.coarsest,
                          dense_compare_N=args.dense_compare_N)
        if args.out == "json":
            json.dump(out, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            for row in out["rows"]:
                print(f"N={row['N']:>7} n={row['n']:>7} setup={row['setup']*1e3:9.3f}ms "
                      f"matvec={row['matvec']*1e3:9.3f}ms "
                      f"vcycle={row['vcycle']*1e3:9.3f}ms levels={row['levels']} "
                      f"storage={row['storage']}")
            for ratio in out["ratios"]:
                print(f"growth {ratio['N']} -> {2*ratio['N']}: setup x{ratio['setup']:.2f} "
                      f"matvec x{ratio['matvec']:.2f} vcycle x{ratio['vcycle']:.2f}")
            if "dense_compare" in out:
                d = out["dense_compare"]
                print(f"dense comparison at N={d['N']}: fast {d['fast']*1e3:.3f}ms "
                      f"vs dense {d['dense']*1e3:.3f}ms (x{d['speedup']:.1f})")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
