import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpcmg.bench import (model_config, rows_to_csv, run_scaling, run_table,
                         run_verify, table_json)
from tpcmg.cli import build_parser, main
from tpcmg.timestepper import TransientConfig, bdf4_march, pd_manufactured_problem


class TestRunTable:
    def test_pd_sym_small(self):
        rows = run_table("pd-sym", [16, 32], delta=0.25)
        assert [r.N for r in rows] == [16, 32]
        assert rows[0].rate is None
        assert rows[1].rate == pytest.approx(np.log2(rows[0].error / rows[1].error))
        assert rows[1].error == pytest.approx(1.1628e-05, rel=0.01)

    def test_rate_is_order_per_halving_of_h(self):
        rows = run_table("pd-sym", [16, 64, 128, 128], delta=0.25)
        e = [r.error for r in rows]
        assert rows[1].rate == pytest.approx(np.log2(e[0] / e[1]) / 2.0)
        assert 3.5 <= rows[1].rate <= 4.5
        assert rows[2].rate == float(np.log2(e[1] / e[2]))   # doubling: unchanged
        assert rows[3].rate is None                           # repeated N: no order

    def test_csv_layout_and_determinism(self):
        rows1 = run_table("gamma", [16, 32], gamma=0.5)
        rows2 = run_table("gamma", [16, 32], gamma=0.5)
        csv1, csv2 = rows_to_csv(rows1), rows_to_csv(rows2)
        assert csv1.splitlines()[0] == "N,error,rate,cpu,iter"
        strip = lambda text: [",".join(np.array(line.split(","))[[0, 1, 2, 4]])
                              for line in text.splitlines()]
        assert strip(csv1) == strip(csv2)   # bit-stable except the cpu column

    def test_json_schema(self):
        rows = run_table("pd-nonsym", [16], delta=0.25)
        out = table_json("pd-nonsym", {"delta": "0.25"}, rows)
        assert set(out) == {"model", "params", "rows"}
        assert set(out["rows"][0]) == {"N", "error", "rate", "cpu", "iter", "wall"}

    def test_wall_covers_assembly_and_march(self):
        row, = run_table("pd-sym", [16], delta=0.25)
        assert row.wall > row.cpu > 0.0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            run_table("heat", [16])


class TestRunVerify:
    def test_pd_sym_passes(self):
        lines, passed = run_verify("pd-sym", 16, r=1)
        assert passed
        assert any(line.startswith("PASS") for line in lines)

    def test_gamma_skips_spd_checks(self):
        lines, passed = run_verify("gamma", 16, gamma=0.5)
        assert passed
        assert any("nonsymmetric: not applicable" in line for line in lines)

    def test_pd_nonsym_skips_spd_checks(self):
        lines, passed = run_verify("pd-nonsym", 16, delta=0.25)
        assert passed
        assert any("nonsymmetric: not applicable" in line for line in lines)

    def test_skip_lines_shared_by_nonsymmetric_models(self):
        gamma, _ = run_verify("gamma", 16, gamma=0.5)
        nonsym, _ = run_verify("pd-nonsym", 16, delta=0.25)
        assert gamma[1:] == nonsym[1:]
        assert len(gamma) == 6 and all(line.startswith("SKIP") for line in gamma[1:])


class TestRunScaling:
    def test_rows_and_ratios(self):
        out = run_scaling("pd-sym", [64, 128], delta=0.25, reps=3)
        assert len(out["rows"]) == 2
        assert len(out["ratios"]) == 1
        assert all(row["setup"] > 0 for row in out["rows"])
        ratio = out["ratios"][0]
        assert ratio["setup"] == out["rows"][1]["setup"] / out["rows"][0]["setup"]
        assert out["rows"][0]["storage"] <= 8 * out["rows"][0]["n"]

    def test_no_repetitions_rejected(self):
        with pytest.raises(ValueError, match="reps must be at least 1"):
            run_scaling("pd-sym", [16], reps=0)

    @pytest.mark.parametrize("reps", [2.5, float("nan"), 3.0, "3", None])
    def test_non_integer_reps_rejected(self, reps):
        with pytest.raises(ValueError, match="reps must be an integer"):
            run_scaling("pd-sym", [16], reps=reps)

    def test_dense_compare(self):
        out = run_scaling("pd-sym", [64], delta=0.25, reps=3, dense_compare_N=64)
        assert out["dense_compare"]["speedup"] > 0

    @pytest.mark.slow
    def test_dense_compare_speedup_at_256(self):
        """One-shot apply: materialize-and-multiply loses >= 5x by N = 2^8."""
        for _ in range(2):
            out = run_scaling("pd-sym", [256], delta=0.25, reps=5,
                              dense_compare_N=256)
            if out["dense_compare"]["speedup"] >= 5.0:
                break
        assert out["dense_compare"]["speedup"] >= 5.0


class TestCli:
    def test_table_csv(self, capsys):
        code = main(["table", "--model", "pd-sym", "--N", "16", "--N", "32",
                     "--delta", "0.25", "--out", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "N,error,rate,cpu,iter"
        assert len(out.splitlines()) == 3

    def test_table_csv_no_rate_after_failed_row(self, capsys):
        """8 cycles are too few at N = 32: that row fails, so N = 64 has
        no previous error to take an order against.  The N = 64 error is
        the library's own march of that problem, formatted as rows_to_csv
        formats it (its last digit sits at the solves' roundoff)."""
        code = main(["table", "--model", "pd-sym", "--N", "32", "--N", "64",
                     "--max-iter", "8", "--out", "csv"])
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        march = bdf4_march(pd_manufactured_problem(model_config("pd-sym", 64)),
                           TransientConfig(tau=1.0 / 64), max_iter=8)
        assert all(rep.converged for rep in march.reports)
        assert code == 1
        assert [row[:3] for row in rows] == [["32", "nan", ""],
                                             ["64", f"{march.max_error:.6e}", ""]]

    def test_table_pretty_has_wall_column(self, capsys):
        code = main(["table", "--model", "pd-sym", "--N", "16", "--delta", "0.25"])
        header = capsys.readouterr().out.splitlines()[0]
        assert code == 0
        assert header.split() == ["N", "error", "rate", "cpu[s]", "iter", "wall[s]"]

    def test_table_json(self, capsys):
        code = main(["table", "--model", "gamma", "--N", "16", "--gamma", "0.5",
                     "--out", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "gamma"

    def test_verify_sym(self, capsys):
        code = main(["verify", "--model", "pd-sym", "--N", "16", "--r", "1"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_gamma_not_applicable(self, capsys):
        code = main(["verify", "--model", "gamma", "--N", "16", "--gamma", "0.9"])
        assert code == 0
        assert "not applicable" in capsys.readouterr().out

    def test_scaling_pretty(self, capsys):
        code = main(["scaling", "--model", "pd-sym", "--N", "64", "--N", "128",
                     "--delta", "0.25", "--reps", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "growth" in out
        assert out.count("setup=") == 2 and out.count("setup x") == 1

    def test_scaling_json(self, capsys):
        code = main(["scaling", "--model", "pd-sym", "--N", "16", "--N", "32",
                     "--reps", "1", "--out", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["N"] for row in out["rows"]] == [16, 32]
        assert [ratio["N"] for ratio in out["ratios"]] == [16]
        assert "dense_compare" not in out

    def test_scaling_pretty_dense_compare(self, capsys):
        code = main(["scaling", "--model", "pd-sym", "--N", "16", "--reps", "1",
                     "--dense-compare-N", "16"])
        assert code == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("dense comparison at N=16: fast ")
        assert " vs dense " in last

    def test_sqrt_h_delta(self, capsys):
        code = main(["table", "--model", "pd-sym", "--N", "16",
                     "--delta", "sqrt-h", "--out", "csv"])
        assert code == 0

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--model", "laplace", "--N", "8"])
        assert exc.value.code == 2

    # explicit ids, so that a new case renames no other; the first cases
    # keep the argv<k> ids that their list positions once gave them
    @pytest.mark.parametrize("argv,message", [
        pytest.param(["table", "--model", "pd-sym", "--N", "6"], "N must be a power of two",
                     id="argv0-N must be a power of two"),
        pytest.param(["table", "--model", "pd-sym", "--N", "16", "--m1", "-1"], "m1 must be",
                     id="argv1-m1 must be"),
        pytest.param(["table", "--model", "gamma", "--N", "16", "--gamma", "1.5"],
                     "gamma must be", id="argv2-gamma must be"),
        pytest.param(["table", "--model", "pd-sym", "--N", "16", "--omega-post", "0"],
                     "omega_post", id="argv3-omega_post"),
        pytest.param(["table", "--model", "pd-sym", "--N", "16", "--tol", "0"], "tol must be",
                     id="argv4-tol must be"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "8", "--r", "7"],
                     "stencil overflow", id="argv5-stencil overflow"),
        pytest.param(["scaling", "--model", "pd-sym", "--N", "64", "--N", "96"], "N must be",
                     id="argv6-N must be"),
        pytest.param(["table", "--model", "pd-sym", "--N", "16", "--coarsest", "0"],
                     "--coarsest must be at least 3",
                     id="argv7---coarsest must be at least 3"),
        pytest.param(["scaling", "--model", "pd-sym", "--N", "16", "--reps", "0"],
                     "--reps must be at least 1", id="argv8---reps must be at least 1"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "16", "--m1", "2"],
                     "unrecognized arguments: --m1 2",
                     id="argv9-unrecognized arguments: --m1 2"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "16", "--out", "json"],
                     "unrecognized arguments: --out json",
                     id="argv10-unrecognized arguments: --out json"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "16", "--tol", "0"],
                     "unrecognized arguments: --tol 0",
                     id="argv11-unrecognized arguments: --tol 0"),
        pytest.param(["scaling", "--model", "pd-sym", "--N", "16", "--seed", "1"],
                     "unrecognized arguments: --seed 1",
                     id="argv12-unrecognized arguments: --seed 1"),
        pytest.param(["scaling", "--model", "pd-sym", "--N", "16", "--out", "csv"],
                     "argument --out: invalid choice: 'csv'",
                     id="argv13-argument --out: invalid choice: 'csv'"),
        pytest.param(["table", "--model", "pd-sym", "--N", "16", "--seed", "1"],
                     "unrecognized arguments: --seed 1",
                     id="argv14-unrecognized arguments: --seed 1"),
        pytest.param(["table", "--model", "pd-sym", "--N", "32", "--delta", "inf"],
                     "delta must be positive and finite",
                     id="argv15-delta must be positive and finite"),
        pytest.param(["table", "--model", "pd-sym", "--N", "32", "--delta", "1e400"],
                     "delta must be positive and finite",
                     id="argv16-delta must be positive and finite"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "32", "--delta", "inf"],
                     "delta must be positive and finite",
                     id="argv17-delta must be positive and finite"),
        pytest.param(["scaling", "--model", "pd-sym", "--N", "16", "--dense-compare-N", "6"],
                     "--dense-compare-N: N must be a power of two >= 4, got 6",
                     id="argv18---dense-compare-N: N must be a power of two >= 4, got 6"),
        pytest.param(["scaling", "--model", "pd-sym", "--N", "16", "--dense-compare-N", "0"],
                     "--dense-compare-N: N must be a power of two >= 4, got 0",
                     id="argv19---dense-compare-N: N must be a power of two >= 4, got 0"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "16", "--seed", "1"],
                     "unrecognized arguments: --seed 1",
                     id="argv20-unrecognized arguments: --seed 1"),
        pytest.param(["table", "--model", "pd-sym", "--N", "32", "--delta", "abc"],
                     "argument --delta: delta must be a number or 'sqrt-h', got 'abc'",
                     id="argv21-argument --delta: delta must be a number or 'sqrt-h', "
                        "got 'abc'"),
        pytest.param(["table", "--model", "pd-sym", "--N", "32", "--delta", "-1"],
                     "argument --delta: delta must be positive",
                     id="argv22-argument --delta: delta must be positive"),
        pytest.param(["verify", "--model", "gamma", "--N", "16", "--r", "3"],
                     "--r does not apply to --model gamma", id="gamma-with-r"),
        pytest.param(["table", "--model", "gamma", "--N", "16", "--delta", "0.1"],
                     "--delta does not apply to --model gamma", id="gamma-with-delta"),
        pytest.param(["scaling", "--model", "gamma", "--N", "16", "--delta", "0.25"],
                     "--delta does not apply to --model gamma", id="gamma-with-default-delta"),
        pytest.param(["table", "--model", "pd-sym", "--N", "16", "--gamma", "0.7"],
                     "--gamma does not apply to --model pd-sym", id="pd-sym-with-gamma"),
        pytest.param(["verify", "--model", "pd-nonsym", "--N", "16", "--gamma", "0"],
                     "--gamma does not apply to --model pd-nonsym",
                     id="pd-nonsym-with-default-gamma"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "16", "--r", "0"],
                     "--r must be at least 1, got 0", id="verify-r-zero"),
        pytest.param(["verify", "--model", "pd-nonsym", "--N", "16", "--r", "-2"],
                     "--r must be at least 1, got -2", id="verify-r-negative"),
        pytest.param(["verify", "--model", "pd-sym", "--N", "16", "--r", "2",
                      "--delta", "0.25"],
                     "--r and --delta both set the horizon", id="verify-r-with-delta"),
    ])
    def test_invalid_argument_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("command,dests", [
        ("table", {"tol", "max_iter", "omega_pre", "omega_post", "m1", "m2",
                   "coarsest", "out"}),
        ("verify", {"r"}),
        ("scaling", {"coarsest", "reps", "dense_compare_N", "out"}),
    ])
    def test_each_command_has_only_its_flags(self, command, dests):
        args = build_parser().parse_args([command, "--model", "pd-sym", "--N", "16"])
        assert set(vars(args)) == {"command", "model", "N", "gamma", "delta"} | dests

    def test_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "tpcmg.cli", "table",
                              "--model", "pd-sym", "--N", "16", "--out", "csv"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("N,error")

    def test_package_runs_as_module(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-m", "tpcmg", "--help"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert "table" in out.stdout
