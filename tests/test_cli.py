"""Command-line behavior: file outputs, determinism, exit codes."""

import codecs
import contextlib
import csv
import datetime
import gc
import hashlib
import io
import json
import locale
import logging
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specport import ingest_csv, read_moments_csv, read_returns_csv
from specport.backtest import parse_timestamp
from specport.cli import _float_option, _parse_grids, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "synthetic_monthly_prices.csv"
# Sharpe table and cumulative returns of the bundled backtest, shared with the benchmark's check
REFERENCE = ROOT / "perfbench" / "reference" / "bundled_backtest.json"
# the artifacts of demos/04_full_backtest.py, the bundled backtest at the CLI's defaults
DEMO_OUTPUT = ROOT / "demos" / "backtest_output"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocess runs."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def exit_and_error(argv, capsys):
    """main(argv)'s exit status and stderr; for a refusal by argparse, which exits, the stderr after its usage lines."""
    try:
        return main(argv), capsys.readouterr().err
    except SystemExit as exc:
        usage, _, err = capsys.readouterr().err.partition(f"specport {argv[0]}: ")
        assert usage.startswith("usage: specport ")
        return exc.code, err


def rho_panel(tmp_path):
    """A 50-asset panel whose A,S,Q backtest before 2036-02 has 2MN = 300 on 312 returns, rho = 0.962."""
    panel = tmp_path / "rho.csv"
    synth = ["synth", "--out", str(panel), "-T", "552", "--n-assets", "50", "--periods", "12,6,3", "--seed", "3"]
    assert main(synth) == 0
    return panel


class TestSynth:
    def test_example1_writes_expected_shape(self, tmp_path):
        out = tmp_path / "ex1.csv"
        code = main(["synth", "--example1", "--seed", "7", "-T", "12000", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 12001  # header + samples
        assert len(rows[0]) == 2  # timestamp + one asset column
        assert (tmp_path / "ex1.csv.config.json").exists()

    def test_same_seed_identical_files(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["synth", "--seed", "3", "-T", "48", "--out", str(out_a)]) == 0
        assert main(["synth", "--seed", "3", "-T", "48", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["synth", "--seed", "3", "-T", "48", "--out", str(out_a)])
        main(["synth", "--seed", "4", "-T", "48", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_zero_horizon_usage_error(self, tmp_path, capsys):
        code = main(["synth", "-T", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: horizon must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-0.02", "inf"])
    def test_negative_or_non_finite_noise_vol_usage_error(self, tmp_path, capsys, value):
        code = main(["synth", "--noise-vol", value, "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: noise_vol must be finite and >= 0, got {float(value)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_price_format_is_positive(self, tmp_path):
        out = tmp_path / "prices.csv"
        assert main(["synth", "--seed", "1", "-T", "24", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[1][0] == "2010-01-01"
        assert all(float(cell) > 0 for row in rows[1:] for cell in row[1:])

    @pytest.mark.parametrize("start", ["foo", "2010-13", "2010-1", "2010-01-15", "２０１０-０１"])
    def test_bad_start_date_exit_2(self, tmp_path, capsys, start):
        out = tmp_path / "p.csv"
        code = main(["synth", "--seed", "1", "-T", "24", "--start-date", start, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "YYYY-MM" in err and repr(start) in err
        assert list(tmp_path.iterdir()) == []

    def test_start_date_rolls_over_year(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["synth", "--seed", "1", "-T", "2", "--start-date", "2010-12", "--out", str(out)]) == 0
        assert [row[0] for row in read_rows(out)[1:]] == ["2010-12-01", "2011-01-01", "2011-02-01"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--noise-vol", "0.5", "-T", "60"], "[stage: synth] returns must exceed -1 (total loss): the first at 4, "
             "asset 'SYN1'"),
            (["--mean-amp", "1e200"], "[stage: synth] returns must exceed -1 (total loss): the first at 0, asset 'SYN3'"),
            # every return exceeds -1, but the prices cumulated from them overflow
            (
                ["--mean-amp", "1e200", "--noise-vol", "0", "--n-assets", "1", "-T", "3", "--seed", "2"],
                "[stage: synth] the data overflow float64: overflow encountered in accumulate",
            ),
            (["--noise-vol", "1e200"], "noise_vol 1e+200 is too large: its square overflows float64"),
            # refused before the draw: up to 1.4 sqrt(4) = 2.8 times 1e308 is beyond float64
            (
                ["--mean-amp", "1e308", "--periods", "12,6,4,3"],
                "mean_amp 1e+308 is too large: the managed mean it scales can overflow float64",
            ),
            (["--n-assets", "-1"], "n_assets must be >= 1, got -1"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--example1", "--seed", "-1"], "seed must be >= 0, got -1"),
            # the last of the 25 prices would fall in the year 10001, which no reader of ISO dates takes
            (["--start-date", "9999-01", "-T", "24"], "--start-date 9999-01: 25 monthly prices from it leave the years "
             "1..9999"),
            # argparse refuses what is not ASCII [+-]?[0-9]+, as int() alone would not
            (["-T", "1_2"], "argument -T/--horizon: invalid int value: '1_2'"),
            (["--seed", "٣"], "argument --seed: invalid int value: '٣'"),
            # and what is not an ASCII float without '_', which float() alone reads
            (["--mean-amp", "0.0_15"], "argument --mean-amp: invalid float value: '0.0_15'"),
            (["--noise-vol", "０.０２"], "argument --noise-vol: invalid float value: '０.０２'"),
        ],
        ids=[
            "noise-vol-0.5",
            "mean-amp-1e200",
            "prices-overflow",
            "noise-vol-1e200",
            "mean-amp-1e308",
            "n-assets-negative",
            "seed-negative",
            "example1-seed-negative",
            "start-date-past-9999",
            "horizon-underscore",
            "seed-arabic-indic",
            "mean-amp-underscore",
            "noise-vol-fullwidth",
        ],
    )
    def test_a_bad_parameter_or_an_invalid_draw_exits_2_writing_nothing(self, tmp_path, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = exit_and_error(["synth", *flags, "--out", str(tmp_path / "p.csv")], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, read, rows",
        [([], ingest_csv, 121), (["--example1", "--format", "returns", "-T", "600"], read_returns_csv, 600)],
        ids=["default", "example1-returns"],
    )
    def test_output_reads_back_with_no_dropped_row(self, tmp_path, caplog, flags, read, rows):
        out = tmp_path / "p.csv"
        assert main(["synth", *flags, "--out", str(out)]) == 0
        with caplog.at_level(logging.WARNING, logger="specport"):
            panel = read(out)
        assert caplog.records == []
        assert len(panel.timestamps) == rows

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "2a8a0ff1317ed2d9524a27a16dcab996500533de6b96195832d6bc33008e0cdb"),
            (["--format", "returns"], "3d548fa0997211aa268641ddd3e14360379caa6dfb3a7796e817ccd2b91c1a63"),
            (["--example1", "-T", "240"], "e092674800a023db11d0034d763c490445033ccebc5d34db4e881c945a60b1ed"),
        ],
        ids=["prices", "returns", "example1"],
    )
    def test_outputs_keep_their_bytes(self, tmp_path, flags, digest):
        # SHA-256 of each file as synth wrote it while SynthSpec still took N as a field:
        # reading N from the managed arrays changed no byte
        out = tmp_path / "p.csv"
        assert main(["synth", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_config_echo_reproduces(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["synth", "--seed", "9", "-T", "36", "--out", str(out)])
        echo = json.loads((tmp_path / "p.csv.config.json").read_text())
        assert echo["seed"] == 9 and echo["horizon"] == 36 and echo["command"] == "synth"


class TestEstimate:
    def test_missing_input_exit_2(self, tmp_path):
        code = main(["estimate", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--periods", "A,A"], "duplicate periods"),
            (["--periods", "0"], "periods must be >= 3"),
            (["--periods", "12,x"], "cannot parse grid period 'x'"),
            (["--periods", "1_2"], "cannot parse grid period '1_2'"),
            (["--periods", ","], "no grid periods in ','"),
            (["--periods", "4,2"], "periods must be >= 3 samples (period 2, the Nyquist bin, has a zero sine column)"),
        ],
    )
    def test_bad_input_named_before_ingest(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "missing.csv"
        code = main(["estimate", "--data", str(missing), *flags, "--out-dir", str(tmp_path / "est")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and str(missing) not in err
        assert not (tmp_path / "est").exists()

    def test_example1_pipeline_ranks_harmonics(self, tmp_path):
        panel = tmp_path / "ex1.csv"
        assert main(["synth", "--example1", "--seed", "7", "-T", "12000", "--out", str(panel)]) == 0
        out_dir = tmp_path / "est"
        code = main(
            [
                "estimate",
                "--data", str(panel),
                "--input-type", "returns",
                "--periods", "24,12,8,5,4",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        rows = read_rows(out_dir / "moments_summary.csv")
        by_mean = sorted(rows[1:], key=lambda row: float(row[2]), reverse=True)
        assert {by_mean[0][1], by_mean[1][1]} == {"24", "8"}
        # period 12 carries the cyclostationary noise: its pseudo-covariance is most of its covariance
        period_12 = dict(zip(rows[0], next(row for row in rows[1:] if row[1] == "12")))
        assert float(period_12["pseudo_norm"]) / float(period_12["cov_norm"]) > 0.5
        assert (out_dir / "spectral_moments.csv").exists()

    def test_demean_estimates_on_demeaned_returns(self, tmp_path):
        from specport import FrequencyGrid, compute_returns, estimate_moments, ingest_csv, read_moments_csv

        argv = ["estimate", "--data", str(DATA), "--periods", "12,6", "--demean", "--out-dir", str(tmp_path / "est")]
        assert main(argv) == 0
        values, grid = compute_returns(ingest_csv(DATA)).returns, FrequencyGrid.from_periods((12, 6))
        expected = estimate_moments(values - values.mean(axis=0, keepdims=True), grid)
        plain = estimate_moments(values, grid)
        moments = read_moments_csv(tmp_path / "est" / "spectral_moments.csv")
        assert np.array_equal(moments.managed_mean, expected.managed_mean)
        assert np.array_equal(moments.managed_covariance, expected.managed_covariance)
        assert not np.array_equal(moments.managed_mean, plain.managed_mean)

    def test_moments_file_round_trips(self, tmp_path):
        out_dir = tmp_path / "est"
        assert (
            main(["estimate", "--data", str(DATA), "--periods", "12,6", "--out-dir", str(out_dir)])
            == 0
        )
        from specport import read_moments_csv

        moments = read_moments_csv(out_dir / "spectral_moments.csv")
        assert moments.grid.periods == (12, 6)
        assert moments.n_assets == 5


class TestBacktest:
    def test_bundled_data_end_to_end(self, tmp_path, capsys):
        out_dir = tmp_path / "bt"
        code = main(
            [
                "backtest",
                "--data", str(DATA),
                "--boundary", "2015-01",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "report written to" in captured
        rows = read_rows(out_dir / "plot_sharpe.csv")
        names = [row[0] for row in rows[1:]]
        assert names == [
            "Spectral MVO (A)",
            "Spectral MVO (A,S)",
            "Spectral MVO (A,S,Q)",
            "MVO",
            "EW",
        ]
        assert (out_dir / "backtest_config.json").exists()
        # each spectral allocation path repeats bit for bit with the least common period, 12 months
        paths = sorted(out_dir.glob("allocations_spectral_mvo_*.csv"))
        assert len(paths) == 3
        for path in paths:
            weights = [row[1:] for row in read_rows(path)[1:]]
            assert len(weights) > 12 and weights[12:] == weights[:-12], path.name

    def test_bundled_report_matches_reference_to_1e_10(self, tmp_path):
        out_dir = tmp_path / "bt"
        assert main(["backtest", "--data", str(DATA), "--boundary", "2015-01", "--out-dir", str(out_dir)]) == 0
        reference = json.loads(REFERENCE.read_text())
        sharpe_rows = read_rows(out_dir / "plot_sharpe.csv")
        assert [row[0] for row in sharpe_rows[1:]] == list(reference["sharpe"])
        sharpe = np.array([float(row[1]) for row in sharpe_rows[1:]])
        assert np.allclose(sharpe, list(reference["sharpe"].values()), rtol=0, atol=1e-10)
        cumulative_rows = read_rows(out_dir / "cumulative_returns.csv")
        expected = reference["cumulative"]
        assert cumulative_rows[0] == expected["header"]
        assert [row[0] for row in cumulative_rows[1:]] == expected["timestamps"]
        cumulative = np.array([[float(v) for v in row[1:]] for row in cumulative_rows[1:]])
        assert np.allclose(cumulative, expected["values"], rtol=0, atol=1e-10)

    def test_bundled_artifacts_match_the_committed_demo_output(self, tmp_path):
        # demos/04_full_backtest.py wrote demos/backtest_output with the CLI's default configuration:
        # the report matches byte for byte, every other artifact to 1e-10 relative
        out_dir = tmp_path / "bt"
        assert main(["backtest", "--data", str(DATA), "--boundary", "2015-01", "--out-dir", str(out_dir)]) == 0
        committed = sorted(DEMO_OUTPUT.iterdir())
        assert [path.name for path in committed] == sorted(p.name for p in out_dir.iterdir() if p.suffix != ".json")

        def close(fresh, expected):
            # entry by entry to 1e-10 relative, or to 1e-10 of the largest entry for one near zero
            expected = np.asarray(expected)
            return np.allclose(fresh, expected, rtol=1e-10, atol=1e-10 * np.max(np.abs(expected)))

        def values(rows):
            return [[float(v) for v in row[1:]] for row in rows[1:]]

        for path in committed:
            fresh = out_dir / path.name
            if path.name == "report.txt":
                assert fresh.read_bytes() == path.read_bytes()
            elif path.name == "spectral_moments.csv":
                new, old = read_moments_csv(fresh), read_moments_csv(path)
                assert (new.grid, new.n_assets, new.sample_count) == (old.grid, old.n_assets, old.sample_count)
                assert close(new.managed_mean, old.managed_mean), path.name
                assert close(new.managed_covariance, old.managed_covariance), path.name
            else:
                new, old = read_rows(fresh), read_rows(path)
                assert new[0] == old[0] and [row[0] for row in new] == [row[0] for row in old], path.name
                assert close(values(new), values(old)), path.name

    def test_bundled_backtest_imports_neither_numpy_ma_nor_scipy(self, tmp_path):
        # numpy.ma costs about 19 ms of import on every CLI run; scipy far more
        script = (
            "import sys\n"
            "from specport.cli import main\n"
            f"assert main(['backtest', '--data', {str(DATA)!r}, '--boundary', '2015-01',"
            f" '--out-dir', {str(tmp_path / 'bt')!r}]) == 0\n"
            "print(sorted(name for name in ('numpy.ma', 'scipy') if name in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=source_env(), capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "[]"

    def test_boundary_outside_range_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "backtest",
                "--data", str(DATA),
                "--boundary", "2050-01",
                "--out-dir", str(tmp_path / "bt"),
            ]
        )
        assert code == 2
        assert "2050-01" in capsys.readouterr().err

    def test_one_return_out_of_sample_is_refused_before_any_fit(self, tmp_path, capsys):
        code = main(["backtest", "--data", str(DATA), "--boundary", "2020-05", "--out-dir", str(tmp_path / "bt")])
        assert code == 2
        # no strategy is estimated: stderr holds no window snap line
        assert capsys.readouterr().err == (
            "error: [stage: split] boundary 2020-05 leaves 1 out-of-sample return; need at least 2\n"
        )

    def test_return_too_large_for_the_statistics_is_a_staged_error(self, tmp_path, capsys):
        # a price of 1e308 on the last row leaves an out-of-sample return of ~1e306, whose square overflows
        lines = DATA.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1e308"
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--data", str(data), "--boundary", "2015-01", "--out-dir", str(tmp_path / "bt")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: [stage: evaluate] the data overflow float64: overflow encountered in square"

    def test_degenerate_panel_computation_error_exit_1(self, tmp_path):
        panel = tmp_path / "zeros.csv"
        lines = ["t,A1"] + [f"{t},0.0" for t in range(36)]
        panel.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "backtest",
                "--data", str(panel),
                "--input-type", "returns",
                "--boundary", "24",
                "--grids", "12",
                "--out-dir", str(tmp_path / "bt"),
            ]
        )
        assert code == 1

    def test_rho_above_limit_needs_an_explicit_ridge(self, tmp_path, capsys):
        # 2MN = 300 managed assets on 312 in-sample returns: rho = 2MN / T = 0.96
        argv = ["backtest", "--data", str(rho_panel(tmp_path)), "--grids", "A,S,Q", "--boundary", "2036-02"]
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / "bt")]) == 1
        assert "rho = 2MN / T = 0.962" in capsys.readouterr().err
        assert main(argv + ["--ridge", "1e-6", "--out-dir", str(tmp_path / "ridge")]) == 0
        # a ridge far below tr K / 2MN passes the check, with a warning on stderr
        assert "spectral solve: ridge 1e-06 is c = 0.00863 times tr K / 2MN = 0.000116 " in capsys.readouterr().err
        assert "in_sample_returns: 312\n" in (tmp_path / "ridge" / "report.txt").read_text()

    @pytest.mark.parametrize("flag, value", [("--sigma0-annual", "inf"), ("--ridge", "nan")])
    def test_non_finite_risk_target_exit_2(self, tmp_path, capsys, flag, value):
        code = main(
            [
                "backtest",
                "--data", str(DATA),
                "--boundary", "2015-01",
                flag, value,
                "--out-dir", str(tmp_path / "bt"),
            ]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "bt").exists()

    @pytest.mark.parametrize("grids", ["A;12", "A,S;S,A", ";"])
    def test_empty_or_repeated_grids_exit_2(self, tmp_path, capsys, grids):
        argv = ["backtest", "--data", str(DATA), "--boundary", "2015-01", "--grids", grids]
        code = main(argv + ["--out-dir", str(tmp_path / "bt")])
        assert code == 2
        assert "grid" in capsys.readouterr().err
        assert not (tmp_path / "bt").exists()

    def test_negative_risk_target_named_before_ingest(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        argv = ["backtest", "--data", str(missing), "--boundary", "2015-01", "--sigma0-annual", "-1"]
        assert main(argv + ["--out-dir", str(tmp_path / "bt")]) == 2
        assert capsys.readouterr().err == "error: sigma0_annual must be positive and finite, got -1.0\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grids", "A,A"], "duplicate periods"),
            (["--grids", "A;0"], "periods must be >= 3"),
            (["--periods-per-year", "0"], "periods_per_year must be >= 1"),
            (["--periods-per-year", "１２"], "argument --periods-per-year: invalid int value: '１２'"),
            (["--grids", "1_2"], "cannot parse grid period '1_2'"),
            (["--grids", "１２"], "cannot parse grid period '１２'"),
            (["--sigma0-annual", "０.０1"], "argument --sigma0-annual: invalid float value: '０.０1'"),
            (["--ridge", "1_0e-9"], "argument --ridge: invalid float value: '1_0e-9'"),
            (["--boundary", "2015-13"], "boundary: cannot parse timestamp '2015-13'"),
            (["--grids", "A;12,2"], "grid subset 'A,2': periods must be >= 3 samples (period 2, the Nyquist bin, "),
            # A/S/Q abbreviate periods in months: on other data they are refused, the default grids too
            (["--periods-per-year", "4", "--grids", "12;S"], "grid letter 'S' stands for 6 months and needs "),
            (["--periods-per-year", "52", "--grids", "13;q"], "needs --periods-per-year 12, got 52; give the period"),
            (["--periods-per-year", "4"], "grid letter 'A' stands for 12 months and needs --periods-per-year 12, got 4"),
        ],
    )
    def test_bad_config_named_before_ingest(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "missing.csv"
        argv = ["backtest", "--data", str(missing), "--boundary", "2015-01", *flags]
        code, err = exit_and_error(argv + ["--out-dir", str(tmp_path / "bt")], capsys)
        assert code == 2
        assert message in err and str(missing) not in err and "stage" not in err

    def test_grid_periods_in_samples_run_off_monthly_data(self, tmp_path):
        argv = ["backtest", "--data", str(DATA), "--boundary", "2015-01", "--periods-per-year", "4"]
        assert main(argv + ["--grids", "12;12,6", "--out-dir", str(tmp_path / "bt")]) == 0
        assert "grids: 12;12,6\n" in (tmp_path / "bt" / "report.txt").read_text()

    def test_missing_data_exit_2(self, tmp_path):
        code = main(
            [
                "backtest",
                "--data", str(tmp_path / "missing.csv"),
                "--boundary", "2015-01",
                "--out-dir", str(tmp_path / "bt"),
            ]
        )
        assert code == 2

    def test_deterministic_outputs(self, tmp_path):
        dirs = []
        for label in ("one", "two"):
            out_dir = tmp_path / label
            assert (
                main(
                    [
                        "backtest",
                        "--data", str(DATA),
                        "--boundary", "2015-01",
                        "--out-dir", str(out_dir),
                    ]
                )
                == 0
            )
            dirs.append(out_dir)
        for name in ("report.txt", "plot_sharpe.csv", "cumulative_returns.csv", "allocation_by_month.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["estimate", "backtest"])
def test_panel_options_shared_by_estimate_and_backtest(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--demean subtract the grand mean first" in out
    assert "--input-type {prices,returns}" in out
    # no output of estimate depends on the periods per year, and no output of either on an estimator mode
    assert ("--periods-per-year" in out) == (command == "backtest")
    assert "--mode" not in out


def test_backtest_mode_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["backtest", "--data", str(DATA), "--boundary", "2015-01", "--mode", "consistent"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --mode consistent" in capsys.readouterr().err


def test_estimate_mode_is_a_usage_error(tmp_path, capsys):
    # the moments carry one scale, so estimate has no --mode either; nothing is written
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--data", str(DATA), "--mode", "consistent", "--out-dir", str(tmp_path / "est")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --mode consistent" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()


@pytest.mark.parametrize(
    "read, token, value",
    [
        (parse_timestamp, " 7 ", 7),
        (parse_timestamp, "-3", -3),
        (parse_timestamp, "+5", 5),
        (parse_timestamp, "0012", 12),
        (parse_timestamp, "2015-01", datetime.date(2015, 1, 1)),
        (parse_timestamp, " 2015-01-01 ", datetime.date(2015, 1, 1)),
        (lambda token: _parse_grids(token, 12), "12,6,3", ((12, 6, 3),)),
        (lambda token: _parse_grids(token, 12), "A;A,S", ((12,), (12, 6))),
        (lambda token: build_parser().parse_args(["synth", "--out", "p.csv", "-T", token]).horizon, "0120", 120),
        (_float_option, " 2e-2", 0.02),
    ],
)
def test_every_documented_token_keeps_its_value(read, token, value):
    # padding, a sign and leading zeros are part of the integer grammar; YYYY-MM is the first of the month
    parsed = read(token)
    assert parsed == value and type(parsed) is type(value)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["backtest"])  # missing required flags
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["synth", "estimate", "backtest"])
def test_config_echo_holds_every_parsed_argument(tmp_path, command):
    """The echo is written from the parsed arguments, so a new flag is echoed without another edit.

    The argv rebuilt from the echo reruns the command: every output but the echo is the same, byte for byte.
    """

    def target(directory):  # synth writes its table and echo into the directory
        return directory / "p.csv" if command == "synth" else directory

    echo_name = "p.csv.config.json" if command == "synth" else f"{command}_config.json"
    # not the defaults, so an echo that lost --seed or --demean reruns into other bytes
    flags = {"synth": ["--seed", "9"], "estimate": ["--demean"], "backtest": []}[command]
    argv = output_argv(command, DATA, target(tmp_path / "run")) + flags
    assert main(argv) == 0
    parsed = vars(build_parser().parse_args(argv))
    del parsed["func"]
    echo = json.loads((tmp_path / "run" / echo_name).read_text())
    assert set(parsed) <= set(echo)
    # synth resolves --format from --example1; every other value is echoed as parsed
    resolved = {"format": "prices"} if command == "synth" else {}
    assert {key: echo[key] for key in parsed} == {**parsed, **resolved}
    # the command, then --key value for each value and --key for True; None and False are the defaults
    output_key = "out" if command == "synth" else "out_dir"
    rerun = [echo.pop("command")]
    for key in ("tool", "version", output_key):
        del echo[key]
    for key, value in echo.items():
        if value is not None and value is not False:
            rerun += ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
    assert main([*rerun, "--" + output_key.replace("_", "-"), str(target(tmp_path / "rerun"))]) == 0

    def outputs(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir() if path.name != echo_name}

    assert outputs(tmp_path / "rerun") == outputs(tmp_path / "run")


def output_argv(command, data, out):
    """argv writing ``command``'s output to ``out`` (a file for synth, a directory otherwise)."""
    return {
        "synth": ["synth", "-T", "24", "--out", str(out)],
        "estimate": ["estimate", "--data", str(data), "--periods", "12,6", "--out-dir", str(out)],
        "backtest": ["backtest", "--data", str(data), "--boundary", "2015-01", "--out-dir", str(out)],
    }[command]


@pytest.mark.parametrize("command", ["synth", "estimate", "backtest"])
@pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
def test_output_path_through_a_file_is_usage_error_before_ingest(tmp_path, capsys, command, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "out" if below else blocker
    if command == "synth":  # --out names a file, so "at" puts the file right inside the blocker
        out = out / "p.csv"
    missing = tmp_path / "missing.csv"
    assert main(output_argv(command, missing, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and f"{blocker} exists and is not a directory" in err
    assert str(missing) not in err and "Traceback" not in err
    assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize(
    "command, occupied",
    [("synth", "p.csv"), ("estimate", "out/spectral_moments.csv"), ("backtest", "out/report.txt")],
)
def test_writer_os_error_is_usage_error_naming_the_file(tmp_path, capsys, command, occupied):
    # a directory where the command writes a file: the write raises IsADirectoryError
    (tmp_path / occupied).mkdir(parents=True)
    out = tmp_path / ("p.csv" if command == "synth" else "out")
    assert main(output_argv(command, DATA, out)) == 2
    *snaps, error = capsys.readouterr().err.splitlines()
    assert error.startswith(f"error: cannot write {tmp_path / occupied}: ")
    # the default level prints the window snap of each estimate before the failing write
    expected_snaps = {
        "synth": [],
        "estimate": ["window snap: kept 120 samples, discarded 4 oldest"],
        "backtest": 3 * ["window snap: kept 48 samples, discarded 11 oldest"],
    }
    assert snaps == expected_snaps[command]


@pytest.mark.parametrize("header", ["date,SYN1,SYN1,SYN3,SYN4,SYN5", "date,,SYN2,SYN3,SYN4,SYN5"])
def test_blank_or_repeated_asset_name_exit_2(tmp_path, capsys, header):
    lines = DATA.read_text().splitlines()
    data = tmp_path / "panel.csv"
    data.write_text("\n".join([header, *lines[1:]]) + "\n")
    assert main(output_argv("backtest", data, tmp_path / "bt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [stage: ingest] ")
    assert f"{data}: asset names in the header must be distinct and non-blank: " in err
    assert not (tmp_path / "bt").exists()


@pytest.mark.parametrize("command", ["estimate", "backtest"])
@pytest.mark.parametrize(
    "cell, message",
    [
        pytest.param(b"1\xff0", "not utf-8 text (invalid start byte)", id="non-utf-8"),
        pytest.param(b"9" * 131073, "line 11: field larger than field limit (131072)", id="field-over-limit"),
    ],
)
def test_undecodable_or_oversized_data_exit_2(tmp_path, capsys, command, cell, message):
    if b"\xff" in cell and codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8":
        pytest.skip("a UTF-8 locale decodes")
    lines = DATA.read_bytes().splitlines(keepends=True)
    lines[10] = lines[10].replace(b",", b"," + cell, 1)
    data = tmp_path / "panel.csv"
    data.write_bytes(b"".join(lines))
    assert main(output_argv(command, data, tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: [stage: ingest] {data}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "backtest"])
def test_mixed_timestamp_types_exit_2_naming_the_file_and_row(tmp_path, capsys, command):
    lines = DATA.read_text().splitlines()
    lines[10] = "7" + lines[10][lines[10].index(",") :]  # row 11: an integer timestamp among dates
    data = tmp_path / "panel.csv"
    data.write_text("\n".join(lines) + "\n")
    assert main(output_argv(command, data, tmp_path / "out")) == 2
    message = "timestamps mix integer and date types from row 11 (7)"
    assert capsys.readouterr().err == f"error: [stage: ingest] {data}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_nyquist_period_is_refused_without_a_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--data", str(DATA), "--periods", "4,2", "--out-dir", str(tmp_path / "est")])
    assert code == 2
    message = "periods must be >= 3 samples (period 2, the Nyquist bin, has a zero sine column)"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "est").exists()


@pytest.mark.parametrize("command", ["synth", "estimate", "backtest"])
def test_every_command_takes_a_log_level(tmp_path, command):
    argv = output_argv(command, DATA, tmp_path / "out")
    assert build_parser().parse_args(argv).log_level == "WARNING"
    assert build_parser().parse_args(argv + ["--log-level", "info"]).log_level == "INFO"


class TestLogLevel:
    def backtest(self, tmp_path, data, *flags):
        argv = ["backtest", "--data", str(data), "--boundary", "2015-01", "--out-dir", str(tmp_path / "bt"), *flags]
        package_logger = logging.getLogger("specport")
        before = (package_logger.level, list(package_logger.handlers))
        assert main(argv) == 0
        # main's stderr handler and level are gone once it returns
        assert (package_logger.level, package_logger.handlers) == before

    def test_info_prints_the_snap_and_the_solve(self, tmp_path, capsys):
        self.backtest(tmp_path, DATA, "--log-level", "INFO")
        err = capsys.readouterr().err.splitlines()
        assert err.count("window snap: kept 48 samples, discarded 11 oldest") == 3
        assert sum(line.startswith("spectral solve: T = 48, 2MN = 30, rho = 0.625, ridge ") for line in err) == 1

    def test_default_prints_only_warnings_as_bare_messages(self, tmp_path, capsys):
        lines = DATA.read_text().splitlines()
        cells = lines[10].split(",")
        cells[1] = ""
        lines[10] = ",".join(cells)
        data = tmp_path / "damaged.csv"
        data.write_text("\n".join(lines) + "\n")
        self.backtest(tmp_path, data)
        dropped = (
            f"{data}: dropping unusable row 11\n"
            f"{data}: 1 dropped row(s) lie between kept rows, the first at row 11: "
            "every later sample moves one step earlier in seasonal phase per such row\n"
            f"{data}: dropped 1 unusable row(s)\n"
        )
        assert capsys.readouterr().err == dropped + 3 * "window snap: kept 48 samples, discarded 10 oldest\n"


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "specport.cli", *argv], env=source_env(), capture_output=True, text=True
    )


class TestProcess:
    """``console_main``, the process entry point of ``specport`` and ``python -m specport.cli``."""

    @pytest.mark.parametrize(
        "flags, code",
        [([], 0), (["--start-date", "2010-13"], 2), (["--format", "csv"], 2)],
        ids=["success", "usage-error", "argparse-error"],
    )
    def test_console_main_freezes_the_collector_before_exit(self, tmp_path, flags, code):
        argv = ["synth", "-T", "24", "--out", str(tmp_path / "p.csv"), *flags]
        script = (
            "import atexit, gc, sys\n"
            "from specport.cli import console_main\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['specport', *{argv!r}]\n"
            "console_main()\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=source_env(), capture_output=True, text=True)
        assert result.returncode == code
        label, frozen = result.stdout.splitlines()[-1].split()
        assert label == "frozen" and int(frozen) > 0

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["synth", "-T", "24", "--out", str(tmp_path / "p.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_module_run_succeeds(self, tmp_path):
        out_dir = tmp_path / "bt"
        result = run_module("backtest", "--data", str(DATA), "--boundary", "2015-01", "--out-dir", str(out_dir))
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == f"report written to {out_dir / 'report.txt'}"
        assert result.stderr == 3 * "window snap: kept 48 samples, discarded 11 oldest\n"

    def test_module_run_refuses_rho_above_limit(self, tmp_path):
        argv = ["backtest", "--data", str(rho_panel(tmp_path)), "--grids", "A,S,Q", "--boundary", "2036-02"]
        result = run_module(*argv, "--out-dir", str(tmp_path / "bt"))
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            "computation error: [stage: spectral[A,S,Q]] T = 312 samples for 2MN = 300 managed assets give "
            "rho = 2MN / T = 0.962, above 0.9: the sample covariance is singular or nearly so and the solution "
            "would be wildly levered; use a longer window, fewer bins or assets, or set a positive "
            "RiskSpec.ridge (--ridge) on the scale of tr K / 2MN = 0.000116, since a ridge far below it "
            "barely regularizes"
        )

    def test_module_run_rejects_a_bad_boundary(self, tmp_path):
        result = run_module("backtest", "--data", str(DATA), "--boundary", "garbage", "--out-dir", str(tmp_path / "bt"))
        assert result.returncode == 2
        assert result.stderr == "error: boundary: cannot parse timestamp 'garbage' (expected int or ISO date)\n"
        assert result.stdout == ""


# the fixed vocabulary of damage to the bundled price file: line 0 is its header, column 0 its dates
BAD_CELLS = ("", "nan", "inf", "-1", "0", "1e308", "1e-320", "0x10")
BAD_DATES = ("", "2013-13-01", "2012-02-30", "x", "12", "1_0", "２０１３-01-01")
HEADER_NAMES = ("", " ", "date", "SYN1", "SYN5")
data_lines = st.integers(min_value=1, max_value=125)
asset_columns = st.integers(min_value=1, max_value=5)
line_edits = st.one_of(
    st.tuples(st.sampled_from(("delete", "repeat", "swap")), data_lines),
    st.tuples(st.just("cell"), data_lines, asset_columns, st.sampled_from(BAD_CELLS)),
    st.tuples(st.just("cell"), data_lines, st.just(0), st.sampled_from(BAD_DATES)),
    st.tuples(st.just("cell"), st.just(0), asset_columns, st.sampled_from(HEADER_NAMES)),
)


def damage(edits, crlf, bom, kept_percent) -> str:
    """The bundled price file's text after ``edits`` to its lines, then the text edits."""
    lines = DATA.read_text().splitlines()
    for kind, line, *cell in edits:
        line = min(line, len(lines) - 1 - (kind == "swap"))  # earlier deletions may have shortened the file
        if kind == "delete":
            del lines[line]
        elif kind == "repeat":
            lines.insert(line, lines[line])
        elif kind == "swap":
            lines[line], lines[line + 1] = lines[line + 1], lines[line]
        else:
            column, value = cell
            cells = lines[line].split(",")
            cells[column] = value
            lines[line] = ",".join(cells)
    text = "".join(line + ("\r\n" if crlf else "\n") for line in lines)
    if kept_percent is not None:
        text = text[: len(text) * kept_percent // 100]
    return "\ufeff" + text if bom else text


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    edits=st.lists(line_edits, max_size=3),
    crlf=st.booleans(),
    bom=st.booleans(),
    kept_percent=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    boundary=st.sampled_from(("2010-03", "2015-01", "2020-05")),
)
# the float64 edges, which few random edits reach: a price of 1e-320 makes the next return overflow, and one of
# 1e308 makes it -1 (on the last row, test_return_too_large_for_the_statistics_is_a_staged_error)
@example(edits=[("cell", 30, 2, "1e-320")], crlf=False, bom=False, kept_percent=None, boundary="2015-01")
@example(edits=[("cell", 30, 2, "1e308")], crlf=False, bom=False, kept_percent=None, boundary="2015-01")
def test_a_damaged_price_file_exits_0_or_2_with_a_staged_error(edits, crlf, bom, kept_percent, boundary):
    commands = {
        "backtest": (["--boundary", boundary], {path.name for path in DEMO_OUTPUT.iterdir()} | {"backtest_config.json"}),
        "estimate": ([], {"spectral_moments.csv", "moments_summary.csv", "estimate_config.json"}),
    }
    with tempfile.TemporaryDirectory() as scratch:
        data = Path(scratch) / "damaged.csv"
        data.write_bytes(damage(edits, crlf, bom, kept_percent).encode("utf-8"))
        for command, (flags, artifacts) in commands.items():
            out_dir = Path(scratch) / command
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main([command, "--data", str(data), *flags, "--out-dir", str(out_dir)])
            err = stderr.getvalue()
            assert code in (0, 2), (command, err)
            assert "Traceback" not in err and not re.search(r"Warning: ", err), (command, err)
            assert all("[stage: " in line for line in err.splitlines() if line.startswith("error:")), (command, err)
            if code == 0:
                assert {path.name for path in out_dir.iterdir()} == artifacts, command
                for path in out_dir.glob("allocations_spectral_mvo_*.csv"):
                    weights = [row[1:] for row in read_rows(path)[1:]]
                    assert weights[12:] == weights[:-12], path.name
