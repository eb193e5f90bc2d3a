"""Command-line entry point: synth / estimate / backtest.

Exit codes: 0 success, 1 computation error, 2 input or usage error.  Every run
writes a ``*_config.json`` echo sufficient to reproduce it; all randomness
flows from --seed.

The allocation path is read back as w(t) = Phi(t) theta: the solver's real
managed-asset weights theta times the phases (1/sqrt M) [cos(w_m t), -sin(w_m t)]
of the grid, so it is real and periodic by construction.  Grids are specified
as integer periods in samples, with A/S/Q shortcuts for 12/6/3 on monthly data.

While :func:`main` runs, records of the ``specport`` loggers at ``--log-level``
(default WARNING) and above go to stderr as bare messages.  The process entry
point :func:`console_main` freezes the garbage collector once ``main`` is done,
so the collection at interpreter shutdown skips every object the run made
(numpy's modules among them); atexit handlers and the stdio flushes still run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    PERIOD_LETTERS,
    ProtocolConfig,
    _load_returns,
    _write_table,
    run_protocol,
)
from .basis import FrequencyGrid
from .errors import (
    DegenerateMeanError,
    FactorizationError,
    IngestionError,
    SingularCovarianceError,
    SpecportError,
    ValidationError,
)
from .moments import compute_psd, estimate_moments, write_moments_csv
from .synthesis import example1_scenario, seasonal_market_spec, synthesize_values

_LETTER_PERIODS = {letter: period for period, letter in PERIOD_LETTERS.items()}


def _parse_periods(token: str) -> tuple[int, ...]:
    """Parse a comma list of periods; A/S/Q letters map to 12/6/3."""
    periods = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        upper = part.upper()
        if upper in _LETTER_PERIODS:
            periods.append(_LETTER_PERIODS[upper])
        else:
            try:
                periods.append(int(part))
            except ValueError:
                raise ValidationError(f"cannot parse grid period {part!r}")
    if not periods:
        raise ValidationError(f"no grid periods in {token!r}")
    return tuple(periods)


def _parse_grids(token: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated list of grid subsets, e.g. 'A;A,S;A,S,Q' or '12;12,6'."""
    return tuple(_parse_periods(part) for part in token.split(";") if part.strip())


def _check_output(option: str, path: Path, directory: Path) -> None:
    """Usage error when ``directory``, where ``path`` goes, cannot be made a directory.

    The nearest of ``directory`` and its parents that exists must be a
    directory; a regular file there would otherwise fail only at the first
    write, after the command's work.
    """
    for ancestor in (directory, *directory.parents):
        if ancestor.exists():
            if not ancestor.is_dir():
                raise ValidationError(f"{option} {path}: {ancestor} exists and is not a directory")
            return


@contextlib.contextmanager
def _writing(path: Path):
    """Report an OSError from the writers as a usage error naming the file."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _logging_to_stderr(level: str):
    """Print the ``specport`` loggers' records at ``level`` and above to stderr, as bare messages.

    The handler and the level hold only inside the block, so a caller of
    :func:`main` keeps its own logging configuration.
    """
    package_logger = logging.getLogger("specport")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler.setLevel(level)
    previous = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(level)
    try:
        yield
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous)


def _write_config_echo(path: Path, args, **resolved) -> None:
    """Echo every parsed argument, with ``resolved`` overriding the values the command normalized."""
    params = {key: value for key, value in vars(args).items() if key != "func"}
    payload = {"tool": "specport", "version": __version__, **params, **resolved}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _month_sequence(start: str, count: int) -> list[str]:
    """ISO first-of-month dates starting at ``start``, an ISO month ``YYYY-MM``."""
    match = re.fullmatch(r"(\d{4})-(\d{2})", start)
    if match is None or not 1 <= int(match[2]) <= 12:
        raise ValidationError(f"--start-date must be an ISO month YYYY-MM, got {start!r}")
    year, month = int(match[1]), int(match[2])
    out = []
    for _ in range(count):
        out.append(f"{year:04d}-{month:02d}-01")
        month += 1
        if month > 12:
            month = 1
            year += 1
    return out


def _cmd_synth(args) -> int:
    out = Path(args.out)
    _check_output("--out", out, out.parent)
    if args.example1:
        spec = example1_scenario(seed=args.seed, horizon=args.horizon)
        default_format = "returns"
    else:
        spec = seasonal_market_spec(
            n_assets=args.n_assets,
            periods=_parse_periods(args.periods),
            seed=args.seed,
            mean_amp=args.mean_amp,
            noise_vol=args.noise_vol,
            horizon=args.horizon,
        )
        default_format = "prices"
    out_format = args.format or default_format

    values = synthesize_values(spec)
    names = [f"SYN{i + 1}" for i in range(spec.n_assets)]
    if out_format == "prices":
        table = 100.0 * np.cumprod(1.0 + values, axis=0)
        table = np.vstack([np.full((1, spec.n_assets), 100.0), table])
        timestamps = _month_sequence(args.start_date, table.shape[0])
    else:
        table = values
        timestamps = list(range(values.shape[0]))
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_table(out, ["date"] + names, timestamps, table)
        _write_config_echo(out.with_name(out.name + ".config.json"), args, out=str(out), format=out_format)
    print(f"wrote {values.shape[0]} samples x {spec.n_assets} assets to {out}")
    return 0


def _cmd_estimate(args) -> int:
    data = Path(args.data)
    grid = FrequencyGrid.from_periods(_parse_periods(args.periods))
    out_dir = Path(args.out_dir)
    _check_output("--out-dir", out_dir, out_dir)
    values = _load_returns(data, args.input_type).returns
    if args.demean:
        values = values - values.mean(axis=0, keepdims=True)
    moments = estimate_moments(values, grid)

    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_moments_csv(moments, out_dir / "spectral_moments.csv")

    header = f"{'bin':>3} {'period':>7} {'|mean|':>12} {'||R||':>12} {'||P||':>12} {'psd':>12}"
    print(header)
    rows = []
    for m, psd_trace in enumerate(compute_psd(moments).trace_per_bin().tolist()):
        mean_norm = float(np.linalg.norm(moments.bin_mean(m)))
        r_norm = float(np.linalg.norm(moments.bin_covariance(m), 2))
        p_norm = float(np.linalg.norm(moments.bin_pseudo_covariance(m), 2))
        rows.append((m, grid.periods[m], mean_norm, r_norm, p_norm, psd_trace))
        print(f"{m:>3} {rows[-1][1]:>7} {mean_norm:>12.6e} {r_norm:>12.6e} {p_norm:>12.6e} {psd_trace:>12.6e}")

    with _writing(out_dir):
        with (out_dir / "moments_summary.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bin", "period", "mean_norm", "cov_norm", "pseudo_norm", "psd_trace"])
            writer.writerows(rows)
        _write_config_echo(out_dir / "estimate_config.json", args, data=str(data), out_dir=str(out_dir))
    print(f"wrote {out_dir / 'spectral_moments.csv'}")
    return 0


def _cmd_backtest(args) -> int:
    data = Path(args.data)
    config = ProtocolConfig(
        data=str(data),
        boundary=args.boundary,
        grids=_parse_grids(args.grids),
        sigma0_annual=args.sigma0_annual,
        ridge=args.ridge,
        demean=args.demean,
        periods_per_year=args.periods_per_year,
        input_type=args.input_type,
    )
    out_dir = Path(args.out_dir)
    _check_output("--out-dir", out_dir, out_dir)
    report = run_protocol(config)
    with _writing(out_dir):
        paths = report.write_outputs(out_dir)
        _write_config_echo(out_dir / "backtest_config.json", args, data=str(data), out_dir=str(out_dir))
    print(report.render_text())
    print(f"report written to {paths['report']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specport",
        description=(
            "Frequency-domain mean-variance portfolio optimization: synthesize "
            "panels, estimate spectral moments, and backtest time-varying "
            "allocations against classical baselines."
        ),
    )
    parser.add_argument("--version", action="version", version=f"specport {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        type=str.upper,
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="print the run's log records at this level and above to stderr (WARNING shows the window snaps that discard samples; INFO adds the solve)",
    )

    synth = sub.add_parser("synth", parents=[common], help="write a synthetic price or returns panel CSV")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.add_argument("-T", "--horizon", type=int, default=120, help="number of samples")
    synth.add_argument("--seed", type=int, default=0, help="RNG seed (single source of randomness)")
    synth.add_argument(
        "--example1",
        action="store_true",
        help="canned identifiability scenario: two harmonics in strong cyclostationary noise",
    )
    synth.add_argument("--periods", default="12,6", help="comma list of grid periods (or A/S/Q)")
    synth.add_argument("--n-assets", type=int, default=5)
    synth.add_argument("--mean-amp", type=float, default=0.015, help="seasonal mean amplitude")
    synth.add_argument("--noise-vol", type=float, default=0.02, help="per-period noise volatility")
    synth.add_argument(
        "--format",
        choices=["prices", "returns"],
        default=None,
        help="output kind (default: returns for --example1, prices otherwise)",
    )
    synth.add_argument("--start-date", default="2010-01", help="first month for price output, ISO YYYY-MM")
    synth.set_defaults(func=_cmd_synth)

    panel = argparse.ArgumentParser(add_help=False)
    panel.add_argument("--data", required=True, help="input CSV")
    panel.add_argument("--demean", action="store_true", help="subtract the grand mean first")
    panel.add_argument("--input-type", choices=["prices", "returns"], default="prices")

    estimate = sub.add_parser("estimate", parents=[common, panel], help="estimate spectral moments from a panel CSV")
    estimate.add_argument("--periods", default="12,6,3", help="comma list of grid periods (or A/S/Q)")
    estimate.add_argument("--out-dir", default="estimate_out")
    estimate.set_defaults(func=_cmd_estimate)

    backtest = sub.add_parser(
        "backtest",
        parents=[common, panel],
        help="run the in/out-of-sample protocol",
        epilog=(
            "Allocation paths are the real product of the solver's managed-asset "
            "weights with the grid's cosine and sine phases; the time "
            "origin is the first in-sample return and the index runs unbroken "
            "into the out-of-sample window, keeping seasonal phase aligned."
        ),
    )
    backtest.add_argument("--boundary", required=True, help="in/out split timestamp (e.g. 2015-01)")
    backtest.add_argument(
        "--grids",
        default="A;A,S;A,S,Q",
        help="semicolon list of grid subsets, each a comma list of periods or A/S/Q letters",
    )
    backtest.add_argument("--sigma0-annual", type=float, default=0.01, help="annual vol target")
    backtest.add_argument("--ridge", type=float, default=None)
    backtest.add_argument("--periods-per-year", type=int, default=12)
    backtest.add_argument("--out-dir", default="backtest_out")
    backtest.set_defaults(func=_cmd_backtest)

    return parser


_INPUT_ERRORS = (ValidationError, IngestionError)
_COMPUTE_ERRORS = (FactorizationError, DegenerateMeanError, SingularCovarianceError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _logging_to_stderr(args.log_level):
        try:
            return args.func(args)
        except _INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except _COMPUTE_ERRORS as exc:
            print(f"computation error: {exc}", file=sys.stderr)
            return 1
        except SpecportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def console_main() -> None:
    """Process entry point: exit with :func:`main`'s status, the collector frozen first.

    By then every artifact is closed.  ``gc.freeze`` moves every object alive
    to the permanent generation, which the shutdown collection skips: on a
    2-core VM that cuts interpreter teardown after a bundled backtest from
    about 40 ms to about 10 ms.  ``os._exit`` would cut it as far but skip
    atexit handlers and the stdio flush; ``gc.disable`` leaves the shutdown
    collection in place.  ``main`` never freezes, since a caller running it
    in-process keeps using the collector.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    console_main()
