"""Price ingestion, return computation, sample splitting, and the backtest protocol.

The protocol: estimate spectral moments on the in-sample window, solve the
frequency-domain allocation once, then hold the resulting deterministic
time-varying weight path through the out-of-sample window (the global sample
index continues across the split, keeping basis phase aligned — no look-ahead,
since weights are a fixed function of the in-sample estimates).  Classical
variance-targeted MVO and equal weight run alongside for comparison.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import logging
import math
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .basis import FrequencyGrid
from .errors import (
    IngestionError,
    SpecportError,
    ValidationError,
    _count,
    _date_token,
    _finite_real,
    _finite_scalar,
    _integer_token,
    _real_array,
    _store,
)
from .moments import SpectralMoments, estimate_moments, write_moments_csv
from .optimize import RiskSpec, equal_weight, retrieve_allocation, solve_classical_mvo, solve_spectral_mvo

__all__ = [
    "PricePanel",
    "ReturnsPanel",
    "ingest_csv",
    "read_returns_csv",
    "compute_returns",
    "split_sample",
    "run_strategy",
    "sharpe_ratio",
    "ProtocolConfig",
    "StrategyResult",
    "BacktestReport",
    "run_protocol",
]

logger = logging.getLogger(__name__)

# Shorthand letters for monthly data: annual / semiannual / quarterly cycles.
PERIOD_LETTERS = {12: "A", 6: "S", 3: "Q"}


def parse_timestamp(token: str):
    """Parse a timestamp: an integer index or an ISO date, once surrounding whitespace is stripped.

    An integer is ASCII ``[+-]?[0-9]+`` and a date is ASCII ``YYYY-MM-DD``, or
    ``YYYY-MM`` for the first of the month, checked by ``datetime.date``: the
    rules of :func:`errors._integer_token` and :func:`errors._date_token`.
    No other form is read, so ``1_000``, non-ASCII digits (fullwidth, Arabic-Indic)
    and ISO week dates (``2015-W01``) are IngestionErrors on every Python.
    """
    token = token.strip()
    rule = _date_token if "-" in token[1:] else _integer_token  # only a date has a dash past its first character
    try:
        return rule(token)
    except ValueError:
        raise IngestionError(f"cannot parse timestamp {token!r} (expected int or ISO date)") from None


def _name_clashes(names: Sequence[str], unit: str, first: int) -> str:
    """The blank and the repeated names among ``names``, numbered from ``first``; '' if none.

    For example "'AA' at columns 2, 4; blank at columns 3".
    """
    numbers: dict[str, list[int]] = {}
    for number, name in enumerate(names, start=first):
        numbers.setdefault(name if name.strip() else "", []).append(number)
    return "; ".join(
        f"{repr(name) if name else 'blank'} at {unit} {', '.join(map(str, found))}"
        for name, found in numbers.items()
        if not name or len(found) > 1
    )


def _validate_panel(panel, value_field: str, floor: float, message: str, *counts: str) -> None:
    """Check and store ``panel``'s timestamps, asset names, ``value_field`` array and ``counts`` fields.

    The checks fail in that order.  Each entry of the finite real array must
    exceed ``floor`` (``message`` otherwise), and each ``counts`` field be an
    integer >= 1.  A non-finite entry or one at or below the floor is named by
    the timestamp and the asset of the first such entry.  The array may be the
    caller's own, so it is frozen only after every check has passed.
    """
    timestamps = tuple(panel.timestamps)
    for prev, cur in zip(timestamps, timestamps[1:]):
        if type(cur) is not type(prev):
            raise ValidationError("timestamps mix integer and date types")
        if not cur > prev:
            raise ValidationError(f"timestamps not strictly increasing at {cur}")
    names = tuple(panel.asset_names)
    clashes = _name_clashes(names, "positions", 0)
    if clashes:
        raise ValidationError(f"asset names must be distinct and non-blank: {clashes}")
    values = _real_array(value_field, getattr(panel, value_field), (len(timestamps), len(names)))

    def first(bad: np.ndarray) -> str:  # only on the error path: a passing panel builds one mask per check
        row, column = np.argwhere(bad)[0]
        return f"the first at {timestamps[row]}, asset {names[column]!r}"

    if not np.isfinite(values).all():
        raise ValidationError(f"{value_field} has non-finite entries: {first(~np.isfinite(values))}")
    if np.any(values <= floor):
        raise ValidationError(f"{message}: {first(values <= floor)}")
    checked = {name: _count(name, getattr(panel, name)) for name in counts}
    _store(panel, timestamps=timestamps, asset_names=names, **{value_field: values}, **checked)


@dataclass(frozen=True, eq=False)
class PricePanel:
    """Strictly positive prices on strictly increasing timestamps, one distinct non-blank name per asset."""

    timestamps: tuple
    prices: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self) -> None:
        _validate_panel(self, "prices", 0.0, "prices must be strictly positive")

    @property
    def n_assets(self) -> int:
        return len(self.asset_names)


@dataclass(frozen=True, eq=False)
class ReturnsPanel:
    """Simple returns per period; each entry > -1 (prices are positive); names as in :class:`PricePanel`."""

    timestamps: tuple
    returns: np.ndarray
    periods_per_year: int
    asset_names: tuple[str, ...]

    def __post_init__(self) -> None:
        _validate_panel(self, "returns", -1.0, "returns must exceed -1 (total loss)", "periods_per_year")

    @property
    def n_assets(self) -> int:
        return len(self.asset_names)

    @property
    def n_samples(self) -> int:
        return self.returns.shape[0]

    def slice(self, start: int, stop: int) -> "ReturnsPanel":
        return ReturnsPanel(
            timestamps=self.timestamps[start:stop],
            returns=self.returns[start:stop],
            periods_per_year=self.periods_per_year,
            asset_names=self.asset_names,
        )


def _read_panel(path, require_positive: bool, min_rows: int):
    """Read a panel CSV; returns (timestamps, values, asset names).

    Each row is parsed once, its timestamp by ``parse_timestamp`` and its
    cells by ``float``, which rejects blank and non-numeric tokens and
    ignores padding.  A row with the wrong cell count, an unparseable
    timestamp or cell, or a non-finite (or, with ``require_positive``,
    non-positive) value is dropped with a logged warning naming its source
    row, then a count.  Samples are indexed by their position among the kept
    rows, so when a dropped row lies between two kept ones a warning before
    the count names the first such row and their number, in the ``extra``
    keys ``ingest_interior_first_row`` and ``ingest_interior_dropped``.
    Blank or repeated asset names in the header are an error naming their
    columns; duplicate, non-increasing or mixed integer and date timestamps
    among the kept rows are an error naming the offending source row, as
    are fewer than ``min_rows`` kept rows.  A file that cannot be read or
    decoded in the locale's encoding, or a cell over csv's field size limit,
    is an error naming the file (and, for the cell, its line).
    """
    source = Path(path)
    try:
        with source.open(newline="") as handle:
            reader = csv.reader(handle)
            rows = [(line_no, row) for line_no, row in enumerate(reader, start=1) if row]
    except OSError as exc:
        raise IngestionError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{source}: not {exc.encoding} text ({exc.reason})") from exc
    except csv.Error as exc:
        raise IngestionError(f"{source}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{source}: empty file")
    header = rows[0][1]
    if len(header) < 2:
        raise IngestionError(f"{source}: header must have a timestamp column plus assets")
    names = tuple(name.strip() for name in header[1:])
    clashes = _name_clashes(names, "columns", 2)
    if clashes:
        raise IngestionError(f"{source}: asset names in the header must be distinct and non-blank: {clashes}")

    parsed = []  # (source row, timestamp, cells)
    dropped = []
    for line_no, row in rows[1:]:
        if len(row) == len(header):
            try:
                parsed.append((line_no, parse_timestamp(row[0]), list(map(float, row[1:]))))
                continue
            except (ValueError, IngestionError):
                pass
        dropped.append(line_no)
    values = np.array([cells for _, _, cells in parsed], dtype=np.float64)
    values = values.reshape(len(parsed), len(header) - 1)
    usable = np.isfinite(values).all(axis=1)
    if require_positive:
        usable &= (values > 0.0).all(axis=1)
    dropped = sorted(dropped + [line_no for line_no, _, _ in compress(parsed, ~usable)])
    kept = list(compress(parsed, usable))
    for line_no in dropped:
        logger.warning("%s: dropping unusable row %d", path, line_no)
    interior = [line_no for line_no in dropped if kept and kept[0][0] < line_no < kept[-1][0]]
    if interior:
        logger.warning(
            "%s: %d dropped row(s) lie between kept rows, the first at row %d: "
            "every later sample moves one step earlier in seasonal phase per such row",
            path,
            len(interior),
            interior[0],
            extra={"ingest_interior_dropped": len(interior), "ingest_interior_first_row": interior[0]},
        )
    if dropped:
        logger.warning("%s: dropped %d unusable row(s)", path, len(dropped))

    for (_, prev, _), (line_no, stamp, _) in zip(kept, kept[1:]):
        if type(stamp) is not type(prev):
            raise IngestionError(f"{path}: timestamps mix integer and date types from row {line_no} ({stamp})")
        if stamp == prev:
            raise IngestionError(f"{path}: duplicate timestamp {stamp} at row {line_no}")
        if stamp < prev:
            raise IngestionError(f"{path}: non-increasing timestamp {stamp} at row {line_no}")
    if len(kept) < min_rows:
        raise IngestionError(f"{path}: only {len(kept)} usable rows; need at least {min_rows}")
    timestamps = tuple(stamp for _, stamp, _ in kept)
    return timestamps, values[usable], names


def ingest_csv(path) -> PricePanel:
    """Read a price panel CSV: header ``date,ASSET1,...``, ISO dates, decimal prices.

    Rows with missing or non-positive cells are dropped with a logged warning
    and count; fewer than 3 usable rows, duplicate timestamps or non-increasing
    dates are errors with row context.
    """
    timestamps, prices, names = _read_panel(path, require_positive=True, min_rows=3)
    return PricePanel(timestamps=timestamps, prices=prices, asset_names=names)


def read_returns_csv(path, periods_per_year: int = 12) -> ReturnsPanel:
    """Read a panel CSV of returns (same layout as the price format)."""
    timestamps, returns, names = _read_panel(path, require_positive=False, min_rows=2)
    return ReturnsPanel(
        timestamps=timestamps, returns=returns, periods_per_year=periods_per_year, asset_names=names
    )


def compute_returns(panel: PricePanel, periods_per_year: int = 12) -> ReturnsPanel:
    """Simple returns (p(t) - p(t-1)) / p(t-1); timestamps follow the later price.

    A return that overflows float64 is refused by :class:`ReturnsPanel`, which names its row and asset.
    """
    prices = panel.prices
    with np.errstate(over="ignore"):
        returns = prices[1:] / prices[:-1] - 1.0
    return ReturnsPanel(
        timestamps=panel.timestamps[1:],
        returns=returns,
        periods_per_year=periods_per_year,
        asset_names=panel.asset_names,
    )


def split_sample(returns: ReturnsPanel, boundary) -> tuple[ReturnsPanel, ReturnsPanel]:
    """Split into (strictly before boundary, at/after boundary).

    The boundary must fall strictly inside the timestamp range so both sides
    are non-empty; the union is the original panel.
    """
    if isinstance(boundary, str):
        boundary = parse_timestamp(boundary)
    first = returns.timestamps[0]
    if isinstance(boundary, datetime.date) != isinstance(first, datetime.date):
        raise ValidationError(
            f"boundary {boundary!r} does not match the panel's timestamp type "
            f"({type(first).__name__})"
        )
    split_at = sum(1 for ts in returns.timestamps if ts < boundary)
    if split_at == 0 or split_at == returns.n_samples:
        raise ValidationError(
            f"boundary {boundary} is outside the sample range "
            f"[{returns.timestamps[0]} .. {returns.timestamps[-1]}]"
        )
    return returns.slice(0, split_at), returns.slice(split_at, returns.n_samples)


def _as_path(allocation, shape: tuple[int, int]) -> np.ndarray:
    """The finite real ``allocation`` as a (T, N) path of ``shape``: a length-N vector is broadcast, not copied."""
    array = _real_array("allocation", allocation)
    if array.shape not in (shape, shape[1:]):
        raise ValidationError(
            f"allocation shape {array.shape} matches neither the returns {shape} nor one row {shape[1:]}"
        )
    return np.broadcast_to(_finite_real("allocation", array, array.shape), shape)


def run_strategy(returns_out: ReturnsPanel, allocation) -> np.ndarray:
    """Portfolio return series r_p(t) = w(t)^T x(t).

    ``allocation`` is a length-N weight vector, held every period, or a
    (T, N) path aligned with the out-sample rows (w(t) is the allocation
    held over the interval ending at t).  Any other shape is a
    ValidationError naming both shapes; so is a complex, non-numeric or
    non-finite allocation.
    """
    values = returns_out.returns
    return np.sum(_as_path(allocation, values.shape) * values, axis=1)


def sharpe_ratio(series, periods_per_year: int) -> float:
    """Annualized mean-to-standard-deviation ratio; NaN when the variance is zero.

    Sample standard deviation (denominator T-1), annualization by
    sqrt(periods_per_year), an integer >= 1.
    """
    periods_per_year = _count("periods_per_year", periods_per_year)
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.size < 2:
        raise ValidationError("need a series of at least 2 returns")
    std = float(np.std(series, ddof=1))
    if std == 0.0 or np.all(series == series[0]):
        return float("nan")
    return float(np.mean(series)) / std * math.sqrt(periods_per_year)


# --- the protocol ----------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Configuration for one full backtest run.

    ``data`` is a CSV path read as ``input_type``, a PricePanel, or a
    ReturnsPanel with the config's ``periods_per_year`` (an integer >= 1).
    ``grids`` lists the period subsets to solve, one spectral strategy each;
    it must be non-empty and no two subsets may hold the same set of periods.
    ``sigma0_annual`` must be a positive finite real number and ``ridge``
    None or a finite real number >= 0, each named as itself when refused;
    the target is converted to a per-period one by dividing by
    sqrt(periods_per_year).  A string ``boundary`` must parse as an integer
    index or an ISO date; it is kept as given.  ``demean`` must be a bool.
    Every field is checked here, before any data is read;
    ``frequency_grids`` holds the :class:`FrequencyGrid` of each subset of
    ``grids``, in order.
    """

    data: object
    boundary: object
    grids: tuple[tuple[int, ...], ...] = ((12,), (12, 6), (12, 6, 3))
    sigma0_annual: float = 0.01
    ridge: float | None = None
    demean: bool = False
    periods_per_year: int = 12
    input_type: str = "prices"
    frequency_grids: tuple[FrequencyGrid, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.input_type not in ("prices", "returns"):
            raise ValidationError(f"input_type must be 'prices' or 'returns', got {self.input_type!r}")
        if isinstance(self.boundary, str):
            try:
                parse_timestamp(self.boundary)
            except IngestionError as exc:
                raise ValidationError(f"boundary: {exc}") from exc
        ppy = _count("periods_per_year", self.periods_per_year)
        if not isinstance(self.demean, (bool, np.bool_)):
            raise ValidationError(f"demean must be a bool, got {self.demean!r}")
        data = self.data
        if not isinstance(data, (str, Path, PricePanel, ReturnsPanel)):
            raise ValidationError(f"data is not a CSV path, PricePanel or ReturnsPanel: {type(data).__name__}")
        if isinstance(data, ReturnsPanel) and data.periods_per_year != ppy:
            raise ValidationError(f"data has periods_per_year {data.periods_per_year} but config has {ppy}")
        _finite_scalar("sigma0_annual", self.sigma0_annual, positive=True)
        if self.ridge is not None:
            _finite_scalar("ridge", self.ridge)
        if not self.grids:
            raise ValidationError("grids must list at least one period subset")
        seen, grids = {}, []
        for periods in self.grids:
            label = grid_label(periods, ppy)
            try:
                grids.append(FrequencyGrid.from_periods(periods))
            except ValidationError as exc:
                raise ValidationError(f"grid subset {label!r}: {exc}") from exc
            key = grids[-1].periods
            if key in seen:
                raise ValidationError(f"grid subsets {seen[key]!r} and {label!r} hold the same periods")
            seen[key] = label
        _store(self, periods_per_year=ppy, frequency_grids=tuple(grids))


@dataclass(frozen=True, eq=False)
class StrategyResult:
    name: str
    slug: str
    sharpe: float
    annualized_vol: float
    portfolio_returns: np.ndarray
    cumulative: np.ndarray
    allocations: np.ndarray

    def __post_init__(self) -> None:
        _store(self)

    @property
    def total_return(self) -> float:
        """The compounded return over the whole window: the last entry of ``cumulative``."""
        return float(self.cumulative[-1])

    @property
    def sharpe_defined(self) -> bool:
        return not math.isnan(self.sharpe)


@dataclass(frozen=True, eq=False)
class BacktestReport:
    strategies: tuple[StrategyResult, ...]
    out_timestamps: tuple
    asset_names: tuple[str, ...]
    metadata: dict = field(default_factory=dict)
    moments: SpectralMoments | None = None

    def strategy(self, slug: str) -> StrategyResult:
        for result in self.strategies:
            if result.slug == slug:
                return result
        raise KeyError(slug)

    def render_text(self) -> str:
        lines = ["backtest report", "=" * 15, ""]
        header = {**self.metadata, "assets": ",".join(self.asset_names)}
        for key in sorted(header):
            lines.append(f"{key}: {header[key]}")
        lines.append("")
        names = [s.name for s in self.strategies]
        sharpes = [
            f"{s.sharpe:.4f}" if s.sharpe_defined else "undefined" for s in self.strategies
        ]
        widths = [max(len(n), len(v)) for n, v in zip(names, sharpes)]
        lines.append("annualized out-of-sample Sharpe ratios:")
        lines.append("| " + " | ".join(n.ljust(w) for n, w in zip(names, widths)) + " |")
        lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(sharpes, widths)) + " |")
        lines.append("")
        for s in self.strategies:
            sharpe = f"{s.sharpe:.4f}" if s.sharpe_defined else "undefined (zero variance)"
            lines.append(
                f"{s.name}: sharpe={sharpe} ann_vol={s.annualized_vol:.6f} "
                f"total_return={s.total_return:.6f}"
            )
        lines.append("")
        return "\n".join(lines)

    def write_outputs(self, out_dir) -> dict[str, Path]:
        """Write report.txt plus the CSV artifacts; returns the paths written.

        The allocation tables have one column per name in ``asset_names``.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}

        report_path = out_dir / "report.txt"
        report_path.write_text(self.render_text())
        paths["report"] = report_path

        cum_path = out_dir / "cumulative_returns.csv"
        cumulative = np.column_stack([s.cumulative for s in self.strategies])
        slugs = [s.slug for s in self.strategies]
        _write_table(cum_path, ["timestamp"] + slugs, self.out_timestamps, cumulative)
        paths["cumulative_returns"] = cum_path

        sharpe_path = out_dir / "plot_sharpe.csv"
        sharpes = np.array([[s.sharpe] for s in self.strategies])
        _write_table(sharpe_path, ["strategy", "sharpe"], [s.name for s in self.strategies], sharpes)
        paths["plot_sharpe"] = sharpe_path

        for s in self.strategies:
            alloc_path = out_dir / f"allocations_{s.slug}.csv"
            _write_table(alloc_path, ["timestamp", *self.asset_names], self.out_timestamps, s.allocations)
            paths[f"allocations_{s.slug}"] = alloc_path

        spectral = [s for s in self.strategies if s.slug.startswith("spectral")]
        if spectral:
            month_path = out_dir / "allocation_by_month.csv"
            ppy = int(self.metadata.get("periods_per_year", 12))
            target = spectral[-1]
            months = np.array([_month_of_year(ts, ppy) for ts in self.out_timestamps])
            present = sorted(set(months.tolist()))  # np.unique would import numpy.ma on every CLI run
            means = np.array([target.allocations[months == month].mean(axis=0) for month in present])
            _write_table(month_path, ["month", *self.asset_names], present, means)
            paths["allocation_by_month"] = month_path

        if self.moments is not None:
            moments_path = out_dir / "spectral_moments.csv"
            write_moments_csv(self.moments, moments_path)
            paths["spectral_moments"] = moments_path
        return paths


def _write_table(path: Path, header: Sequence[str], labels: Sequence, values: np.ndarray) -> None:
    """CSV with ``header``, then one row per label: the label and that row of ``values``.

    The bytes are those of ``csv.writer`` writing each row (``values`` has at
    least one column).  The header and the labels go through ``csv``, which
    quotes a label holding a comma, a quote or a line break; its writer hands
    each row to ``write`` on its own, so a label's text is cut from its row
    without splitting on line ends.  The values are written with ``repr``, as
    ``csv`` writes floats, so they round-trip exactly, and each distinct row
    of ``values`` (by its bytes, so -0.0 and 0.0 differ) is formatted once: a
    periodic allocation path of L distinct rows costs L formatted rows.  The
    table goes to the file in one ``write``.
    """
    values = np.asarray(values, dtype=np.float64)
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append))
    writer.writerow(header)
    writer.writerows((label, "") for label in labels)  # each "<label>,\r\n"
    texts: dict[bytes, str] = {}
    parts = [lines[0]]
    for line, row in zip(lines[1:], values):
        key = row.tobytes()
        text = texts.get(key)
        if text is None:
            text = texts[key] = ",".join(map(repr, row.tolist())) + "\r\n"
        parts += (line[:-2], text)
    with path.open("w", newline="") as handle:
        handle.write("".join(parts))


def _month_of_year(ts, periods_per_year: int) -> int:
    if isinstance(ts, datetime.date):
        return ts.month
    return int(ts) % periods_per_year + 1


def grid_label(periods: Sequence[int], periods_per_year: int = 12) -> str:
    """Human label for a grid subset, using A/S/Q letters on monthly data."""
    tokens = []
    for p in periods:
        if periods_per_year == 12 and p in PERIOD_LETTERS:
            tokens.append(PERIOD_LETTERS[p])
        else:
            tokens.append(str(p))
    return ",".join(tokens)


def _slugify(label: str) -> str:
    return label.lower().replace(",", "_").replace(" ", "")


def _load_returns(data, input_type: str, periods_per_year: int = 12) -> ReturnsPanel:
    """The returns behind ``data``: a ReturnsPanel, a PricePanel, or a CSV path of ``input_type``."""
    if isinstance(data, ReturnsPanel):
        return data
    if isinstance(data, PricePanel):
        return compute_returns(data, periods_per_year)
    if input_type == "returns":
        return read_returns_csv(data, periods_per_year)
    return compute_returns(ingest_csv(data), periods_per_year)


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a SpecportError from the body as its own type, prefixed ``[stage: name]``, from the original.

    A float64 overflow in the body, which data too large for its statistics
    cause, is raised, not warned, and re-raised as a ValidationError so prefixed.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except SpecportError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc
    except FloatingPointError as exc:
        raise ValidationError(f"[stage: {name}] the data overflow float64: {exc}") from exc


def run_protocol(config: ProtocolConfig) -> BacktestReport:
    """Run the full in/out-of-sample comparison and assemble a report.

    Stages: ingest -> split -> spectral estimation + solve per grid subset ->
    classical MVO + equal weight -> out-of-sample evaluation.  Errors from any
    stage are re-raised with a stage label.  The split refuses an
    out-of-sample window of fewer than 2 returns, before any fit.
    """
    with _stage("ingest"):
        returns = _load_returns(config.data, config.input_type, config.periods_per_year)
    with _stage("split"):
        in_panel, out_panel = split_sample(returns, config.boundary)
        if out_panel.n_samples < 2:  # the out-of-sample Sharpe ratio needs two returns
            raise ValidationError(
                f"boundary {config.boundary} leaves {out_panel.n_samples} out-of-sample return; need at least 2"
            )

    ppy = returns.periods_per_year
    sigma0_period = config.sigma0_annual / math.sqrt(ppy)
    risk = RiskSpec(sigma0=sigma0_period, ridge=config.ridge)
    n_in = in_panel.n_samples
    n_out = out_panel.n_samples
    out_t = np.arange(n_in, n_in + n_out)

    est_values = in_panel.returns
    if config.demean:
        est_values = est_values - est_values.mean(axis=0, keepdims=True)

    allocations = []  # (name, slug, allocation): a (T, N) path or a length-N vector
    last_moments: SpectralMoments | None = None
    for periods, grid in zip(config.grids, config.frequency_grids):
        label = grid_label(periods, ppy)
        with _stage(f"spectral[{label}]"):
            last_moments = estimate_moments(est_values, grid)
            weights = solve_spectral_mvo(last_moments, risk)
            path = retrieve_allocation(weights, out_t)
        allocations.append((f"Spectral MVO ({label})", f"spectral_mvo_{_slugify(label)}", path))
    with _stage("classical-mvo"):
        mvo_cov = np.atleast_2d(np.cov(in_panel.returns, rowvar=False, ddof=1))
        allocations.append(("MVO", "mvo", solve_classical_mvo(in_panel.returns.mean(axis=0), mvo_cov, risk)))
    allocations.append(("EW", "ew", equal_weight(returns.n_assets)))
    with _stage("evaluate"):
        strategies = tuple(_evaluate(name, slug, out_panel, allocation, ppy) for name, slug, allocation in allocations)

    metadata = {
        "boundary": str(config.boundary),
        "grids": ";".join(grid_label(g, ppy) for g in config.grids),
        "sigma0_annual": repr(float(config.sigma0_annual)),
        "sigma0_per_period": repr(float(sigma0_period)),
        "ridge": "auto" if config.ridge is None else repr(float(config.ridge)),
        "demean": str(config.demean),
        "periods_per_year": str(ppy),
        "in_sample_returns": str(n_in),
        "out_sample_returns": str(n_out),
    }
    return BacktestReport(
        strategies=strategies,
        out_timestamps=out_panel.timestamps,
        asset_names=returns.asset_names,
        metadata=metadata,
        moments=last_moments,
    )


def _evaluate(name, slug, out_panel: ReturnsPanel, allocation, ppy) -> StrategyResult:
    series = run_strategy(out_panel, allocation)
    cumulative = np.cumprod(1.0 + series) - 1.0
    return StrategyResult(
        name=name,
        slug=slug,
        sharpe=sharpe_ratio(series, ppy),
        annualized_vol=float(np.std(series, ddof=1)) * math.sqrt(ppy),
        portfolio_returns=series,
        cumulative=cumulative,
        allocations=_as_path(allocation, out_panel.returns.shape),
    )
