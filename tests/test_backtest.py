"""Ingestion, returns, splitting, strategy evaluation, the full protocol and its artifacts."""

import codecs
import csv
import datetime
import locale
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest

from specport import (
    DegenerateMeanError,
    FrequencyGrid,
    IngestionError,
    PricePanel,
    ProtocolConfig,
    ReturnsPanel,
    ValidationError,
    compute_returns,
    equal_weight,
    ingest_csv,
    read_returns_csv,
    run_protocol,
    run_strategy,
    seasonal_market_spec,
    sharpe_ratio,
    split_sample,
    synthesize_panel,
)
from specport.backtest import _write_table, parse_timestamp

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic_monthly_prices.csv"


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path, "date,AA,BB\n2020-01-01,100,200\n2020-02-01,110,190\n2020-03-01,99,210\n")
        panel = ingest_csv(path)
        assert panel.prices.shape == (3, 2)
        assert panel.asset_names == ("AA", "BB")
        assert panel.timestamps[0] == datetime.date(2020, 1, 1)

    def test_blank_cell_dropped_with_warning(self, tmp_path, caplog):
        path = write_csv(
            tmp_path,
            "date,AA,BB\n2020-01-01,100,200\n2020-02-01,,190\n2020-03-01,99,210\n2020-04-01,98,205\n",
        )
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            panel = ingest_csv(path)
        assert panel.prices.shape == (3, 2)
        assert sum("dropping unusable row" in r.message for r in caplog.records) == 1

    def test_non_positive_price_dropped(self, tmp_path, caplog):
        path = write_csv(
            tmp_path,
            "date,AA\n2020-01-01,100\n2020-02-01,-5\n2020-03-01,99\n2020-04-01,98\n",
        )
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            panel = ingest_csv(path)
        assert panel.prices.shape == (3, 1)

    def test_non_increasing_dates_error_names_row(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,AA\n2020-01-01,100\n2020-03-01,101\n2020-02-01,102\n",
        )
        with pytest.raises(IngestionError, match="row 4"):
            ingest_csv(path)

    def test_duplicate_timestamps_error(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,AA\n2020-01-01,100\n2020-02-01,101\n2020-02-01,102\n",
        )
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-01,100\n2020-02-01,101\n")
        with pytest.raises(IngestionError, match="at least 3"):
            ingest_csv(path)

    def test_unparseable_file(self, tmp_path):
        path = write_csv(tmp_path, "just one column\n")
        with pytest.raises(IngestionError):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "header, named",
        [
            ("date,AA,AA", "'AA' at columns 2, 3"),
            ("date,,BB", "blank at columns 2"),
            ("date,AA, ,AA", "'AA' at columns 2, 4; blank at columns 3"),
            ("date,AA, AA ", "'AA' at columns 2, 3"),  # padding is stripped before the names are compared
        ],
    )
    def test_blank_or_repeated_asset_names_rejected(self, tmp_path, header, named):
        cells = ",100" * (header.count(","))
        path = write_csv(tmp_path, f"{header}\n2020-01-01{cells}\n2020-02-01{cells}\n2020-03-01{cells}\n")
        message = f"{path}: asset names in the header must be distinct and non-blank: {named}"
        for reader in (ingest_csv, read_returns_csv):
            with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
                reader(path)

    @pytest.mark.parametrize("panel_type", ["prices", "returns"])
    @pytest.mark.parametrize(
        "names, named", [(("AA", "AA"), "'AA' at positions 0, 1"), (("AA", " "), "blank at positions 1")]
    )
    def test_panels_reject_blank_or_repeated_asset_names(self, panel_type, names, named):
        timestamps, values = (0, 1, 2), np.full((3, 2), 0.5)
        message = f"asset names must be distinct and non-blank: {named}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            if panel_type == "prices":
                PricePanel(timestamps=timestamps, prices=values, asset_names=names)
            else:
                ReturnsPanel(timestamps=timestamps, returns=values, periods_per_year=12, asset_names=names)

    @pytest.mark.parametrize("panel_type", ["prices", "returns"])
    @pytest.mark.parametrize(
        "timestamps, values, match",
        [
            ((0, datetime.date(2020, 1, 1), 2), np.full((3, 2), 0.5), "timestamps mix integer and date types"),
            ((0, 2, 1), np.full((3, 2), 0.5), "timestamps not strictly increasing at 1"),
            ((0, 1, 2), np.full((2, 2), 0.5), r"shape \(2, 2\) does not match \(3, 2\)"),
            ((0, 1, 2), np.full(3, 0.5), r"shape \(3,\) does not match \(3, 2\)"),
            ((0, 1, 2), np.where(np.eye(3, 2) == 1.0, np.inf, 0.5), "has non-finite entries"),
            ((0, 1, 2), np.full((3, 2), 0.5 + 0.5j), "must be real"),
        ],
    )
    def test_panels_reject_bad_timestamps_or_values(self, panel_type, timestamps, values, match):
        with pytest.raises(ValidationError, match=match):
            if panel_type == "prices":
                PricePanel(timestamps=timestamps, prices=values, asset_names=("AA", "BB"))
            else:
                ReturnsPanel(timestamps=timestamps, returns=values, periods_per_year=12, asset_names=("AA", "BB"))

    def test_prices_must_be_positive(self):
        with pytest.raises(ValidationError, match="prices must be strictly positive"):
            PricePanel(timestamps=(0, 1), prices=[[1.0], [0.0]], asset_names=("AA",))

    @pytest.mark.parametrize(
        "panel_type, match", [("prices", "prices must be strictly positive"), ("returns", "returns must exceed -1")]
    )
    def test_rejected_panel_leaves_the_callers_array_writeable(self, panel_type, match):
        # the constructor freezes the caller's own float64 array only once every check has passed
        def build(values):
            if panel_type == "prices":
                return PricePanel(timestamps=(0, 1, 2), prices=values, asset_names=("AA",))
            return ReturnsPanel(timestamps=(0, 1, 2), returns=values, periods_per_year=12, asset_names=("AA",))

        values = np.full((3, 1), -2.0)
        with pytest.raises(ValidationError, match=re.escape(match)):
            build(values)
        assert values.flags.writeable
        values[:] = 0.5
        panel = build(values)
        assert getattr(panel, panel_type) is values and not values.flags.writeable

    @pytest.mark.parametrize(
        "periods_per_year, match",
        [
            (0, "^periods_per_year must be >= 1, got 0$"),
            (12.0, "^periods_per_year must be an integer, got 12.0$"),
            (12.5, "^periods_per_year must be an integer, got 12.5$"),
            (True, "^periods_per_year must be an integer, got True$"),
        ],
    )
    def test_returns_panel_periods_per_year_is_an_integer_count(self, periods_per_year, match):
        values = np.zeros((3, 1))
        with pytest.raises(ValidationError, match=match):
            integer_panel(values, ppy=periods_per_year)
        assert values.flags.writeable  # the last check still comes before the freeze
        # and after the checks of the values
        with pytest.raises(ValidationError, match="returns must exceed -1"):
            integer_panel(values - 1.0, ppy=periods_per_year)
        assert type(integer_panel(np.zeros(3), ppy=np.int64(4)).periods_per_year) is int

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        for reader in (ingest_csv, read_returns_csv):
            with pytest.raises(IngestionError, match=f"^{re.escape(str(path))}: empty file$"):
                reader(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(
                b"date,AA\n2020-01-01,100\n2020-02-01,1\xff0\n2020-03-01,102\n",
                "not utf-8 text (invalid start byte)",
                marks=pytest.mark.skipif(
                    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8", reason="a UTF-8 locale decodes"
                ),
                id="non-utf-8",
            ),
            pytest.param(
                b"date,AA\n2020-01-01,100\n\n2020-02-01," + b"9" * 131073 + b"\n2020-03-01,102\n",
                "line 4: field larger than field limit (131072)",
                id="field-over-limit",
            ),
        ],
    )
    def test_undecodable_or_oversized_file_is_an_ingestion_error(self, tmp_path, content, message):
        path = tmp_path / "panel.csv"
        path.write_bytes(content)
        for reader in (ingest_csv, read_returns_csv):
            with pytest.raises(IngestionError) as caught:
                reader(path)
            assert str(caught.value) == f"{path}: {message}"

    def test_integer_timestamps_accepted(self, tmp_path):
        path = write_csv(tmp_path, "t,AA\n0,100\n1,101\n2,103\n")
        panel = ingest_csv(path)
        assert panel.timestamps == (0, 1, 2)

    # ISO week dates: date.fromisoformat reads them from Python 3.11 on, as 2014-12-29; and int() reads
    # underscores and non-ASCII digits (fullwidth, Arabic-Indic), which are no documented form either
    @pytest.mark.parametrize("token", ["2015-W01", "2015-W01-1", "2015W011", "2015W01", "1_000", "２０１５", "٣"])
    def test_week_dates_are_not_timestamps_on_any_python(self, token):
        with pytest.raises(IngestionError, match=f"^cannot parse timestamp {re.escape(repr(token))} "):
            parse_timestamp(token)

    @pytest.mark.parametrize(
        "rows, first",
        [
            (["2020-01-01,100", "2020-02-01,101", "7,102", "2020-04-01,103"], "row 4 (7)"),
            (["0,100", "1,101", "2,102", "2020-04,103", "3,104"], "row 5 (2020-04-01)"),
            # a dropped row does not count: the first kept row sets the type
            (["x,100", "2020-01-01,,", "5,101", "6,102", "2020-03-01,103"], "row 6 (2020-03-01)"),
        ],
        ids=["integer-after-dates", "date-after-integers", "after-dropped-rows"],
    )
    def test_mixed_timestamp_types_name_the_file_and_first_row_of_the_other_type(self, tmp_path, rows, first):
        path = write_csv(tmp_path, "date,AA\n" + "\n".join(rows) + "\n")
        message = f"{path}: timestamps mix integer and date types from {first}"
        for reader in (ingest_csv, read_returns_csv):
            with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
                reader(path)


CLEAN_ROWS = ["2020-01-01,100,200", "2020-02-01,110,190", "2020-04-01,99,210", "2020-05-01,98,205"]
HEADER = "date,AA,BB"


def dropped_rows(caplog):
    """The source row named by each 'dropping unusable row <n>' warning, in order."""
    messages = [r.getMessage() for r in caplog.records]
    return [m.rsplit(" ", 1)[1] for m in messages if "dropping unusable row" in m]


class TestDropPolicy:
    """Each unusable row is dropped with one warning naming its source row, then a count."""

    @pytest.mark.parametrize(
        "damaged",
        [
            "2020-03-01,,190",
            "2020-03-01,   ,190",
            "2020-03-01,abc,190",
            "2020-03-01,nan,190",
            "2020-03-01,inf,190",
            "2020-03-01,-inf,190",
            "2020-03-01,0,190",
            "2020-03-01,-5,190",
            "2020-03-01,100",
            "2020-03-01,100,190,5",
            "2020-13-01,100,190",
            "1_0,100,190",
        ],
        ids=[
            "blank", "whitespace", "abc", "nan", "inf", "-inf", "zero", "negative", "short", "long", "timestamp",
            "underscore-timestamp",
        ],
    )
    def test_one_damaged_row(self, tmp_path, caplog, damaged):
        rows = CLEAN_ROWS[:2] + [damaged] + CLEAN_ROWS[2:]
        path = write_csv(tmp_path, "\n".join([HEADER, *rows]) + "\n")
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            panel = ingest_csv(path)
        assert dropped_rows(caplog) == ["4"]
        assert sum("dropped 1 unusable row(s)" in r.getMessage() for r in caplog.records) == 1
        clean = ingest_csv(write_csv(tmp_path, "\n".join([HEADER, *CLEAN_ROWS]) + "\n", "clean.csv"))
        assert panel.timestamps == clean.timestamps
        assert np.array_equal(panel.prices, clean.prices)

    def test_padded_cell_kept(self, tmp_path, caplog):
        path = write_csv(tmp_path, "date,AA\n2020-01-01,100\n2020-02-01, 101.5 \n2020-03-01,99\n")
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            panel = ingest_csv(path)
        assert panel.prices[:, 0].tolist() == [100.0, 101.5, 99.0]
        assert caplog.records == []

    def test_returns_keep_negative_drop_nan_reject_total_loss(self, tmp_path, caplog):
        path = write_csv(tmp_path, "t,AA\n0,0.1\n1,-0.5\n2,nan\n3,0.2\n")
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            returns = read_returns_csv(path)
        assert returns.returns[:, 0].tolist() == [0.1, -0.5, 0.2]
        assert dropped_rows(caplog) == ["4"]
        path = write_csv(tmp_path, "t,AA,BB\n0,0.1,0.1\n1,0.1,-1.5\n2,-1.0,0.2\n", "loss.csv")
        message = "returns must exceed -1 (total loss): the first at 1, asset 'BB'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_returns_csv(path)

    def test_warnings_in_source_order(self, tmp_path, caplog):
        # rows 3 and 6 parse but fail the value check; rows 4 and 7 fail to parse
        text = (
            "date,AA\n2020-01-01,100\n2020-02-01,nan\n2020-03-01,\n2020-04-01,101\n"
            "2020-05-01,-1\n2020-06-01,1,2\n2020-07-01,102\n2020-08-01,103\n"
        )
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            panel = ingest_csv(write_csv(tmp_path, text))
        assert dropped_rows(caplog) == ["3", "4", "6", "7"]
        assert caplog.records[-1].getMessage().endswith("dropped 4 unusable row(s)")
        assert panel.prices[:, 0].tolist() == [100.0, 101.0, 102.0, 103.0]

    @pytest.mark.parametrize(
        "damaged, interior",
        [((2, 4, 6, 8), (4, 2)), ((5,), (5, 1)), ((2,), None), ((8,), None), ((2, 3, 8), None)],
        ids=["first-two-inside-last", "one-inside", "first", "last", "first-two-and-last"],
    )
    def test_row_dropped_between_kept_rows_warns_of_the_phase_shift(self, tmp_path, caplog, damaged, interior):
        # source rows 2..8 hold months 1..7; a damaged row is dropped wherever it lies
        rows = [f"2020-{month:02d}-01,{'nan' if month + 1 in damaged else 100 + month}" for month in range(1, 8)]
        path = write_csv(tmp_path, "\n".join(["date,AA", *rows]) + "\n")
        with caplog.at_level(logging.WARNING, logger="specport.backtest"):
            panel = ingest_csv(path)
        assert len(panel.timestamps) == 7 - len(damaged)
        messages = [r.getMessage() for r in caplog.records]
        assert messages[: len(damaged)] == [f"{path}: dropping unusable row {row}" for row in damaged]
        assert messages[-1] == f"{path}: dropped {len(damaged)} unusable row(s)"
        if interior is None:
            assert len(messages) == len(damaged) + 1
            return
        first, count = interior
        record = caplog.records[-2]
        assert record.getMessage() == (
            f"{path}: {count} dropped row(s) lie between kept rows, the first at row {first}: "
            "every later sample moves one step earlier in seasonal phase per such row"
        )
        assert (record.ingest_interior_first_row, record.ingest_interior_dropped) == (first, count)
        assert len(messages) == len(damaged) + 2


class TestReturns:
    def test_single_step(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-01,100\n2020-02-01,110\n2020-03-01,110\n")
        returns = compute_returns(ingest_csv(path), 12)
        assert returns.returns[0, 0] == pytest.approx(0.10)
        assert returns.returns[1, 0] == pytest.approx(0.0)

    def test_constant_prices_zero_returns(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-01,50\n2020-02-01,50\n2020-03-01,50\n")
        returns = compute_returns(ingest_csv(path), 12)
        assert np.array_equal(returns.returns, np.zeros((2, 1)))

    def test_hand_arithmetic(self, tmp_path):
        # (100, 110, 99) -> (0.10, -0.10)
        path = write_csv(tmp_path, "date,AA\n2020-01-01,100\n2020-02-01,110\n2020-03-01,99\n")
        returns = compute_returns(ingest_csv(path), 12)
        assert np.allclose(returns.returns[:, 0], [0.10, -0.10], atol=1e-15)

    def test_timestamps_follow_later_price(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-01,100\n2020-02-01,110\n2020-03-01,99\n")
        returns = compute_returns(ingest_csv(path), 12)
        assert returns.timestamps[0] == datetime.date(2020, 2, 1)

    @pytest.mark.parametrize(
        "price, problem",
        [("1e-320", "returns has non-finite entries"), ("1e308", "returns must exceed -1 (total loss)")],
        ids=["overflow", "total-loss"],
    )
    def test_float64_edge_prices_name_the_return_they_break(self, tmp_path, price, problem):
        # BB's 2020-02 price makes its 2020-03 return overflow to inf, or round to exactly -1, with no numpy warning
        text = f"date,AA,BB\n2020-01-01,100,200\n2020-02-01,110,{price}\n2020-03-01,99,210\n"
        message = f"{problem}: the first at 2020-03-01, asset 'BB'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compute_returns(ingest_csv(write_csv(tmp_path, text)), 12)


def integer_panel(values, ppy=12):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    names = tuple(f"A{i}" for i in range(values.shape[1]))
    return ReturnsPanel(
        timestamps=tuple(range(values.shape[0])),
        returns=values,
        periods_per_year=ppy,
        asset_names=names,
    )


class TestSplit:
    def test_boundary_at_first_timestamp_errors(self):
        panel = integer_panel(np.zeros(10))
        with pytest.raises(ValidationError, match="boundary"):
            split_sample(panel, 0)

    def test_boundary_outside_errors(self):
        panel = integer_panel(np.zeros(10))
        with pytest.raises(ValidationError):
            split_sample(panel, 100)

    def test_boundary_type_must_match_timestamps(self):
        message = "boundary datetime.date(2015, 1, 1) does not match the panel's timestamp type (int)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            split_sample(integer_panel(np.zeros(10)), "2015-01")
        with pytest.raises(ValidationError, match=r"^boundary 60 does not match the panel's timestamp type \(date\)$"):
            split_sample(compute_returns(ingest_csv(DATA)), 60)

    def test_monthly_protocol_split(self):
        # monthly 2010-01..2020-05 prices, boundary 2015-01:
        # 59 in-sample returns (2010-02..2014-12), 65 out (2015-01..2020-05)
        returns = compute_returns(ingest_csv(DATA), 12)
        in_panel, out_panel = split_sample(returns, "2015-01")
        assert in_panel.n_samples == 59
        assert out_panel.n_samples == 65
        assert in_panel.timestamps[-1] == datetime.date(2014, 12, 1)
        assert out_panel.timestamps[0] == datetime.date(2015, 1, 1)

    def test_disjoint_union_property(self):
        rng = np.random.default_rng(0)
        panel = integer_panel(rng.standard_normal(40) * 0.01)
        for boundary in rng.integers(1, 40, size=10):
            in_panel, out_panel = split_sample(panel, int(boundary))
            assert in_panel.n_samples + out_panel.n_samples == 40
            assert all(ts < boundary for ts in in_panel.timestamps)
            assert all(ts >= boundary for ts in out_panel.timestamps)
            recombined = np.vstack([in_panel.returns, out_panel.returns])
            assert np.array_equal(recombined, panel.returns)


class TestRunStrategy:
    def test_zero_allocation(self):
        panel = integer_panel(np.full((6, 2), 0.01))
        series = run_strategy(panel, np.zeros((6, 2)))
        assert np.array_equal(series, np.zeros(6))

    def test_equal_weight_cancels_opposite_returns(self):
        panel = integer_panel(np.array([[0.1, -0.1]] * 3))
        series = run_strategy(panel, equal_weight(2))
        assert np.allclose(series, 0.0, atol=1e-18)

    def test_single_asset_identity(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(8) * 0.01
        panel = integer_panel(values)
        series = run_strategy(panel, np.array([1.0]))
        assert np.allclose(series, values, atol=1e-18)

    def test_vector_is_held_every_period(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((40, 4)) * 0.05
        weights = rng.standard_normal(4)
        panel = integer_panel(values)
        series = run_strategy(panel, weights)
        assert np.array_equal(series, run_strategy(panel, np.tile(weights, (40, 1))))
        assert np.array_equal(series, run_strategy(panel, list(weights)))
        # any order of summing N = 4 products lies within N u max|r| sum|w| of the exact dot product
        # (to first order, u = eps / 2), so two orders differ by at most N eps max|r| sum|w|
        bound = 4 * np.finfo(np.float64).eps * np.max(np.abs(values)) * np.sum(np.abs(weights))
        assert np.max(np.abs(series - values @ weights)) <= bound

    @pytest.mark.parametrize(
        "allocation",
        [np.zeros(3), np.zeros(1), np.zeros((6, 3)), np.zeros((6, 1)), np.zeros((5, 2)), np.zeros((6, 2, 1))],
        ids=["long-vector", "short-vector", "extra-column", "one-column", "missing-row", "3-d"],
    )
    def test_misaligned_allocation_names_both_shapes(self, allocation):
        message = f"allocation shape {allocation.shape} matches neither the returns (6, 2) nor one row (2,)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_strategy(integer_panel(np.zeros((6, 2))), allocation)

    @pytest.mark.parametrize(
        "allocation, message",
        [
            ([0.5, math.nan], "allocation has non-finite entries"),
            (np.full((6, 2), math.inf), "allocation has non-finite entries"),
            ([0.5, 0.5j], "allocation must be real"),
            ([[1.0], [1.0, 2.0]], "allocation must hold real numbers: setting an array element with a sequence."),
            (["a", "b"], "allocation must hold real numbers: could not convert string to float: 'a'"),
        ],
    )
    def test_complex_non_numeric_or_non_finite_allocation_rejected(self, allocation, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            run_strategy(integer_panel(np.zeros((6, 2))), allocation)


class TestSharpe:
    def test_alternating_mean_zero(self):
        series = [0.01, -0.01] * 6
        assert sharpe_ratio(series, 12) == pytest.approx(0.0, abs=1e-15)

    def test_constant_series_undefined(self):
        assert math.isnan(sharpe_ratio([0.01] * 10, 12))

    def test_hand_arithmetic(self):
        # mean 0.02, sample std 0.01, annualized by sqrt(12)
        assert sharpe_ratio([0.01, 0.02, 0.03], 12) == pytest.approx(2 * math.sqrt(12))

    def test_too_short(self):
        with pytest.raises(ValidationError):
            sharpe_ratio([0.01], 12)


class TestProtocol:
    def make_market(self, seed=5, asset_names=None):
        spec = seasonal_market_spec(n_assets=4, periods=(12, 6), seed=seed, horizon=120)
        return synthesize_panel(spec, asset_names=asset_names)

    def test_spectral_beats_classical_on_seasonal_market(self):
        report = run_protocol(
            ProtocolConfig(data=self.make_market(), boundary=60, grids=((12, 6),))
        )
        spectral = report.strategies[0]
        assert spectral.sharpe > report.strategy("mvo").sharpe
        assert spectral.sharpe > report.strategy("ew").sharpe

    def test_equal_weight_on_identical_assets_equals_single_asset(self):
        rng = np.random.default_rng(2)
        column = rng.standard_normal(30) * 0.01 + 0.002
        panel = integer_panel(np.column_stack([column, column, column]))
        series = run_strategy(panel, equal_weight(3))
        assert np.allclose(series, column, atol=1e-15)

    def test_no_lookahead(self):
        # perturbing out-of-sample data must not move the spectral weights
        base = self.make_market(seed=9)
        perturbed_values = base.returns.copy()
        perturbed_values[60:] = perturbed_values[60:][::-1]
        perturbed = ReturnsPanel(
            timestamps=base.timestamps,
            returns=perturbed_values,
            periods_per_year=base.periods_per_year,
            asset_names=base.asset_names,
        )
        config = dict(boundary=60, grids=((12, 6),))
        report_a = run_protocol(ProtocolConfig(data=base, **config))
        report_b = run_protocol(ProtocolConfig(data=perturbed, **config))
        assert np.array_equal(report_a.strategies[0].allocations, report_b.strategies[0].allocations)

    def test_reproducibility_bit_identical(self):
        config = ProtocolConfig(data=self.make_market(seed=3), boundary=60, grids=((12,), (12, 6)))
        report_a = run_protocol(config)
        report_b = run_protocol(config)
        assert report_a.render_text() == report_b.render_text()
        for sa, sb in zip(report_a.strategies, report_b.strategies):
            assert np.array_equal(sa.cumulative, sb.cumulative)

    def test_report_contents_and_outputs(self, tmp_path):
        report = run_protocol(
            ProtocolConfig(data=str(DATA), boundary="2015-01", sigma0_annual=0.01)
        )
        text = report.render_text()
        for name in ("Spectral MVO (A)", "Spectral MVO (A,S)", "Spectral MVO (A,S,Q)", "MVO", "EW"):
            assert name in text
        assert report.metadata["sigma0_per_period"] == repr(0.01 / math.sqrt(12))
        paths = report.write_outputs(tmp_path)
        for key in (
            "report",
            "cumulative_returns",
            "plot_sharpe",
            "allocation_by_month",
            "spectral_moments",
            "allocations_spectral_mvo_a_s_q",
            "allocations_mvo",
            "allocations_ew",
        ):
            assert paths[key].exists()
        month_rows = paths["allocation_by_month"].read_text().strip().splitlines()
        assert len(month_rows) == 13  # header + one row per calendar month

    def test_a_price_panel_as_data_reports_as_its_csv_path(self):
        from_panel = run_protocol(ProtocolConfig(data=ingest_csv(DATA), boundary="2015-01"))
        from_path = run_protocol(ProtocolConfig(data=str(DATA), boundary="2015-01"))
        assert from_panel.render_text() == from_path.render_text()

    def test_unknown_strategy_slug_is_a_key_error(self):
        report = run_protocol(ProtocolConfig(data=str(DATA), boundary="2015-01", grids=((12,),)))
        with pytest.raises(KeyError, match="nope"):
            report.strategy("nope")

    def test_bundled_solves_log_their_predicted_overshoot(self, caplog):
        with caplog.at_level(logging.INFO, logger="specport.optimize"):
            run_protocol(ProtocolConfig(data=str(DATA), boundary="2015-01"))
        records = [r for r in caplog.records if r.name == "specport.optimize"]
        # 2MN = 10, 20 and 30 on T = 48 snapped samples: rho = 0.208, 0.417 and 0.625
        assert [r.solve_overshoot for r in records] == pytest.approx([48 / 38, 48 / 28, 1 / 0.375], rel=1e-15)
        assert records[-1].solve_overshoot == 1 / 0.375

    def test_written_artifacts_read_back_exactly(self, tmp_path):
        names = ["A,1", 'B "two"', "C", "D"]  # names that csv must quote
        market = self.make_market(seed=4, asset_names=names)
        report = run_protocol(ProtocolConfig(data=market, boundary=60, grids=((12,), (12, 6))))
        paths = report.write_outputs(tmp_path)

        def read(key):
            with paths[key].open(newline="") as handle:
                rows = list(csv.reader(handle))
            values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
            return rows[0], [row[0] for row in rows[1:]], values

        stamps = [str(ts) for ts in report.out_timestamps]
        header, labels, values = read("cumulative_returns")
        assert header == ["timestamp"] + [s.slug for s in report.strategies]
        assert labels == stamps
        assert np.array_equal(values, np.column_stack([s.cumulative for s in report.strategies]))
        for s in report.strategies:
            header, labels, values = read(f"allocations_{s.slug}")
            assert header == ["timestamp"] + names
            assert labels == stamps
            assert np.array_equal(values, s.allocations)
        header, labels, values = read("plot_sharpe")
        assert labels == [s.name for s in report.strategies]
        assert np.array_equal(values[:, 0], [s.sharpe for s in report.strategies])
        header, labels, values = read("allocation_by_month")
        assert header == ["month"] + names
        months = (np.array(report.out_timestamps) % 12) + 1
        target = report.strategies[1].allocations
        assert labels == [str(m) for m in range(1, 13)]
        assert np.array_equal(values, [target[months == m].mean(axis=0) for m in range(1, 13)])

    def test_allocation_by_month_groups_dates_by_calendar_month(self, tmp_path):
        # with dates the month is the calendar month, whatever periods_per_year says
        report = run_protocol(ProtocolConfig(data=str(DATA), boundary="2015-01", periods_per_year=4))
        paths = report.write_outputs(tmp_path)
        rows = list(csv.reader(paths["allocation_by_month"].read_text().splitlines()))
        months = np.array([ts.month for ts in report.out_timestamps])
        target = report.strategy("spectral_mvo_12_6_3").allocations  # the last spectral grid
        assert [row[0] for row in rows[1:]] == [str(m) for m in range(1, 13)]
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.array_equal(values, [target[months == m].mean(axis=0) for m in range(1, 13)])

    def test_protocol_never_builds_the_complex_covariance(self, tmp_path):
        # the solver and the moments writer use the stored real pair; the
        # augmented complex covariance is a view built only on access
        report = run_protocol(ProtocolConfig(data=self.make_market(seed=6), boundary=60, grids=((12, 6),)))
        report.write_outputs(tmp_path)
        assert "covariance" not in vars(report.moments)
        assert report.moments.covariance.dtype == np.complex128
        assert "covariance" in vars(report.moments)

    def test_demean_flag_changes_estimation_only(self):
        market = self.make_market(seed=12)
        plain = run_protocol(ProtocolConfig(data=market, boundary=60, grids=((12,),)))
        demeaned = run_protocol(ProtocolConfig(data=market, boundary=60, grids=((12,),), demean=True))
        # classical baseline is untouched by the flag
        assert plain.strategy("mvo").sharpe == demeaned.strategy("mvo").sharpe

    def test_unknown_input_type_rejected(self):
        with pytest.raises(ValidationError, match="input_type"):
            ProtocolConfig(data=str(DATA), boundary="2015-01", input_type="return")

    @pytest.mark.parametrize(
        "grids, named",
        [((), "at least one"), (((12,), (12,)), "'A' and 'A'"), (((12, 6), (6, 12)), "'A,S' and 'S,A'")],
    )
    def test_empty_or_repeated_grids_rejected(self, grids, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            ProtocolConfig(data=str(DATA), boundary="2015-01", grids=grids)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"grids": ((12, 12),)}, "grid subset 'A,A': duplicate periods"),
            ({"grids": ((12,), (0,))}, "grid subset '0': periods must be >= 3"),
            ({"ridge": -1.0}, "ridge must be finite and >= 0, got -1.0"),
            ({"periods_per_year": 0}, "periods_per_year must be >= 1, got 0"),
            ({"boundary": "2015-13"}, "boundary: cannot parse timestamp '2015-13'"),
            ({"boundary": "garbage"}, "boundary: cannot parse timestamp 'garbage'"),
            ({"periods_per_year": 12.5}, "periods_per_year must be an integer, got 12.5"),
            ({"periods_per_year": 12.0}, "periods_per_year must be an integer, got 12.0"),
            ({"periods_per_year": True}, "periods_per_year must be an integer, got True"),
            ({"data": 123}, "data is not a CSV path, PricePanel or ReturnsPanel: int"),
            ({"data": integer_panel(np.zeros(4), ppy=4)}, "data has periods_per_year 4 but config has 12"),
            ({"grids": ((12,), (6, 2))}, "grid subset 'S,2': periods must be >= 3 samples (period 2, the Nyquist bin, "),
        ],
    )
    def test_bad_fields_rejected_at_construction(self, tmp_path, fields, match):
        with pytest.raises(ValidationError, match=re.escape(match)):
            ProtocolConfig(**{"data": str(tmp_path / "missing.csv"), "boundary": "2015-01", **fields})

    def test_frequency_grids_follow_grids(self):
        config = ProtocolConfig(data=str(DATA), boundary="2015-01", grids=((12,), (3, 12, 6)))
        expected = (FrequencyGrid.from_periods((12,)), FrequencyGrid.from_periods((12, 6, 3)))
        assert config.frequency_grids == expected

    def test_risk_target_checked_as_given(self):
        with pytest.raises(ValidationError, match=r"got -1\.0$"):
            ProtocolConfig(data=str(DATA), boundary="2015-01", sigma0_annual=-1.0)

    def test_classical_stage_label(self):
        # a pure annual cosine: the spectral mean is not zero, but the in-sample grand mean is
        values = 0.01 * np.cos(2 * np.pi * np.arange(84) / 12)
        with pytest.raises(DegenerateMeanError, match=r"^\[stage: classical-mvo\] mean is numerically zero") as raised:
            run_protocol(ProtocolConfig(data=integer_panel(values), boundary=60, grids=((12,),)))
        # raised from the solver's own error, which carries the unlabelled message
        cause = raised.value.__cause__
        assert type(cause) is DegenerateMeanError
        assert f"[stage: classical-mvo] {cause}" == str(raised.value)

    def test_stage_labels_on_errors(self):
        panel = self.make_market()
        with pytest.raises(ValidationError, match=r"\[stage: split\]"):
            run_protocol(ProtocolConfig(data=panel, boundary=0))


def reference_write_table(path, header, labels, values):
    """The row-by-row ``csv.writer`` form that :func:`_write_table` must reproduce byte for byte."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(labels, *np.asarray(values, dtype=np.float64).T.tolist()))


class TestWriteTable:
    @pytest.mark.parametrize(
        "labels",
        [
            [datetime.date(2015, month, 1) for month in (1, 2, 3, 12)],
            [0, -7, 12, 10**20],
            ["A,1", 'B "two"', "line\r\nbreak", ""],
        ],
        ids=["dates", "ints", "quoted-strs"],
    )
    def test_writes_the_bytes_of_csv_writer(self, tmp_path, labels):
        rng = np.random.default_rng(5)
        distinct = rng.standard_normal((2, 5)) * 10.0 ** rng.uniform(-20, 20, size=(2, 5))
        special = np.array([[-0.0, 0.0, np.nan, np.inf, -np.inf]])
        cases = {
            "repeated": np.vstack([distinct[0]] * 4),
            "distinct": np.vstack([distinct, special, rng.standard_normal((1, 5))]),
            "periodic": np.vstack([distinct, distinct]),
            "special": np.vstack([special, -special, special, special[:, ::-1]]),
            # rows that compare equal but print differently
            "signed-zeros": np.array([[0.0, -0.0, 0.0, 0.0, 1.0], [-0.0, 0.0, 0.0, 0.0, 1.0]] * 2),
        }
        header = ["timestamp", "A,1", 'B "two"', "C", "D", "E"]
        for name, values in cases.items():
            written, expected = tmp_path / f"{name}.csv", tmp_path / f"{name}.expected.csv"
            _write_table(written, header, labels, values)
            reference_write_table(expected, header, labels, values)
            assert written.read_bytes() == expected.read_bytes(), name

    def test_backtest_tables_match_csv_writer(self, tmp_path):
        report = run_protocol(ProtocolConfig(data=str(DATA), boundary="2015-01"))
        report.write_outputs(tmp_path)
        stamps, expected = report.out_timestamps, tmp_path / "expected.csv"
        cumulative = np.column_stack([s.cumulative for s in report.strategies])
        reference_write_table(expected, ["timestamp"] + [s.slug for s in report.strategies], stamps, cumulative)
        assert (tmp_path / "cumulative_returns.csv").read_bytes() == expected.read_bytes()
        for s in report.strategies:
            reference_write_table(expected, ["timestamp", *report.asset_names], stamps, s.allocations)
            assert (tmp_path / f"allocations_{s.slug}.csv").read_bytes() == expected.read_bytes()
