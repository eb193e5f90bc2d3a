"""Moment estimators: calibration, structure, the absolute-moment identity, serialization."""

import base64
import dataclasses
import logging
import math
import re
import string
import struct
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from specport import (
    FrequencyGrid,
    PsdMatrix,
    RiskSpec,
    SingularCovarianceError,
    SpectralMoments,
    ValidationError,
    build_basis,
    compute_psd,
    estimate_moments,
    estimate_spectral_mean,
    project_spectrum,
    read_moments_csv,
    solve_spectral_mvo,
    write_moments_csv,
)
from specport.basis import _to_augmented
from specport.moments import _SYMMETRY_BLOCK, _is_exactly_symmetric

from conftest import check_invariants, swap_lines


class TestSpectralMean:
    def test_zero_panel(self):
        grid = FrequencyGrid.from_periods((12, 6))
        mean = estimate_spectral_mean(np.zeros((24, 2)), grid)
        assert np.array_equal(mean.upper, np.zeros(4))

    def test_harmonic_calibration_against_brute_force(self):
        # oracle: direct time average of e^{-jwt} cos(wt) / sqrt(2M) over 100 periods
        omega = 2 * np.pi / 12
        grid = FrequencyGrid.from_periods((12,))
        t = np.arange(1200)
        x = np.cos(omega * t)
        oracle = np.mean(np.exp(-1j * omega * t) * x) / math.sqrt(2)
        assert abs(oracle - 1 / (2 * math.sqrt(2))) <= 1e-10
        mean = estimate_spectral_mean(x[:, None], grid)
        assert abs(mean.upper[0] - oracle) <= 1e-12

    def test_empty_bin_orthogonality(self):
        # a harmonic on bin 1 leaves bin 2 exactly empty on a commensurate window
        grid = FrequencyGrid.from_periods((12, 8))
        t = np.arange(50 * grid.least_common_period())
        x = np.cos(2 * np.pi / 12 * t)[:, None]
        mean = estimate_spectral_mean(x, grid)
        assert abs(mean.upper[1]) <= 1e-10

    def test_modes_scale_by_2m(self):
        grid = FrequencyGrid.from_periods((12, 8, 6))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((48, 2))
        literal = estimate_spectral_mean(x, grid)
        consistent = estimate_spectral_mean(x, grid, mode="consistent")
        assert np.allclose(consistent.upper, 6 * literal.upper, atol=1e-15)

    def test_calibration_both_modes(self):
        # pure harmonic a cos(w_m t): literal a/(2 sqrt(2M)), consistent a sqrt(2M)/2
        amplitude = 0.7
        grid = FrequencyGrid.from_periods((12, 8, 6))
        t = np.arange(10 * grid.least_common_period())
        x = amplitude * np.cos(2 * np.pi / 8 * t)[:, None]
        literal = estimate_spectral_mean(x, grid)
        assert abs(literal.upper[1] - amplitude / (2 * math.sqrt(6))) <= 1e-8
        consistent = estimate_spectral_mean(x, grid, mode="consistent")
        assert abs(consistent.upper[1] - amplitude * math.sqrt(6) / 2) <= 1e-8

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_empty_input_error(self, n_samples):
        # the window snap refuses an empty window, like any window shorter than one period L
        grid = FrequencyGrid.from_periods((12,))
        message = f"window of {n_samples} samples is shorter than one least common period (12 samples) of the grid"
        for estimator in (estimate_spectral_mean, estimate_moments):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                estimator(np.zeros((n_samples, 1)), grid)

    def test_snap_warns_and_discards_oldest(self, caplog):
        grid = FrequencyGrid.from_periods((12,))
        t = np.arange(30)
        x = np.cos(2 * np.pi / 12 * t)[:, None]
        with caplog.at_level(logging.WARNING, logger="specport.moments"):
            snapped = estimate_spectral_mean(x, grid)
        assert [r.getMessage() for r in caplog.records] == ["window snap: kept 24 samples, discarded 6 oldest"]
        # the mean of B(t)^H x(t) over the kept rows, each at its own sample index t = 6..29
        direct = np.mean([project_spectrum(build_basis(t, grid, 1), x[t]).upper for t in range(6, 30)], axis=0)
        assert np.allclose(snapped.upper, direct, atol=1e-15)

    @pytest.mark.parametrize("estimator", [estimate_moments, estimate_spectral_mean])
    def test_window_shorter_than_least_common_period_rejected(self, estimator):
        with pytest.raises(ValidationError, match="shorter than one least common period"):
            estimator(np.ones((23, 1)), FrequencyGrid.from_periods((12, 8)))

    def test_snap_logged_and_warned_once_per_estimate(self, caplog):
        grid = FrequencyGrid.from_periods((12,))
        x = np.random.default_rng(3).standard_normal((30, 2))
        with caplog.at_level(logging.INFO, logger="specport.moments"), warnings.catch_warnings():
            warnings.simplefilter("error")  # the snap is a log record, not a warning
            moments = estimate_moments(x, grid)
        assert moments.sample_count == 24
        (record,) = [r for r in caplog.records if r.name == "specport.moments"]
        assert record.levelno == logging.WARNING
        assert (record.snap_kept, record.snap_discarded) == (24, 6)
        assert "kept 24" in record.getMessage() and "discarded 6" in record.getMessage()

    def test_unknown_mode(self):
        grid = FrequencyGrid.from_periods((12,))
        with pytest.raises(ValidationError, match="^unknown estimator mode 'bogus'; expected one of "):
            estimate_spectral_mean(np.zeros((24, 1)), grid, mode="bogus")

    def test_estimate_moments_takes_no_mode(self):
        # the stored pair and its views have one scale; only estimate_spectral_mean offers the consistent one
        grid = FrequencyGrid.from_periods((12,))
        with pytest.raises(TypeError, match="mode"):
            estimate_moments(np.zeros((24, 1)), grid, mode="consistent")
        with pytest.raises(TypeError, match="positional"):
            estimate_moments(np.zeros((24, 1)), grid, "consistent")

    def test_one_dimensional_panel_is_one_asset(self):
        grid = FrequencyGrid.from_periods((12, 6))
        x = np.random.default_rng(4).standard_normal(24)
        flat, column = estimate_moments(x, grid), estimate_moments(x[:, np.newaxis], grid)
        assert flat.n_assets == 1
        assert np.array_equal(flat.managed_mean, column.managed_mean)
        assert np.array_equal(flat.managed_covariance, column.managed_covariance)

    @pytest.mark.parametrize("estimator", [estimate_moments, estimate_spectral_mean])
    @pytest.mark.parametrize(
        "panel, match",
        [
            (np.zeros((24, 1, 1)), r"panel shape \(24, 1, 1\) does not match \(24, 1\)"),
            (np.zeros(()), r"panel shape \(\) does not match \(1, 1\)"),
            (np.where(np.arange(24) == 5, np.nan, 0.0)[:, np.newaxis], "panel has non-finite entries"),
            (np.full((24, 1), 1.0 + 1.0j), "panel must be real"),
            (np.array([["a"]] * 24), "panel must hold real numbers: could not convert string to float: .*"),
            (np.array([[{}]] * 24), r"panel must hold real numbers: float\(\) argument must be .*, not 'dict'"),
            ([[1.0], [1.0, 2.0]], r"panel must hold real numbers: setting an array element with a sequence\..*"),
        ],
    )
    def test_panel_that_is_not_2d_real_or_finite_rejected(self, estimator, panel, match):
        with pytest.raises(ValidationError, match=f"^{match}$"):
            estimator(panel, FrequencyGrid.from_periods((12,)))

    @pytest.mark.parametrize("estimator", [estimate_moments, estimate_spectral_mean])
    @pytest.mark.parametrize(
        "n_samples, level", [(40, logging.WARNING), (36, logging.INFO)], ids=["discarding", "keeping-all"]
    )
    def test_snap_is_one_record_keeping_counts(self, estimator, n_samples, level, caplog):
        grid = FrequencyGrid.from_periods((12, 4))
        x = np.random.default_rng(5).standard_normal((n_samples, 2))
        with caplog.at_level(logging.INFO, logger="specport.moments"):
            estimator(x, grid)
        (record,) = [r for r in caplog.records if r.name == "specport.moments"]
        assert record.levelno == level
        assert record.getMessage() == f"window snap: kept 36 samples, discarded {n_samples - 36} oldest"
        assert (record.snap_kept, record.snap_discarded) == (36, n_samples - 36)


class TestSpectralCovariance:
    def test_zero_panel(self):
        grid = FrequencyGrid.from_periods((12,))
        moments = estimate_moments(np.zeros((24, 1)), grid)
        assert np.array_equal(moments.covariance, np.zeros((2, 2)))

    def test_white_noise_monte_carlo(self):
        # for unit-variance white noise the per-bin covariance is variance/2
        rng = np.random.default_rng(11)
        n_samples = 99996  # a multiple of 12: the snap keeps every sample
        grid = FrequencyGrid.from_periods((12,))
        x = rng.standard_normal((n_samples, 1))
        moments = estimate_moments(x, grid)
        assert moments.sample_count == n_samples
        # SE of avg(x^2)/2 is sqrt(Var(x^2)/T)/2 = sqrt(2/T)/2
        se_r = math.sqrt(2.0 / n_samples) / 2
        r_value = float(moments.bin_covariance(0)[0, 0].real)
        assert abs(r_value - 0.5) <= 3 * se_r
        # pseudo-covariance should vanish; same-order standard error
        p_value = abs(complex(moments.bin_pseudo_covariance(0)[0, 0]))
        assert p_value <= 3 * math.sqrt(2.0 / n_samples)

    def test_block_structure_exact(self):
        rng = np.random.default_rng(2)
        grid = FrequencyGrid.from_periods((12, 8, 5))
        x = rng.standard_normal((grid.least_common_period() * 3, 2))
        moments = estimate_moments(x, grid)
        cov = moments.covariance
        half = moments.half_size
        assert np.array_equal(cov[half:, half:], np.conj(cov[:half, :half]))
        assert np.array_equal(cov[half:, :half], np.conj(cov[:half, half:]))
        # R is Hermitian and P symmetric, exactly
        assert np.array_equal(cov[:half, :half], cov[:half, :half].conj().T)
        assert np.array_equal(cov[:half, half:], cov[:half, half:].T)

    def test_dual_frequency_symmetries(self):
        rng = np.random.default_rng(4)
        grid = FrequencyGrid.from_periods((12, 8, 6))
        x = rng.standard_normal((grid.least_common_period() * 4, 2))
        moments = estimate_moments(x, grid)
        for m in range(3):
            for n in range(3):
                r_mn = moments.bin_covariance(m, n)
                r_nm = moments.bin_covariance(n, m)
                assert np.allclose(r_mn, r_nm.conj().T, atol=1e-15)
                p_mn = moments.bin_pseudo_covariance(m, n)
                p_nm = moments.bin_pseudo_covariance(n, m)
                assert np.allclose(p_mn, p_nm.T, atol=1e-15)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            grid = FrequencyGrid.from_periods((12, 9))
            x = rng.standard_normal((36 * 4, 3)) * rng.uniform(0.5, 2.0)
            moments = estimate_moments(x, grid)
            for m in range(grid.n_bins):
                r_norm = np.linalg.norm(moments.bin_covariance(m), 2)
                p_norm = np.linalg.norm(moments.bin_pseudo_covariance(m), 2)
                assert p_norm <= r_norm + 1e-12

    def test_no_managed_panel_is_formed(self):
        # T x 2MN panel: 2400 x 400 doubles, 7.7 MB; K is 1.3 MB and the returns 1 MB
        grid = FrequencyGrid.from_periods((12, 6, 4, 3))
        x = np.random.default_rng(8).standard_normal((2400, 50))
        tracemalloc.start()
        try:
            estimate_moments(x, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.shape[0] * 2 * grid.n_bins * x.shape[1] * 8 / 2

    def test_short_window_forms_no_panel_and_only_reads_the_window(self):
        # 4200 = 10 L samples, 10 per class: the T x 2MN panel would be 10.1 MB, the window is 1.7 MB
        grid = FrequencyGrid.from_periods((12, 7, 5))
        x = np.random.default_rng(9).standard_normal((4200, 50))
        tracemalloc.start()
        try:
            moments = estimate_moments(x, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.shape[0] * 2 * grid.n_bins * x.shape[1] * 8 / 2
        # a read-only window is read, never written, and gives the same K bit for bit
        frozen = x.copy()
        frozen.flags.writeable = False
        again = estimate_moments(frozen, grid)
        assert np.array_equal(frozen, x)
        assert again.managed_covariance.tobytes() == moments.managed_covariance.tobytes()
        assert again.managed_mean.tobytes() == moments.managed_mean.tobytes()

    def test_invariants_pass_on_estimates(self):
        rng = np.random.default_rng(6)
        grid = FrequencyGrid.from_periods((10, 5, 4))
        x = rng.standard_normal((grid.least_common_period() * 5, 2))
        check_invariants(estimate_moments(x, grid))


class TestSpectralMomentsType:
    def estimate(self):
        rng = np.random.default_rng(20)
        return estimate_moments(rng.standard_normal((24, 2)), FrequencyGrid.from_periods((12, 6)))

    def test_constructor_rejects_inexactly_symmetric_covariance(self):
        moments = self.estimate()
        cov = np.array(moments.managed_covariance)
        cov[5, 0] = np.nextafter(cov[5, 0], np.inf)  # one ulp off its mirror entry
        with pytest.raises(ValidationError, match="exactly symmetric"):
            dataclasses.replace(moments, managed_covariance=cov)

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({(250, 3): np.nan}, "managed covariance has non-finite entries"),  # below the diagonal only
            ({(3, 250): np.inf, (250, 3): np.inf}, "managed covariance has non-finite entries"),
            ({(1, 0): 1.0, (279, 278): np.nan}, "managed covariance has non-finite entries"),
            ({(1, 0): np.inf, (279, 278): 1.0}, "managed covariance has non-finite entries"),
            ({(279, 278): 1.0}, "managed covariance is not exactly symmetric"),
        ],
    )
    def test_one_pass_check_keeps_messages_and_precedence(self, cells, message):
        # 2MN = 280 spans three symmetry strips; a non-finite K is reported before an asymmetric one
        grid = FrequencyGrid.from_periods((12, 6))
        raw = np.random.default_rng(280).standard_normal((280, 280))
        cov = raw + raw.T
        for (i, j), value in cells.items():
            cov[i, j] += value
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SpectralMoments(grid=grid, managed_mean=np.zeros(280), managed_covariance=cov, sample_count=300)

    @pytest.mark.parametrize("size", [1, 127, 128, 129, 300])
    def test_symmetry_check_is_exact_in_every_tile(self, size):
        raw = np.random.default_rng(size).standard_normal((size, size))
        matrix = raw + raw.T
        assert _is_exactly_symmetric(matrix)
        edge = _SYMMETRY_BLOCK
        cells = {
            (1, 0),  # first diagonal tile
            (edge - 1, edge - 2),  # last row of a tile, beside the edge
            (edge, edge - 1),  # first row of the next tile, across the edge
            (edge + 1, edge),  # next diagonal tile
            (size - 1, 0),  # far off-diagonal tile
            (size - 1, size - 2),  # last diagonal tile
        }
        for row, col in cells:
            if not 0 <= col < row < size:
                continue
            for i, j in ((row, col), (col, row)):
                bumped = matrix.copy()
                bumped[i, j] = np.nextafter(bumped[i, j], np.inf)  # one ulp off its mirror entry
                assert not _is_exactly_symmetric(bumped), (i, j)

    @pytest.mark.parametrize(
        "fields",
        [
            {"managed_covariance": np.eye(6)},
            {"managed_covariance": np.zeros((8, 4))},
            {"managed_mean": np.zeros(6)},
            {"managed_mean": np.zeros((8, 1))},
            {"managed_covariance": np.eye(8, dtype=complex)},
        ],
    )
    def test_constructor_rejects_wrong_shape_or_complex(self, fields):
        with pytest.raises(ValidationError, match="managed"):
            dataclasses.replace(self.estimate(), **fields)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"managed_mean": np.full(8, np.nan)}, "managed mean has non-finite"),
            ({"managed_covariance": np.full((8, 8), np.inf)}, "managed covariance has non-finite"),
            ({"sample_count": -3}, "sample_count"),
            ({"sample_count": 240.5}, "^sample_count must be an integer, got 240.5$"),
            ({"sample_count": True}, "^sample_count must be an integer, got True$"),
            ({"sample_count": 0}, "^sample_count must be >= 1, got 0$"),
        ],
    )
    def test_constructor_rejects_bad_values(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(self.estimate(), **fields)

    @pytest.mark.parametrize(
        "accessor, args",
        [
            ("bin_mean", (2,)),
            ("bin_mean", (5,)),
            ("bin_mean", (-1,)),
            ("bin_covariance", (2,)),
            ("bin_covariance", (0, 2)),
            ("bin_covariance", (-1, 0)),
            ("bin_pseudo_covariance", (5,)),
            ("bin_pseudo_covariance", (1, -1)),
        ],
    )
    def test_bin_index_outside_grid_rejected(self, accessor, args):
        x = np.random.default_rng(21).standard_normal((24, 3))
        moments = estimate_moments(x, FrequencyGrid.from_periods((12, 6)))
        bad = next(index for index in args if not 0 <= index < 2)
        with pytest.raises(ValidationError, match=re.escape(f"bin index {bad} is outside [0, M) for M = 2")):
            getattr(moments, accessor)(*args)

    @pytest.mark.parametrize("sine_variance, fails", [(-0.5, True), (-1e-12, False)])
    def test_invariants_fail_on_indefinite_covariance(self, sine_variance, fails):
        # K_aa = I and K_bb = sine_variance I: symmetric and finite, so the constructor
        # takes it; R = (1 + sine_variance) I / 2 but P = (1 - sine_variance) I / 2
        grid = FrequencyGrid.from_periods((12, 6))
        moments = SpectralMoments(
            grid=grid,
            managed_mean=np.zeros(8),
            managed_covariance=np.diag([1.0] * 4 + [sine_variance] * 4),
            sample_count=24,
        )
        if fails:
            with pytest.raises(ValidationError, match="^managed covariance has negative eigenvalue -5.000e-01$"):
                check_invariants(moments)
        else:
            check_invariants(moments)

    def test_complex_views_are_read_only_and_derived(self):
        moments = self.estimate()
        cov = moments.covariance
        assert cov is moments.covariance  # built once
        assert cov.tobytes() == _to_augmented(moments.managed_covariance).tobytes()
        assert np.array_equal(moments.mean.full(), _to_augmented(moments.managed_mean).full())
        blocks = (moments.bin_covariance(0, 1), moments.bin_pseudo_covariance(1))
        for array in (cov, *blocks):  # the fields' arrays: tests/test_package.py
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            moments.covariance = np.zeros_like(cov)

    def test_mode_is_a_class_constant_not_a_field(self, tmp_path):
        # the benchmark's wide-backtest check (perfbench/run.py:348) compares written.mode with expected.mode;
        # the attribute may go only with ROADMAP item 10's benchmark change, which drops that comparison
        moments = self.estimate()
        path = tmp_path / "moments.csv"
        write_moments_csv(moments, path)
        assert moments.mode == read_moments_csv(path).mode == "paper-literal"
        assert "mode" not in [field.name for field in dataclasses.fields(SpectralMoments)]
        with pytest.raises(TypeError, match="mode"):
            SpectralMoments(
                grid=moments.grid,
                managed_mean=moments.managed_mean,
                managed_covariance=moments.managed_covariance,
                sample_count=moments.sample_count,
                mode="paper-literal",
            )

    def test_rejected_construction_leaves_the_callers_arrays_writeable(self):
        # the constructor freezes the caller's own float64 arrays only once every check has passed
        grid = FrequencyGrid.from_periods((4,))
        mean, cov = np.array([0.5, -0.25]), np.array([[2.0, 0.125], [0.25, 1.0]])
        with pytest.raises(ValidationError, match="not exactly symmetric"):
            SpectralMoments(grid=grid, managed_mean=mean, managed_covariance=cov, sample_count=8)
        assert mean.flags.writeable and cov.flags.writeable
        cov[1, 0] = 0.125
        moments = SpectralMoments(grid=grid, managed_mean=mean, managed_covariance=cov, sample_count=8)
        assert moments.managed_mean is mean and moments.managed_covariance is cov
        assert not mean.flags.writeable and not cov.flags.writeable


class TestPsd:
    def test_holds_one_read_only_array(self):
        # K's cosine and sine diagonals are 1, 1 on bin 0 and 2, 3 on bin 1, so R(w_0) = I and R(w_1) = diag(2, 3)
        grid = FrequencyGrid.from_periods((12, 6))
        moments = SpectralMoments(
            grid=grid, managed_mean=np.zeros(8), managed_covariance=np.diag([1.0, 1, 2, 3] * 2), sample_count=12
        )
        psd = compute_psd(moments)
        assert psd.moments is moments and psd.grid is grid
        assert psd.matrices.dtype == np.complex128 and psd.matrices.shape == (2, 2, 2)
        assert not psd.matrices.flags.writeable
        assert np.array_equal(psd.trace_per_bin(), [2.0, 5.0])

    @pytest.mark.parametrize(
        "moments, name",
        [
            (FrequencyGrid.from_periods((12, 6)), "FrequencyGrid"),
            ((np.eye(2), np.eye(2)), "tuple"),
            (np.ones((2, 2, 2)), "ndarray"),
            (None, "NoneType"),
        ],
        ids=["grid", "matrices-tuple", "matrices-array", "none"],
    )
    def test_is_built_from_spectral_moments_only(self, moments, name):
        # the per-bin matrices are computed from the moments, never given
        with pytest.raises(ValidationError, match=f"^moments must be SpectralMoments, got {name}$"):
            PsdMatrix(moments)

    def test_zero_mean_reduces_to_covariance(self):
        rng = np.random.default_rng(9)
        grid = FrequencyGrid.from_periods((12, 6))
        x = rng.standard_normal((48, 1))
        moments = estimate_moments(x, grid)
        zeroed = SpectralMoments(
            grid=grid,
            managed_mean=np.zeros(4),
            managed_covariance=moments.managed_covariance,
            sample_count=moments.sample_count,
        )
        psd = compute_psd(zeroed)
        for m in range(2):
            assert np.array_equal(psd.matrices[m], zeroed.bin_covariance(m))

    def test_zero_covariance_reduces_to_mean_power(self):
        grid = FrequencyGrid.from_periods((12,))
        coefficient = 0.3 - 0.4j
        moments = SpectralMoments(
            grid=grid,
            managed_mean=math.sqrt(2) * np.array([coefficient.real, coefficient.imag]),
            managed_covariance=np.zeros((2, 2)),
            sample_count=10,
        )
        psd = compute_psd(moments)
        assert psd.matrices[0][0, 0] == pytest.approx(abs(coefficient) ** 2)

    def test_identity_with_direct_absolute_estimator(self):
        # moment decomposition: avg(u u^H) == mean mean^H + covariance, per bin
        from specport import seasonal_market_spec, synthesize_values

        grid = FrequencyGrid.from_periods((12, 8))
        n_samples = 100 * grid.least_common_period()
        spec = seasonal_market_spec(n_assets=2, periods=(12, 8), seed=13, horizon=n_samples)
        x = synthesize_values(spec)
        moments = estimate_moments(x, grid)
        psd = compute_psd(moments)
        n_assets = 2
        half = grid.n_bins * n_assets
        direct = [np.zeros((n_assets, n_assets), dtype=complex) for _ in range(grid.n_bins)]
        for t in range(n_samples):
            basis = build_basis(t, grid, n_assets)
            u = basis.values[:, :half].conj().T @ x[t]
            for m in range(grid.n_bins):
                block = u[m * n_assets : (m + 1) * n_assets]
                direct[m] += np.outer(block, block.conj())
        for m in range(grid.n_bins):
            assert np.max(np.abs(direct[m] / n_samples - psd.matrices[m])) <= 1e-6


def reference_write_moments(moments, path):
    """The moments file written row by row with ``base64``, ``struct`` and ``zlib``: the bytes ``write_moments_csv`` must give."""
    grid = moments.grid
    rows = [
        "record,i,j,re,im",
        "meta,format,specport-moments-v6,,",
        f"meta,periods,{';'.join(str(p) for p in grid.periods)},,",
        f"meta,n_assets,{moments.n_assets},,",
        f"meta,sample_count,{moments.sample_count},,",
        "meta,mode,paper-literal,,",
    ]
    cov = moments.managed_covariance
    records = [("mean", "", "", moments.managed_mean.tolist())]
    records += [("cov", i, i, cov[i, i:].tolist()) for i in range(len(cov))]
    for kind, i, j, values in records:
        rows.append(f"{kind},{i},{j},{base64.b64encode(struct.pack(f'<{len(values)}d', *values)).decode()},")
    data = "".join(row + "\r\n" for row in rows).encode()
    Path(path).write_bytes(data + f"end,crc32,{zlib.crc32(data):08x},,\r\n".encode())


def renew_crc(path):
    """Put the CRC-32 of every byte before the end row into the end row of the file at ``path``."""
    data = Path(path).read_bytes()
    at = data.index(b"\nend,crc32,") + 1
    Path(path).write_bytes(data[:at] + b"end,crc32,%08x" % zlib.crc32(data[:at]) + data[at + 18 :])


def replace_record(path, key, values):
    """Put ``values`` into the record that starts with ``key`` (say ``"cov,1,1,"``) and renew the end row's CRC."""
    lines = Path(path).read_bytes().decode().split("\r\n")
    for k, line in enumerate(lines):
        if line.startswith(key):
            lines[k] = key + base64.b64encode(np.asarray(values, "<f8").tobytes()).decode() + ","
    Path(path).write_bytes("\r\n".join(lines).encode())
    renew_crc(path)


def tiny_moments():
    """One bin of period 4, one asset: 2MN = 2, so the file holds the mean and 2 cov records."""
    return SpectralMoments(
        grid=FrequencyGrid.from_periods((4,)),
        managed_mean=np.array([0.5, -0.25]),
        managed_covariance=np.array([[2.0, 0.125], [0.125, 1e-3]]),
        sample_count=8,
    )


# tiny_moments() as written: the records hold [0.5, -0.25], [2.0, 0.125] and [0.001] as little-endian float64
TINY_FILE = (
    b"record,i,j,re,im\r\n"
    b"meta,format,specport-moments-v6,,\r\n"
    b"meta,periods,4,,\r\n"
    b"meta,n_assets,1,,\r\n"
    b"meta,sample_count,8,,\r\n"
    b"meta,mode,paper-literal,,\r\n"
    b"mean,,,AAAAAAAA4D8AAAAAAADQvw==,\r\n"
    b"cov,0,0,AAAAAAAAAEAAAAAAAADAPw==,\r\n"
    b"cov,1,1,/Knx0k1iUD8=,\r\n"
    b"end,crc32,b4944200,,\r\n"
)

class TestSerialization:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(17)
        grid = FrequencyGrid.from_periods((12, 7, 5))
        x = rng.standard_normal((grid.least_common_period(), 3))
        moments = estimate_moments(x, grid)
        path = tmp_path / "moments.csv"
        write_moments_csv(moments, path)
        loaded = read_moments_csv(path)
        assert loaded.grid == moments.grid
        assert loaded.n_assets == moments.n_assets
        assert loaded.sample_count == moments.sample_count
        assert np.array_equal(loaded.managed_mean, moments.managed_mean)
        assert np.array_equal(loaded.managed_covariance, moments.managed_covariance)
        assert np.array_equal(loaded.covariance, moments.covariance)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: text.rindex(",")],  # truncated inside the end row
            lambda text: "".join(text.splitlines(keepends=True)[:-3]),  # truncated at a row end
            lambda text: text.replace("meta,periods,", "meta,frequencies,"),  # missing meta row
            lambda text: text.replace("meta,n_assets,", "meta,assets,"),  # missing meta row
            lambda text: text.replace("cov,0,0,", "cov,0,x,"),  # non-integer index
            lambda text: text.replace("cov,1,1,", "cov,1,-1,"),  # index out of range
            lambda text: text.replace("cov,1,1,", "cov,0,0,"),  # duplicate row
            lambda text: re.sub(r"^(mean,,,[^,]*,)\r$", r"\g<1>0.5\r", text, flags=re.M),  # imaginary part
            lambda text: text.replace("cov,1,1,", "cov,1,0,"),  # a row that does not start at the diagonal
            lambda text: swap_lines(text, "cov,0,0,"),  # two adjacent cov rows swapped
        ],
    )
    def test_malformed_file_raises_validation_error(self, tmp_path, damage):
        rng = np.random.default_rng(18)
        grid = FrequencyGrid.from_periods((12, 6))
        path = tmp_path / "moments.csv"
        write_moments_csv(estimate_moments(rng.standard_normal((24, 2)), grid), path)
        text = path.read_bytes().decode()
        assert damage(text) != text
        path.write_bytes(damage(text).encode())
        with pytest.raises(ValidationError, match="moments.csv"):
            read_moments_csv(path)

    def test_golden_bytes(self, tmp_path):
        moments = tiny_moments()
        path = tmp_path / "moments.csv"
        write_moments_csv(moments, path)
        assert path.read_bytes() == TINY_FILE
        loaded = read_moments_csv(path)
        assert loaded.grid == moments.grid
        assert np.array_equal(loaded.managed_mean, moments.managed_mean)
        assert np.array_equal(loaded.managed_covariance, moments.managed_covariance)

    @pytest.mark.parametrize("periods, n_assets", [((12, 6, 3), 2), ((12,), 55)], ids=["2MN=12", "2MN=110"])
    def test_writers_match_the_row_by_row_loop(self, tmp_path, periods, n_assets):
        # the indices cross the digit boundaries 9 | 10 and 99 | 100
        grid = FrequencyGrid.from_periods(periods)
        dim = 2 * grid.n_bins * n_assets
        rng = np.random.default_rng(dim)
        raw = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-20, 20, size=(dim, dim))
        raw[rng.random((dim, dim)) < 0.05] = -0.0
        upper = np.arange(dim)[:, np.newaxis] <= np.arange(dim)
        moments = SpectralMoments(
            grid=grid,
            managed_mean=np.where(np.arange(dim) % 5 == 0, -0.0, rng.standard_normal(dim)),
            managed_covariance=np.where(upper, raw, raw.T),
            sample_count=480,
        )
        assert np.signbit(moments.managed_covariance[upper & (moments.managed_covariance == 0.0)]).any()
        written, expected = tmp_path / "moments.csv", tmp_path / "moments.expected.csv"
        write_moments_csv(moments, written)
        reference_write_moments(moments, expected)
        assert written.read_bytes() == expected.read_bytes()
        loaded = read_moments_csv(written)
        assert loaded.managed_mean.tobytes() == moments.managed_mean.tobytes()
        assert loaded.managed_covariance.tobytes() == moments.managed_covariance.tobytes()

    def test_writer_takes_a_column_ordered_covariance(self, tmp_path):
        # the records are rows of a C-ordered copy, not of the column-ordered array's memory
        moments = tiny_moments()
        cov = np.asfortranarray(moments.managed_covariance)
        moments = dataclasses.replace(moments, managed_covariance=cov)
        assert moments.managed_covariance.flags.f_contiguous and not moments.managed_covariance.flags.c_contiguous
        path = tmp_path / "moments.csv"
        write_moments_csv(moments, path)
        assert path.read_bytes() == TINY_FILE

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("record,i,j,re,im\r\n", ""), "not a specport-moments-v6 CSV (missing header)"),
            (("specport-moments-v6", "specport-moments-v9"), "unsupported format tag 'specport-moments-v9'"),
            (
                ("cov,0,0,", "cov,1,0,"),
                "malformed file (ValueError: found row ['cov', '1', '0'] where ['cov', '0', '0'] belongs)",
            ),
            (
                ("cov,1,1,/Knx0k1iUD8=,", "cov,1,1,/Knx0k1iUD8=,0.5"),
                "malformed file (ValueError: row ['cov', '1', '1'] is not 'cov,1,1,<value>,\\r\\n')",
            ),
            (("end,crc32,b4944200,,\r\n", ""), "truncated file (no end row)"),
            (
                ("end,crc32,b4944200,", "end,crc32,b4944201,"),
                "end row CRC-32 'b4944201' does not match b4944200, the CRC-32 of every byte before it",
            ),
            (
                ("end,crc32,", "cov,2,2,AAAAAAAA8D8=,\r\nend,crc32,"),
                "malformed file (ValueError: found row ['cov', '2', '2'] where ['end', 'crc32'] belongs)",
            ),
            (("end,crc32,b4944200,,\r\n", 2 * "end,crc32,b4944200,,\r\n"), "rows after the end row"),
            (
                ("meta,periods,4,,\r\nmeta,n_assets,1,,\r\n", "meta,n_assets,1,,\r\nmeta,periods,4,,\r\n"),
                "malformed file (ValueError: found row ['meta', 'n_assets', '1'] where ['meta', 'periods'] belongs)",
            ),
            (
                ("meta,periods,4,", "meta,periods,4.0,"),
                "malformed file (ValueError: not an integer: '4.0')",
            ),
            (
                ("meta,periods,4,", "meta,periods,4;3,"),
                "malformed file (ValueError: row ['mean', '', ''] does not hold the base64 of 4 float64 values)",
            ),
            (("meta,periods,4,", "meta,periods,4;4,"), "duplicate periods in [4, 4]"),
            (
                ("meta,n_assets,1,", "meta,n_assets,one,"),
                "malformed file (ValueError: not an integer: 'one')",
            ),
            (
                ("meta,sample_count,8,", "meta,sample_count,8.5,"),
                "malformed file (ValueError: not an integer: '8.5')",
            ),
            # 0.125 -> 0.1328125: still the base64 of two values, so only the CRC tells
            (
                ("AAAAAAAAAEAAAAAAAADAPw==", "AAAAAAAAAEAAAAAAAADBPw=="),
                "end row CRC-32 'b4944200' does not match a7bc7b73, the CRC-32 of every byte before it",
            ),
            (
                ("cov,0,0,", "cov,0,0,1"),
                "malformed file (ValueError: row ['cov', '0', '0'] does not hold the base64 of 2 float64 values)",
            ),
            # the last character's two spare bits set: the same bytes decoded, but not the bytes written
            (
                ("/Knx0k1iUD8=", "/Knx0k1iUD9="),
                "end row CRC-32 'b4944200' does not match 89f46bb0, the CRC-32 of every byte before it",
            ),
            (
                ("AAAAAAAAAEAAAAAAAADAPw==", "AAAAAAAAAEA="),
                "malformed file (ValueError: row ['cov', '0', '0'] does not hold the base64 of 2 float64 values)",
            ),
            (
                ("/Knx0k1iUD8=", "/Knx0k1iUé8="),
                "malformed file (UnicodeDecodeError: 'ascii' codec can't decode byte 0xc3 in position 17: "
                "ordinal not in range(128))",
            ),
            (
                ("meta,periods,4,,", "meta,periods"),
                "malformed file (ValueError: row ['meta', 'periods'] is not 'meta,periods,<value>,,\\r\\n')",
            ),
            (
                ("AAAAAAAA4D8AAAAAAADQvw==,\r\n", "AAAAAAAA4D8AAAAAAADQvw==\r\n"),
                "malformed file (ValueError: row ['mean', '', ''] is not 'mean,,,<value>,\\r\\n')",
            ),
            (
                ("end,crc32,b4944200,,", "end,crc32,b4944200,"),
                "malformed file (ValueError: row ['end', 'crc32'] is not 'end,crc32,<value>,,\\r\\n')",
            ),
            # the file's last LF made a CR: still one line, but not the end row as written
            (
                ("end,crc32,b4944200,,\r\n", "end,crc32,b4944200,,\r\r"),
                "malformed file (ValueError: row ['end', 'crc32'] is not 'end,crc32,<value>,,\\r\\n')",
            ),
            (
                ("meta,mode,paper-literal,,\r\n", "meta,mode,paper-literal,,\n"),
                "malformed file (ValueError: row ['meta', 'mode'] is not 'meta,mode,<value>,,\\r\\n')",
            ),
        ],
        ids=[
            "missing-header",
            "format-tag",
            "out-of-order",
            "imaginary-part",
            "no-end-row",
            "end-crc",
            "extra-cov-row",
            "after-end",
            "meta-order",
            "periods-value",
            "periods-per-bin",
            "periods-duplicate",
            "n_assets-value",
            "sample_count-value",
            "cov-value",
            "not-base64",
            "spare-bits",
            "short-cov-row",
            "non-ascii",
            "short-meta-row",
            "short-mean-row",
            "short-end-row",
            "end-row-cr",
            "lf-row-end",
        ],
    )
    def test_reader_messages_in_full(self, tmp_path, edit, message):
        path = tmp_path / "moments.csv"
        write_moments_csv(tiny_moments(), path)
        old, new = edit
        text = path.read_bytes().decode()
        assert text.count(old) == 1
        path.write_bytes(text.replace(old, new).encode())
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "row",
        ["periods,4", "n_assets,1", "sample_count,8", "mode,paper-literal"],
    )
    def test_each_required_meta_row_is_named_when_missing(self, tmp_path, row):
        # the meta rows are read by position: the row after the gap stands where the missing one belongs
        path = tmp_path / "moments.csv"
        path.write_bytes(TINY_FILE.replace(f"meta,{row},,\r\n".encode(), b""))
        key = row.split(",")[0]
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value).startswith(f"{path}: malformed file (ValueError: found row ")
        assert str(caught.value).endswith(f" where ['meta', '{key}'] belongs)")

    def test_repeated_meta_row_is_refused(self, tmp_path):
        path = tmp_path / "moments.csv"
        path.write_bytes(TINY_FILE.replace(b"meta,n_assets,1,,\r\n", 2 * b"meta,n_assets,1,,\r\n"))
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == (
            f"{path}: malformed file (ValueError: found row ['meta', 'n_assets', '1'] where ['meta', 'sample_count'] belongs)"
        )

    @pytest.mark.parametrize(
        "old, new",
        [
            ("meta,sample_count,8,", "meta,sample_count,800,"),
            ("meta,mode,paper-literal,", "meta,mode,consistent,"),
            ("meta,periods,4,", "meta,periods,3,"),  # another grid with the same bin count
        ],
        ids=["sample_count", "mode", "periods"],
    )
    def test_well_formed_meta_edit_is_refused_by_the_crc(self, tmp_path, old, new):
        path = tmp_path / "moments.csv"
        edited = TINY_FILE.replace(old.encode(), new.encode())
        assert edited.count(new.encode()) == 1
        path.write_bytes(edited)
        crc = zlib.crc32(edited[: edited.index(b"end,")])
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == (
            f"{path}: end row CRC-32 'b4944200' does not match {crc:08x}, the CRC-32 of every byte before it"
        )

    def test_edited_n_assets_is_refused_before_k_is_allocated(self, tmp_path):
        # two bins, two assets: 2,000,000 assets would make K 8e6 x 8e6 (466 TiB); the mean record holds 8 values
        rng = np.random.default_rng(25)
        path = tmp_path / "moments.csv"
        write_moments_csv(estimate_moments(rng.standard_normal((24, 2)), FrequencyGrid.from_periods((12, 6))), path)
        text = path.read_bytes()
        assert text.count(b"\r\nmeta,n_assets,2,,\r\n") == 1
        path.write_bytes(text.replace(b"meta,n_assets,2,", b"meta,n_assets,2000000,"))
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == (
            f"{path}: malformed file (ValueError: row ['mean', '', ''] does not hold the base64 of 8000000 float64 values)"
        )

    def test_edited_sample_count_cannot_pass_the_rho_guard(self, tmp_path):
        # N = 10 on grid (12, 6, 3): 2MN = 60 on T = 36 (rho = 1.67) is refused; as T = 3600 it would solve
        grid = FrequencyGrid.from_periods((12, 6, 3))
        moments = estimate_moments(np.random.default_rng(26).standard_normal((36, 10)), grid)
        assert moments.sample_count == 36
        path = tmp_path / "moments.csv"
        write_moments_csv(moments, path)
        with pytest.raises(SingularCovarianceError):
            solve_spectral_mvo(read_moments_csv(path), RiskSpec(sigma0=0.01))
        text = path.read_bytes()
        assert text.count(b"\r\nmeta,sample_count,36,,\r\n") == 1
        path.write_bytes(text.replace(b"meta,sample_count,36,", b"meta,sample_count,3600,"))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: end row CRC-32 "):
            read_moments_csv(path)

    @pytest.mark.parametrize(
        "version, records",
        [
            # a consistent-mode v3 file stored the mean at 2M and K at (2M)^2 times today's scale
            ("v3", b"mean,0,,1.0,\r\nmean,1,,-0.5,\r\ncov,0,0,8.0,\r\ncov,0,1,0.5,\r\ncov,1,1,0.004,\r\nend,13,,,\r\n"),
            # v4 held one decimal value per row
            ("v4", b"mean,0,,0.5,\r\nmean,1,,-0.25,\r\ncov,0,0,2.0,\r\ncov,0,1,0.125,\r\ncov,1,1,0.001,\r\nend,13,,,\r\n"),
            # v5 held the records of today, but its CRC covered only their decoded bytes, not the meta rows
            (
                "v5",
                b"mean,,,AAAAAAAA4D8AAAAAAADQvw==,\r\ncov,0,0,AAAAAAAAAEAAAAAAAADAPw==,\r\n"
                b"cov,1,1,/Knx0k1iUD8=,\r\nend,11,a905eb5b,,\r\n",
            ),
        ],
    )
    def test_previous_format_versions_are_refused(self, tmp_path, version, records):
        path = tmp_path / "moments.csv"
        path.write_bytes(
            b"record,i,j,re,im\r\n"
            b"meta,format,specport-moments-" + version.encode() + b",,\r\n"
            b"meta,omegas,1.5707963267948966,,\r\n"
            b"meta,periods,4,,\r\n"
            b"meta,label,month,,\r\n"
            b"meta,n_assets,1,,\r\n"
            b"meta,n_bins,1,,\r\n"
            b"meta,sample_count,8,,\r\n"
            b"meta,mode,consistent,,\r\n" + records
        )
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == f"{path}: unsupported format tag 'specport-moments-{version}'"

    def test_write_and_read_stream_the_rows(self, tmp_path):
        # 2MN = 300: K is 0.72 MB; the writer makes no copy of it, and the reader only the K it returns
        grid = FrequencyGrid.from_periods((12, 6, 3))
        moments = estimate_moments(np.random.default_rng(22).standard_normal((480, 50)), grid)
        path = tmp_path / "moments.csv"
        for call, budget in ((lambda: write_moments_csv(moments, path), 0.5), (lambda: read_moments_csv(path), 1.5)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= budget * moments.managed_covariance.nbytes
        assert np.array_equal(read_moments_csv(path).managed_covariance, moments.managed_covariance)

    def test_truncation_inside_a_record_raises(self, tmp_path):
        rng = np.random.default_rng(19)
        path = tmp_path / "moments.csv"
        grid = FrequencyGrid.from_periods((12, 6))
        write_moments_csv(estimate_moments(rng.standard_normal((24, 2)), grid), path)
        text = path.read_bytes().decode()
        for cut in range(text.rindex("\r\ncov,") + 2, text.rindex("\r\nend,")):  # every cut of the last cov record
            path.write_bytes(text[:cut].encode())
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: (malformed file|truncated file)"):
                read_moments_csv(path)

    def test_every_changed_record_character_is_refused(self, tmp_path):
        # each base64 character of each record replaced by each other one: the CRC or the encoding check refuses it
        path = tmp_path / "moments.csv"
        alphabet = string.ascii_letters + string.digits + "+/="
        lines = TINY_FILE.decode().split("\r\n")
        for k, line in enumerate(lines):
            if not line.startswith(("mean,", "cov,")):
                continue
            start = line.rindex(",", 0, -1) + 1
            for position in range(start, len(line) - 1):
                for char in alphabet.replace(line[position], ""):
                    lines[k] = line[:position] + char + line[position + 1 :]
                    path.write_bytes("\r\n".join(lines).encode())
                    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
                        read_moments_csv(path)
            lines[k] = line

    def test_every_changed_meta_character_is_refused(self, tmp_path):
        # each character of the header and the meta rows, line ends included, replaced by each of a set
        path = tmp_path / "moments.csv"
        alphabet = string.digits + "AZaemrstz,;-_. \r\n"
        for position in range(TINY_FILE.index(b"\r\nmean,") + 2):
            for char in alphabet.encode():
                if TINY_FILE[position] == char:
                    continue
                path.write_bytes(TINY_FILE[:position] + bytes([char]) + TINY_FILE[position + 1 :])
                with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
                    read_moments_csv(path)

    def test_benchmark_damage_of_the_first_cov_record_is_refused(self, tmp_path):
        # the text edit that the benchmark's self-test applies to a written file: its text-mode round trip also
        # turns every CRLF into LF, so the header, no longer the bytes written, is refused first
        grid = FrequencyGrid.from_periods((12, 6, 3))
        moments = estimate_moments(np.random.default_rng(23).standard_normal((120, 5)), grid)
        path = tmp_path / "spectral_moments.csv"
        write_moments_csv(moments, path)
        path.write_text(path.read_text().replace("cov,0,0,", "cov,0,0,1", 1))
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == (
            f"{path}: not a specport-moments-v6 CSV (missing header)"
        )

    def test_long_rows_round_trip(self, tmp_path):
        # 2MN = 12: the mean record alone holds 128 characters of base64, far more than any meta row
        grid = FrequencyGrid.from_periods((12, 6, 3))
        moments = estimate_moments(np.random.default_rng(24).standard_normal((120, 2)), grid)
        path = tmp_path / "moments.csv"
        write_moments_csv(moments, path)
        assert max(len(line) for line in path.read_bytes().splitlines()) > 128
        loaded = read_moments_csv(path)
        assert loaded.managed_mean.tobytes() == moments.managed_mean.tobytes()
        assert loaded.managed_covariance.tobytes() == moments.managed_covariance.tobytes()

    def test_long_mode_value_is_refused_naming_the_file(self, tmp_path):
        # a mode row of 128 KiB, the CRC renewed to match: the reader refuses the mode
        path = tmp_path / "moments.csv"
        path.write_bytes(TINY_FILE.replace(b"paper-literal", b"m" * 131073))
        renew_crc(path)
        with pytest.raises(ValidationError) as caught:
            read_moments_csv(path)
        assert str(caught.value) == f"{path}: unsupported mode {'m' * 131073!r}; expected 'paper-literal'"

    @pytest.mark.parametrize(
        "edit, match",
        [
            (("mean,,,", [np.nan] + 7 * [0.0]), "managed mean has non-finite entries"),
            (("cov,1,1,", [np.inf] + 6 * [0.0]), "managed covariance has non-finite entries"),
            ((r"^meta,mode,[^,]*,", "meta,mode,bogus,"), "unsupported mode 'bogus'"),
            # as a file of the retired estimate --mode consistent holds it: the same pair, refused
            ((r"^meta,mode,[^,]*,", "meta,mode,consistent,"), "unsupported mode 'consistent'; expected 'paper-literal'$"),
            ((r"^meta,sample_count,[^,]*,", "meta,sample_count,-3,"), "sample_count must be >= 1, got -3"),
            # zero assets leave no room for the stored values, so the mean record fails first
            (
                (r"^meta,n_assets,[^,]*,", "meta,n_assets,0,"),
                re.escape("row ['mean', '', ''] does not hold the base64 of 0 float64 values"),
            ),
            # int() alone reads it as 5
            (
                (r"^meta,n_assets,[^,]*,", "meta,n_assets,0_5,"),
                re.escape("malformed file (ValueError: not an integer: '0_5')"),
            ),
            ((r"^meta,format,[^,]*,", "meta,format,specport-moments-v2,"), "unsupported format tag"),
            ((r"^end,crc32,[^,]*,,\r$", r"\g<0>\nmean,,,AAAAAAAA8D8=,\r"), "rows after the end row"),
            # the Nyquist bin, in a grid of the same size
            ((r"^meta,periods,[^,]*,", "meta,periods,12;2,"), re.escape("periods must be >= 3 samples (period 2, ")),
        ],
    )
    def test_rejected_values_name_the_file(self, tmp_path, edit, match):
        rng = np.random.default_rng(21)
        path = tmp_path / "moments.csv"
        write_moments_csv(estimate_moments(rng.standard_normal((24, 2)), FrequencyGrid.from_periods((12, 6))), path)
        pattern, replacement = edit
        if isinstance(replacement, list):  # a record that holds these values, the CRC renewed to match
            replace_record(path, pattern, replacement)
        else:  # a row edited, the CRC renewed to match
            text, count = re.subn(pattern, replacement, path.read_bytes().decode(), flags=re.M)
            assert count == 1
            path.write_bytes(text.encode())
            renew_crc(path)
        with pytest.raises(ValidationError, match=f"moments.csv: .*{match}"):
            read_moments_csv(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            read_moments_csv(path)
