"""Generative model: sampling moments, determinism, ensemble statistics, estimator loop."""

import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest

from specport import (
    AugmentedVector,
    FactorizationError,
    FrequencyGrid,
    RiskSpec,
    SpectralMoments,
    SynthSpec,
    ValidationError,
    build_basis,
    compute_psd,
    estimate_moments,
    estimate_spectral_mean,
    example1_scenario,
    retrieve_allocation,
    seasonal_market_spec,
    sharpe_ratio,
    solve_spectral_mvo,
    synthesize_panel,
    synthesize_time_value,
    synthesize_values,
)
from specport.basis import _phases, _to_augmented
from specport.synthesis import _composite_noise

from conftest import population_sharpe


def covariance_from(factor: np.ndarray) -> np.ndarray:
    """factor @ factor.T, made exactly symmetric as the constructors require."""
    product = factor @ factor.T
    return (product + product.T) / 2


def complex_noise(spec, n_samples):
    """The complex noise s(t) = a(t) + j b(t) of the composite draws [a(t); b(t)] that ``synthesize_values`` uses."""
    composite = _composite_noise(spec, n_samples)
    half = spec.managed_mean.size // 2
    return composite[:, :half] + 1j * composite[:, half:]


def one_bin_spec(r, p, seed=0, horizon=1):
    """One bin, one asset, zero mean, and noise of real augmented covariance r and pseudo-covariance p.

    In managed coordinates the cosine weight has variance r + p and the sine weight r - p.
    """
    return SynthSpec(
        grid=FrequencyGrid.from_periods((12,)),
        n_assets=1,
        managed_mean=np.zeros(2),
        managed_covariance=np.diag([r + p, r - p]),
        horizon=horizon,
        seed=seed,
    )


class TestSampling:
    def test_zero_covariance_gives_zero_noise(self):
        spec = one_bin_spec(0.0, 0.0)
        assert np.array_equal(_composite_noise(spec, 1), np.zeros((1, 2)))

    def test_proper_monte_carlo_moments(self):
        spec = one_bin_spec(1.0, 0.0, seed=1)
        series = complex_noise(spec, 10**5)[:, 0]
        assert 0.97 <= np.mean(np.abs(series) ** 2) <= 1.03
        assert abs(np.mean(series**2)) <= 0.03

    def test_maximally_improper_monte_carlo_moments(self):
        spec = one_bin_spec(1.0, 1.0, seed=2)
        series = complex_noise(spec, 10**5)[:, 0]
        pseudo = np.mean(series**2)
        assert 0.97 <= pseudo.real <= 1.03
        assert abs(pseudo.imag) <= 0.03

    def test_general_composite_covariance_recovered(self):
        rng = np.random.default_rng(3)
        factor = rng.standard_normal((4, 4)) * 0.5
        grid = FrequencyGrid.from_periods((12, 6))
        spec = SynthSpec(
            grid=grid,
            n_assets=1,
            managed_mean=np.zeros(4),
            managed_covariance=covariance_from(factor),
            horizon=1,
            seed=4,
        )
        cov = _to_augmented(spec.managed_covariance)
        series = complex_noise(spec, 10**5)
        emp_r = series.T.conj() @ series / len(series)
        emp_p = series.T @ series / len(series)
        half = 2
        assert np.max(np.abs(emp_r.conj() - cov[:half, :half])) <= 0.05 * max(1, np.max(np.abs(cov)))
        assert np.max(np.abs(emp_p.conj() - np.conj(cov[:half, half:]))) <= 0.05 * max(
            1, np.max(np.abs(cov))
        )

    def test_per_t_draw_matches_series(self):
        # the stream is sequential: a shorter series is a prefix of a longer one
        spec = one_bin_spec(1.0, 0.3, seed=5)
        series = _composite_noise(spec, 8)
        for t in range(8):
            assert np.array_equal(_composite_noise(spec, t + 1)[t], series[t])

    def test_non_psd_raises_naming_eigenvalue(self):
        spec = one_bin_spec(-1e-3, 0.0, horizon=4)
        with pytest.raises(FactorizationError, match="eigenvalue"):
            _composite_noise(spec, 4)

    def test_near_psd_clipped_with_a_logged_warning(self, caplog):
        # pseudo-covariance epsilon above covariance: composite eigenvalue -eps/2
        spec = one_bin_spec(1.0, 1.0 + 1e-11, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a log record, not a Python warning
            with caplog.at_level(logging.WARNING, logger="specport.synthesis"):
                _composite_noise(spec, 4)
        (record,) = caplog.records
        assert record.name == "specport.synthesis" and record.levelno == logging.WARNING
        assert record.getMessage().startswith("clipping near-zero negative eigenvalue -")
        assert -1e-10 <= record.clip_eigenvalue < 0.0


class TestPanels:
    def test_zero_spec_gives_zero_panel(self):
        spec = one_bin_spec(0.0, 0.0, horizon=24)
        assert np.array_equal(synthesize_values(spec), np.zeros((24, 1)))

    def test_pure_mean_matches_basis_synthesis_pointwise(self):
        rng = np.random.default_rng(7)
        grid = FrequencyGrid.from_periods((12, 8))
        spec = SynthSpec(
            grid=grid,
            n_assets=2,
            managed_mean=rng.standard_normal(8),
            managed_covariance=np.zeros((8, 8)),
            horizon=48,
            seed=8,
        )
        mean = _to_augmented(spec.managed_mean)
        panel = synthesize_values(spec)
        for t in range(48):
            expected = synthesize_time_value(build_basis(t, grid, 2), mean)
            assert np.max(np.abs(panel[t] - expected)) <= 1e-12

    def test_noisy_panel_matches_basis_synthesis_pointwise(self):
        rng = np.random.default_rng(17)
        grid = FrequencyGrid.from_periods((12, 8))
        half = grid.n_bins * 2
        factor = rng.standard_normal((2 * half, 2 * half)) * 0.4
        spec = SynthSpec(
            grid=grid,
            n_assets=2,
            managed_mean=rng.standard_normal(2 * half),
            managed_covariance=covariance_from(factor),
            horizon=48,
            seed=18,
        )
        mean = _to_augmented(spec.managed_mean)
        assert np.max(np.abs(_to_augmented(spec.managed_covariance)[:half, half:])) > 0.1  # improper noise
        panel = synthesize_values(spec)
        scale = np.max(np.abs(panel))
        for t in range(48):
            noise = AugmentedVector.from_upper(complex_noise(spec, t + 1)[t])
            coefficients = AugmentedVector(upper=mean.upper + noise.upper, lower=mean.lower + noise.lower)
            expected = synthesize_time_value(build_basis(t, grid, 2), coefficients)
            assert np.max(np.abs(panel[t] - expected)) <= 1e-12 * scale

    def test_determinism_bit_identical(self):
        spec = example1_scenario(seed=11, horizon=600)
        assert np.array_equal(synthesize_values(spec), synthesize_values(spec))

    def test_panel_values_are_real_and_finite(self):
        spec = one_bin_spec(1.0, 0.9, seed=9, horizon=240)
        panel = synthesize_values(spec)
        assert panel.dtype == np.float64 and np.all(np.isfinite(panel))

    def test_returns_panel_wrapper(self):
        spec = one_bin_spec(0.0001, 0.0, seed=10, horizon=24)
        panel = synthesize_panel(spec, asset_names=("X",))
        assert panel.asset_names == ("X",)
        assert panel.timestamps == tuple(range(24))
        assert panel.periods_per_year == 12

    def test_ensemble_variance_oscillates(self):
        # maximally improper single bin: Var x(t) = (R + Re(P e^{2jwt})) / M
        omega = 2 * np.pi / 12
        n_realizations = 10**4
        check_t = [0, 1, 2, 4, 5, 7]
        samples = np.empty((n_realizations, len(check_t)))
        for i in range(n_realizations):
            spec = one_bin_spec(1.0, 1.0, seed=1000 + i, horizon=8)
            panel = synthesize_values(spec)
            samples[i] = panel[check_t, 0]
        theory = np.array([1.0 + math.cos(2 * omega * t) for t in check_t])
        empirical = samples.var(axis=0)
        # relative to the peak of the cycle, since the variance touches zero
        assert np.max(np.abs(empirical - theory)) <= 0.10 * theory.max()

    @pytest.mark.parametrize("kind", [SpectralMoments, SynthSpec], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"managed_mean": np.zeros(3)}, "managed mean shape (3,) does not match (2,)"),
            ({"managed_mean": np.array([math.inf, 0.0])}, "managed mean has non-finite entries"),
            # asymmetric too: a non-finite K is reported first
            (
                {"managed_covariance": np.array([[2.0, math.nan], [0.5, 1.0]])},
                "managed covariance has non-finite entries",
            ),
            (
                {"managed_covariance": np.array([[2.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])},
                "managed covariance is not exactly symmetric",
            ),
            ({"managed_covariance": np.eye(2, dtype=complex)}, "managed covariance must be real"),
            ({"managed_covariance": np.eye(4)}, "managed covariance shape (4, 4) does not match (2, 2)"),
            ({"n_assets": 0}, "n_assets must be >= 1, got 0"),
            ({"n_assets": 1.0}, "n_assets must be an integer, got 1.0"),
            ({"n_assets": True}, "n_assets must be an integer, got True"),
        ],
        ids=[
            "mean-length",
            "mean-non-finite",
            "cov-non-finite",
            "cov-one-ulp-asymmetric",
            "cov-complex",
            "cov-shape",
            "n-assets-zero",
            "n-assets-float",
            "n-assets-bool",
        ],
    )
    def test_spec_and_moments_refuse_a_bad_managed_pair_alike(self, kind, fields, message):
        own = {"sample_count": 12} if kind is SpectralMoments else {"horizon": 12, "seed": 0}
        valid = dict(
            grid=FrequencyGrid.from_periods((12,)),
            n_assets=1,
            managed_mean=np.zeros(2),
            managed_covariance=np.array([[2.0, 0.5], [0.5, 1.0]]),
            **own,
        )
        kind(**valid)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            kind(**{**valid, **fields})

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"horizon": 0}, "^horizon must be >= 1, got 0$"),
            ({"horizon": 24.0}, "^horizon must be an integer, got 24.0$"),
            ({"horizon": True}, "^horizon must be an integer, got True$"),
        ],
    )
    def test_spec_rejects_bad_field(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(one_bin_spec(1.0, 0.0, horizon=4), **fields)

    def test_spec_stores_counts_as_int(self):
        spec = dataclasses.replace(one_bin_spec(1.0, 0.0), n_assets=np.int64(1), horizon=np.int32(24))
        assert (type(spec.n_assets), type(spec.horizon)) == (int, int)
        assert synthesize_values(spec).shape == (24, 1)

    @pytest.mark.parametrize("value", [-0.02, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["mean_amp", "noise_vol"])
    def test_seasonal_spec_refuses_a_negative_or_non_finite_scale(self, name, value):
        # refused before any arithmetic, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{name} must be finite and >= 0, got {value!r}$"):
                seasonal_market_spec(**{name: value})


class TestEstimatorConsistencyLoop:
    def test_recovery_against_expectation_oracle(self):
        """Estimates on synthesized panels match the exact expected estimator value.

        Oracle: with A(t) = B(t)^H B(t) and Abar = I/(2M), the estimators have
        E[mean] = Abar m and E[cov] = avg_t[(A - Abar) m ((A - Abar) m)^H
        + A R A], computed by direct evaluation over one least common period.
        """
        rng = np.random.default_rng(13)
        grid = FrequencyGrid.from_periods((12, 8))
        n_assets = 2
        half = grid.n_bins * n_assets
        factor = rng.standard_normal((2 * half, 2 * half)) * 0.4
        lcm = grid.least_common_period()
        spec = SynthSpec(
            grid=grid,
            n_assets=n_assets,
            managed_mean=rng.standard_normal(2 * half),
            managed_covariance=covariance_from(factor),
            horizon=200 * lcm,
            seed=14,
        )
        mean_true, cov_true = _to_augmented(spec.managed_mean), _to_augmented(spec.managed_covariance)
        panel = synthesize_values(spec)
        literal = estimate_moments(panel, grid)
        consistent_mean = estimate_spectral_mean(panel, grid, mode="consistent")

        scale = 2 * grid.n_bins
        mean_full = mean_true.full()
        gram_avg = np.zeros((2 * half, 2 * half), dtype=complex)
        cov_expected = np.zeros_like(gram_avg)
        for t in range(lcm):
            values = build_basis(t, grid, n_assets).values
            gram = values.conj().T @ values
            deviation = (gram - np.eye(2 * half) / scale) @ mean_full
            cov_expected += np.outer(deviation, np.conj(deviation)) + gram @ cov_true @ gram
        cov_expected /= lcm
        gram_avg = np.eye(2 * half) / scale

        # mean: paper-literal attenuated by 1/(2M); consistent recovers the coefficients
        expected_mean = gram_avg @ mean_full
        assert (
            np.linalg.norm(literal.mean.full() - expected_mean) / np.linalg.norm(expected_mean)
            <= 0.10
        )
        assert (
            np.linalg.norm(consistent_mean.full() - mean_full) / np.linalg.norm(mean_full) <= 0.10
        )
        # covariance: matches the propagated expectation
        rel = np.linalg.norm(literal.covariance - cov_expected) / np.linalg.norm(cov_expected)
        assert rel <= 0.10


class TestPopulationSharpe:
    @pytest.mark.parametrize("market", ["seasonal", "example1"])
    def test_matches_the_realized_sharpe_ratio_of_a_long_panel(self, market):
        if market == "seasonal":  # the spectral MVO path fitted on 60 months of the market
            spec = seasonal_market_spec(n_assets=5, periods=(12, 6), seed=3, horizon=60)
            weights = solve_spectral_mvo(estimate_moments(synthesize_values(spec), spec.grid), RiskSpec(sigma0=0.01))
            path = retrieve_allocation(weights, range(spec.grid.least_common_period()))
        else:  # the harmonics' own direction, in noise whose variance cycles through the improper bins
            spec = example1_scenario()
            theta = spec.managed_mean.reshape(2 * spec.grid.n_bins, spec.n_assets)
            path = _phases(np.arange(spec.grid.least_common_period()), spec.grid) @ theta
        period = spec.grid.least_common_period()
        horizon = 144_000
        panel = synthesize_values(dataclasses.replace(spec, horizon=horizon, seed=99))  # independent of the fit
        realized = sharpe_ratio(np.einsum("tn,tn->t", np.tile(path, (horizon // period, 1)), panel), 12)
        expected = population_sharpe(spec, path)
        per_period = expected / math.sqrt(12)
        standard_error = math.sqrt(12 * (1 + per_period**2 / 2) / horizon)  # Lo (2002), annualized
        assert abs(realized - expected) <= 3 * standard_error


class TestExampleOneScenario:
    def test_spec_is_valid(self):
        spec = example1_scenario()
        assert spec.horizon == 12000
        assert spec.grid.periods == (24, 12, 8, 5, 4)
        # noise power is 100x harmonic power in coefficient terms
        harmonic = float(np.sum(spec.managed_mean**2)) / 2  # |m|^2 over the upper half
        noise = float(np.trace(spec.managed_covariance)) / 2  # U is unitary: the trace carries over
        assert noise / harmonic == pytest.approx(100.0, rel=1e-12)

    def test_mean_peaks_localize_at_harmonic_bins(self):
        spec = example1_scenario(seed=11)
        panel = synthesize_values(spec)
        moments = estimate_moments(panel, spec.grid)
        norms = np.array([np.linalg.norm(moments.bin_mean(m)) for m in range(5)])
        assert set(np.argsort(norms)[-2:]) == {0, 2}

    def test_psd_cannot_separate_harmonics(self):
        spec = example1_scenario(seed=11)
        panel = synthesize_values(spec)
        moments = estimate_moments(panel, spec.grid)
        traces = compute_psd(moments).trace_per_bin()
        median = float(np.median(traces))
        assert traces[0] / median < 2 and traces[2] / median < 2
