"""Generative model: sampling moments, determinism, ensemble statistics, estimator loop."""

import dataclasses
import math

import numpy as np
import pytest

from specport import (
    AugmentedVector,
    FactorizationError,
    FrequencyGrid,
    RiskSpec,
    SymmetryViolationError,
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
from specport.basis import _phases, _to_managed
from specport.synthesis import _composite_noise

from conftest import population_sharpe


def composite_to_augmented(gamma: np.ndarray) -> np.ndarray:
    """Map a real composite covariance ([Re s; Im s]) to the augmented complex form.

    Used to construct exactly-valid augmented covariances for tests.
    """
    half = gamma.shape[0] // 2
    g_aa = gamma[:half, :half]
    g_ab = gamma[:half, half:]
    g_bb = gamma[half:, half:]
    r_grid = g_aa + g_bb + 1j * (g_ab.T - g_ab)
    p_grid = g_aa - g_bb + 1j * (g_ab + g_ab.T)
    return np.block([[r_grid, p_grid], [np.conj(p_grid), np.conj(r_grid)]])


def complex_noise(spec, n_samples):
    """The complex noise s(t) = a(t) + j b(t) of the composite draws [a(t); b(t)] that ``synthesize_values`` uses."""
    composite = _composite_noise(spec, n_samples)
    return composite[:, : spec.half_size] + 1j * composite[:, spec.half_size :]


def one_bin_spec(r, p, seed=0, horizon=1):
    grid = FrequencyGrid.from_periods((12,))
    cov = np.array([[r, p], [np.conj(p), r]], dtype=complex)
    return SynthSpec(
        grid=grid,
        n_assets=1,
        spectral_mean=AugmentedVector.zeros(1),
        spectral_cov=cov,
        horizon=horizon,
        seed=seed,
    )


def two_asset_spec():
    return SynthSpec(
        grid=FrequencyGrid.from_periods((12,)),
        n_assets=2,
        spectral_mean=AugmentedVector.zeros(2),
        spectral_cov=np.eye(4, dtype=complex),
        horizon=1,
        seed=0,
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
        gamma = factor @ factor.T
        cov = composite_to_augmented(gamma)
        grid = FrequencyGrid.from_periods((12, 6))
        spec = SynthSpec(
            grid=grid,
            n_assets=1,
            spectral_mean=AugmentedVector.zeros(2),
            spectral_cov=cov,
            horizon=1,
            seed=4,
        )
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
        spec_cov = np.diag([-1e-3, -1e-3]).astype(complex)
        grid = FrequencyGrid.from_periods((12,))
        spec = SynthSpec(
            grid=grid,
            n_assets=1,
            spectral_mean=AugmentedVector.zeros(1),
            spectral_cov=spec_cov,
            horizon=4,
            seed=0,
        )
        with pytest.raises(FactorizationError, match="eigenvalue"):
            _composite_noise(spec, 4)

    def test_near_psd_clipped_with_warning(self):
        # pseudo-covariance epsilon above covariance: composite eigenvalue -eps/2
        spec = one_bin_spec(1.0, 1.0 + 1e-11, seed=6)
        with pytest.warns(UserWarning, match="clipping"):
            _composite_noise(spec, 4)


class TestPanels:
    def test_zero_spec_gives_zero_panel(self):
        spec = one_bin_spec(0.0, 0.0, horizon=24)
        assert np.array_equal(synthesize_values(spec), np.zeros((24, 1)))

    def test_pure_mean_matches_basis_synthesis_pointwise(self):
        rng = np.random.default_rng(7)
        grid = FrequencyGrid.from_periods((12, 8))
        upper = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mean = AugmentedVector.from_upper(upper)
        spec = SynthSpec(
            grid=grid,
            n_assets=2,
            spectral_mean=mean,
            spectral_cov=np.zeros((8, 8)),
            horizon=48,
            seed=8,
        )
        panel = synthesize_values(spec)
        for t in range(48):
            expected = synthesize_time_value(build_basis(t, grid, 2), mean)
            assert np.max(np.abs(panel[t] - expected)) <= 1e-12

    def test_noisy_panel_matches_basis_synthesis_pointwise(self):
        rng = np.random.default_rng(17)
        grid = FrequencyGrid.from_periods((12, 8))
        half = grid.n_bins * 2
        factor = rng.standard_normal((2 * half, 2 * half)) * 0.4
        mean = AugmentedVector.from_upper(rng.standard_normal(half) + 1j * rng.standard_normal(half))
        spec = SynthSpec(
            grid=grid,
            n_assets=2,
            spectral_mean=mean,
            spectral_cov=composite_to_augmented(factor @ factor.T),
            horizon=48,
            seed=18,
        )
        assert np.max(np.abs(spec.spectral_cov[:half, half:])) > 0.1  # improper noise
        panel = synthesize_values(spec)
        scale = np.max(np.abs(panel))
        for t in range(48):
            noise = AugmentedVector.from_upper(complex_noise(spec, t + 1)[t])
            coefficients = AugmentedVector(upper=mean.upper + noise.upper, lower=mean.lower + noise.lower)
            expected = synthesize_time_value(build_basis(t, grid, 2), coefficients)
            assert np.max(np.abs(panel[t] - expected)) <= 1e-12 * scale

    def test_rejects_non_conjugate_symmetric_mean(self):
        with pytest.raises(SymmetryViolationError):
            SynthSpec(
                grid=FrequencyGrid.from_periods((12,)),
                n_assets=1,
                spectral_mean=AugmentedVector(upper=[1 + 1j], lower=[1 + 1j]),
                spectral_cov=np.zeros((2, 2)),
                horizon=4,
                seed=0,
            )

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

    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 1), (2, 3)],  # R not Hermitian; the lower-right block stays conj(R)
            [(0, 3), (2, 1)],  # P not symmetric; the lower-left block stays conj(P)
            [(2, 2)],  # lower-right block != conj(R)
            [(2, 0)],  # lower-left block != conj(P)
        ],
        ids=["r-hermitian", "p-symmetric", "lower-right", "lower-left"],
    )
    def test_spec_rejects_each_broken_block_relation(self, entries):
        # one bin, two assets: R = cov[:2, :2], P = cov[:2, 2:]; at scale 1 the tolerance is 1e-8
        cov = np.eye(4, dtype=complex)
        for entry in entries:
            cov[entry] += 1e-6
        with pytest.raises(ValidationError, match="violates the augmented block structure"):
            dataclasses.replace(two_asset_spec(), spectral_cov=cov)

    def test_spec_accepts_block_relations_within_tolerance(self):
        cov = np.eye(4, dtype=complex)
        cov[0, 1] += 1e-10
        assert dataclasses.replace(two_asset_spec(), spectral_cov=cov).spectral_cov[0, 1] == 1e-10

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"n_assets": 0}, "^n_assets must be >= 1, got 0$"),
            ({"n_assets": 1.0}, "^n_assets must be an integer, got 1.0$"),
            ({"n_assets": True}, "^n_assets must be an integer, got True$"),
            ({"horizon": 0}, "^horizon must be >= 1, got 0$"),
            ({"horizon": 24.0}, "^horizon must be an integer, got 24.0$"),
            ({"horizon": True}, "^horizon must be an integer, got True$"),
            ({"spectral_cov": np.eye(4)}, "spectral_cov must be 2 x 2"),
            # checked before the structure, whose gaps are NaN and pass a > test
            ({"spectral_cov": np.diag([math.nan, 1.0])}, "^spectral_cov has non-finite entries$"),
            # checked before the conjugate symmetry, whose inf - inf gap is NaN
            ({"spectral_mean": AugmentedVector.from_upper([math.inf])}, "^spectral_mean has non-finite entries$"),
        ],
    )
    def test_spec_rejects_bad_field(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(one_bin_spec(1.0, 0.0, horizon=4), **fields)

    def test_spec_stores_counts_as_int(self):
        spec = dataclasses.replace(one_bin_spec(1.0, 0.0), n_assets=np.int64(1), horizon=np.int32(24))
        assert (type(spec.n_assets), type(spec.horizon)) == (int, int)
        assert synthesize_values(spec).shape == (24, 1)


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
        cov_true = composite_to_augmented(factor @ factor.T)
        mean_upper = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        mean_true = AugmentedVector.from_upper(mean_upper)
        lcm = grid.least_common_period()
        spec = SynthSpec(
            grid=grid,
            n_assets=n_assets,
            spectral_mean=mean_true,
            spectral_cov=cov_true,
            horizon=200 * lcm,
            seed=14,
        )
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
            theta = _to_managed(spec.spectral_mean).reshape(2 * spec.grid.n_bins, spec.n_assets)
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
        harmonic = float(np.sum(np.abs(spec.spectral_mean.upper) ** 2))
        noise = float(np.trace(spec.spectral_cov).real) / 2
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
