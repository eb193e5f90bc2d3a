"""Closed-form solvers: exactness, equivariance, optimality, baselines, retrieval."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from specport import (
    DegenerateMeanError,
    FrequencyGrid,
    RiskSpec,
    SingularCovarianceError,
    SpectralMoments,
    StaticWeights,
    ValidationError,
    build_basis,
    equal_weight,
    estimate_moments,
    retrieve_allocation,
    seasonal_market_spec,
    solve_classical_mvo,
    solve_spectral_mvo,
    synthesize_time_value,
    synthesize_values,
)
from specport.basis import _to_augmented
from specport.optimize import _BLOCK, _targeted_solve

from conftest import pga_max_objective, random_feasible_objectives, random_structured_moments


@pytest.fixture(scope="module")
def rho_096_moments():
    """2MN = 300 managed assets on T = 312 samples: K is not singular, but at
    rho = 2MN / T = 0.96 the default ridge would leave the solve wildly levered."""
    spec = seasonal_market_spec(n_assets=50, periods=(12, 6, 3), horizon=312)
    moments = estimate_moments(synthesize_values(spec), spec.grid)
    assert (moments.sample_count, 2 * moments.half_size) == (312, 300)
    return moments


def constraint_value(weights, covariance):
    full = weights.weights.full()
    regularized = covariance + weights.ridge_used * np.eye(covariance.shape[0])
    return float(np.real(np.vdot(full, regularized @ full)))


def identity_moments(grid, n_assets, managed_mean):
    dim = 2 * grid.n_bins * n_assets
    return SpectralMoments(
        grid=grid,
        n_assets=n_assets,
        managed_mean=managed_mean,
        managed_covariance=np.eye(dim),
        sample_count=100,
    )


class TestSpectralSolver:
    def test_identity_covariance_closed_form(self):
        # with C = I the solution is sigma0 * m / ||m||
        grid = FrequencyGrid.from_periods((12, 6))
        rng = np.random.default_rng(0)
        moments = identity_moments(grid, 2, rng.standard_normal(8))
        risk = RiskSpec(sigma0=0.05, ridge=0.0)
        solved = solve_spectral_mvo(moments, risk)
        full_mean = moments.mean.full()
        expected = risk.sigma0 * full_mean / np.linalg.norm(full_mean)
        assert np.max(np.abs(solved.weights.full() - expected)) <= 1e-12
        assert abs(np.vdot(solved.weights.full(), solved.weights.full()).real - risk.sigma0**2) <= 1e-10

    def test_constraint_identity_random_instances(self):
        for seed in range(15):
            moments = random_structured_moments(seed)
            risk = RiskSpec(sigma0=0.01)
            solved = solve_spectral_mvo(moments, risk)
            assert abs(constraint_value(solved, moments.covariance) - risk.sigma0**2) <= 1e-10
            assert solved.weights.is_conjugate_symmetric(1e-12)

    def test_lambda_consistency(self):
        moments = random_structured_moments(101)
        risk = RiskSpec(sigma0=0.02)
        solved = solve_spectral_mvo(moments, risk)
        dim = 2 * moments.half_size
        regularized = moments.covariance + solved.ridge_used * np.eye(dim)
        mean_full = moments.mean.full()
        quad = float(np.real(np.vdot(mean_full, np.linalg.solve(regularized, mean_full))))
        assert abs(solved.lagrange_multiplier - math.sqrt(quad) / (2 * risk.sigma0)) <= 1e-10
        # w = (1/ 2 lambda) C^{-1} m
        recon = np.linalg.solve(regularized, mean_full) / (2 * solved.lagrange_multiplier)
        assert np.max(np.abs(recon - solved.weights.full())) <= 1e-10

    def test_scale_equivariance(self):
        moments = random_structured_moments(7)
        risk = RiskSpec(sigma0=0.01, ridge=0.0)
        base = solve_spectral_mvo(moments, risk)
        # scaling the mean leaves the solution unchanged
        scaled_mean = SpectralMoments(
            grid=moments.grid,
            n_assets=moments.n_assets,
            managed_mean=3.7 * moments.managed_mean,
            managed_covariance=moments.managed_covariance,
            sample_count=moments.sample_count,
        )
        same = solve_spectral_mvo(scaled_mean, risk)
        assert np.max(np.abs(same.weights.full() - base.weights.full())) <= 1e-10
        # scaling the covariance by c scales the solution by 1/sqrt(c)
        factor = 2.5
        scaled_cov = SpectralMoments(
            grid=moments.grid,
            n_assets=moments.n_assets,
            managed_mean=moments.managed_mean,
            managed_covariance=factor * moments.managed_covariance,
            sample_count=moments.sample_count,
        )
        shrunk = solve_spectral_mvo(scaled_cov, risk)
        assert np.max(np.abs(shrunk.weights.full() - base.weights.full() / math.sqrt(factor))) <= 1e-10

    def test_objective_matches_numerical_maximizer(self):
        rng = np.random.default_rng(42)
        moments = random_structured_moments(21, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        risk = RiskSpec(sigma0=0.01)
        solved = solve_spectral_mvo(moments, risk)
        mean_full = moments.mean.full()
        achieved = float(np.real(np.vdot(mean_full, solved.weights.full())))
        dim = 2 * moments.half_size
        regularized = moments.covariance + solved.ridge_used * np.eye(dim)
        oracle = pga_max_objective(mean_full, regularized, risk.sigma0, rng)
        assert abs(achieved - oracle) <= 1e-6 * abs(oracle)

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(43)
        moments = random_structured_moments(22, grid=FrequencyGrid.from_periods((12,)), n_assets=2)
        risk = RiskSpec(sigma0=0.01)
        solved = solve_spectral_mvo(moments, risk)
        mean_full = moments.mean.full()
        achieved = float(np.real(np.vdot(mean_full, solved.weights.full())))
        dim = 2 * moments.half_size
        regularized = moments.covariance + solved.ridge_used * np.eye(dim)
        others = random_feasible_objectives(mean_full, regularized, risk.sigma0, rng, count=1000)
        assert np.all(achieved >= others)

    def test_degenerate_mean_raises(self):
        moments = random_structured_moments(3, mean_scale=0.0)
        with pytest.raises(DegenerateMeanError):
            solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))

    @pytest.mark.parametrize("ridge", [0.0, None])
    def test_managed_constraint_holds(self, ridge):
        # theta^T (K + ridge I) theta = sigma0^2, read from the real pair alone
        moments = random_structured_moments(55)
        risk = RiskSpec(sigma0=0.015, ridge=ridge)
        solved = solve_spectral_mvo(moments, risk)
        theta = solved.managed_weights
        variance = float(theta @ moments.managed_covariance @ theta)
        assert variance + solved.ridge_used * float(theta @ theta) == pytest.approx(risk.sigma0**2, rel=1e-10)
        assert "weights" not in vars(solved) and "covariance" not in vars(moments)
        full = solved.weights.full()
        assert variance == pytest.approx(np.vdot(full, moments.covariance @ full).real, rel=1e-12)

    def test_singular_covariance_without_ridge_advises(self):
        grid = FrequencyGrid.from_periods((12,))
        moments = SpectralMoments(
            grid=grid,
            n_assets=1,
            managed_mean=np.array([1.0, 0.5]),
            managed_covariance=np.diag([2.0, 0.0]),  # rank one
            sample_count=10,
        )
        with pytest.raises(SingularCovarianceError, match="ridge"):
            solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=0.0))
        # the default ridge makes the same instance solvable
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        assert solved.ridge_used > 0


    def test_fewer_samples_than_managed_assets_raises(self):
        # N=50, M=4, T=120: 2MN=400 > T, so the sample covariance is singular; with
        # only the tiny default ridge the solve would return a gross leverage of ~1e4
        rng = np.random.default_rng(120)
        grid = FrequencyGrid.from_periods((12, 6, 4, 3))
        moments = estimate_moments(0.02 * rng.standard_normal((120, 50)), grid)
        for ridge in (None, 0.0):
            with pytest.raises(SingularCovarianceError, match=r"T = 120 .* 2MN = 400"):
                solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=ridge))
        # an explicit positive ridge is a documented regularization and is honoured
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=1e-4))
        assert solved.ridge_used == 1e-4
        assert constraint_value(solved, moments.covariance) == pytest.approx(1e-4, rel=1e-10)

    def test_nearly_as_many_samples_as_managed_assets_raises(self, rho_096_moments):
        moments = rho_096_moments
        message = r"T = 312 .* 2MN = 300 .* rho = 2MN / T = 0\.962"
        for ridge in (None, 0.0):
            with pytest.raises(SingularCovarianceError, match=message) as caught:
                solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=ridge))
            assert "RiskSpec.ridge (--ridge)" in str(caught.value)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=1e-6))
        assert solved.ridge_used == 1e-6
        assert constraint_value(solved, moments.covariance) == pytest.approx(1e-4, rel=1e-10)

    def test_ridge_far_below_the_covariance_scale_warns(self, rho_096_moments, caplog):
        moments = rho_096_moments
        scale = float(np.trace(moments.managed_covariance)) / 300
        with caplog.at_level(logging.WARNING, logger="specport.optimize"):
            solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=1e-6))
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert (record.solve_rho, record.solve_ridge, record.solve_ridge_scale) == (300 / 312, 1e-6, scale)
        assert record.getMessage() == (
            f"spectral solve: ridge 1e-06 is c = {1e-6 / scale:.3g} times tr K / 2MN = {scale:.3g} "
            "at rho = 2MN / T = 0.962, above 0.9: a ridge below c = 0.1 barely regularizes "
            "and the solution stays levered"
        )
        # from c = 0.1 up the ridge regularizes and the solve is silent
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="specport.optimize"):
            solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=0.1 * scale))
        assert caplog.records == []

    @pytest.mark.parametrize("sample_count, solves", [(20, True), (19, False)])
    def test_rho_limit_is_inclusive(self, sample_count, solves):
        # 2MN = 18: rho = 0.9 at T = 20 solves with the default ridge, rho = 0.947 at T = 19 does not
        moments = SpectralMoments(
            grid=FrequencyGrid.from_periods((12, 6, 4)),
            n_assets=3,
            managed_mean=np.ones(18),
            managed_covariance=np.eye(18),
            sample_count=sample_count,
        )
        if solves:
            assert solve_spectral_mvo(moments, RiskSpec(sigma0=0.01)).ridge_used > 0
        else:
            # the message also gives the scale of a ridge that regularizes, tr K / 2MN = 18 / 18
            with pytest.raises(SingularCovarianceError, match=r"rho = 2MN / T = 0\.947, above 0\.9: .* tr K / 2MN = 1,"):
                solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))

    @pytest.mark.parametrize("ridge, ridge_used", [(0.5, 0.5), (None, 3e-8)])
    def test_solve_logs_samples_dimension_rho_and_ridge(self, caplog, ridge, ridge_used):
        moments = SpectralMoments(
            grid=FrequencyGrid.from_periods((12, 6, 4)),
            n_assets=3,
            managed_mean=np.ones(18),
            managed_covariance=3.0 * np.eye(18),
            sample_count=40,
        )
        with caplog.at_level(logging.INFO, logger="specport.optimize"):
            solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01, ridge=ridge))
        (record,) = [r for r in caplog.records if r.name == "specport.optimize"]
        assert solved.ridge_used == pytest.approx(ridge_used, rel=1e-12)
        assert (record.solve_samples, record.solve_dim, record.solve_rho) == (40, 18, 0.45)
        assert record.solve_ridge == solved.ridge_used
        assert record.getMessage() == f"spectral solve: T = 40, 2MN = 18, rho = 0.450, ridge {ridge_used:.3g}"


class TestRiskSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RiskSpec(sigma0=0.0)
        with pytest.raises(ValidationError):
            RiskSpec(sigma0=0.01, ridge=-1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma0": math.inf},
            {"sigma0": -math.inf},
            {"sigma0": math.nan},
            {"sigma0": 0.01, "ridge": math.nan},
            {"sigma0": 0.01, "ridge": math.inf},
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            RiskSpec(**kwargs)

    def test_default_ridge_is_scale_invariant(self):
        risk = RiskSpec(sigma0=0.01)
        cov = np.eye(4) * 3.0
        assert risk.ridge_for(cov) == pytest.approx(1e-8 * 3.0)
        assert risk.ridge_for(10 * cov) == pytest.approx(1e-7 * 3.0)


def spd_matrix(rng, dim, condition):
    """A random symmetric positive-definite matrix with eigenvalues log-spaced in [1/condition, 1]."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = np.logspace(0.0, -math.log10(condition), dim)
    matrix = (basis * eigenvalues) @ basis.T
    return 0.5 * (matrix + matrix.T)


def lu_reference(matrix, mean, sigma0):
    """Targeted weights and multiplier from a dense LU solve."""
    z = np.linalg.solve(matrix, mean)
    quad = float(mean @ z)
    return sigma0 * z / math.sqrt(quad), math.sqrt(quad) / (2.0 * sigma0)


class TestFactorOnceSolve:
    """The blocked Cholesky factor-and-solve core against a dense solve, across block edges."""

    # 3 * _BLOCK + 1 ends in a one-column block; 3 * _BLOCK in a full one
    @pytest.mark.parametrize("dim", [1, 2, 127, 128, 129, 257, 300, 3 * _BLOCK, 3 * _BLOCK + 1])
    def test_matches_lu_reference(self, dim):
        rng = np.random.default_rng(dim)
        risk = RiskSpec(sigma0=0.01, ridge=0.0)
        for condition in (1e2, 1e6, 1e10):
            matrix = spd_matrix(rng, dim, condition)
            mean = rng.standard_normal(dim)
            weights, multiplier, _ = _targeted_solve(matrix, mean, risk)
            expected_weights, expected_multiplier = lu_reference(matrix, mean, risk.sigma0)
            # two backward-stable solves agree to a multiple of condition * eps
            tol = 16 * np.finfo(float).eps * condition
            error = np.linalg.norm(weights - expected_weights) / np.linalg.norm(expected_weights)
            assert error <= tol, (condition, error)
            assert multiplier == pytest.approx(expected_multiplier, rel=tol)

    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_one_negative_eigenvalue_raises(self, ridge):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        eigenvalues = np.linspace(1.0, 1e-3, 300)
        eigenvalues[150] = -1e-2
        matrix = (basis * eigenvalues) @ basis.T
        with pytest.raises(SingularCovarianceError):
            _targeted_solve(0.5 * (matrix + matrix.T), rng.standard_normal(300), RiskSpec(0.01, ridge=ridge))

    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_later_block_not_positive_definite_raises(self, ridge):
        # the leading 128 x 128 block is I, but [[I, 2I], [2I, I]] has eigenvalue -1:
        # only a Schur complement I - 4I in the trailing 128 rows shows it
        eye = np.eye(128)
        matrix = np.block([[eye, 2 * eye], [2 * eye, eye]])
        with pytest.raises(SingularCovarianceError):
            _targeted_solve(matrix, np.ones(256), RiskSpec(0.01, ridge=ridge))

    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_middle_block_not_positive_definite_raises(self, ridge):
        # five blocks, all I but for [[I, 2I], [2I, I]] on blocks 1 and 2: blocks 0 and 1
        # factor, block 2's Schur complement I - 4I does not, and blocks 3 and 4 are never reached
        eye = np.eye(_BLOCK)
        matrix = np.eye(5 * _BLOCK)
        matrix[_BLOCK : 2 * _BLOCK, 2 * _BLOCK : 3 * _BLOCK] = 2 * eye
        matrix[2 * _BLOCK : 3 * _BLOCK, _BLOCK : 2 * _BLOCK] = 2 * eye
        with pytest.raises(SingularCovarianceError):
            _targeted_solve(matrix, np.ones(5 * _BLOCK), RiskSpec(0.01, ridge=ridge))

    def test_ridge_on_every_diagonal_block_input_unchanged(self):
        rng = np.random.default_rng(385)
        dim, condition, ridge = 385, 1e6, 0.1
        matrix = spd_matrix(rng, dim, condition)
        matrix.flags.writeable = False
        snapshot = matrix.tobytes()
        mean = rng.standard_normal(dim)
        weights, multiplier, ridge_used = _targeted_solve(matrix, mean, RiskSpec(sigma0=0.01, ridge=ridge))
        assert ridge_used == ridge
        expected_weights, expected_multiplier = lu_reference(matrix + ridge * np.eye(dim), mean, 0.01)
        tol = 16 * np.finfo(float).eps * (1.0 + ridge) / (1.0 / condition + ridge)
        error = np.linalg.norm(weights - expected_weights) / np.linalg.norm(expected_weights)
        assert error <= tol, error
        assert multiplier == pytest.approx(expected_multiplier, rel=tol)
        assert matrix.tobytes() == snapshot

    def test_peak_memory_is_one_factor(self):
        # the factor itself is matrix.nbytes; a copy of the regularized matrix would double it
        rng = np.random.default_rng(1024)
        matrix = spd_matrix(rng, 1024, 1e2)
        mean = rng.standard_normal(1024)
        tracemalloc.start()
        try:
            _targeted_solve(matrix, mean, RiskSpec(sigma0=0.01))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * matrix.nbytes, peak / matrix.nbytes

    def test_classical_200_assets_meets_variance_target(self):
        rng = np.random.default_rng(200)
        factors = rng.standard_normal((200, 5)) * 0.03
        cov = factors @ factors.T + np.diag(rng.uniform(1e-4, 4e-4, 200))
        mean = rng.standard_normal(200) * 1e-3
        risk = RiskSpec(sigma0=0.01)
        weights = solve_classical_mvo(mean, cov, risk).weights
        regularized = cov + risk.ridge_for(cov) * np.eye(200)
        assert float(weights @ regularized @ weights) == pytest.approx(risk.sigma0**2, rel=1e-10)


class TestClassicalAndEqualWeight:
    def test_identity_covariance_unit_mean(self):
        solved = solve_classical_mvo([1.0, 0.0], np.eye(2), RiskSpec(sigma0=0.03, ridge=0.0))
        assert np.allclose(solved.weights, [0.03, 0.0], atol=1e-12)
        assert solved.scheme == "classical-mvo"

    def test_diagonal_covariance_hand_oracle(self):
        # R = diag(1,4), m = (1,1): z = (1, 1/4), m.z = 5/4, w = sigma0 z / sqrt(5/4)
        sigma0 = 0.02
        solved = solve_classical_mvo([1.0, 1.0], np.diag([1.0, 4.0]), RiskSpec(sigma0=sigma0, ridge=0.0))
        expected = sigma0 * np.array([1.0, 0.25]) / math.sqrt(1.25)
        assert np.allclose(solved.weights, expected, atol=1e-12)
        assert solved.weights @ np.diag([1.0, 4.0]) @ solved.weights == pytest.approx(sigma0**2, abs=1e-10)

    def test_degenerate_mean(self):
        with pytest.raises(DegenerateMeanError):
            solve_classical_mvo([0.0, 0.0], np.eye(2), RiskSpec(sigma0=0.01))

    @pytest.mark.parametrize(
        ("mean", "cov", "name"),
        [
            ([math.nan, 1.0], np.eye(2), "mean"),
            ([1.0, 1.0], np.diag([1.0, math.inf]), "cov"),
            ([1.0, 1.0], np.full((2, 2), math.nan), "cov"),
        ],
    )
    def test_non_finite_inputs_rejected(self, mean, cov, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            solve_classical_mvo(mean, cov, RiskSpec(sigma0=0.01))

    @pytest.mark.parametrize(
        ("mean", "cov"),
        [([1.0, 1.0], np.eye(3)), ([1.0, 1.0], np.ones((2, 3))), ([[1.0], [1.0]], np.eye(2))],
    )
    def test_mismatched_shapes_rejected(self, mean, cov):
        with pytest.raises(ValidationError, match="mean must be a vector and cov a matching square matrix"):
            solve_classical_mvo(mean, cov, RiskSpec(sigma0=0.01))

    @pytest.mark.parametrize(
        "weights, match",
        [(np.ones((2, 2)), "static weights must be a vector"), ([0.5, math.nan], "static weights must be finite")],
    )
    def test_static_weights_reject_matrix_or_non_finite(self, weights, match):
        with pytest.raises(ValidationError, match=match):
            StaticWeights(weights=weights, scheme="test")

    def test_equal_weight(self):
        assert np.allclose(equal_weight(4).weights, [0.25, 0.25, 0.25, 0.25])
        assert np.allclose(equal_weight(1).weights, [1.0])
        for n in (1, 3, 9):
            assert equal_weight(n).weights.sum() == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            equal_weight(0)
        for n_assets in (2.5, 2.0, True):
            with pytest.raises(ValidationError, match=f"^n_assets must be an integer, got {n_assets}$"):
                equal_weight(n_assets)
        assert np.array_equal(equal_weight(np.int64(4)).weights, equal_weight(4).weights)


class TestRetrieveAllocation:
    def test_zero_weights_zero_path(self):
        moments = random_structured_moments(31, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        zeroed = dataclasses.replace(solved, managed_weights=np.zeros_like(solved.managed_weights))
        path = retrieve_allocation(zeroed, range(10))
        assert np.array_equal(path, np.zeros((10, 2)))

    def test_single_bin_path_is_sinusoid(self):
        # one bin: w(t) = 2 Re((1/sqrt 2) e^{jwt} w_upper)
        grid = FrequencyGrid.from_periods((12,))
        moments = random_structured_moments(32, grid=grid, n_assets=1)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        coefficient = solved.weights.upper[0]
        omega = grid.omegas[0]
        path = retrieve_allocation(solved, range(36))
        expected = 2 * np.real(np.exp(1j * omega * np.arange(36)) * coefficient / math.sqrt(2))
        assert np.max(np.abs(path[:, 0] - expected)) <= 1e-12

    def test_periodicity_and_realness(self):
        moments = random_structured_moments(33, grid=FrequencyGrid.from_periods((12, 8)), n_assets=2)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        lcm = solved.grid.least_common_period()
        path_a = retrieve_allocation(solved, range(0, 2 * lcm))
        path_b = retrieve_allocation(solved, range(lcm, 3 * lcm))
        assert np.max(np.abs(path_a - path_b)) <= 1e-12
        assert path_a.dtype == np.float64

    def test_matches_per_sample_synthesis(self):
        moments = random_structured_moments(34)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        t = np.arange(17, 40)
        direct = np.array(
            [synthesize_time_value(build_basis(s, solved.grid, solved.n_assets), solved.weights) for s in t]
        )
        path = retrieve_allocation(solved, t)
        assert np.max(np.abs(path - direct)) <= 1e-14 * np.max(np.abs(direct))

    def test_two_dimensional_t_range_rejected(self):
        moments = random_structured_moments(42, grid=FrequencyGrid.from_periods((12,)), n_assets=1)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        with pytest.raises(ValidationError, match="t_range must be one-dimensional"):
            retrieve_allocation(solved, np.arange(24).reshape(4, 6))

    def test_retrieval_never_builds_the_complex_view(self):
        moments = random_structured_moments(38, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        retrieve_allocation(solved, range(24))
        assert "weights" not in vars(solved) and "covariance" not in vars(moments)


class TestSpectralWeightsType:
    def solved(self):
        moments = random_structured_moments(39, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        return solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))

    def test_stores_theta_with_a_cached_complex_view(self):
        solved = self.solved()
        assert solved.managed_weights.shape == (8,) and solved.managed_weights.dtype == np.float64
        view = solved.weights
        assert view is solved.weights
        assert np.array_equal(view.full(), _to_augmented(solved.managed_weights).full())
        with pytest.raises(ValueError, match="read-only"):
            solved.managed_weights[0] = 1.0

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"managed_weights": np.zeros(6)}, "managed weights shape"),
            ({"managed_weights": np.zeros(8, dtype=complex)}, "managed weights must be real"),
            ({"managed_weights": np.full(8, np.nan)}, "managed weights has non-finite"),
            ({"sigma0": 0.0}, "sigma0"),
            ({"sigma0": -0.01}, "sigma0"),
            ({"sigma0": math.inf}, "sigma0"),
            ({"ridge_used": -1.0}, "ridge"),
            ({"ridge_used": math.nan}, "ridge"),
            ({"ridge_used": math.inf}, "ridge"),
            ({"n_assets": 0}, "n_assets"),
            ({"n_assets": 2.0}, "^n_assets must be an integer, got 2.0$"),
            ({"n_assets": True}, "^n_assets must be an integer, got True$"),
            ({"lagrange_multiplier": math.nan}, "^lagrange_multiplier must be positive and finite, got nan$"),
            ({"lagrange_multiplier": math.inf}, "^lagrange_multiplier must be positive and finite, got inf$"),
            ({"lagrange_multiplier": -math.inf}, "^lagrange_multiplier must be positive and finite, got -inf$"),
            ({"lagrange_multiplier": -1.0}, r"^lagrange_multiplier must be positive and finite, got -1\.0$"),
            ({"lagrange_multiplier": 0.0}, r"^lagrange_multiplier must be positive and finite, got 0\.0$"),
        ],
    )
    def test_constructor_rejects(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(self.solved(), **fields)

