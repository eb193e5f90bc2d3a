"""Closed-form solvers: exactness, equivariance, optimality, baselines, retrieval."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from specport import (
    DegenerateMeanError,
    FrequencyGrid,
    RiskSpec,
    SingularCovarianceError,
    SpectralMoments,
    SpectralWeights,
    ValidationError,
    build_basis,
    equal_weight,
    estimate_moments,
    predicted_variance,
    read_weights_csv,
    retrieve_allocation,
    solve_classical_mvo,
    solve_spectral_mvo,
    synthesize_time_value,
    write_weights_csv,
)
from specport.basis import _to_augmented
from specport.optimize import _targeted_solve

from conftest import pga_max_objective, random_feasible_objectives, random_structured_moments, swap_lines


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

    def test_predicted_variance_without_ridge(self):
        from specport import predicted_variance

        moments = random_structured_moments(55)
        risk = RiskSpec(sigma0=0.015, ridge=0.0)
        solved = solve_spectral_mvo(moments, risk)
        assert predicted_variance(solved, moments) == pytest.approx(risk.sigma0**2, abs=1e-10)

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

    @pytest.mark.parametrize("dim", [1, 2, 127, 128, 129, 257, 300])
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
        # only the second block's Schur complement I - 4I shows it
        eye = np.eye(128)
        matrix = np.block([[eye, 2 * eye], [2 * eye, eye]])
        with pytest.raises(SingularCovarianceError):
            _targeted_solve(matrix, np.ones(256), RiskSpec(0.01, ridge=ridge))

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

    def test_equal_weight(self):
        assert np.allclose(equal_weight(4).weights, [0.25, 0.25, 0.25, 0.25])
        assert np.allclose(equal_weight(1).weights, [1.0])
        for n in (1, 3, 9):
            assert equal_weight(n).weights.sum() == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            equal_weight(0)


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

    def test_consistent_mode_scales_the_phases_by_2m(self):
        # the consistent-mode estimator scales the phases by 2M, so retrieval must too;
        # 2M = 4 is a power of two, so the scaled path is exact
        moments = random_structured_moments(41, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        consistent = dataclasses.replace(solved, mode="consistent")
        assert np.array_equal(retrieve_allocation(consistent, range(24)), 4 * retrieve_allocation(solved, range(24)))

    def test_retrieval_and_variance_never_build_the_complex_view(self):
        moments = random_structured_moments(38, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        retrieve_allocation(solved, range(24))
        variance = predicted_variance(solved, moments)
        assert "weights" not in vars(solved) and "covariance" not in vars(moments)
        full = solved.weights.full()
        assert variance == pytest.approx(np.vdot(full, moments.covariance @ full).real, rel=1e-12)


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
            ({"mode": "bogus"}, "unknown estimator mode"),
            ({"n_assets": 0}, "n_assets"),
        ],
    )
    def test_constructor_rejects(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(self.solved(), **fields)


class TestWeightsSerialization:
    def test_round_trip(self, tmp_path):
        moments = random_structured_moments(35, grid=FrequencyGrid.from_periods((12, 6)))
        solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
        path = tmp_path / "weights.csv"
        write_weights_csv(solved, path)
        loaded = read_weights_csv(path)
        assert np.array_equal(loaded.weights.full(), solved.weights.full())
        assert loaded.lagrange_multiplier == solved.lagrange_multiplier
        assert loaded.sigma0 == solved.sigma0
        assert loaded.ridge_used == solved.ridge_used
        assert loaded.grid.omegas == solved.grid.omegas

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: text.rindex(",")],  # truncated mid-row: a short row
            lambda text: "\n".join(text.splitlines()[:-1]) + "\n",  # last entry missing
            lambda text: text.replace("meta,sigma0,", "meta,sigma_zero,"),  # missing meta row
            lambda text: text.replace("weight,3,", "weight,three,"),  # non-integer index
            lambda text: text.replace("weight,3,", "weight,99,"),  # index out of range
            lambda text: text.replace("weight,3,", "weight,2,"),  # duplicate index
            lambda text: re.sub(r"^(weight,5,,[^,]*,)$", r"\g<1>1", text, flags=re.M),  # imaginary part
            lambda text: swap_lines(text, "weight,3,"),  # two weight rows swapped
        ],
    )
    def test_malformed_file_raises_validation_error(self, tmp_path, damage):
        moments = random_structured_moments(36, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        path = tmp_path / "weights.csv"
        write_weights_csv(solve_spectral_mvo(moments, RiskSpec(sigma0=0.01)), path)
        path.write_text(damage(path.read_text()))
        with pytest.raises(ValidationError, match="weights.csv"):
            read_weights_csv(path)

    def test_golden_bytes(self, tmp_path):
        weights = SpectralWeights(
            grid=FrequencyGrid.from_periods((4,), "month"),
            n_assets=1,
            managed_weights=np.array([0.1, -3.0]),
            lagrange_multiplier=2.5,
            sigma0=0.01,
            ridge_used=0.0,
        )
        path = tmp_path / "weights.csv"
        write_weights_csv(weights, path)
        assert path.read_bytes() == (
            b"record,i,j,re,im\r\n"
            b"meta,format,specport-weights-v3,,\r\n"
            b"meta,omegas,1.5707963267948966,,\r\n"
            b"meta,periods,4,,\r\n"
            b"meta,label,month,,\r\n"
            b"meta,n_assets,1,,\r\n"
            b"meta,lagrange_multiplier,2.5,,\r\n"
            b"meta,sigma0,0.01,,\r\n"
            b"meta,ridge_used,0.0,,\r\n"
            b"meta,mode,paper-literal,,\r\n"
            b"weight,0,,0.1,\r\n"
            b"weight,1,,-3.0,\r\n"
            b"end,11,,,\r\n"
        )
        assert np.array_equal(read_weights_csv(path).managed_weights, weights.managed_weights)

    def test_truncation_inside_last_number_raises(self, tmp_path):
        moments = random_structured_moments(37, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        path = tmp_path / "weights.csv"
        write_weights_csv(solve_spectral_mvo(moments, RiskSpec(sigma0=0.01)), path)
        text = path.read_text()
        last_number_end = text.rindex(",\nend,")  # the last weight row ends in a blank im field
        assert text[last_number_end - 2 : last_number_end].isdigit()
        path.write_text(text[: last_number_end - 1])  # cut inside the last weight
        # the cut row lost its im field, so the reader stops there, before the end-row check
        with pytest.raises(ValidationError, match="weights.csv: malformed file"):
            read_weights_csv(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            ((r"^meta,sigma0,[^,]*,", "meta,sigma0,nan,"), "sigma0"),
            ((r"^meta,sigma0,[^,]*,", "meta,sigma0,0.0,"), "sigma0"),
            ((r"^meta,ridge_used,[^,]*,", "meta,ridge_used,-1.0,"), "ridge"),
            ((r"^meta,ridge_used,[^,]*,", "meta,ridge_used,inf,"), "ridge"),
            ((r"^meta,mode,[^,]*,", "meta,mode,bogus,"), "unknown estimator mode"),
            ((r"^weight,3,,[^,]*,", "weight,3,,nan,"), "non-finite"),
        ],
    )
    def test_rejected_values_name_the_file(self, tmp_path, edit, match):
        moments = random_structured_moments(40, grid=FrequencyGrid.from_periods((12, 6)), n_assets=2)
        path = tmp_path / "weights.csv"
        write_weights_csv(solve_spectral_mvo(moments, RiskSpec(sigma0=0.01)), path)
        pattern, replacement = edit
        text, count = re.subn(pattern, replacement, path.read_text(), flags=re.M)
        assert count == 1
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"weights.csv: .*{match}"):
            read_weights_csv(path)
