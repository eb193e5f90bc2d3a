"""Basis construction, projection, synthesis and their exact identities."""

import dataclasses
import math
import re

import numpy as np
import pytest

from specport import (
    AugmentedSpectralBasis,
    AugmentedVector,
    FrequencyGrid,
    SymmetryViolationError,
    ValidationError,
    build_basis,
    commensurate_length,
    project_spectrum,
    synthesize_time_value,
)
from specport.basis import _phases

from conftest import random_grid

NYQUIST_REFUSAL = "periods must be >= 3 samples (period 2, the Nyquist bin, has a zero sine column)"


class TestFrequencyGrid:
    def test_from_periods_sorts_and_converts(self):
        grid = FrequencyGrid.from_periods((6, 12, 3))
        assert grid.periods == (12, 6, 3)
        assert np.allclose(grid.omegas, [2 * np.pi / 12, 2 * np.pi / 6, 2 * np.pi / 3])

    @pytest.mark.parametrize("as_input", [tuple, lambda periods: (p for p in periods)])
    def test_from_periods_rejects_non_integer_period(self, as_input):
        # a one-shot iterable must be checked as strictly as a tuple
        with pytest.raises(ValidationError, match="integers"):
            FrequencyGrid.from_periods(as_input((12.5, 6)))
        assert FrequencyGrid.from_periods(as_input((12.0, 6))).periods == (12, 6)

    @pytest.mark.parametrize(
        "periods, message",
        [
            ((12.5, 6), "periods must be integers (samples per cycle)"),
            ((12, math.inf), "periods must be integers (samples per cycle)"),
            ((math.nan,), "periods must be integers (samples per cycle)"),
            ((None,), "periods must be integers (samples per cycle)"),
            (("12",), "periods must be integers (samples per cycle)"),
            ((12, 6, 12), "duplicate periods in [12, 6, 12]"),
            ((12, 1), NYQUIST_REFUSAL),
            ((0,), NYQUIST_REFUSAL),
            # the Nyquist bin: sin(pi t) is zero at every integer t, so its sine column carries nothing
            ((2,), NYQUIST_REFUSAL),
            ((4, 2), NYQUIST_REFUSAL),
            ((12, 2**63), f"periods must fit in int64, got {2**63}"),
            ((), "frequency grid must contain at least one bin"),
        ],
        ids=[
            "non-integer", "infinite", "nan", "none", "string", "duplicate", "period-1", "period-0",
            "nyquist", "nyquist-in-grid", "beyond-int64", "empty",
        ],
    )
    def test_direct_construction_rejects_as_from_periods(self, periods, message):
        for build in (FrequencyGrid, FrequencyGrid.from_periods):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                build(periods)

    def test_direct_construction_normalizes_as_from_periods(self):
        grid = FrequencyGrid(periods=[6, 12.0, 3])
        assert grid == FrequencyGrid.from_periods((3, 6, 12))
        assert grid.periods == (12, 6, 3) and all(type(p) is int for p in grid.periods)
        assert grid.omegas == (2.0 * math.pi / 12, 2.0 * math.pi / 6, 2.0 * math.pi / 3)
        assert grid.n_bins == 3
        assert [f.name for f in dataclasses.fields(FrequencyGrid)] == ["periods"]
        # an integer period is taken exactly, not through float64, which holds neither of these
        for period in (2**53 + 1, 2**63 - 1, np.int64(2**63 - 1)):
            for build in (FrequencyGrid, FrequencyGrid.from_periods):
                grid = build((12, period))
                assert grid.periods == (int(period), 12) and type(grid.periods[0]) is int

    def test_largest_period_reduces_in_int64(self):
        grid = FrequencyGrid.from_periods((2**62, 12))
        t = np.array([-(2**63), -1, 0, 1, 2**63 - 1])
        reduced = np.array([0, 2**62 - 1, 0, 1, 2**62 - 1])  # t mod 2^62
        assert np.array_equal(_phases(t, grid)[:, [0, 2]], _phases(reduced, grid)[:, [0, 2]])

    def test_grid_is_its_periods_only(self):
        grid = FrequencyGrid.from_periods((12, 6))
        assert vars(grid) == {"periods": (12, 6)}
        for build in (FrequencyGrid, FrequencyGrid.from_periods):
            with pytest.raises(TypeError):
                build((12, 6), "month")

    def test_least_common_period(self):
        assert FrequencyGrid.from_periods((12, 6, 3)).least_common_period() == 12
        assert FrequencyGrid.from_periods((12, 8)).least_common_period() == 24

    def test_commensurate_length(self):
        grid = FrequencyGrid.from_periods((12, 8))
        assert commensurate_length(100, grid) == (96, 4)
        with pytest.raises(ValidationError):
            commensurate_length(10, grid)


class TestBuildBasis:
    def test_t0_single_bin_values(self):
        # e^{j*0} = 1 so both halves are 1/sqrt(2)
        grid = FrequencyGrid.from_periods((12,))
        basis = build_basis(0, grid, 1)
        assert np.allclose(basis.values, [[1 / math.sqrt(2), 1 / math.sqrt(2)]], atol=1e-15)

    def test_phase_pi_values(self):
        # t=3, w=pi/3 puts both halves at phase pi
        grid = FrequencyGrid.from_periods((6,))
        basis = build_basis(3, grid, 1)
        assert np.allclose(basis.values, [[-1 / math.sqrt(2), -1 / math.sqrt(2)]], atol=1e-12)

    def test_row_orthonormality_direct_multiply(self):
        grid = FrequencyGrid.from_periods((16, 8, 4))
        basis = build_basis(7, grid, 2)
        gram = basis.values @ basis.values.conj().T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_row_orthonormality_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            grid = random_grid(rng)
            n_assets = int(rng.integers(1, 5))
            t = int(rng.integers(-10**6, 10**6))
            basis = build_basis(t, grid, n_assets)
            gram = basis.values @ basis.values.conj().T
            assert np.max(np.abs(gram - np.eye(n_assets))) <= 1e-12

    def test_conjugate_half(self):
        grid = FrequencyGrid.from_periods((12, 5))
        basis = build_basis(11, grid, 3)
        half = basis.half_columns
        assert np.array_equal(basis.values[:, half:], np.conj(basis.values[:, :half]))

    def test_invalid_inputs(self):
        grid = FrequencyGrid.from_periods((12,))
        with pytest.raises(ValidationError):
            build_basis(0, grid, 0)
        for n_assets in (2.0, True, np.float64(1.0)):
            with pytest.raises(ValidationError, match=f"^n_assets must be an integer, got {re.escape(repr(n_assets))}$"):
                build_basis(0, grid, n_assets)

    @pytest.mark.parametrize("t", [1.5, 1.0, np.float64(3.0), True, "3", 2**63, -(2**63) - 1])
    def test_t_must_be_an_int64_integer(self, t):
        message = f"t: sample indices must be integers in the int64 range, got {t!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_basis(t, FrequencyGrid.from_periods((12,)), 1)

    def test_t_is_where_the_values_were_taken_and_the_basis_is_periodic(self):
        grid = FrequencyGrid.from_periods((12, 8, 5))
        for t in (0, 7, -13, np.int64(2**62), np.uint64(2**63 - 1)):
            basis = build_basis(t, grid, 2)
            assert basis.t == t and type(basis.t) is int
            shifted = build_basis(int(t) - grid.least_common_period(), grid, 2)
            assert np.array_equal(shifted.values, basis.values)


class TestSynthesize:
    def test_zero_spectrum(self):
        grid = FrequencyGrid.from_periods((12, 6))
        basis = build_basis(5, grid, 2)
        out = synthesize_time_value(basis, AugmentedVector.from_upper(np.zeros(4)))
        assert np.array_equal(out, np.zeros(2))

    def test_cosine_expansion(self):
        # (1/sqrt2) e^{jwt} (sqrt2/2) + c.c. == cos(wt), checked over t=0..99
        grid = FrequencyGrid.from_periods((12,))
        spectrum = AugmentedVector.from_upper([math.sqrt(2) / 2])
        for t in range(100):
            value = synthesize_time_value(build_basis(t, grid, 1), spectrum)
            assert value[0] == pytest.approx(math.cos(grid.omegas[0] * t), abs=1e-12)

    def test_sine_expansion(self):
        spectrum = AugmentedVector.from_upper([-1j * math.sqrt(2) / 2])
        grid = FrequencyGrid.from_periods((12,))
        for t in range(100):
            value = synthesize_time_value(build_basis(t, grid, 1), spectrum)
            assert value[0] == pytest.approx(math.sin(grid.omegas[0] * t), abs=1e-12)

    @pytest.mark.parametrize(
        "upper, lower",
        [(np.zeros(2), np.zeros(3)), (np.zeros((2, 1)), np.zeros((2, 1)))],
    )
    def test_halves_must_be_equally_long_vectors(self, upper, lower):
        with pytest.raises(ValidationError, match="upper and lower halves must be 1-d and equally long"):
            AugmentedVector(upper=upper, lower=lower)

    def test_spectrum_size_must_match_the_basis(self):
        grid = FrequencyGrid.from_periods((12,))
        spectrum = AugmentedVector.from_upper(np.zeros(2))
        with pytest.raises(ValidationError, match=r"spectrum half-size 2 does not match basis \(1\)"):
            synthesize_time_value(build_basis(3, grid, 1), spectrum)
        with pytest.raises(ValidationError, match=r"spectrum half-size 2 does not match basis \(3\)"):
            synthesize_time_value(build_basis(0, grid, 3), spectrum)

    def test_symmetry_violation_raises(self):
        grid = FrequencyGrid.from_periods((12,))
        basis = build_basis(0, grid, 1)
        corrupted = AugmentedVector(upper=np.array([1.0 + 1j]), lower=np.array([1.0 + 1j]))
        with pytest.raises(SymmetryViolationError):
            synthesize_time_value(basis, corrupted)

    def test_basis_whose_lower_half_is_not_conjugate_leaves_an_imaginary_residual(self):
        # [C | C] instead of [C | conj(C)]: a conjugate-symmetric spectrum synthesizes 2 C(1) u, complex at t = 1
        grid = FrequencyGrid.from_periods((12,))
        upper = build_basis(1, grid, 1).values[:, :1]
        basis = AugmentedSpectralBasis(t=1, grid=grid, n_assets=1, values=np.hstack([upper, upper]))
        with pytest.raises(SymmetryViolationError, match=r"^imaginary residual 7\.071e-01 exceeds tolerance$"):
            synthesize_time_value(basis, AugmentedVector.from_upper([1.0]))


class TestProject:
    def test_zero_vector(self):
        grid = FrequencyGrid.from_periods((12, 6))
        basis = build_basis(9, grid, 2)
        spectrum = project_spectrum(basis, np.zeros(2))
        assert np.array_equal(spectrum.upper, np.zeros(4))

    def test_scalar_projection_value(self):
        # t=0: upper coefficient is x / sqrt(2M) = 2 / sqrt(2)
        grid = FrequencyGrid.from_periods((12,))
        basis = build_basis(0, grid, 1)
        spectrum = project_spectrum(basis, np.array([2.0]))
        assert spectrum.upper[0] == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        grid = FrequencyGrid.from_periods((12, 9, 7, 5))
        for t in rng.integers(-1000, 1000, size=20):
            basis = build_basis(int(t), grid, 3)
            x = rng.standard_normal(3)
            back = synthesize_time_value(basis, project_spectrum(basis, x))
            assert np.max(np.abs(back - x)) <= 1e-12

    def test_projection_is_conjugate_symmetric(self):
        rng = np.random.default_rng(8)
        grid = FrequencyGrid.from_periods((10, 4))
        basis = build_basis(17, grid, 2)
        spectrum = project_spectrum(basis, rng.standard_normal(2))
        assert spectrum.is_conjugate_symmetric()

    def test_dimension_mismatch(self):
        grid = FrequencyGrid.from_periods((12,))
        basis = build_basis(0, grid, 2)
        with pytest.raises(ValidationError):
            project_spectrum(basis, np.zeros(3))


@pytest.mark.parametrize("seed", range(5))
def test_phases_repeat_bit_for_bit_with_each_bins_period(seed):
    # bin m's columns (cos and -sin) at t and at t + p_m, for |t| up to 1e12
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    t = np.concatenate([rng.integers(-10**12, 10**12, size=200), [-(10**12), 10**12 - 24]])
    phases = _phases(t, grid)
    for m, period in enumerate(grid.periods):
        columns = [m, grid.n_bins + m]
        assert np.array_equal(_phases(t + period, grid)[:, columns], phases[:, columns])
        # on [0, p_m) the angle is the float product w_m t itself
        angles = grid.omegas[m] * np.arange(period)
        expected = (1 / math.sqrt(grid.n_bins)) * np.stack([np.cos(angles), -np.sin(angles)], axis=1)
        assert np.array_equal(_phases(np.arange(period), grid)[:, columns], expected)


def test_time_average_of_gram_converges():
    # avg_t B(t)^H B(t) = I/(2M) once every bin and beat completes whole cycles
    grid = FrequencyGrid.from_periods((12, 8))
    size = 2 * grid.n_bins * 2
    total = np.zeros((size, size), dtype=complex)
    n_samples = grid.least_common_period()
    for t in range(n_samples):
        values = build_basis(t, grid, 2).values
        total += values.conj().T @ values
    average = total / n_samples
    expected = np.eye(size) / (2 * grid.n_bins)
    assert np.max(np.abs(average - expected)) <= 1e-10
