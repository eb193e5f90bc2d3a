"""Property tests: the augmented <-> managed-asset map, the estimator, the real solver,
the moments file round trip, the allocation path and the whole protocol against a brute-force oracle.

The complex augmented statistics are a unitary change of coordinates of a real
mean-variance problem on 2MN managed assets.  These properties pin that map
and check the real code path against direct complex computations.
"""

import logging.handlers
import math
import re
import string
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specport import (
    FrequencyGrid,
    ProtocolConfig,
    ReturnsPanel,
    RiskSpec,
    SpectralMoments,
    SpectralWeights,
    build_basis,
    compute_psd,
    estimate_moments,
    project_spectrum,
    read_moments_csv,
    retrieve_allocation,
    run_protocol,
    solve_spectral_mvo,
    synthesize_time_value,
    write_moments_csv,
)
from specport.basis import _phases, _to_augmented, _to_managed
from specport.errors import ValidationError, _count

from conftest import random_structured_moments, reference_baselines, reference_protocol

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
grids = st.lists(
    st.sampled_from((24, 12, 10, 8, 6, 5, 4, 3)), min_size=1, max_size=3, unique=True
).map(FrequencyGrid.from_periods)
asset_counts = st.integers(min_value=1, max_value=3)


def random_symmetric(seed, dim):
    """An exactly symmetric real matrix of mixed sign and scale."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-3, 3)
    return raw + raw.T


@PROPERTY_SETTINGS
@given(seed=seeds, half=st.integers(min_value=1, max_value=12))
def test_managed_augmented_round_trip(seed, half):
    managed = random_symmetric(seed, 2 * half)
    augmented = _to_augmented(managed)
    scale = np.max(np.abs(managed))
    assert np.max(np.abs(_to_managed(augmented) - managed)) <= 4e-16 * scale
    # unitary: trace and eigenvalues carry over
    assert abs(np.trace(augmented) - np.trace(managed)) <= 1e-13 * scale * half
    assert np.allclose(
        np.linalg.eigvalsh(augmented), np.linalg.eigvalsh(managed), rtol=0, atol=1e-12 * scale * half
    )
    theta = np.random.default_rng(seed + 1).standard_normal(2 * half)
    vector = _to_augmented(theta)
    assert np.array_equal(vector.lower, np.conj(vector.upper))
    assert np.array_equal(vector.upper, (theta[:half] + 1j * theta[half:]) / math.sqrt(2))


def block_to_managed(augmented):
    """The earlier ``np.block`` form of :func:`_to_managed`, kept as the bit-exact reference."""
    half = augmented.shape[0] // 2
    r_grid, p_grid = augmented[:half, :half], augmented[:half, half:]
    return np.block(
        [
            [(r_grid + p_grid).real, (p_grid - r_grid).imag],
            [(r_grid + p_grid).imag, (r_grid - p_grid).real],
        ]
    )


@PROPERTY_SETTINGS
@given(seed=seeds, half=st.integers(min_value=1, max_value=40), zero_share=st.sampled_from((0.0, 0.5)))
def test_to_managed_is_bit_identical_to_block_form(seed, half, zero_share):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2 * half, 2 * half)) * 10.0 ** rng.uniform(-3, 3)
    raw[rng.random(raw.shape) < zero_share] = 0.0  # exact zeros give R, P parts that cancel
    augmented = _to_augmented(raw + raw.T)
    expected, got = block_to_managed(augmented), _to_managed(augmented)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # signed zeros included


@PROPERTY_SETTINGS
@given(seed=seeds, half=st.integers(min_value=1, max_value=12))
def test_augmented_form_is_exactly_structured(seed, half):
    """[[R, P], [conj(P), conj(R)]] with R Hermitian and P symmetric, bit for bit."""
    augmented = _to_augmented(random_symmetric(seed, 2 * half))
    r_block, p_block = augmented[:half, :half], augmented[:half, half:]
    assert np.array_equal(r_block, r_block.conj().T)
    assert np.array_equal(p_block, p_block.T)
    assert np.array_equal(augmented[half:, half:], r_block.conj())
    assert np.array_equal(augmented[half:, :half], p_block.conj())


def test_augmented_form_builds_no_half_size_temporaries():
    """R and P are summed straight into the output and halved there, bit for bit the halved sums."""
    # at 2MN = 600 a half-size block (300 x 300 float64) is 0.72 MB, well above numpy's fixed ufunc buffers
    managed = random_symmetric(600, 600)
    tracemalloc.start()
    try:
        augmented = _to_augmented(managed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    half = 300
    assert peak - augmented.nbytes < half * half * 8, peak - augmented.nbytes
    k_aa, k_ab, k_ba, k_bb = managed[:half, :half], managed[:half, half:], managed[half:, :half], managed[half:, half:]
    for got, expected in (
        (augmented[:half, :half].real, 0.5 * (k_aa + k_bb)),
        (augmented[:half, :half].imag, 0.5 * (k_ba - k_ab)),
        (augmented[:half, half:].real, 0.5 * (k_aa - k_bb)),
        (augmented[:half, half:].imag, 0.5 * (k_ba + k_ab)),
    ):
        assert got.tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(seed=seeds, grid=grids, n_assets=asset_counts, periods=st.integers(min_value=1, max_value=3))
def test_estimator_matches_per_sample_projection(seed, grid, n_assets, periods):
    """Mean and covariance equal the averages of B(t)^H x(t) and its centred outer products."""
    rng = np.random.default_rng(seed)
    n_samples = periods * grid.least_common_period()
    panel = rng.standard_normal((n_samples, n_assets))
    moments = estimate_moments(panel, grid)
    projected = np.array(
        [project_spectrum(build_basis(t, grid, n_assets), panel[t]).full() for t in range(n_samples)]
    )
    mean = projected.mean(axis=0)
    deviations = projected - mean
    cov = deviations.T @ deviations.conj() / n_samples
    assert np.max(np.abs(moments.mean.full() - mean)) <= 1e-13
    assert np.max(np.abs(moments.covariance - cov)) <= 1e-13 * max(1.0, np.max(np.abs(cov)))


@PROPERTY_SETTINGS
@given(seed=seeds, grid=grids, n_assets=asset_counts, sigma0=st.floats(min_value=1e-4, max_value=1.0))
def test_real_solver_matches_complex_closed_form(seed, grid, n_assets, sigma0):
    moments = random_structured_moments(seed, grid=grid, n_assets=n_assets)
    solved = solve_spectral_mvo(moments, RiskSpec(sigma0=sigma0))
    mean = moments.mean.full()
    regularized = moments.covariance + solved.ridge_used * np.eye(2 * moments.half_size)
    direction = np.linalg.solve(regularized, mean)
    quad = float(np.vdot(mean, direction).real)
    expected = sigma0 * direction / math.sqrt(quad)
    assert np.max(np.abs(solved.weights.full() - expected)) <= 1e-9 * np.max(np.abs(expected))
    assert math.isclose(solved.lagrange_multiplier, math.sqrt(quad) / (2 * sigma0), rel_tol=1e-9)
    assert solved.weights.is_conjugate_symmetric(0.0)


@PROPERTY_SETTINGS
@given(seed=seeds, grid=grids, n_assets=asset_counts, factor=st.floats(min_value=1e-3, max_value=1e3))
def test_direction_invariant_to_sigma0_scale(seed, grid, n_assets, factor):
    moments = random_structured_moments(seed, grid=grid, n_assets=n_assets)
    base = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
    scaled = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01 * factor))
    assert scaled.ridge_used == base.ridge_used
    assert np.allclose(scaled.weights.full(), factor * base.weights.full(), rtol=1e-12, atol=0)
    assert math.isclose(scaled.lagrange_multiplier * factor, base.lagrange_multiplier, rel_tol=1e-12)


# Periods include 7, so grids such as (12, 7, 5) whose periods do not divide
# one another (least common period 420) occur.
serial_grids = st.lists(
    st.sampled_from((24, 12, 10, 8, 7, 6, 5, 4, 3)), min_size=1, max_size=3, unique=True
).map(FrequencyGrid.from_periods)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    grid=serial_grids,
    n_assets=asset_counts,
    extra=st.integers(min_value=0, max_value=60),
)
@example(seed=0, grid=FrequencyGrid.from_periods((12, 7, 5)), n_assets=3, extra=17)
def test_moments_file_round_trip_is_bit_exact(seed, grid, n_assets, extra):
    """The file round trip is bit-exact, and the per-bin blocks read from K equal slices of U K U^H.

    The panel has ``extra`` samples beyond one least common period, so the snap
    keeps one or more whole periods.  The moments read back write the same bytes.
    """
    n_samples = grid.least_common_period() + extra
    panel = np.random.default_rng(seed).standard_normal((n_samples, n_assets))
    moments = estimate_moments(panel, grid)
    compute_psd(moments)
    pairs = [(m, n) for m in range(grid.n_bins) for n in range(grid.n_bins)]
    blocks = {pair: (moments.bin_covariance(*pair), moments.bin_pseudo_covariance(*pair)) for pair in pairs}
    assert "covariance" not in vars(moments)
    half = moments.half_size
    for (m, n), (r_block, p_block) in blocks.items():
        rows, cols = slice(m * n_assets, (m + 1) * n_assets), slice(n * n_assets, (n + 1) * n_assets)
        assert r_block.tobytes() == moments.covariance[rows, cols].tobytes()
        assert p_block.tobytes() == moments.covariance[rows, half:][:, cols].tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "moments.csv"
        write_moments_csv(moments, path)
        loaded = read_moments_csv(path)
        write_moments_csv(loaded, Path(tmp) / "rewritten.csv")
        assert (Path(tmp) / "rewritten.csv").read_bytes() == path.read_bytes()
    assert loaded.managed_mean.tobytes() == moments.managed_mean.tobytes()
    assert loaded.managed_covariance.tobytes() == moments.managed_covariance.tobytes()
    assert np.array_equal(loaded.mean.full(), moments.mean.full())
    assert np.array_equal(loaded.covariance, moments.covariance)
    assert (loaded.grid, loaded.n_assets, loaded.sample_count) == (moments.grid, moments.n_assets, moments.sample_count)


@PROPERTY_SETTINGS
@given(data=st.data(), grid=serial_grids, n_assets=asset_counts)
def test_moments_file_keeps_every_float64_bit_pattern(data, grid, n_assets):
    """Any finite mean and symmetric K round-trip bit for bit: signed zeros, subnormals and extremes included."""
    dim = 2 * grid.n_bins * n_assets
    finite = st.floats(allow_nan=False, allow_infinity=False)
    mean = data.draw(hnp.arrays(np.float64, dim, elements=finite))
    raw = data.draw(hnp.arrays(np.float64, (dim, dim), elements=finite))
    moments = SpectralMoments(
        grid=grid,
        n_assets=n_assets,
        managed_mean=mean,
        managed_covariance=np.where(np.arange(dim)[:, np.newaxis] <= np.arange(dim), raw, raw.T),
        sample_count=data.draw(st.integers(min_value=1, max_value=10**6)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "moments.csv"
        write_moments_csv(moments, path)
        loaded = read_moments_csv(path)
    assert loaded.managed_mean.tobytes() == moments.managed_mean.tobytes()
    assert loaded.managed_covariance.tobytes() == moments.managed_covariance.tobytes()
    assert (loaded.grid, loaded.sample_count) == (grid, moments.sample_count)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    grid=serial_grids,
    n_assets=asset_counts,
    where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    char=st.sampled_from(string.ascii_letters + string.digits + "+/=,;-_. \r\n"),
)
def test_moments_file_refuses_any_changed_character(seed, grid, n_assets, where, char):
    """One character changed anywhere in the file, meta rows and the end row included, is refused, naming the file."""
    panel = np.random.default_rng(seed).standard_normal((grid.least_common_period(), n_assets))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "moments.csv"
        write_moments_csv(estimate_moments(panel, grid), path)
        text = path.read_bytes().decode()
        position = int(where * len(text))
        assume(text[position] != char)
        path.write_bytes((text[:position] + char + text[position + 1 :]).encode())
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            read_moments_csv(path)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    grid=serial_grids,
    n_assets=st.integers(min_value=1, max_value=6),
    n_samples=st.integers(min_value=2, max_value=300),
    t0=st.integers(min_value=-1000, max_value=1000),
)
@example(  # 17 samples in each of the L = 12 classes, none discarded
    seed=1, grid=FrequencyGrid.from_periods((12, 4)), n_assets=3, n_samples=204, t0=7
)
@example(  # T = L: one sample per class, so every within-class scatter is zero and K = G^T G / T
    seed=3, grid=FrequencyGrid.from_periods((12, 4)), n_assets=3, n_samples=12, t0=7
)
@example(  # the snap discards 5 samples and keeps 2 L: two samples per class
    seed=6, grid=FrequencyGrid.from_periods((12, 4)), n_assets=3, n_samples=29, t0=7
)
@example(  # T < L = 420: rejected
    seed=2, grid=FrequencyGrid.from_periods((12, 7, 5)), n_assets=2, n_samples=50, t0=-3
)
@example(  # the snap discards 4 samples and keeps 16 L
    seed=4, grid=FrequencyGrid.from_periods((12, 6, 3)), n_assets=6, n_samples=196, t0=5
)
@example(  # L = 9 > (2M)^2 = 4 classes on 17 L samples: the scatters are combined in three chunks
    seed=7, grid=FrequencyGrid.from_periods((9,)), n_assets=3, n_samples=160, t0=2
)
@example(  # L beyond int64: rejected
    seed=5,
    grid=FrequencyGrid.from_periods((151, 149, 139, 137, 131, 127, 113, 109, 107, 103)),
    n_assets=1,
    n_samples=30,
    t0=-9,
)
def test_class_estimator_matches_managed_panel(seed, grid, n_assets, n_samples, t0):
    """The phase-class moments equal the mean and z^T z / T of the centred panel z = phi(t) (x) x(t).

    Covers t0 != 0 and windows of one to many samples per class.  The estimator snaps the
    window to whole multiples of the grid's least common period L, logging a warning exactly
    when it discards samples, and rejects a window shorter than L.
    """
    period = grid.least_common_period()
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    panel = scale * (rng.standard_normal((n_samples, n_assets)) + 3.0 * rng.standard_normal(n_assets))
    if n_samples < period:
        with pytest.raises(ValidationError, match="shorter than one least common period"):
            estimate_moments(panel, grid, t0=t0)
        return
    snap_warnings = logging.handlers.BufferingHandler(capacity=16)
    snap_warnings.setLevel(logging.WARNING)
    moments_logger = logging.getLogger("specport.moments")
    moments_logger.addHandler(snap_warnings)
    try:
        moments = estimate_moments(panel, grid, t0=t0)
    finally:
        moments_logger.removeHandler(snap_warnings)
    kept = moments.sample_count
    assert kept == n_samples // period * period
    assert len(snap_warnings.buffer) == (kept < n_samples)
    t = np.arange(t0 + n_samples - kept, t0 + n_samples)
    z = (_phases(t, grid)[:, :, np.newaxis] * panel[-kept:, np.newaxis, :]).reshape(kept, -1)
    mean = z.mean(axis=0)
    cov = (z - mean).T @ (z - mean) / kept
    # both evaluate phi at the same reduced angles w_m (t mod p_m), so only the sums' rounding differs
    tol = 64 * np.finfo(np.float64).eps
    size = float(np.max(np.abs(z)))
    assert np.max(np.abs(moments.managed_mean - mean)) <= tol * size
    assert np.max(np.abs(moments.managed_covariance - cov)) <= tol * size**2
    assert np.array_equal(moments.managed_covariance, moments.managed_covariance.T)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    grid=serial_grids,
    n_assets=asset_counts,
    start=st.integers(min_value=0, max_value=500),
    length=st.integers(min_value=1, max_value=40),
)
def test_allocation_path_is_real_finite_and_periodic(seed, grid, n_assets, start, length):
    moments = random_structured_moments(seed, grid=grid, n_assets=n_assets)
    solved = solve_spectral_mvo(moments, RiskSpec(sigma0=0.01))
    t = np.arange(start, start + length)
    path = retrieve_allocation(solved, t)
    shifted = retrieve_allocation(solved, t + grid.least_common_period())
    assert path.shape == (length, n_assets)
    assert np.isrealobj(path) and np.all(np.isfinite(path))
    assert np.array_equal(shifted, path)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    grid=grids,
    n_assets=st.integers(min_value=1, max_value=6),
    start=st.integers(min_value=-(10**7), max_value=10**7),
    length=st.integers(min_value=1, max_value=40),
)
@example(seed=0, grid=FrequencyGrid.from_periods((12, 6, 3)), n_assets=5, start=-(10**7), length=1)
@example(  # L beyond int64
    seed=1,
    grid=FrequencyGrid.from_periods((151, 149, 139, 137, 131, 127, 113, 109, 107, 103)),
    n_assets=2,
    start=10**7 - 40,
    length=40,
)
def test_retrieval_matches_augmented_synthesis(seed, grid, n_assets, start, length):
    """Phi(t) theta equals the complex synthesis B(t) [v; conj(v)] to rounding, at any t.

    Both take bin m's phase at t mod p_m, so they agree at any t, whatever
    the grid's least common period L.  The error is measured against
    |Phi| |theta|, the scale of the terms summed: at a single sample the
    terms can cancel, so |w(t)| alone is no bound on the rounding.
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(2 * grid.n_bins * n_assets) * 10.0 ** rng.uniform(-3, 3)
    weights = SpectralWeights(
        grid=grid, n_assets=n_assets, managed_weights=theta, lagrange_multiplier=1.0, sigma0=1.0, ridge_used=0.0
    )
    t = np.arange(start, start + length)
    path = retrieve_allocation(weights, t)
    phases = _phases(t, grid)
    assert np.array_equal(path, phases @ theta.reshape(2 * grid.n_bins, n_assets))
    expected = np.array([synthesize_time_value(build_basis(s, grid, n_assets), weights.weights) for s in t])
    assert path.shape == expected.shape == (length, n_assets)
    scale = np.abs(phases) @ np.abs(theta.reshape(2 * grid.n_bins, n_assets))
    assert np.max(np.abs(path - expected)) <= 1e-14 * np.max(scale)


_INT_TYPES = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@PROPERTY_SETTINGS
@given(
    minimum=st.integers(min_value=-3, max_value=3),
    value=st.integers(min_value=-3, max_value=100),
    int_type=st.sampled_from(_INT_TYPES),
)
def test_count_accepts_every_integer_at_least_minimum(minimum, value, int_type):
    assume(value >= minimum and (value >= 0 or not int_type.__name__.startswith("uint")))
    count = _count("n", int_type(value), minimum)
    assert type(count) is int and count == value


@PROPERTY_SETTINGS
@given(
    minimum=st.integers(min_value=-3, max_value=3),
    value=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.booleans(),
        st.sampled_from((np.True_, np.False_)),
    ),
)
def test_count_rejects_floats_and_bools(minimum, value):
    """Integral floats and bools are rejected too: a count must have an integer type."""
    with pytest.raises(ValidationError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
        _count("n", value, minimum)


@PROPERTY_SETTINGS
@given(minimum=st.integers(min_value=-3, max_value=3), shortfall=st.integers(min_value=1, max_value=100))
def test_count_rejects_integers_below_minimum(minimum, shortfall):
    value = minimum - shortfall
    with pytest.raises(ValidationError, match=f"^n must be >= {minimum}, got {value}$"):
        _count("n", np.int64(value), minimum)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    seed=seeds,
    periods=st.lists(st.sampled_from((12, 8, 6, 5, 4, 3)), min_size=1, max_size=3, unique=True),
    n_assets=st.integers(min_value=1, max_value=4),
    demean=st.booleans(),
)
def test_protocol_matches_the_brute_force_reference(data, seed, periods, n_assets, demean):
    period = math.lcm(*periods)
    dim = 2 * len(periods) * n_assets
    # at least 2 * 2MN snapped samples (rho <= 1/2), then up to two more periods and a snap remainder
    whole = -(-2 * dim // period) + data.draw(st.integers(min_value=0, max_value=2), label="extra periods")
    split = whole * period + data.draw(st.integers(min_value=0, max_value=period - 1), label="remainder")
    n_out = data.draw(st.integers(min_value=2, max_value=3 * period), label="out-of-sample returns")
    rng = np.random.default_rng(seed)
    t = np.arange(split + n_out)[:, np.newaxis]
    values = 0.005 * np.cos(2 * np.pi * t / 12 + rng.uniform(0, 2 * np.pi, n_assets))
    values += 0.02 * rng.standard_normal((split + n_out, n_assets))
    panel = ReturnsPanel(
        timestamps=tuple(range(split + n_out)),
        returns=values,
        periods_per_year=12,
        asset_names=tuple(f"A{n}" for n in range(n_assets)),
    )
    report = run_protocol(ProtocolConfig(data=panel, boundary=split, grids=(tuple(periods),), demean=demean))
    path, sharpe = reference_protocol(values, split, periods, 0.01, demean)
    spectral = report.strategies[0]
    assert np.max(np.abs(spectral.allocations - path)) <= 1e-10 * np.max(np.abs(path))
    assert abs(spectral.sharpe - sharpe) <= 1e-10 * max(1.0, abs(sharpe))
    for slug, (series, cumulative, sharpe) in reference_baselines(values, split, 0.01).items():
        baseline = report.strategy(slug)
        assert np.max(np.abs(baseline.portfolio_returns - series)) <= 1e-10 * np.max(np.abs(series))
        assert np.max(np.abs(baseline.cumulative - cumulative)) <= 1e-10 * np.max(np.abs(cumulative))
        assert abs(baseline.sharpe - sharpe) <= 1e-10 * max(1.0, abs(sharpe))
