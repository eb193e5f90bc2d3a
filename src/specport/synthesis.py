"""Synthetic nonstationary panels: harmonic mean plus improper Gaussian spectral noise.

A panel row is x(t) = B(t) @ (m + s(t)) where m is a fixed conjugate-symmetric
coefficient vector (time-domain harmonics) and s(t) is zero-mean complex
Gaussian noise with a full augmented covariance (covariance + pseudo-covariance,
including cross-bin blocks).  Nonzero pseudo-covariance makes the time-domain
variance oscillate (cyclostationarity); cross-bin blocks correlate the bins.

Noise is drawn independently across t.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import AugmentedVector, FrequencyGrid, _check_spectrum, _phases, _to_managed
from .errors import FactorizationError, ValidationError, _count, _store

__all__ = [
    "SynthSpec",
    "synthesize_values",
    "synthesize_panel",
    "example1_scenario",
    "seasonal_market_spec",
]

logger = logging.getLogger(__name__)

_EIG_CLIP = 1e-10


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Generative description of a synthetic panel.

    Both ``spectral_mean`` and ``spectral_cov`` must be finite
    (ValidationError naming the field otherwise, checked first).
    ``spectral_mean`` must be conjugate-symmetric (SymmetryViolationError
    otherwise) and ``spectral_cov`` must satisfy the augmented covariance
    invariants: the blocks [[R, P], [conj(P), conj(R)]] with R Hermitian and
    P symmetric, each relation to 1e-8 max(1, max |entry|), and PSD up to the
    documented clipping tolerance.
    Fixed seed implies a bit-identical panel.
    """

    grid: FrequencyGrid
    n_assets: int
    spectral_mean: AugmentedVector
    spectral_cov: np.ndarray
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        n_assets, horizon = _count("n_assets", self.n_assets), _count("horizon", self.horizon)
        half = self.grid.n_bins * n_assets
        cov = np.asarray(self.spectral_cov, dtype=np.complex128)
        for name, value in (("spectral_mean", self.spectral_mean.full()), ("spectral_cov", cov)):
            if not np.isfinite(value).all():
                raise ValidationError(f"{name} has non-finite entries")
        _check_spectrum(half, self.spectral_mean)
        if cov.shape != (2 * half, 2 * half):
            raise ValidationError(f"spectral_cov must be {2 * half} x {2 * half}")
        r_block, p_block = cov[:half, :half], cov[:half, half:]
        gaps = (
            r_block - r_block.conj().T,
            p_block - p_block.T,
            cov[half:, half:] - r_block.conj(),
            cov[half:, :half] - p_block.conj(),
        )
        scale = max(1.0, float(np.max(np.abs(cov))))
        if max(float(np.max(np.abs(gap))) for gap in gaps) > 1e-8 * scale:
            raise ValidationError("spectral_cov violates the augmented block structure")
        _store(self, n_assets=n_assets, horizon=horizon, spectral_cov=cov)

    @property
    def half_size(self) -> int:
        return self.grid.n_bins * self.n_assets


def _composite_factor(spec: SynthSpec) -> np.ndarray:
    """Factor F of the real-composite covariance: cov([Re s; Im s]) = F F^T.

    [Re s; Im s] is the managed-asset vector U^H [s; conj(s)] scaled by
    1/sqrt(2), so its covariance is half the managed-asset covariance of the
    augmented ``spectral_cov``; it is factored by eigendecomposition.
    Eigenvalues in [-1e-10, 0) are clipped to zero with a WARNING on this
    module's logger (``extra`` key ``clip_eigenvalue``); anything more
    negative raises.
    """
    composite = 0.5 * _to_managed(spec.spectral_cov)
    eigvals, eigvecs = np.linalg.eigh(composite)
    worst = float(eigvals.min()) if eigvals.size else 0.0
    if worst < -_EIG_CLIP:
        raise FactorizationError(
            f"spectral covariance is not positive semi-definite: composite "
            f"eigenvalue {worst:.6e} < -{_EIG_CLIP:g}"
        )
    if worst < 0.0:
        logger.warning(
            "clipping near-zero negative eigenvalue %.3e to 0 during noise factorization",
            worst,
            extra={"clip_eigenvalue": worst},
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _composite_noise(spec: SynthSpec, n_samples: int) -> np.ndarray:
    """The real composite noise draws [Re s(t); Im s(t)] for t = 0..n_samples-1, shape (T, 2*M*N).

    One sequential RNG stream seeded by ``spec.seed`` defines determinism;
    each row has the prescribed covariance/pseudo-covariance and rows are
    independent.
    """
    factor = _composite_factor(spec)
    rng = np.random.default_rng(spec.seed)
    return rng.standard_normal((n_samples, 2 * spec.half_size)) @ factor.T


def synthesize_values(spec: SynthSpec) -> np.ndarray:
    """Real (horizon, n_assets) panel values for the generative description.

    Row t is x(t) = B(t) (m + s(t)), computed in managed coordinates (see
    :mod:`specport.basis`) as the one real product phi(t) (theta_m + theta_s(t))
    with theta_m = sqrt 2 [Re m; Im m] and theta_s(t) = sqrt 2 [Re s(t); Im s(t)]
    from the composite noise draw.
    """
    theta = _to_managed(spec.spectral_mean) + math.sqrt(2) * _composite_noise(spec, spec.horizon)
    theta = theta.reshape(spec.horizon, 2 * spec.grid.n_bins, spec.n_assets)
    return np.einsum("tk,tkn->tn", _phases(np.arange(spec.horizon), spec.grid), theta)


def synthesize_panel(spec: SynthSpec, periods_per_year: int = 12, asset_names=None):
    """Synthesize a ReturnsPanel (integer timestamps 0..T-1)."""
    from .backtest import ReturnsPanel

    values = synthesize_values(spec)
    if asset_names is None:
        asset_names = tuple(f"A{i + 1}" for i in range(spec.n_assets))
    return ReturnsPanel(
        timestamps=tuple(range(spec.horizon)),
        returns=values,
        periods_per_year=periods_per_year,
        asset_names=tuple(asset_names),
    )


def example1_scenario(seed: int = 11, horizon: int = 12000) -> SynthSpec:
    """Canned identifiability scenario: two harmonics buried in strong structured noise.

    Univariate, grid periods (24, 12, 8, 5, 4).  Harmonic means sit at periods
    24 and 8.  The cyclostationary mechanism is a shared real Gaussian envelope
    driving the period-12 and period-4 bins (frequencies w and 3w), which
    concentrates the variance cycle enough for the period-12 bin to show a
    pseudo/covariance ratio well above one half; the remaining noise budget is
    proper (circular) and spread over all bins.  Total noise power is 100x the
    harmonic power, which buries the harmonics in the absolute-moment spectrum
    while they stand out cleanly in the estimated spectral mean.
    """
    grid = FrequencyGrid.from_periods((24, 12, 8, 5, 4))
    n_bins = grid.n_bins
    amp = 0.01  # return-scale harmonics keep synthesized panels inside (-1, inf)

    mean_upper = np.zeros(n_bins, dtype=np.complex128)
    mean_upper[0] = amp * np.exp(0.9j)  # period 24
    mean_upper[2] = amp * np.exp(-0.7j)  # period 8
    harmonic_power = 2.0 * amp**2  # coefficient-scale budget; time power is this / M

    # 80% of the noise budget in the improper envelope pair, 20% proper.
    improper_total = 0.8 * 100.0 * harmonic_power
    proper_total = 0.2 * 100.0 * harmonic_power
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    weight = golden**2  # beta^2 / alpha^2 maximizing the measured cycle ratio
    alpha = math.sqrt(improper_total / (1.0 + weight))
    beta = math.sqrt(improper_total * weight / (1.0 + weight))

    envelope = np.zeros(n_bins, dtype=np.complex128)
    envelope[1] = alpha  # period 12
    envelope[4] = beta  # period 4 (= one third of period 12)
    env_full = np.concatenate([envelope, np.conj(envelope)])
    cov = np.outer(env_full, np.conj(env_full))
    cov += np.eye(2 * n_bins) * (proper_total / n_bins)

    return SynthSpec(
        grid=grid,
        n_assets=1,
        spectral_mean=AugmentedVector.from_upper(mean_upper),
        spectral_cov=cov,
        horizon=horizon,
        seed=seed,
    )


def seasonal_market_spec(
    n_assets: int = 5,
    periods: Sequence[int] = (12, 6),
    seed: int = 0,
    mean_amp: float = 0.015,
    noise_vol: float = 0.02,
    horizon: int = 120,
) -> SynthSpec:
    """A synthetic market with seasonal expected returns and white noise.

    Each asset gets random per-bin seasonal amplitudes (around ``mean_amp``
    peak-to-center in return units) and phases; the noise is proper, white
    across bins and assets, sized so per-asset return volatility is
    ``noise_vol`` per sample.  The grand mean of every asset is zero, so
    time-averaging estimators see no return signal while the seasonal
    structure is fully predictable.  ``mean_amp`` and ``noise_vol`` must be
    finite and >= 0 (ValidationError naming the parameter otherwise).
    """
    for name, value in (("mean_amp", mean_amp), ("noise_vol", noise_vol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    grid = FrequencyGrid.from_periods(periods)
    n_bins = grid.n_bins
    rng = np.random.default_rng(seed)
    coeff_scale = mean_amp * math.sqrt(2 * n_bins) / 2.0
    amplitudes = coeff_scale * rng.uniform(0.6, 1.4, size=n_bins * n_assets)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_bins * n_assets)
    mean_upper = amplitudes * np.exp(1j * phases)

    half = n_bins * n_assets
    cov = np.eye(2 * half, dtype=np.complex128) * noise_vol**2

    return SynthSpec(
        grid=grid,
        n_assets=n_assets,
        spectral_mean=AugmentedVector.from_upper(mean_upper),
        spectral_cov=cov,
        horizon=horizon,
        seed=seed + 1,
    )
