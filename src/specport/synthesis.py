"""Synthetic nonstationary panels: a harmonic mean plus Gaussian noise, in managed coordinates.

A panel row is x(t) = phi(t) (theta_m + theta_s(t)), the 2MN weights taken as
2M x N, for the managed-asset phases phi(t) of :mod:`specport.basis`.  The
fixed real vector theta_m = sqrt 2 [Re m; Im m] holds the harmonics (cosine
weights, then sine weights), and theta_s(t) is zero-mean real Gaussian noise
of covariance K, drawn independently across t.  Through the unitary U of
:mod:`specport.basis` this is exactly the augmented model
x(t) = B(t) (m + s(t)) with spectral mean [m; conj(m)] = U theta_m and
augmented covariance U K U^H = [[R, P], [conj(P), conj(R)]]: every real
symmetric K maps to a valid augmented covariance, so no block structure needs
checking.  Improper noise (P != 0), cosine and sine columns of unequal or
correlated weights, makes the time-domain variance oscillate
(cyclostationarity); entries of K that couple two bins correlate them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import FrequencyGrid, _phases
from .errors import FactorizationError, ValidationError, _count, _finite_scalar, _store
from .moments import _managed_pair

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
    """Generative description of a synthetic panel, in managed coordinates.

    ``managed_mean`` is theta_m = sqrt 2 [Re m; Im m] (2MN), the harmonics of
    the augmented spectral mean m, and ``managed_covariance`` is
    K = U^H Sigma U (2MN x 2MN), the covariance of the noise weights
    theta_s(t); the map back to the augmented covariance
    Sigma = U K U^H = [[R, P], [conj(P), conj(R)]] is exact.  The constructor
    checks the pair as :class:`specport.SpectralMoments` does, with the same
    messages: a real, finite mean of 2MN entries, whose length gives the
    number of assets N (``n_assets``), and a real, finite, exactly symmetric
    K; ``horizon`` as an integer >= 1, and ``seed`` as an integer >= 0.  K
    must also be positive semi-definite up to the clipping tolerance, which
    is checked when the noise is factored (see :func:`_composite_factor`).
    Fixed seed implies a bit-identical panel.
    """

    grid: FrequencyGrid
    managed_mean: np.ndarray
    managed_covariance: np.ndarray
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        mean, cov = _managed_pair(self.grid, self.managed_mean, self.managed_covariance)
        horizon = _count("horizon", self.horizon)
        seed = _count("seed", self.seed, minimum=0)
        _store(self, managed_mean=mean, managed_covariance=cov, horizon=horizon, seed=seed)

    @property
    def n_assets(self) -> int:
        return self.managed_mean.size // (2 * self.grid.n_bins)


def _composite_factor(spec: SynthSpec) -> np.ndarray:
    """Factor F of the real-composite covariance: cov([Re s; Im s]) = F F^T.

    [Re s; Im s] is the noise weights theta_s = U^H [s; conj(s)] scaled by
    1/sqrt(2), so its covariance is half of ``managed_covariance``; it is
    factored by eigendecomposition.
    Eigenvalues in [-1e-10, 0) are clipped to zero with a WARNING on this
    module's logger (``extra`` key ``clip_eigenvalue``); anything more
    negative raises.
    """
    composite = 0.5 * spec.managed_covariance
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
    return rng.standard_normal((n_samples, spec.managed_mean.size)) @ factor.T


def synthesize_values(spec: SynthSpec) -> np.ndarray:
    """Real (horizon, n_assets) panel values for the generative description.

    Row t is the one real product phi(t) (theta_m + theta_s(t)) of the
    module docstring, with theta_m = ``managed_mean`` and the noise weights
    theta_s(t) = sqrt 2 [Re s(t); Im s(t)] from the composite noise draw.
    """
    theta = spec.managed_mean + math.sqrt(2) * _composite_noise(spec, spec.horizon)
    theta = theta.reshape(spec.horizon, 2 * spec.grid.n_bins, spec.n_assets)
    return np.einsum("tk,tkn->tn", _phases(np.arange(spec.horizon), spec.grid), theta)


def synthesize_panel(spec: SynthSpec, asset_names=None):
    """Synthesize a monthly ReturnsPanel (``periods_per_year`` 12, integer timestamps 0..T-1)."""
    from .backtest import ReturnsPanel

    values = synthesize_values(spec)
    if asset_names is None:
        asset_names = tuple(f"A{i + 1}" for i in range(spec.n_assets))
    return ReturnsPanel(
        timestamps=tuple(range(spec.horizon)),
        returns=values,
        periods_per_year=12,
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

    envelope = np.zeros(n_bins)
    envelope[1] = alpha  # period 12
    envelope[4] = beta  # period 4 (= one third of period 12)
    # The envelope drives the cosine columns only: with the augmented blocks
    # R = e e^T + c I and P = e e^T, K = [[R + P, 0], [0, R - P]].  R - P is not
    # written as c I: K has the eigenvalue c eight times over, and a one-ulp
    # change in its entries rotates eigh's eigenvectors, so another panel.
    r_block = np.outer(envelope, envelope) + np.eye(n_bins) * (proper_total / n_bins)
    p_block = np.outer(envelope, envelope)
    cov = np.zeros((2 * n_bins, 2 * n_bins))
    cov[:n_bins, :n_bins] = r_block + p_block
    cov[n_bins:, n_bins:] = r_block - p_block

    return SynthSpec(
        grid=grid,
        managed_mean=math.sqrt(2) * np.concatenate([mean_upper.real, mean_upper.imag]),
        managed_covariance=cov,
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
    real numbers (not a bool, string or complex), finite and >= 0, the noise
    variance ``noise_vol**2`` finite, and so must every managed-mean entry the
    draw can give, up to 1.4 sqrt(M) ``mean_amp`` on M bins; ``n_assets``
    must be an integer >= 1 and ``seed`` one >= 0.
    Each is checked before the first draw (ValidationError naming the
    parameter otherwise).
    """
    # as Python floats, an overflow below is inf or an OverflowError, never a numpy warning
    mean_amp, noise_vol = _finite_scalar("mean_amp", mean_amp), _finite_scalar("noise_vol", noise_vol)
    try:
        variance = noise_vol**2
    except OverflowError:
        raise ValidationError(f"noise_vol {noise_vol!r} is too large: its square overflows float64") from None
    n_assets = _count("n_assets", n_assets)
    seed = _count("seed", seed, minimum=0)
    grid = FrequencyGrid.from_periods(periods)
    n_bins = grid.n_bins
    coeff_scale = mean_amp * math.sqrt(2 * n_bins) / 2.0
    if not math.isfinite(math.sqrt(2) * (1.4 * coeff_scale)):  # the largest managed-mean entry the draw can give
        raise ValidationError(f"mean_amp {mean_amp!r} is too large: the managed mean it scales can overflow float64")
    rng = np.random.default_rng(seed)
    amplitudes = coeff_scale * rng.uniform(0.6, 1.4, size=n_bins * n_assets)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_bins * n_assets)
    mean_upper = amplitudes * np.exp(1j * phases)

    return SynthSpec(
        grid=grid,
        managed_mean=math.sqrt(2) * np.concatenate([mean_upper.real, mean_upper.imag]),
        managed_covariance=np.eye(2 * n_bins * n_assets) * variance,
        horizon=horizon,
        seed=seed + 1,
    )
