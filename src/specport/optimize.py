"""Closed-form variance-targeted mean-variance solvers and allocation retrieval.

The frequency-domain problem maximizes the mean portfolio return subject to a
hard variance target sigma0^2:

    maximize   w^H m    subject to   w^H R w = sigma0^2

whose stationary conditions give the multiplier
lambda = sqrt(m^H R^{-1} m) / (2 sigma0) and the optimal coefficients
w = sigma0 R^{-1} m / sqrt(m^H R^{-1} m).  It is solved as the equivalent real
problem on 2MN managed assets, whose weights theta are stored, and the
time-varying allocation is the real, periodic product w(t) = Phi(t) theta with
the estimator's phases (see :func:`retrieve_allocation`).

The classical (time-domain) baseline is solved in the same variance-targeted
form — rather than with a free risk-aversion penalty — so that backtest
comparisons isolate the change of statistics, not the constraint style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import AugmentedVector, FrequencyGrid, _phases, _to_augmented
from .errors import DegenerateMeanError, SingularCovarianceError, ValidationError
from .moments import (
    SpectralMoments,
    _artifact_errors,
    _check_mode,
    _frozen_real,
    _read_records,
    _write_records,
)

__all__ = [
    "RiskSpec",
    "SpectralWeights",
    "StaticWeights",
    "solve_spectral_mvo",
    "solve_classical_mvo",
    "equal_weight",
    "retrieve_allocation",
    "write_weights_csv",
    "read_weights_csv",
]

_MEAN_EPS = 1e-14
# Columns per block of the Cholesky factor in `_factor_solve`: wide enough
# that the block-column updates are GEMMs, narrow enough that each diagonal
# block's own Cholesky factor and inverse stay cheap and the column buffer
# (2MN x 128) stays small next to the matrix.
_BLOCK = 128


@dataclass(frozen=True)
class RiskSpec:
    """Risk target: portfolio standard deviation per sample period, plus ridge.

    ``ridge`` is added to the covariance diagonal before inversion; None picks
    the scale-invariant default 1e-8 * trace / dim, 0.0 disables regularization
    entirely.
    """

    sigma0: float
    ridge: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ValidationError(f"sigma0 must be positive and finite, got {self.sigma0!r}")
        if self.ridge is not None and not (math.isfinite(self.ridge) and self.ridge >= 0.0):
            raise ValidationError(f"ridge must be finite and >= 0, got {self.ridge!r}")

    def ridge_for(self, covariance: np.ndarray) -> float:
        if self.ridge is not None:
            return self.ridge
        dim = covariance.shape[0]
        return 1e-8 * float(np.trace(covariance).real) / dim


@dataclass(frozen=True)
class SpectralWeights:
    """Optimal frequency-domain portfolio coefficients.

    Stored as the real managed-asset weights theta (``managed_weights``, 2MN,
    read-only, finite); ``weights`` is the augmented complex view U theta,
    built on first access.  ``lagrange_multiplier`` is the realized
    multiplier; ``ridge_used`` the diagonal regularization actually applied,
    so the constraint theta^T (K + ridge I) theta = sigma0^2 can be
    re-checked.  ``sigma0`` and ``ridge_used`` obey :class:`RiskSpec`'s rules.
    """

    grid: FrequencyGrid
    n_assets: int
    managed_weights: np.ndarray
    lagrange_multiplier: float
    sigma0: float
    ridge_used: float
    mode: str = "paper-literal"

    def __post_init__(self) -> None:
        if self.n_assets < 1:
            raise ValidationError(f"n_assets must be >= 1, got {self.n_assets!r}")
        RiskSpec(sigma0=self.sigma0, ridge=self.ridge_used)
        _check_mode(self.mode)
        theta = _frozen_real("managed weights", self.managed_weights, (2 * self.grid.n_bins * self.n_assets,))
        object.__setattr__(self, "managed_weights", theta)

    @cached_property
    def weights(self) -> AugmentedVector:
        """The augmented spectral weights U theta, conjugate-symmetric by construction."""
        return _to_augmented(self.managed_weights)


@dataclass(frozen=True)
class StaticWeights:
    """A constant time-domain allocation (classical baseline or equal weight)."""

    weights: np.ndarray
    scheme: str

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValidationError("static weights must be a vector")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("static weights must be finite")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


def _factor_solve(matrix: np.ndarray, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (matrix + ridge I) z = rhs by a blocked left-looking Cholesky factorization.

    Block column j of the factor is formed in one buffer as
    ``matrix[j:, j] - L[j:, :j] L[j, :j]^T``; the ridge goes on its diagonal
    block, which ``np.linalg.cholesky`` factors as L_jj (a failure there is
    the positive-definiteness check), and the panel below is that column times
    inv(L_jj)^T.  ``lower`` keeps inv(L_jj) on its diagonal blocks, so the
    forward substitution L y = rhs runs inside the factor loop and the
    backward one L^T z = y, overwriting y from the last block up, is
    matrix-vector products.  ``matrix`` is only read.  Raises
    np.linalg.LinAlgError when the regularized matrix is not positive definite.
    """
    dim = rhs.shape[0]
    lower = np.empty_like(matrix)
    column = np.empty(dim * min(_BLOCK, dim))
    y = np.empty_like(rhs)
    starts = range(0, dim, _BLOCK)
    for start in starts:
        stop = min(start + _BLOCK, dim)
        width = stop - start
        panel = column[: (dim - start) * width].reshape(dim - start, width)
        np.matmul(lower[start:, :start], lower[start:stop, :start].T, out=panel)
        np.subtract(matrix[start:, start:stop], panel, out=panel)
        panel[:width].flat[:: width + 1] += ridge
        inverse = np.linalg.inv(np.linalg.cholesky(panel[:width]))
        lower[start:stop, start:stop] = inverse
        np.matmul(panel[width:], inverse.T, out=lower[stop:, start:stop])
        y[start:stop] = inverse @ (rhs[start:stop] - lower[start:stop, :start] @ y[:start])
    for start in reversed(starts):
        stop = min(start + _BLOCK, dim)
        inverse = lower[start:stop, start:stop]
        y[start:stop] = inverse.T @ (y[start:stop] - lower[stop:, start:stop].T @ y[stop:])
    return y


def _targeted_solve(matrix: np.ndarray, mean: np.ndarray, risk: RiskSpec):
    """Shared real core: z = (matrix + ridge I)^{-1} mean, scaled to the target.

    One blocked left-looking Cholesky factorization L L^T of the regularized
    matrix both checks that it is positive definite and solves (see
    :func:`_factor_solve`): the ridge is added to each diagonal block as that
    block is factored, so ``matrix`` is neither copied nor written, and the
    inverses of the diagonal blocks of L, kept from the factorization, serve
    the forward and the backward substitution.  Returns (weights, multiplier,
    ridge_used).
    """
    if float(np.linalg.norm(mean)) <= _MEAN_EPS:
        raise DegenerateMeanError(
            "mean is numerically zero: no return direction; the variance-targeted "
            "problem is unbounded below in the multiplier"
        )
    ridge = risk.ridge_for(matrix)
    try:
        z = _factor_solve(matrix, ridge, mean)
    except np.linalg.LinAlgError as exc:
        hint = "covariance is singular or indefinite"
        if ridge == 0.0:
            hint += "; retry with a positive ridge (RiskSpec.ridge)"
        raise SingularCovarianceError(hint) from exc
    quad = float(mean @ z)
    if quad <= 0.0:
        raise SingularCovarianceError(
            f"m^H R^{{-1}} m = {quad:.3e} is not positive; covariance is not "
            "positive definite at this ridge"
        )
    multiplier = math.sqrt(quad) / (2.0 * risk.sigma0)
    weights = risk.sigma0 * z / math.sqrt(quad)
    return weights, multiplier, ridge


def solve_spectral_mvo(moments: SpectralMoments, risk: RiskSpec) -> SpectralWeights:
    """Closed-form solution of the variance-targeted frequency-domain problem.

    The augmented problem is solved as the equivalent real one on 2MN managed
    assets: the stored real pair (mu, K) = (U^H m, U^H Sigma U) of the moments
    (see :mod:`specport.moments`) goes straight to the classical
    variance-targeted solver, and its real weights theta are stored; the
    augmented w = U theta is their view.  Multiplier, ridge and the constraint
    value are the same in both coordinates.

    Parameters
    ----------
    moments : SpectralMoments
        Estimated managed mean and covariance (any estimator mode; the
        solution direction is scale-invariant, the magnitude pairs with the
        mode's covariance scale).
    risk : RiskSpec

    Returns
    -------
    SpectralWeights
        Satisfying theta^T (K + ridge I) theta = w^H (Sigma + ridge I) w = sigma0^2
        to numerical precision.

    Raises
    ------
    SingularCovarianceError
        If the sample count does not exceed 2MN (the sample covariance is then
        singular) and ``risk.ridge`` is not set to a positive value.
    """
    dim = 2 * moments.half_size
    if moments.sample_count <= dim and (risk.ridge is None or risk.ridge == 0.0):
        raise SingularCovarianceError(
            f"T = {moments.sample_count} samples do not exceed 2MN = {dim}: the sample "
            "covariance is singular and the solution would be arbitrarily levered; "
            "use a longer window, fewer bins or assets, or set a positive RiskSpec.ridge"
        )
    theta, multiplier, ridge = _targeted_solve(moments.managed_covariance, moments.managed_mean, risk)
    return SpectralWeights(
        grid=moments.grid,
        n_assets=moments.n_assets,
        managed_weights=theta,
        lagrange_multiplier=multiplier,
        sigma0=risk.sigma0,
        ridge_used=ridge,
        mode=moments.mode,
    )


def solve_classical_mvo(mean, cov, risk: RiskSpec) -> StaticWeights:
    """Variance-targeted time-domain baseline on sample mean/covariance."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ValidationError("mean must be a vector and cov a matching square matrix")
    for name, value in (("mean", mean), ("cov", cov)):
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite")
    cov = 0.5 * (cov + cov.T)
    weights, _, _ = _targeted_solve(cov, mean, risk)
    return StaticWeights(weights=weights, scheme="classical-mvo")


def equal_weight(n_assets: int) -> StaticWeights:
    """The 1/N allocation."""
    if n_assets < 1:
        raise ValidationError("n_assets must be >= 1")
    return StaticWeights(weights=np.full(n_assets, 1.0 / n_assets), scheme="equal-weight")


def retrieve_allocation(weights: SpectralWeights, t_range) -> np.ndarray:
    """Time-domain allocation path w(t) = Phi(t) theta over the given indices.

    Phi(t) are the estimator's phases in the weights' mode (see
    :func:`specport.basis._phases`) and theta the managed weights as a
    2M x N matrix; in "paper-literal" mode this equals the augmented synthesis
    B(t) @ [v; conj(v)], and in "consistent" mode 2M times it, the scale at
    which the moments were estimated.  Returns a real (len(t_range),
    n_assets) array, periodic with the grid's least common period.
    """
    t = np.asarray(list(t_range) if not isinstance(t_range, np.ndarray) else t_range)
    if t.ndim != 1:
        raise ValidationError("t_range must be one-dimensional")
    theta = weights.managed_weights.reshape(2 * weights.grid.n_bins, weights.n_assets)
    return _phases(t, weights.grid, weights.mode) @ theta


def predicted_variance(weights: SpectralWeights, moments: SpectralMoments) -> float:
    """theta^T K theta = w^H Sigma w under the given moments (without ridge)."""
    theta = weights.managed_weights
    return float(theta @ moments.managed_covariance @ theta)


# --- serialization (same flat-CSV conventions as the moments) ------------------

_FORMAT_TAG = "specport-weights-v3"


def write_weights_csv(weights: SpectralWeights, path) -> None:
    """Flat CSV: meta rows, ``weight,index,,value,`` rows for theta, the ``end`` row."""
    meta = [
        ("lagrange_multiplier", repr(float(weights.lagrange_multiplier))),
        ("sigma0", repr(float(weights.sigma0))),
        ("ridge_used", repr(float(weights.ridge_used))),
        ("mode", weights.mode),
    ]
    records = [("weight", weights.managed_weights)]
    _write_records(path, _FORMAT_TAG, weights.grid, weights.n_assets, meta, records)


def read_weights_csv(path) -> SpectralWeights:
    """Inverse of :func:`write_weights_csv`, bit-exact.

    Raises ValidationError naming the file for a foreign, truncated or
    otherwise malformed file, and for values the :class:`SpectralWeights`
    constructor rejects.
    """
    with _artifact_errors(path):
        meta, grid, n_assets, (theta,) = _read_records(path, _FORMAT_TAG, (("weight", False),))
        return SpectralWeights(
            grid=grid,
            n_assets=n_assets,
            managed_weights=theta,
            lagrange_multiplier=float(meta["lagrange_multiplier"]),
            sigma0=float(meta["sigma0"]),
            ridge_used=float(meta["ridge_used"]),
            mode=meta["mode"],
        )
