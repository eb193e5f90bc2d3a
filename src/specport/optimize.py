"""Closed-form variance-targeted mean-variance solvers and allocation retrieval.

The frequency-domain problem maximizes the mean portfolio return subject to a
hard variance target sigma0^2:

    maximize   w^H m    subject to   w^H R w = sigma0^2

whose stationary conditions give the multiplier
lambda = sqrt(m^H R^{-1} m) / (2 sigma0) and the optimal coefficients
w = sigma0 R^{-1} m / sqrt(m^H R^{-1} m).  It is solved as the equivalent real
problem on 2MN managed assets, whose weights theta are stored, and the
time-varying allocation is the real product w(t) = Phi(t) theta with the
basis phases, periodic bit for bit with the grid's least common period L (see
:func:`retrieve_allocation`).

The classical (time-domain) baseline is solved in the same variance-targeted
form — rather than with a free risk-aversion penalty — so that backtest
comparisons isolate the change of statistics, not the constraint style.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import AugmentedVector, FrequencyGrid, _phases, _to_augmented
from .errors import DegenerateMeanError, SingularCovarianceError, ValidationError
from .errors import _count, _finite_real, _finite_scalar, _indices, _real_array, _store
from .moments import SpectralMoments, _managed_vector

__all__ = [
    "RiskSpec",
    "SpectralWeights",
    "solve_spectral_mvo",
    "solve_classical_mvo",
    "equal_weight",
    "retrieve_allocation",
]

_MEAN_EPS = 1e-14
# Columns per block of the Cholesky factor in `_factor_solve`: wide enough
# that the block-row updates are efficient GEMMs, narrow enough that each
# diagonal block's own Cholesky factor and inverse stay cheap and the row
# buffer (width x 2MN) stays small next to the matrix.  One width serves
# every 2MN.  From an interleaved sweep on a 2-core x86 VM (OpenBLAS, 2
# threads), as a share of the time of 32-column blocks: at 2MN = 1600, 96
# columns took 0.83, 64 0.94 and 128 0.89; at 2MN = 800, 96 took 0.95; at
# 2MN = 100 to 300, where a solve takes 0.2-1.1 ms, 96 took 1.06-1.17.
_BLOCK = 96
# Columns up to which `_lower_inverse` calls `np.linalg.inv` (a pivoted LU)
# rather than splitting the triangle in two.
_INVERSE_BASE = 32
# Largest rho = 2MN / T that `solve_spectral_mvo` solves without an explicit
# positive ridge.  The sample covariance is singular at rho >= 1, and just
# below 1 it is so ill-conditioned that the default ridge does not tame it:
# at rho = 0.96 the 50-asset panel of `seasonal_market_spec(50, (12, 6, 3))`
# realizes 36x its volatility target out of sample.  The acceptance checks
# solve at rho up to 0.75, so the limit sits between the two.
_MAX_RHO = 0.9
# Smallest explicit ridge, as a multiple c of tr K / 2MN, that
# `solve_spectral_mvo` accepts above `_MAX_RHO` without a warning.  On the
# rho = 0.962 panel of README's ridge table, c = 0.1 realizes 1.8x the
# volatility target out of sample and c = 1e-2 realizes 5.3x.
_MIN_RIDGE_C = 0.1

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RiskSpec:
    """Risk target: portfolio standard deviation per sample period, plus ridge.

    ``ridge`` is added to the covariance diagonal before inversion; None picks
    the scale-invariant default 1e-8 * trace / dim, 0.0 disables regularization
    entirely.  Each must be a real number (a bool or a string is a ValidationError).
    """

    sigma0: float
    ridge: float | None = None

    def __post_init__(self) -> None:
        _finite_scalar("sigma0", self.sigma0, positive=True)
        if self.ridge is not None:
            _finite_scalar("ridge", self.ridge)

    def ridge_for(self, covariance: np.ndarray) -> float:
        if self.ridge is not None:
            return self.ridge
        dim = covariance.shape[0]
        return 1e-8 * float(np.trace(covariance).real) / dim


@dataclass(frozen=True, eq=False)
class SpectralWeights:
    """Optimal frequency-domain portfolio coefficients.

    Stored as the real managed-asset weights theta (``managed_weights``, 2MN,
    read-only, finite); ``weights`` is the augmented complex view U theta,
    built on first access.  ``lagrange_multiplier`` is the realized
    multiplier, positive and finite; ``ridge_used`` the diagonal
    regularization actually applied, so the constraint
    theta^T (K + ridge I) theta = sigma0^2 can be re-checked: ``sigma0``
    must be positive and finite, ``ridge_used`` finite and >= 0, each a
    real number named as itself when refused.  The number of assets N,
    ``n_assets``, is read from the weights' length 2MN, checked as the
    managed mean of :class:`SpectralMoments` is.
    """

    grid: FrequencyGrid
    managed_weights: np.ndarray
    lagrange_multiplier: float
    sigma0: float
    ridge_used: float

    def __post_init__(self) -> None:
        _finite_scalar("lagrange_multiplier", self.lagrange_multiplier, positive=True)
        _finite_scalar("sigma0", self.sigma0, positive=True)
        _finite_scalar("ridge_used", self.ridge_used)
        _store(self, managed_weights=_managed_vector("managed weights", self.managed_weights, self.grid))

    @property
    def n_assets(self) -> int:
        return self.managed_weights.size // (2 * self.grid.n_bins)

    @cached_property
    def weights(self) -> AugmentedVector:
        """The augmented spectral weights U theta, conjugate-symmetric by construction."""
        return _to_augmented(self.managed_weights)


def _lower_inverse(lower: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the nonsingular lower-triangular ``lower`` into ``out``.

    By recursive 2 x 2 blocks (Higham 2002, ch. 14): the inverse of
    [[A, 0], [C, D]] is [[inv(A), 0], [-inv(D) C inv(A), inv(D)]], so a
    triangle wider than ``_INVERSE_BASE`` columns costs two half-width
    inverses and two matrix products, and only the base blocks run the
    pivoted LU of ``np.linalg.inv``.  The part of ``out`` above the diagonal
    blocks is zero.
    """
    size = lower.shape[0]
    if size <= _INVERSE_BASE:
        out[...] = np.linalg.inv(lower)
        return
    half = size // 2
    _lower_inverse(lower[:half, :half], out[:half, :half])
    _lower_inverse(lower[half:, half:], out[half:, half:])
    out[:half, half:] = 0.0
    np.matmul(-(out[half:, half:] @ lower[half:, :half]), out[:half, :half], out=out[half:, :half])


def _factor_solve(matrix: np.ndarray, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (matrix + ridge I) z = rhs by a blocked left-looking Cholesky factorization.

    The factor is held as U = L^T, one block row of ``_BLOCK``
    rows at a time, so that every read of ``matrix`` and every write of the
    factor runs along rows.  ``rhs`` rides along as one more column of
    ``matrix``, so the factor's last column is y = L^{-1} rhs: the forward
    substitution is done by the factor's own products.  Block row j is formed
    in one buffer as ``[matrix | rhs][j, j:] - U[:j, j]^T U[:j, j:]`` from the
    exactly symmetric ``matrix``'s upper triangle; the ridge goes on its
    diagonal block, which ``np.linalg.cholesky`` factors as L_jj (a failure
    there is the positive-definiteness check), and the row right of it is
    inv(L_jj) times that row, with inv(L_jj) from the triangular
    :func:`_lower_inverse`.  ``upper`` keeps inv(L_jj) on its diagonal blocks,
    so the backward substitution U z = y, overwriting y from the last block
    up, is matrix-vector products.  ``matrix`` is only read.  Raises
    np.linalg.LinAlgError when the regularized matrix is not positive
    definite.
    """
    dim = rhs.shape[0]
    upper = np.empty((dim, dim + 1))
    row = np.empty((dim + 1) * min(_BLOCK, dim))
    starts = range(0, dim, _BLOCK)
    for start in starts:
        stop = min(start + _BLOCK, dim)
        width = stop - start
        panel = row[: width * (dim + 1 - start)].reshape(width, dim + 1 - start)
        np.matmul(upper[:start, start:stop].T, upper[:start, start:], out=panel)
        np.subtract(matrix[start:stop, start:], panel[:, :-1], out=panel[:, :-1])
        np.subtract(rhs[start:stop], panel[:, -1], out=panel[:, -1])
        diagonal = panel[:, :width]
        diagonal.flat[:: width + 1] += ridge
        inverse = upper[start:stop, start:stop]
        _lower_inverse(np.linalg.cholesky(diagonal), inverse)
        np.matmul(inverse, panel[:, width:], out=upper[start:stop, stop:])
    y = upper[:, dim].copy()
    for start in reversed(starts):
        stop = min(start + _BLOCK, dim)
        inverse = upper[start:stop, start:stop]
        y[start:stop] = inverse.T @ (y[start:stop] - upper[start:stop, stop:dim] @ y[stop:])
    return y


def _targeted_solve(matrix: np.ndarray, mean: np.ndarray, risk: RiskSpec):
    """Shared real core: z = (matrix + ridge I)^{-1} mean, scaled to the target.

    One blocked left-looking Cholesky factorization L L^T of the regularized
    matrix both checks that it is positive definite and solves (see
    :func:`_factor_solve`): the ridge is added to each diagonal block as that
    block is factored, so ``matrix`` is neither copied nor written; the
    forward substitution is one more column of the factorization, and the
    inverses of the diagonal blocks of L, kept from it, serve the backward
    substitution.  Returns (weights, multiplier, ridge_used).
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
    assets: the stored real pair (mu, K) = (U^H m, U^H Sigma U) of the moments,
    always at the paper-literal scale (see :mod:`specport.moments`), goes
    straight to the classical variance-targeted solver, and its real weights
    theta are stored; the augmented w = U theta is their view.  Multiplier,
    ridge and the constraint value are the same in both coordinates.  T, 2MN,
    rho and the ridge used are logged at INFO on the ``specport.optimize``
    logger, with the ``extra`` keys ``solve_samples``, ``solve_dim``,
    ``solve_rho``, ``solve_ridge`` and ``solve_overshoot``: 1 / (1 - rho),
    the factor by which the realized volatility of a plug-in solve is
    predicted to exceed its target (El Karoui 2010), or None at rho >= 1,
    which only an explicit ridge reaches.  Above rho = 0.9 an explicit ridge
    below 0.1 tr K / 2MN is logged there as a WARNING, with the ``extra``
    keys ``solve_rho``, ``solve_ridge`` and ``solve_ridge_scale``
    (tr K / 2MN): it passes the check below but barely regularizes.

    Parameters
    ----------
    moments : SpectralMoments
    risk : RiskSpec

    Returns
    -------
    SpectralWeights
        Satisfying theta^T (K + ridge I) theta = w^H (Sigma + ridge I) w = sigma0^2
        to numerical precision.

    Raises
    ------
    SingularCovarianceError
        If rho = 2MN / T exceeds 0.9 (at rho >= 1 the sample covariance is
        singular, and just below it nearly so) and ``risk.ridge`` is not set
        to a positive value.  The message gives tr K / 2MN, the scale of a
        ridge that regularizes: any positive ridge passes this check, but
        one far below that scale leaves the solution nearly as levered.
    """
    dim = 2 * moments.half_size
    rho = dim / moments.sample_count
    if rho > _MAX_RHO:
        scale = float(np.trace(moments.managed_covariance)) / dim
        if not risk.ridge:
            raise SingularCovarianceError(
                f"T = {moments.sample_count} samples for 2MN = {dim} managed assets give "
                f"rho = 2MN / T = {rho:.3f}, above {_MAX_RHO}: the sample covariance is singular "
                "or nearly so and the solution would be wildly levered; use a longer window, "
                "fewer bins or assets, or set a positive RiskSpec.ridge (--ridge) on the scale of "
                f"tr K / 2MN = {scale:.3g}, since a ridge far below it barely regularizes"
            )
        if risk.ridge < _MIN_RIDGE_C * scale:
            logger.warning(
                "spectral solve: ridge %.3g is c = %.3g times tr K / 2MN = %.3g at rho = 2MN / T = %.3f, "
                "above %s: a ridge below c = %s barely regularizes and the solution stays levered",
                risk.ridge,
                risk.ridge / scale,
                scale,
                rho,
                _MAX_RHO,
                _MIN_RIDGE_C,
                extra={"solve_rho": rho, "solve_ridge": risk.ridge, "solve_ridge_scale": scale},
            )
    theta, multiplier, ridge = _targeted_solve(moments.managed_covariance, moments.managed_mean, risk)
    logger.info(
        "spectral solve: T = %d, 2MN = %d, rho = %.3f, ridge %.3g",
        moments.sample_count,
        dim,
        rho,
        ridge,
        extra={
            "solve_samples": moments.sample_count,
            "solve_dim": dim,
            "solve_rho": rho,
            "solve_ridge": ridge,
            "solve_overshoot": 1.0 / (1.0 - rho) if rho < 1.0 else None,
        },
    )
    return SpectralWeights(
        grid=moments.grid,
        managed_weights=theta,
        lagrange_multiplier=multiplier,
        sigma0=risk.sigma0,
        ridge_used=ridge,
    )


def solve_classical_mvo(mean, cov, risk: RiskSpec) -> np.ndarray:
    """Variance-targeted time-domain baseline on sample mean/covariance.

    Returns the read-only float64 weight vector, held every period.
    """
    mean = _real_array("mean", mean)
    mean = _finite_real("mean", mean, (mean.size,))
    cov = _finite_real("cov", cov, (mean.size, mean.size))
    cov = 0.5 * (cov + cov.T)
    weights, _, _ = _targeted_solve(cov, mean, risk)
    weights.flags.writeable = False
    return weights


def equal_weight(n_assets: int) -> np.ndarray:
    """The 1/N allocation as a read-only float64 weight vector, held every period."""
    n_assets = _count("n_assets", n_assets)
    weights = np.full(n_assets, 1.0 / n_assets)
    weights.flags.writeable = False
    return weights


def retrieve_allocation(weights: SpectralWeights, t_range) -> np.ndarray:
    """Time-domain allocation path w(t) = Phi(t) theta over the given indices.

    Phi(t) are the basis phases of :func:`specport.basis._phases` and theta
    the managed weights as a 2M x N matrix, so this equals the augmented
    synthesis B(t) @ [v; conj(v)] of the weights v = U theta.  ``t_range``
    holds integer sample indices in the int64 range; bools, floats and
    strings are a ValidationError.  Phi takes bin m's phase at t mod p_m, so
    the path is periodic bit for bit with the grid's least common period L
    and holds at most L distinct rows.  Returns a real (len(t_range),
    n_assets) array, (0, n_assets) for an empty ``t_range``.
    """
    t = _indices("t_range", t_range if isinstance(t_range, np.ndarray) else list(t_range))
    if t.ndim != 1:
        raise ValidationError("t_range must be one-dimensional")
    theta = weights.managed_weights.reshape(2 * weights.grid.n_bins, weights.n_assets)
    return _phases(t, weights.grid) @ theta

