"""Shared test helpers: structured random instances, the numerical optimizer oracle and population scoring."""

import math

import numpy as np

from specport import FrequencyGrid, SpectralMoments, SynthSpec, ValidationError, estimate_moments
from specport.basis import _phases, _to_managed

CANDIDATE_PERIODS = (24, 18, 16, 12, 10, 9, 8, 7, 6, 5, 4, 3)


def random_grid(rng, max_bins=4, candidates=CANDIDATE_PERIODS) -> FrequencyGrid:
    n_bins = int(rng.integers(1, max_bins + 1))
    periods = rng.choice(candidates, size=n_bins, replace=False)
    return FrequencyGrid.from_periods(sorted(int(p) for p in periods))


def swap_lines(text: str, prefix: str) -> str:
    """``text`` with its first line that starts with ``prefix`` and the line after it swapped."""
    lines = text.splitlines(keepends=True)
    first = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    return "".join(lines)


def check_invariants(moments: SpectralMoments, tol: float = 1e-10) -> None:
    """Raise ValidationError if the managed K has an eigenvalue below -tol * max(1, max |K|).

    No other invariant of the moments can fail.  The constructor makes K
    exactly symmetric, so U K U^H has the augmented block structure with R
    Hermitian and P symmetric exactly, and the mean U mu is
    conjugate-symmetric by construction.  U is unitary, so U K U^H has K's
    eigenvalues: a positive semi-definite K makes the R grid and every
    per-bin [[R, P], [conj(P), conj(R)]] positive semi-definite, which gives
    ||P(w_m)||_2 <= ||R(w_m)||_2.
    """
    cov = moments.managed_covariance
    scale = max(1.0, float(np.max(np.abs(cov))))
    smallest = float(np.linalg.eigvalsh(cov)[0])
    if smallest < -tol * scale:
        raise ValidationError(f"managed covariance has negative eigenvalue {smallest:.3e}")


def random_structured_moments(seed, grid=None, n_assets=None, mean_scale=1.0, n_samples=None):
    """A valid SpectralMoments instance: covariance estimated from a random panel
    (which guarantees every structural invariant), managed mean replaced by a
    random real vector of the requested scale."""
    rng = np.random.default_rng(seed)
    if grid is None:
        grid = random_grid(rng)
    if n_assets is None:
        n_assets = int(rng.integers(1, 4))
    if n_samples is None:
        n_samples = 20 * grid.least_common_period()
    panel = rng.standard_normal((n_samples, n_assets))
    estimated = estimate_moments(panel, grid)
    return SpectralMoments(
        grid=grid,
        n_assets=n_assets,
        managed_mean=mean_scale * rng.standard_normal(2 * grid.n_bins * n_assets),
        managed_covariance=estimated.managed_covariance,
        sample_count=estimated.sample_count,
    )


def pga_max_objective(mean_full, cov, sigma0, rng, restarts=10, iters=400):
    """Projected gradient ascent oracle for  max Re(m^H w)  s.t.  w^H C w = sigma0^2.

    Works in whitened coordinates y = C^{1/2} w (eigendecomposition of the
    Hermitian C), ascending the linear objective and renormalizing to the
    sphere after every step.  Independent of the production solver's Cholesky
    path.  Returns the best objective over the restarts.
    """
    cov = 0.5 * (cov + cov.conj().T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.conj().T
    b = inv_sqrt @ mean_full  # objective in y-space: Re(b^H y)
    best = -np.inf
    step = sigma0 / np.linalg.norm(b)
    for _ in range(restarts):
        y = rng.standard_normal(len(b)) + 1j * rng.standard_normal(len(b))
        y *= sigma0 / np.linalg.norm(y)
        for _ in range(iters):
            y = y + step * b
            y *= sigma0 / np.linalg.norm(y)
        best = max(best, float(np.real(np.vdot(b, y))))
    return best


def random_feasible_objectives(mean_full, cov, sigma0, rng, count=1000):
    """Objectives of random conjugate-symmetric points on the constraint surface."""
    half = len(mean_full) // 2
    out = np.empty(count)
    for i in range(count):
        u = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        v = np.concatenate([u, np.conj(u)])
        scale = sigma0 / np.sqrt(float(np.real(np.vdot(v, cov @ v))))
        out[i] = float(np.real(np.vdot(mean_full, v))) * scale
    return out


def population_sharpe(spec: SynthSpec, path, periods_per_year: int = 12) -> float:
    """The noise-free annualized Sharpe ratio of a periodic allocation path on the market ``spec``.

    ``path`` is (L, N): row r is w(t) at every t = r mod L, for the grid's
    least common period L.  With Phi(t) = phi(t) (x) I_N, theta_m =
    _to_managed(spectral_mean) and C = _to_managed(spectral_cov), a row of
    ``synthesize_values(spec)`` has E[x_t] = Phi(t) theta_m and
    Cov(x_t) = Phi(t) C Phi(t)^T, so the path earns w(t)^T E[x_t] in
    expectation with variance w(t)^T Cov(x_t) w(t).  The per-period ratio is
    the mean over one period of the first, over the square root of the mean
    of the second plus the variance over t of the first.
    """
    period = spec.grid.least_common_period()
    phases = _phases(np.arange(period), spec.grid)
    exposures = (phases[:, :, np.newaxis] * np.asarray(path)[:, np.newaxis, :]).reshape(period, -1)  # Phi(t)^T w(t)
    expected = exposures @ _to_managed(spec.spectral_mean)
    variances = np.einsum("ti,ij,tj->t", exposures, _to_managed(spec.spectral_cov), exposures)
    return float(expected.mean() / math.sqrt(variances.mean() + expected.var()) * math.sqrt(periods_per_year))
