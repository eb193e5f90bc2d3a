"""Shared test helpers: structured random instances and the numerical optimizer oracle."""

import numpy as np

from specport import FrequencyGrid, SpectralMoments, ValidationError, estimate_moments

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
        mode=estimated.mode,
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
