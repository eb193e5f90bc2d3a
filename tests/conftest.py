"""Shared test helpers: structured random instances, the numerical optimizer oracle, population scoring
and the brute-force protocol oracles."""

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


def _population_moments(spec: SynthSpec, path) -> tuple[float, float]:
    """The noise-free per-period mean and volatility of a periodic allocation path on the market ``spec``.

    ``path`` is (L, N): row r is w(t) at every t = r mod L, for the grid's
    least common period L.  With Phi(t) = phi(t) (x) I_N, theta_m =
    _to_managed(spectral_mean) and C = _to_managed(spectral_cov), a row of
    ``synthesize_values(spec)`` has E[x_t] = Phi(t) theta_m and
    Cov(x_t) = Phi(t) C Phi(t)^T, so the path earns w(t)^T E[x_t] in
    expectation with variance w(t)^T Cov(x_t) w(t).  The mean is the first
    averaged over one period; the volatility is the square root of the mean
    of the second plus the variance over t of the first.
    """
    period = spec.grid.least_common_period()
    phases = _phases(np.arange(period), spec.grid)
    exposures = (phases[:, :, np.newaxis] * np.asarray(path)[:, np.newaxis, :]).reshape(period, -1)  # Phi(t)^T w(t)
    expected = exposures @ _to_managed(spec.spectral_mean)
    variances = np.einsum("ti,ij,tj->t", exposures, _to_managed(spec.spectral_cov), exposures)
    return float(expected.mean()), math.sqrt(variances.mean() + expected.var())


def population_sharpe(spec: SynthSpec, path, periods_per_year: int = 12) -> float:
    """The noise-free annualized Sharpe ratio of a periodic allocation path (see :func:`_population_moments`)."""
    mean, vol = _population_moments(spec, path)
    return mean / vol * math.sqrt(periods_per_year)


def population_vol(spec: SynthSpec, path) -> float:
    """The noise-free per-period volatility of a periodic allocation path (see :func:`_population_moments`)."""
    return _population_moments(spec, path)[1]


def reference_protocol(values, split, periods, sigma0_annual, demean=False, periods_per_year=12):
    """One spectral strategy of ``run_protocol`` by brute force: its out-of-sample path and Sharpe ratio.

    ``values`` is the (T, N) returns panel, estimated on its rows before
    ``split`` and held on the rest, row t at sample index t.  Nothing here
    comes from specport: the in-sample rows (less their mean, with
    ``demean``) lose their oldest to a whole number of least common periods
    L of ``periods``, each kept row t gives z(t) = phi(t) (x) x(t) for
    phi(t) = [cos(2 pi t / p) for p in periods] + [sin(2 pi t / p) for p in periods],
    K = np.cov(z, ddof=0) is ridged by 1e-8 tr K / 2MN, theta solves
    (K + ridge I) theta = mean(z) by np.linalg.solve and is scaled to the
    per-period target, and w(t) = phi(t) Theta for Theta = theta as 2M x N.
    The Sharpe ratio is annualized with the sample standard deviation.
    """
    values = np.asarray(values, dtype=np.float64)
    in_sample, out_sample = values[:split], values[split:]
    if demean:
        in_sample = in_sample - in_sample.mean(axis=0)
    start = split % math.lcm(*periods)  # the oldest samples, dropped

    def phi(t):
        angles = 2 * np.pi * np.outer(t, 1.0 / np.asarray(periods))
        return np.hstack([np.cos(angles), np.sin(angles)])

    z = (phi(np.arange(start, split))[:, :, np.newaxis] * in_sample[start:, np.newaxis, :]).reshape(split - start, -1)
    cov = np.cov(z, rowvar=False, ddof=0)
    regularized = cov + 1e-8 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    theta = np.linalg.solve(regularized, z.mean(axis=0))
    theta *= sigma0_annual / math.sqrt(periods_per_year) / math.sqrt(theta @ regularized @ theta)
    path = phi(np.arange(split, len(values))) @ theta.reshape(2 * len(periods), -1)
    series = np.sum(path * out_sample, axis=1)
    return path, series.mean() / series.std(ddof=1) * math.sqrt(periods_per_year)


def reference_baselines(values, split, sigma0_annual, periods_per_year=12):
    """The MVO and EW strategies of ``run_protocol`` by brute force: {slug: (series, cumulative, Sharpe ratio)}.

    ``values`` and ``split`` are as in :func:`reference_protocol`, and nothing
    here comes from specport either.  MVO solves (C + ridge I) w = mean by
    np.linalg.solve for the raw in-sample rows' mean and C = np.cov(ddof=1),
    ridged by 1e-8 tr C / N, and scales w to the per-period target; EW is
    1/N.  Each vector is held on every out-of-sample row, its returns
    compound into the cumulative return, and the Sharpe ratio is annualized
    with the sample standard deviation.
    """
    values = np.asarray(values, dtype=np.float64)
    in_sample, out_sample = values[:split], values[split:]
    n_assets = values.shape[1]
    cov = np.atleast_2d(np.cov(in_sample, rowvar=False, ddof=1))
    regularized = cov + 1e-8 * np.trace(cov) / n_assets * np.eye(n_assets)
    mvo = np.linalg.solve(regularized, in_sample.mean(axis=0))
    mvo *= sigma0_annual / math.sqrt(periods_per_year) / math.sqrt(mvo @ regularized @ mvo)
    results = {}
    for slug, weights in (("mvo", mvo), ("ew", np.full(n_assets, 1.0 / n_assets))):
        series = out_sample @ weights
        sharpe = series.mean() / series.std(ddof=1) * math.sqrt(periods_per_year)
        results[slug] = series, np.cumprod(1.0 + series) - 1.0, sharpe
    return results
