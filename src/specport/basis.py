"""Augmented spectral basis: the mapping between time domain and frequency domain.

A signal sample x(t) in R^N is represented on a discrete grid of M angular
frequencies w_m = 2 pi / p_m, one per integer period p_m >= 2 in samples
(:class:`FrequencyGrid`), through the row-orthonormal matrix

    B(t) = [ C(t) | conj(C(t)) ],   C(t) = (1/sqrt(2M)) [e^{j w_1 t} I_N, ..., e^{j w_M t} I_N]

so that x(t) = B(t) @ [u; conj(u)] = 2 Re(C(t) @ u) for any complex
coefficient vector u of length M*N.  B(t) B(t)^H = I_N exactly, which makes
B(t)^H a right inverse and the per-sample least-squares projection trivial.

The same basis in real "managed-asset" coordinates: the unitary
U = (1/sqrt 2) [[I, jI], [I, -jI]] maps a real 2MN vector theta to the
augmented vector U theta = [v; conj(v)], v = (theta_a + j theta_b) / sqrt 2,
and

    B(t) U = phi(t) (x) I_N,
    phi(t) = (1/sqrt M) [cos(w_1 t), ..., cos(w_M t), -sin(w_1 t), ..., -sin(w_M t)].

So a synthesis is the real product x(t) = phi(t) theta.reshape(2M, N) with
theta = U^H [u; conj(u)] = sqrt 2 [Re u; Im u], and a projection is
B(t)^H x(t) = U z(t) with the managed panel row z(t) = phi(t) (x) x(t)
(Schreier and Scharf 2010).  :func:`_phases` evaluates phi(t) for many t, and
:func:`_to_augmented` and :func:`_to_managed` apply U and U^H; the
estimators, the solver's weights, allocation retrieval and the synthesis
kernels all go through them.  :func:`build_basis`,
:func:`synthesize_time_value` and :func:`project_spectrum` keep the literal
complex definition, the reference that the real kernels are tested against.

Integer periods give every grid a least common period L, with
B(t) = B(t mod L) exactly: :func:`commensurate_length` snaps an estimation
window to whole multiples of L, on which the bins are orthogonal under time
averaging, and the estimators and allocation retrieval use that the phases
repeat with period L.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolationError, ValidationError, _count

__all__ = [
    "FrequencyGrid",
    "AugmentedVector",
    "AugmentedSpectralBasis",
    "build_basis",
    "synthesize_time_value",
    "project_spectrum",
    "commensurate_length",
]

@dataclass(frozen=True)
class FrequencyGrid:
    """A grid of M bins, each a cycle of an integer period in samples.

    ``periods`` are distinct integers >= 2, stored as a tuple sorted longest
    first, so the angular frequencies ``omegas`` = 2*pi/period, in radians
    per sample, come out strictly increasing in (0, pi].  Integer periods
    give the grid a least common period L, the commensurate window that
    keeps the bins orthogonal under time averaging and that the moment
    estimators snap to.  The DC bin (period infinite) is excluded: it has no
    conjugate partner and would break the 2M column pairing; handle constant
    offsets by demeaning instead.  Period 2 (Nyquist, omega = pi) is allowed
    but its conjugate pair is phase-degenerate, so construction warns.
    """

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        given = tuple(self.periods)
        if not given:
            raise ValidationError("frequency grid must contain at least one bin")
        try:
            periods = [int(p) for p in given]
            integral = all(p == float(q) for p, q in zip(given, periods))
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            integral = False
        if not integral:
            raise ValidationError("periods must be integers (samples per cycle)")
        if len(set(periods)) != len(periods):
            raise ValidationError(f"duplicate periods in {periods}")
        if any(p < 2 for p in periods):
            raise ValidationError("periods must be >= 2 samples (period 1 would be super-Nyquist)")
        if 2 in periods:
            # name the first caller outside this module and the dataclass-generated __init__
            frame, level = sys._getframe(1), 2
            while frame is not None and (
                frame.f_code.co_filename == __file__ or frame.f_code is FrequencyGrid.__init__.__code__
            ):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                "grid contains the Nyquist frequency pi; its conjugate pair is "
                "phase-degenerate",
                stacklevel=level,
            )
        object.__setattr__(self, "periods", tuple(sorted(periods, reverse=True)))

    @classmethod
    def from_periods(cls, periods) -> "FrequencyGrid":
        """Build a grid from integer periods in samples (e.g. 12, 6, 3 for monthly data), in any order."""
        return cls(periods)

    @property
    def omegas(self) -> tuple[float, ...]:
        """The angular frequencies 2*pi/period, strictly increasing."""
        return tuple(2.0 * math.pi / p for p in self.periods)

    @property
    def n_bins(self) -> int:
        return len(self.periods)

    def least_common_period(self) -> int:
        """Smallest window over which every bin (and every beat) completes whole cycles.

        For integer periods p_m the LCM also covers all sum/difference beats
        2*pi/(w_m +- w_n), since (p_n +- p_m)/gcd(p_m, p_n) is an integer.
        """
        return math.lcm(*self.periods)


def commensurate_length(n_samples: int, grid: FrequencyGrid) -> tuple[int, int]:
    """Snap a window length down to a whole number of least common periods.

    Returns (snapped_length, discarded_count).  Raises if the window does not
    cover a single full least common period.
    """
    lcm = grid.least_common_period()
    snapped = (n_samples // lcm) * lcm
    if snapped == 0:
        raise ValidationError(
            f"window of {n_samples} samples is shorter than one least common "
            f"period ({lcm} samples) of the grid"
        )
    return snapped, n_samples - snapped


@dataclass(frozen=True)
class AugmentedVector:
    """A frequency-domain vector stacked with its conjugate half.

    ``upper`` holds the M*N coefficients (bin-major: bin 0 assets, bin 1
    assets, ...), ``lower`` the second half.  The vector is conjugate-symmetric
    iff lower == conj(upper), which is what makes the synthesized time-domain
    value real.
    """

    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self) -> None:
        upper = np.asarray(self.upper, dtype=np.complex128)
        lower = np.asarray(self.lower, dtype=np.complex128)
        if upper.ndim != 1 or lower.shape != upper.shape:
            raise ValidationError("upper and lower halves must be 1-d and equally long")
        upper.flags.writeable = False
        lower.flags.writeable = False
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)

    @classmethod
    def from_upper(cls, upper) -> "AugmentedVector":
        upper = np.asarray(upper, dtype=np.complex128)
        return cls(upper=upper, lower=np.conj(upper))

    @classmethod
    def zeros(cls, half_size: int) -> "AugmentedVector":
        return cls.from_upper(np.zeros(half_size, dtype=np.complex128))

    @property
    def half_size(self) -> int:
        return self.upper.shape[0]

    def full(self) -> np.ndarray:
        """The stacked 2*M*N vector [upper; lower]."""
        return np.concatenate([self.upper, self.lower])

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.upper), initial=0.0)))
        return bool(np.max(np.abs(self.lower - np.conj(self.upper)), initial=0.0) <= tol * scale)


@dataclass(frozen=True)
class AugmentedSpectralBasis:
    """The N x 2MN basis matrix at one sample index.

    ``values`` is partitioned as [C(t) | conj(C(t))] where the m-th block of
    C(t) is (1/sqrt(2M)) e^{j w_m t} I_N.  Rows are orthonormal:
    values @ values^H == I_N.
    """

    t: int
    grid: FrequencyGrid
    n_assets: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def half_columns(self) -> int:
        return self.grid.n_bins * self.n_assets


def build_basis(t: int, grid: FrequencyGrid, n_assets: int) -> AugmentedSpectralBasis:
    """Construct the augmented basis at sample index t.

    Parameters
    ----------
    t : int
        Sample index (may be negative; the basis is periodic).
    grid : FrequencyGrid
    n_assets : int
        N >= 1.

    Returns
    -------
    AugmentedSpectralBasis
        With entries exactly (1/sqrt(2M)) e^{+-j w_m t} on identity blocks.
    """
    n_assets = _count("n_assets", n_assets)
    m = grid.n_bins
    scale = 1.0 / math.sqrt(2 * m)
    phases = np.exp(1j * np.asarray(grid.omegas) * float(t)) * scale
    eye = np.eye(n_assets)
    upper = np.kron(phases[np.newaxis, :], eye).reshape(n_assets, m * n_assets)
    values = np.concatenate([upper, np.conj(upper)], axis=1)
    return AugmentedSpectralBasis(t=int(t), grid=grid, n_assets=n_assets, values=values)


def _phases(t, grid: FrequencyGrid) -> np.ndarray:
    """The managed-asset phases (1/sqrt M) [cos(w_m t), -sin(w_m t)], shape (T, 2M).

    Row t is the basis in managed coordinates: B(t) U = row (x) I_N.
    """
    angles = np.outer(np.asarray(t, dtype=np.float64), grid.omegas)
    phases = (1 / math.sqrt(grid.n_bins)) * np.stack([np.cos(angles), -np.sin(angles)], axis=1)
    return phases.reshape(angles.shape[0], 2 * grid.n_bins)


def _to_augmented(managed: np.ndarray) -> AugmentedVector | np.ndarray:
    """Map a managed-asset vector or covariance to the augmented complex form.

    With U = (1/sqrt 2) [[I, jI], [I, -jI]] (unitary), a real vector theta
    maps to the AugmentedVector U theta = [v; conj(v)], v = (theta_a + j theta_b) / sqrt 2,
    and a real symmetric K maps to the array U K U^H = [[R, P], [conj(P), conj(R)]] with
    R = (K_aa + K_bb + j (K_ba - K_ab)) / 2 and P = (K_aa - K_bb + j (K_ba + K_ab)) / 2.
    For an exactly symmetric K the result has the augmented block structure
    exactly (R Hermitian, P symmetric, conjugate blocks bit-equal).  Trace,
    eigenvalues and norms carry over unchanged.  Both results are read-only.
    """
    managed = np.asarray(managed, dtype=np.float64)
    half = managed.shape[0] // 2
    if managed.ndim == 1:
        return AugmentedVector.from_upper((managed[:half] + 1j * managed[half:]) / math.sqrt(2))
    k_aa, k_ab = managed[:half, :half], managed[:half, half:]
    k_ba, k_bb = managed[half:, :half], managed[half:, half:]
    out = np.empty(managed.shape, dtype=np.complex128)
    r_grid, p_grid = out[:half, :half], out[:half, half:]
    r_grid.real = 0.5 * (k_aa + k_bb)
    r_grid.imag = 0.5 * (k_ba - k_ab)
    p_grid.real = 0.5 * (k_aa - k_bb)
    p_grid.imag = 0.5 * (k_ba + k_ab)
    np.conjugate(r_grid, out=out[half:, half:])
    np.conjugate(p_grid, out=out[half:, :half])
    out.flags.writeable = False
    return out


def _to_managed(augmented: AugmentedVector | np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_augmented`: the real U^H [u; conj(u)] or U^H Sigma U.

    An AugmentedVector maps to theta = sqrt 2 [Re u; Im u] from its upper
    half.  A matrix is read only in its upper block row [R, P], which
    determines an augmented covariance completely.  The blocks
    [[Re(R + P), Im(P - R)], [Im(R + P), Re(R - P)]] are summed part by part
    straight into one real array, with the same roundings as the complex sums.
    """
    if isinstance(augmented, AugmentedVector):
        return math.sqrt(2) * np.concatenate([augmented.upper.real, augmented.upper.imag])
    augmented = np.asarray(augmented, dtype=np.complex128)
    half = augmented.shape[0] // 2
    r_grid, p_grid = augmented[:half, :half], augmented[:half, half:]
    out = np.empty(augmented.shape, dtype=np.float64)
    np.add(r_grid.real, p_grid.real, out=out[:half, :half])
    np.subtract(p_grid.imag, r_grid.imag, out=out[:half, half:])
    np.add(r_grid.imag, p_grid.imag, out=out[half:, :half])
    np.subtract(r_grid.real, p_grid.real, out=out[half:, half:])
    return out


def _check_spectrum(basis_half: int, spectrum: AugmentedVector) -> None:
    if spectrum.half_size != basis_half:
        raise ValidationError(
            f"spectrum half-size {spectrum.half_size} does not match basis ({basis_half})"
        )
    if not spectrum.is_conjugate_symmetric():
        raise SymmetryViolationError(
            "spectrum is not conjugate-symmetric (lower != conj(upper)); "
            "synthesis would not be real-valued"
        )


def synthesize_time_value(basis: AugmentedSpectralBasis, spectrum: AugmentedVector) -> np.ndarray:
    """Evaluate the time-domain value B(t) @ [u; conj(u)] and return its real part.

    Raises SymmetryViolationError for a non-conjugate-symmetric spectrum.  The
    imaginary residual of the product is checked against 1e-12 (relative)
    before it is discarded.
    """
    _check_spectrum(basis.half_columns, spectrum)
    value = basis.values @ spectrum.full()
    scale = max(1.0, float(np.max(np.abs(value), initial=0.0)))
    residual = float(np.max(np.abs(value.imag), initial=0.0))
    if residual > 1e-12 * scale:
        raise SymmetryViolationError(f"imaginary residual {residual:.3e} exceeds tolerance")
    return value.real.copy()


def project_spectrum(basis: AugmentedSpectralBasis, x) -> AugmentedVector:
    """Per-sample least-squares projection B(t)^H x, conjugate-symmetric by construction.

    Because the basis has orthonormal rows, synthesize(project(x)) == x exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (basis.n_assets,):
        raise ValidationError(f"expected real vector of length {basis.n_assets}, got {x.shape}")
    upper = np.conj(basis.values[:, : basis.half_columns]).T @ x
    return AugmentedVector.from_upper(upper)
