"""Augmented spectral basis: the mapping between time domain and frequency domain.

A signal sample x(t) in R^N is represented on a discrete grid of M angular
frequencies w_m = 2 pi / p_m, one per integer period p_m >= 3 in samples
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
:func:`_to_augmented` applies U; the estimators, the solver's weights,
allocation retrieval and the synthesis kernels all work on the real managed
vectors, and the complex forms are views built by it.  :func:`build_basis`,
:func:`synthesize_time_value` and :func:`project_spectrum` keep the literal
complex definition, the reference that the real kernels are tested against.

Sample indices t are integers, and both :func:`_phases` and :func:`build_basis`
take bin m's angle at t mod p_m, so B(t) = B(t mod L) bit for bit for the
grid's least common period L.  The estimators of :mod:`specport.moments`
snap their window to whole multiples of L, on which the bins are orthogonal
under time averaging.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError, _count, _finite_real, _indices, _refuse_non_numbers, _store

__all__ = [
    "FrequencyGrid",
    "AugmentedVector",
    "AugmentedSpectralBasis",
    "build_basis",
    "synthesize_time_value",
    "project_spectrum",
]


def _period(value) -> int:
    """A period as an exact int: a float only if integral, anything else by ``operator.index``.

    No integer passes through float64, so one above 2**53 keeps its value.
    Raises TypeError (None, a string) or ValueError (a fractional float, nan, inf).
    """
    if isinstance(value, (float, np.floating)):
        if not float(value).is_integer():
            raise ValueError(f"not an integral period: {value!r}")
        return int(value)
    return operator.index(value)


@dataclass(frozen=True)
class FrequencyGrid:
    """A grid of M bins, each a cycle of an integer period in samples.

    ``periods`` are distinct integers from 3 to 2**63 - 1, stored as a tuple
    sorted longest first, so the angular frequencies ``omegas`` = 2*pi/period,
    in radians per sample, come out strictly increasing in (0, 2 pi / 3].
    Integer periods give the grid a least common period L, the commensurate
    window that keeps the bins orthogonal under time averaging and that the
    moment estimators snap to.  The DC bin (period infinite; demean instead)
    and the Nyquist bin (period 2) are excluded: the sine of each is zero at
    every integer sample, which would leave it one real column, not two.
    """

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        given = tuple(self.periods)
        if not given:
            raise ValidationError("frequency grid must contain at least one bin")
        try:
            periods = [_period(p) for p in given]
        except (TypeError, ValueError):  # None, a string, a fractional float, nan, inf
            raise ValidationError("periods must be integers (samples per cycle)") from None
        if len(set(periods)) != len(periods):
            raise ValidationError(f"duplicate periods in {periods}")
        if any(p < 3 for p in periods):
            raise ValidationError("periods must be >= 3 samples (period 2, the Nyquist bin, has a zero sine column)")
        if max(periods) > 2**63 - 1:  # the phases reduce t mod p in int64
            raise ValidationError(f"periods must fit in int64, got {max(periods)}")
        _store(self, periods=tuple(sorted(periods, reverse=True)))

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


@dataclass(frozen=True, eq=False)
class AugmentedVector:
    """A frequency-domain vector u stacked with its conjugate: [u; conj(u)].

    ``upper`` holds the M*N coefficients u (bin-major: bin 0 assets, bin 1
    assets, ...), a one-dimensional array of finite numbers; a non-number
    (text, bytes and bools included), ragged rows, another shape or a
    non-finite entry is a ValidationError naming ``upper``.  ``lower`` is
    conj(upper), computed on first access and read-only, so the vector is conjugate-symmetric by construction, which
    is what makes the synthesized time-domain value real.
    """

    upper: np.ndarray

    def __post_init__(self) -> None:
        try:
            upper = np.asarray(self.upper)  # rows of unequal length fail here
            _refuse_non_numbers(upper)  # before the cast, which would parse "0.5"
            upper = upper.astype(np.complex128, copy=False)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"upper must hold numbers: {exc}") from exc
        if upper.ndim != 1:
            raise ValidationError(f"upper must be one-dimensional, got shape {upper.shape}")
        if not np.isfinite(upper).all():
            raise ValidationError("upper has non-finite entries")
        _store(self, upper=upper)

    @cached_property
    def lower(self) -> np.ndarray:
        """The second half, conj(upper); read-only."""
        lower = np.conj(self.upper)
        lower.flags.writeable = False
        return lower

    @property
    def half_size(self) -> int:
        return self.upper.shape[0]

    def full(self) -> np.ndarray:
        """The stacked 2*M*N vector [upper; lower]."""
        return np.concatenate([self.upper, self.lower])

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        """Always True: ``lower`` is conj(upper) by construction, whatever ``tol``."""
        return True


@dataclass(frozen=True, eq=False)
class AugmentedSpectralBasis:
    """The N x 2MN basis matrix B(t) at one integer sample index ``t``, for ``n_assets`` = N.

    ``t`` must be an integer in the int64 range, may be negative (a bool,
    float or string is a ValidationError), and N an integer >= 1.  ``values``
    is computed from them and read-only: [C(t) | conj(C(t))], where the m-th
    block of C(t) is (1/sqrt(2M)) e^{j w_m (t mod p_m)} I_N, so the basis is
    periodic bit for bit and its rows are orthonormal: values @ values^H ==
    I_N.  ``n_assets`` is read from the rows of ``values``.
    """

    t: int
    grid: FrequencyGrid
    n_assets: InitVar[int]
    values: np.ndarray = field(init=False)

    def __post_init__(self, n_assets: int) -> None:
        t = int(_indices("t", self.t))
        n_assets = _count("n_assets", n_assets)
        m = self.grid.n_bins
        scale = 1.0 / math.sqrt(2 * m)
        phases = np.exp(1j * np.asarray(self.grid.omegas) * (t % np.asarray(self.grid.periods))) * scale
        eye = np.eye(n_assets)
        upper = np.kron(phases[np.newaxis, :], eye).reshape(n_assets, m * n_assets)
        _store(self, t=t, values=np.concatenate([upper, np.conj(upper)], axis=1))

    @property
    def half_columns(self) -> int:
        return self.values.shape[1] // 2


# Set after the class body: there, a property named like the InitVar would become its default.
AugmentedSpectralBasis.n_assets = property(lambda basis: basis.values.shape[0], doc="N, the rows of ``values``.")


def build_basis(t: int, grid: FrequencyGrid, n_assets: int) -> AugmentedSpectralBasis:
    """The augmented basis B(t) at sample index ``t`` for ``n_assets`` = N (see :class:`AugmentedSpectralBasis`)."""
    return AugmentedSpectralBasis(t, grid, n_assets)


def _phases(t, grid: FrequencyGrid) -> np.ndarray:
    """The managed-asset phases (1/sqrt M) [cos(w_m t), -sin(w_m t)], shape (T, 2M).

    Row t is the basis in managed coordinates: B(t) U = row (x) I_N.  Bin m's
    angle is w_m (t mod p_m), reduced in int64: its columns repeat bit for bit.
    """
    angles = np.asarray(grid.omegas) * (np.asarray(t)[:, np.newaxis] % np.asarray(grid.periods))
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
        return AugmentedVector((managed[:half] + 1j * managed[half:]) / math.sqrt(2))
    k_aa, k_ab = managed[:half, :half], managed[:half, half:]
    k_ba, k_bb = managed[half:, :half], managed[half:, half:]
    out = np.empty(managed.shape, dtype=np.complex128)
    r_grid, p_grid = out[:half, :half], out[:half, half:]
    np.add(k_aa, k_bb, out=r_grid.real)
    np.subtract(k_ba, k_ab, out=r_grid.imag)
    np.subtract(k_aa, k_bb, out=p_grid.real)
    np.add(k_ba, k_ab, out=p_grid.imag)
    # halve R and P in place as real numbers: x 0.5 is exact on each part, where a complex
    # product could flip the sign of a zero
    parts = out[:half].view(np.float64)
    parts *= 0.5
    np.conjugate(r_grid, out=out[half:, half:])
    np.conjugate(p_grid, out=out[half:, :half])
    out.flags.writeable = False
    return out


def synthesize_time_value(basis: AugmentedSpectralBasis, spectrum: AugmentedVector) -> np.ndarray:
    """Evaluate the time-domain value B(t) @ [u; conj(u)], real up to rounding, and return its real part.

    Both the basis and the spectrum hold their conjugate halves by
    construction, so the imaginary part of the product is rounding only and
    is discarded.  A spectrum whose half-size is not MN is a ValidationError.
    """
    if spectrum.half_size != basis.half_columns:
        raise ValidationError(
            f"spectrum half-size {spectrum.half_size} does not match basis ({basis.half_columns})"
        )
    return (basis.values @ spectrum.full()).real.copy()


def project_spectrum(basis: AugmentedSpectralBasis, x) -> AugmentedVector:
    """Per-sample least-squares projection B(t)^H x, conjugate-symmetric by construction.

    ``x`` must be N finite real numbers.  Because the basis has orthonormal
    rows, synthesize(project(x)) == x exactly.
    """
    x = _finite_real("x", x, (basis.n_assets,))
    upper = np.conj(basis.values[:, : basis.half_columns]).T @ x
    return AugmentedVector(upper)
