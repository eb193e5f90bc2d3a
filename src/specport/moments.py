"""Centred augmented spectral moments and the absolute-moment spectrum.

The first moment of the projected series u(t) = B(t)^H x(t) designates
time-domain harmonics; its centred second moment splits into per-bin
covariance blocks R(w_m) (stationary power), pseudo-covariance blocks P(w_m)
(cyclostationarity), and dual-frequency blocks R(w_m, w_n), P(w_m, w_n)
(bin-to-bin correlation).  The absolute (non-centred) second moment — the
ordinary power spectrum — entangles mean and covariance:
abs_moment(w) = m(w) m(w)^H + R(w), which is what makes harmonics invisible
to it at low SNR.

Estimators time-average the projected series over a commensurate window (a
whole number of least common periods L of the grid's integer periods, the
newest samples kept), which removes leakage between bins.  Both estimators
are one pass, :func:`_managed_moments`, which also snaps the window; there is
no option to skip the snap.  The pass works on the equivalent real problem in
the managed-asset coordinates documented in :mod:`specport.basis`: the
augmented vector is U z(t) for the unitary U and the real panel
z(t) = phi(t) (x) x(t) of 2MN columns, so the augmented mean and covariance
are U mean(z) and U cov(z) U^H (Brandt and Santa-Clara 2006; Schreier and
Scharf 2010).  :class:`SpectralMoments` stores the real pair
(mean(z), cov(z)), which the solver and the moments file use; the augmented
complex forms are views derived from it.  The T x 2MN panel z is never
formed: its phases repeat with the least common period L, so both moments
follow from the mean and scatter of x in each phase class t mod L, at
O(N^2 T + L (2MN)^2) instead of O(T (2MN)^2).

The augmented statistics determine the moments only up to a presentation
scale; the stored pair and every view of it use the raw, paper-literal one.
A pure harmonic a*cos(w_m t) yields |mean(w_m)| = a / (2 sqrt(2M)) —
attenuated by 1/(2M) relative to the representation coefficient, because
the time average of B^H B is I/(2M).  Only :func:`estimate_spectral_mean`
offers the ``"consistent"`` scale, its mean times 2M, which recovers
coefficient scale exactly for on-grid harmonics.
"""

from __future__ import annotations

import binascii
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .basis import AugmentedVector, FrequencyGrid, _phases, _to_augmented
from .errors import ValidationError, _count, _finite_real, _integer_token, _real_array, _store

__all__ = [
    "SpectralMoments",
    "PsdMatrix",
    "estimate_spectral_mean",
    "estimate_moments",
    "compute_psd",
    "write_moments_csv",
    "read_moments_csv",
]

logger = logging.getLogger(__name__)


def _panel_values(x) -> np.ndarray:
    """The finite real (T, N) values of a ReturnsPanel-like object (has .returns) or an array; a vector is one asset."""
    values = _real_array("panel", getattr(x, "returns", x))
    if values.ndim == 1:
        values = values[:, np.newaxis]
    return _finite_real("panel", values, values.shape[:2] if values.ndim else (1, 1))


_SYMMETRY_BLOCK = 128


def _is_exactly_symmetric(matrix: np.ndarray) -> bool:
    """Whether the square ``matrix`` is finite and equals its transpose bit for bit.

    One pass in strips of ``_SYMMETRY_BLOCK`` rows: each strip right of the
    diagonal is checked for finiteness and then, while it is in cache, its
    transpose is compared with the column strip below the diagonal, read in
    its own row order, so neither side is read one element per cache line.
    An entry below the diagonal needs no finiteness test of its own: it must
    equal its finite mirror, and NaN equals nothing.
    """
    size = matrix.shape[0]
    for start in range(0, size, _SYMMETRY_BLOCK):
        stop = start + _SYMMETRY_BLOCK
        strip = matrix[start:stop, start:]
        if not (np.isfinite(strip).all() and np.array_equal(matrix[start:, start:stop], strip.T)):
            return False
    return True


def _managed_vector(name: str, value, grid: FrequencyGrid) -> np.ndarray:
    """``value`` as a finite real float64 vector of 2MN managed entries on ``grid``, for some N >= 1.

    Its length is N's one source: one-dimensional, and a positive multiple of
    2M long (ValidationError naming ``name`` otherwise), so N = length / 2M.
    It may be the caller's own array, frozen by the caller once all its checks pass.
    """
    vector = _real_array(name, value)
    dim = 2 * grid.n_bins
    if vector.ndim != 1 or not vector.size or vector.size % dim:
        raise ValidationError(
            f"{name} must be one-dimensional with a positive multiple of 2M = {dim} entries, got shape {vector.shape}"
        )
    return _finite_real(name, vector)


def _managed_pair(grid: FrequencyGrid, mean, covariance) -> tuple[np.ndarray, np.ndarray]:
    """The checked managed mean (2MN, see :func:`_managed_vector`) and K (2MN x 2MN) of a pair on ``grid``.

    K must be real, finite and exactly symmetric (ValidationError otherwise).
    One pass reads K; a non-finite K is reported before an asymmetric one.
    The caller freezes the arrays once all its checks pass.
    """
    mean = _managed_vector("managed mean", mean, grid)
    cov = _real_array("managed covariance", covariance, (mean.size, mean.size))
    if not _is_exactly_symmetric(cov):
        if not np.isfinite(cov).all():
            raise ValidationError("managed covariance has non-finite entries")
        raise ValidationError("managed covariance is not exactly symmetric")
    return mean, cov


def _managed_moments(x, grid: FrequencyGrid):
    """Mean and covariance K of the managed panel z on the snapped window: the one estimator pass.

    Returns (mean (2MN,), K (2MN, 2MN), T).  The snap keeps the newest
    T = T0 - T0 mod L of the T0 rows for the grid's least common period L; a
    window shorter than L is a ValidationError naming L.  Its first row is
    sample 0, so the first kept row is sample T0 mod L.  The snap is one
    record on this module's logger with the kept and discarded counts: a
    WARNING when it discards samples, INFO otherwise.  Row t of z is
    phi(t) (x) x(t), flattened bin-major, for the phases phi of
    :func:`specport.basis._phases`; the augmented projected vector is exactly
    U z(t) (see :func:`specport.basis._to_augmented`).  phi repeats bit for
    bit with L, and the snapped window splits into the L phase classes
    r = t mod L of n = T / L samples each, read as the strided views
    ``values[r::L]``.  With class sum s_r, mean xbar_r = s_r / n and
    within-class scatter D_r = sum (x_t - xbar_r)(x_t - xbar_r)^T in class r,

        mean = (1/T) sum_r phi_r (x) s_r,
        T K  = sum_r (phi_r phi_r^T) (x) D_r + G^T G,

    where row r of G is sqrt(n) (phi_r (x) xbar_r - mean); the cross terms
    vanish inside each class, so z is never formed.  K is assembled in
    N x N blocks (a, b) of phases a, b: G^T G fills the blocks
    right of the diagonal N rows at a time; each D_r is written straight into
    its slot of a stack of at most (2M)^2 scatters, and one product of the
    stack with the weights phi_ra phi_rb / T of every pair b >= a gives all
    the blocks' within-class terms, added to K block by block.  Last each
    diagonal block is averaged with its transpose and the blocks below are
    copied from their mirror, so K is exactly symmetric.
    """
    values, period = _panel_values(x), grid.least_common_period()
    if values.shape[0] < period:
        raise ValidationError(
            f"window of {values.shape[0]} samples is shorter than one least common period ({period} samples) of the grid"
        )
    origin = values.shape[0] % period  # the oldest samples, discarded
    values = values[origin:]
    n_samples, n_assets = values.shape
    logger.log(
        logging.WARNING if origin else logging.INFO,
        "window snap: kept %d samples, discarded %d oldest",
        n_samples,
        origin,
        extra={"snap_kept": n_samples, "snap_discarded": origin},
    )
    phases = _phases(origin + np.arange(period), grid)  # row r is phi_r
    repeats = n_samples // period  # in every class: the snapped window holds whole periods L
    sums = values.reshape(repeats, period, n_assets).sum(axis=0)
    mean = (phases.T @ sums).ravel() / n_samples
    class_means = np.divide(sums, repeats, out=sums)
    between = phases[:, :, np.newaxis] * class_means[:, np.newaxis, :]
    between = between.reshape(period, mean.size)
    between -= mean
    between *= math.sqrt(repeats / n_samples)  # G / sqrt(T)
    # K right of its diagonal, N rows (one phase a) at a time: first G^T G ...
    dim = 2 * grid.n_bins
    cov = np.empty((mean.size, mean.size))
    for a in range(dim):
        lo, hi = a * n_assets, (a + 1) * n_assets
        np.matmul(between[:, lo:hi].T, between[:, lo:], out=cov[lo:hi, lo:])
    # ... then the class scatters, at most (2M)^2 of them (the size of K) at a time,
    # combined for every block (a, b >= a) in one product ...
    pairs = np.triu_indices(dim)
    deviations = np.empty((repeats, n_assets))
    for first in range(0, period, dim * dim):
        stop = min(first + dim * dim, period)
        scatter = np.empty((stop - first, n_assets, n_assets))
        for r in range(first, stop):
            np.subtract(values[r::period], class_means[r], out=deviations)
            np.matmul(deviations.T, deviations, out=scatter[r - first])
        products = phases[first:stop, pairs[0]] * phases[first:stop, pairs[1]] / n_samples
        within = products.T @ scatter.reshape(stop - first, n_assets * n_assets)
        for a, b, block in zip(*pairs, within.reshape(-1, n_assets, n_assets)):
            cov[a * n_assets : (a + 1) * n_assets, b * n_assets : (b + 1) * n_assets] += block
    # ... and last the diagonal blocks averaged with their transposes, the rest mirrored.
    for a in range(dim):
        lo, hi = a * n_assets, (a + 1) * n_assets
        cov[lo:hi, lo:hi] = 0.5 * (cov[lo:hi, lo:hi] + cov[lo:hi, lo:hi].T)
        cov[hi:, lo:hi] = cov[lo:hi, hi:].T
    return mean, cov, n_samples


def estimate_spectral_mean(x, grid: FrequencyGrid, mode: str = "paper-literal") -> AugmentedVector:
    """Time-average of the projected series: (1/T) sum_t B(t)^H x(t), row t of ``x`` at sample index t.

    Parameters
    ----------
    x : (T, N) array or ReturnsPanel
        As for :func:`estimate_moments`, whose mean this is: the same panels
        are refused, and the same one snap is logged.
    grid : FrequencyGrid
    mode : {"paper-literal", "consistent"}
        Output scale: the raw projection average, or that times 2M (see
        the module docstring).

    Returns
    -------
    AugmentedVector
        Conjugate-symmetric by construction; deterministic given input.
    """
    modes = ("paper-literal", "consistent")
    if mode not in modes:
        raise ValidationError(f"unknown estimator mode {mode!r}; expected one of {modes}")
    mean = estimate_moments(x, grid).managed_mean
    return _to_augmented(mean * (2 * grid.n_bins if mode == "consistent" else 1))


def estimate_moments(x, grid: FrequencyGrid) -> "SpectralMoments":
    """Mean and covariance of the projected series on the snapped window, from its phase classes.

    The covariance is the sample covariance (1/T) sum_t (u(t) - mean)(u(t) - mean)^H
    of the augmented vector u(t) = B(t)^H x(t) around the estimated mean.  It
    is held as the real, exactly symmetric K, the covariance of the managed
    panel z, which is built from the per-class means and scatters of the
    window without forming z (see :func:`_managed_moments`).  ``x`` is a
    real (T, N) array or ReturnsPanel with no missing values (a vector is
    one asset), of at least one least common period L of the grid (a
    ValidationError naming L otherwise), snapped to whole periods L.  Row t
    of ``x`` is sample index t.
    """
    managed_mean, covariance, n_samples = _managed_moments(x, grid)
    return SpectralMoments(
        grid=grid,
        managed_mean=managed_mean,
        managed_covariance=covariance,
        sample_count=n_samples,
    )


@dataclass(frozen=True, eq=False)
class SpectralMoments:
    """Estimated spectral mean and covariance on one grid.

    Stored as the real managed-asset pair: ``managed_mean`` (2MN) and
    ``managed_covariance`` K (2MN x 2MN, exactly symmetric), the mean and
    covariance of the managed panel z(t), at the raw, paper-literal scale.
    The augmented complex ``mean`` = U mu and ``covariance`` = U K U^H, of
    block layout [[R, P], [conj(P), conj(R)]], are read-only views built on
    first access.  The per-bin accessors read the N x N blocks R(w_m, w_n)
    and P(w_m, w_n) from four N x N blocks of K without building
    ``covariance``.  The number of assets N, ``n_assets``, is read from the
    mean's length 2MN.  The constructor checks the pair as :class:`SynthSpec`
    does, with the same messages (see :func:`_managed_pair`), and
    ``sample_count`` as an integer >= 1.  It freezes the arrays it was
    given only once they pass.
    """

    grid: FrequencyGrid
    managed_mean: np.ndarray
    managed_covariance: np.ndarray
    sample_count: int

    # The scale of every stored pair: a class constant, not a field.  The
    # benchmark's wide-backtest check still compares it between two estimates
    # (perfbench/run.py), until its checks stop depending on the file format.
    mode = "paper-literal"

    def __post_init__(self) -> None:
        mean, cov = _managed_pair(self.grid, self.managed_mean, self.managed_covariance)
        sample_count = _count("sample_count", self.sample_count)
        _store(self, sample_count=sample_count, managed_mean=mean, managed_covariance=cov)

    @property
    def n_assets(self) -> int:
        return self.managed_mean.size // (2 * self.grid.n_bins)

    @cached_property
    def mean(self) -> AugmentedVector:
        """The augmented spectral mean U mu, conjugate-symmetric by construction."""
        return _to_augmented(self.managed_mean)

    @cached_property
    def covariance(self) -> np.ndarray:
        """The augmented covariance U K U^H, exactly structured; read-only."""
        return _to_augmented(self.managed_covariance)

    @property
    def half_size(self) -> int:
        return self.managed_mean.size // 2

    def _bin_index(self, m: int) -> int:
        if not 0 <= m < self.grid.n_bins:
            raise ValidationError(f"bin index {m!r} is outside [0, M) for M = {self.grid.n_bins}")
        return m

    def _bin_block(self, m: int, n: int | None) -> np.ndarray:
        """Read-only [[R(w_m, w_n), P(w_m, w_n)], [conj(P), conj(R)]], entry for entry as in ``covariance``.

        Maps the 2N x 2N sub-block of K that holds the cosine and sine rows of
        bin m against the cosine and sine columns of bin n.
        """
        m = self._bin_index(m)
        n = m if n is None else self._bin_index(n)
        size, n_bins = self.n_assets, self.grid.n_bins
        sub = self.managed_covariance.reshape(2, n_bins, size, 2, n_bins, size)[:, m, :, :, n]
        return _to_augmented(sub.reshape(2 * size, 2 * size))

    def bin_covariance(self, m: int, n: int | None = None) -> np.ndarray:
        """R(w_m) for n omitted, else the dual-frequency block R(w_m, w_n)."""
        return self._bin_block(m, n)[: self.n_assets, : self.n_assets]

    def bin_pseudo_covariance(self, m: int, n: int | None = None) -> np.ndarray:
        """P(w_m) for n omitted, else the dual-frequency block P(w_m, w_n)."""
        return self._bin_block(m, n)[: self.n_assets, self.n_assets :]

    def bin_mean(self, m: int) -> np.ndarray:
        start = self._bin_index(m) * self.n_assets
        return self.mean.upper[start : start + self.n_assets]


@dataclass(frozen=True, eq=False)
class PsdMatrix:
    """Per-bin absolute (non-centred) second spectral moment of ``moments``, N x N per bin.

    A view of the :class:`SpectralMoments` it holds: ``grid`` is theirs, and
    ``matrices`` is one read-only complex (M, N, N) array, computed on first
    access, whose entry m is bin m's mean(w_m) mean(w_m)^H + R(w_m).
    """

    moments: SpectralMoments

    def __post_init__(self) -> None:
        if not isinstance(self.moments, SpectralMoments):
            raise ValidationError(f"moments must be SpectralMoments, got {type(self.moments).__name__}")

    @property
    def grid(self) -> FrequencyGrid:
        return self.moments.grid

    @cached_property
    def matrices(self) -> np.ndarray:
        """The (M, N, N) absolute moments, one bin per entry; read-only."""
        mats = []
        for m in range(self.grid.n_bins):
            mean_m = self.moments.bin_mean(m)
            mats.append(np.outer(mean_m, np.conj(mean_m)) + self.moments.bin_covariance(m))
        matrices = np.stack(mats)
        matrices.flags.writeable = False
        return matrices

    def trace_per_bin(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2).real


def compute_psd(moments: SpectralMoments) -> PsdMatrix:
    """Absolute second moment per bin: mean(w_m) mean(w_m)^H + R(w_m) (see :class:`PsdMatrix`).

    Mean and covariance information are entangled here, which is exactly why
    the centred moments are kept separate: a harmonic sitting in strong noise
    moves the absolute moment by ~|mean|^2, invisible next to R.
    """
    return PsdMatrix(moments)


# --- flat CSV serialization (lossless at double precision) ---------------------

_FORMAT_TAG = "specport-moments-v6"
_HEADER = b"record,i,j,re,im\r\n"
_META_KEYS = ("format", "periods", "n_assets", "sample_count", "mode")


def write_moments_csv(moments: SpectralMoments, path) -> None:
    """Write moments to a flat CSV, the ``specport-moments-v6`` format.

    Every row has five comma-separated fields, ends in CRLF and has a fixed
    place: the ``record,i,j,re,im`` header; the ``meta,<key>,<value>,,``
    rows format, periods (longest first, joined by ``;``), n_assets,
    sample_count and mode (always ``paper-literal``), in that order; one
    ``mean,,,<data>,`` record for the real 2MN managed mean; one
    ``cov,i,i,<data>,`` record per row i of the managed covariance K,
    holding K[i, i:], its upper triangle with the diagonal; and last the
    ``end,crc32,<crc>,,`` row.  ``<data>`` is the base64 of the values as
    little-endian float64, so round trips are bit-exact, and ``<crc>`` is
    the CRC-32 of every byte before the end row, as 8 hex digits.  K is
    exactly symmetric, so its lower triangle is the mirror.
    """
    periods = ";".join(map(str, moments.grid.periods))
    meta = (_FORMAT_TAG, periods, moments.n_assets, moments.sample_count, moments.mode)
    mean = np.ascontiguousarray(moments.managed_mean, dtype="<f8")
    cov = np.ascontiguousarray(moments.managed_covariance, dtype="<f8")
    head = _HEADER + "".join(f"meta,{key},{value},,\r\n" for key, value in zip(_META_KEYS, meta)).encode()
    head += b"mean,,," + binascii.b2a_base64(mean, newline=False) + b",\r\n"
    crc = binascii.crc32(head)
    with Path(path).open("wb") as handle:
        handle.write(head)
        for i, row in enumerate(cov):
            line = b"cov,%d,%d,%s,\r\n" % (i, i, binascii.b2a_base64(row[i:], newline=False))
            crc = binascii.crc32(line, crc)
            handle.write(line)
        handle.write(b"end,crc32,%08x,,\r\n" % crc)


def _field(line: bytes, key: list[str]) -> str:
    """The value in ``line``, which must be the fields ``key``, the value and blank fields, five in all, then CRLF."""
    if not line:
        raise ValidationError("truncated file (no end row)")
    fields = line[:-2].decode("ascii").split(",")
    at = len(key)
    if fields[:at] != key:
        raise ValueError(f"found row {fields[:3]} where {key} belongs")
    blanks = [""] * (4 - at)
    if fields[at + 1 :] != blanks or line[-2:] != b"\r\n":
        layout = ",".join([*key, "<value>", *blanks]) + "\r\n"
        raise ValueError(f"row {key} is not {layout!r}")
    return fields[at]


def _values(text: str, key: list[str], size: int) -> np.ndarray:
    """The ``size`` float64 values in ``text``, the value of row ``key``, which must be the base64 of exactly that many."""
    try:
        data = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error
        data = b""
    if len(data) != 8 * size:
        raise ValueError(f"row {key} does not hold the base64 of {size} float64 values")
    return np.frombuffer(data, "<f8")


def read_moments_csv(path) -> SpectralMoments:
    """Inverse of :func:`write_moments_csv`, bit-exact.

    Streams the file one line at a time and splits every row at commas: the
    header, then the meta rows, read by position; then the mean record,
    which must hold the 2MN values that the periods and n_assets rows give
    before K is allocated; then each row of K straight into K, mirrored
    below the diagonal.  Every row must end in CRLF, and the end row must
    carry the CRC-32 of every byte before it and close the file, so the
    reader takes no byte that the writer would not have written: a change
    to any row, the end row included, is refused.

    Raises ValidationError naming the file for a foreign, truncated or
    otherwise malformed file, including one whose rows are not exactly the
    header, the meta rows, the mean and the rows of K in order, or of
    another format version (a v5 file kept its meta rows outside its CRC),
    for a period, n_assets or sample_count that is not ASCII ``[+-]?[0-9]+``
    (``0_5`` and non-ASCII digits are refused), and for periods that
    :class:`FrequencyGrid` or values that the :class:`SpectralMoments`
    constructor rejects (non-finite entries, a sample count below 1), and
    for a mode row other than ``paper-literal``.
    """
    try:
        with Path(path).open("rb") as handle:
            if handle.readline() != _HEADER:
                raise ValidationError(f"not a {_FORMAT_TAG} CSV (missing header)")
            crc = binascii.crc32(_HEADER)

            def field(key: list[str]) -> str:
                """The value of the next row, which must be row ``key``; its bytes go into the running CRC."""
                nonlocal crc
                line = handle.readline()
                crc = binascii.crc32(line, crc)
                return _field(line, key)

            tag = field(["meta", "format"])
            if tag != _FORMAT_TAG:
                raise ValidationError(f"unsupported format tag {tag!r}")
            periods, n_assets, sample_count, mode = (field(["meta", key]) for key in _META_KEYS[1:])
            grid = FrequencyGrid(tuple(_integer_token(p) for p in periods.split(";")))
            n_assets, sample_count = _integer_token(n_assets), _integer_token(sample_count)
            size = 2 * grid.n_bins * n_assets
            key = ["mean", "", ""]
            mean = _values(field(key), key, size)
            cov = np.empty((size, size))  # allocated only once the mean record holds 2MN values
            for i in range(size):
                key = ["cov", str(i), str(i)]
                cov[i, i:] = _values(field(key), key, size - i)
                cov[i + 1 :, i] = cov[i, i + 1 :]
            stored = _field(handle.readline(), ["end", "crc32"])
            if stored != f"{crc:08x}":
                raise ValidationError(
                    f"end row CRC-32 {stored!r} does not match {crc:08x}, the CRC-32 of every byte before it"
                )
            if handle.readline():
                raise ValidationError("rows after the end row")
            if mode != SpectralMoments.mode:
                raise ValidationError(f"unsupported mode {mode!r}; expected {SpectralMoments.mode!r}")
        return SpectralMoments(
            grid=grid,
            managed_mean=mean,
            managed_covariance=cov,
            sample_count=sample_count,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed file ({type(exc).__name__}: {exc})") from exc
