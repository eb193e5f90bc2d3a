"""Exception hierarchy shared across the package, and the shared input checks.

Each rule has one definition: :func:`_count` for counts, :func:`_indices` for sample
indices, :func:`_real_array` and :func:`_finite_real` for real arrays of a known shape,
and :func:`_store` for what a frozen dataclass holds.
"""

import dataclasses
import operator

import numpy as np

__all__ = [
    "SpecportError",
    "ValidationError",
    "SymmetryViolationError",
    "FactorizationError",
    "DegenerateMeanError",
    "SingularCovarianceError",
    "IngestionError",
]


class SpecportError(Exception):
    """Base class for all package errors."""


class ValidationError(SpecportError, ValueError):
    """Invalid input: bad shapes, empty data, out-of-range parameters."""


class SymmetryViolationError(ValidationError):
    """An augmented vector that should be conjugate-symmetric is not.

    Signals a corrupted spectrum: synthesizing from it would produce a
    complex time-domain value.
    """


class FactorizationError(SpecportError):
    """A covariance factorization failed (non-PSD input)."""


class DegenerateMeanError(SpecportError):
    """The spectral (or time-domain) mean is numerically zero.

    The variance-targeted problem has no return direction and is
    unbounded below in the multiplier.
    """


class SingularCovarianceError(SpecportError):
    """Covariance is singular and no ridge was applied."""


class IngestionError(SpecportError):
    """A data file could not be ingested; message carries row context."""


def _count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int`` >= ``minimum``; ValidationError naming ``name`` otherwise.

    ``int`` and numpy integers are accepted; ``bool`` and floats, even
    integral ones, are not.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {count!r}")
    return count


def _indices(name: str, value) -> np.ndarray:
    """``value``, an integer or an array of them, as int64; an empty array passes whatever its dtype.

    Bools, floats, strings and integers beyond int64 (a cast would wrap them) are a ValidationError naming ``name``.
    """
    array = np.asarray(value)
    if array.size and not (array.dtype.kind == "i" or array.dtype.kind == "u" and array.max() <= 2**63 - 1):
        shown = repr(value) if array.ndim == 0 else f"{array.dtype} entries"
        raise ValidationError(f"{name}: sample indices must be integers in the int64 range, got {shown}")
    return array.astype(np.int64)


def _real_array(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a float64 array of ``shape`` (of any shape when it is None).

    Raises ValidationError naming ``name`` when it is complex, holds an entry
    that is not a number (a string, a dict), has rows of unequal length or
    has another shape.  A float64 array passes without a copy.
    """
    try:
        real = not np.iscomplexobj(value)  # rows of unequal length fail here
        array = np.asarray(value, dtype=np.float64) if real else None  # strings and other non-numbers here
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold real numbers: {exc}") from exc
    if not real:
        raise ValidationError(f"{name} must be real")
    if shape is not None and array.shape != shape:
        raise ValidationError(f"{name} shape {array.shape} does not match {shape}")
    return array


def _finite_real(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``.

    Raises ValidationError naming ``name`` when it is complex, has another
    shape or holds a non-finite entry.  It may be the caller's own array, so
    a constructor freezes it only after all of its checks have passed.
    """
    array = _real_array(name, value, shape)
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} has non-finite entries")
    return array


def _store(instance, **checked) -> None:
    """Set frozen ``instance``'s ``checked`` fields, then make every ndarray in a field or a tuple field read-only.

    A field may hold the caller's own array, so a constructor calls this last, once every check has passed.
    """
    for name, value in checked.items():
        object.__setattr__(instance, name, value)
    for item in dataclasses.fields(instance):
        value = getattr(instance, item.name)
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
