"""Exception hierarchy shared across the package, and the shared input checks.

Each rule has one definition: :func:`_count` for counts, :func:`_finite_scalar` for
real parameters, :func:`_indices` for sample indices, :func:`_integer_token` and
:func:`_date_token` for the integers and dates read from text (options, file
timestamps, the moments file's meta rows), :func:`_real_array` and
:func:`_finite_real` for real arrays (:func:`_refuse_non_numbers` for the text,
bytes and bools a cast would read), and :func:`_store` for what a frozen
dataclass holds.
"""

import dataclasses
import datetime
import math
import numbers
import operator
import re

import numpy as np

__all__ = [
    "SpecportError",
    "ValidationError",
    "FactorizationError",
    "DegenerateMeanError",
    "SingularCovarianceError",
    "IngestionError",
]


class SpecportError(Exception):
    """Base class for all package errors."""


class ValidationError(SpecportError, ValueError):
    """Invalid input: bad shapes, empty data, out-of-range parameters."""


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


def _finite_scalar(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite ``float``, > 0 when ``positive`` and >= 0 otherwise.

    Raises ValidationError naming ``name`` otherwise.  A real number is
    accepted: ``int``, ``float`` and numpy integers and floats.  ``bool``,
    strings, None and complex numbers are not, even where ``float()`` would
    read them.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond float64
        number = math.inf
    if positive and not (math.isfinite(number) and number > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    if not (math.isfinite(number) and number >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    return number


def _indices(name: str, value) -> np.ndarray:
    """``value``, an integer or an array of them, as int64; an empty array passes whatever its dtype.

    Bools, floats, strings and integers beyond int64 (a cast would wrap them) are a ValidationError naming ``name``.
    """
    array = np.asarray(value)
    if array.size and not (array.dtype.kind == "i" or array.dtype.kind == "u" and array.max() <= 2**63 - 1):
        shown = repr(value) if array.ndim == 0 else f"{array.dtype} entries"
        raise ValidationError(f"{name}: sample indices must be integers in the int64 range, got {shown}")
    return array.astype(np.int64)


# ASCII digits only: int() also reads 1_000 and non-ASCII digits, and re's \d matches any Unicode digit
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DATE = re.compile(r"([0-9]{4})-([0-9]{2})(?:-([0-9]{2}))?")


def _integer_token(token: str) -> int:
    """The integer that ``token`` spells: ASCII ``[+-]?[0-9]+`` once surrounding whitespace is stripped.

    Raises ValueError for any other text.
    """
    if _INTEGER.fullmatch(token.strip()) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _date_token(token: str, month_only: bool = False) -> datetime.date:
    """The date that the whole of ``token`` spells: ASCII ``YYYY-MM-DD``, or ``YYYY-MM`` for the first of the month.

    Only the ``YYYY-MM`` form when ``month_only``.  Raises ValueError for other
    text (the week date ``2015-W01``) or a date that ``datetime.date`` refuses
    (``2015-13``, ``2015-02-30``).
    """
    match = _DATE.fullmatch(token)
    if match is None or month_only and match[3] is not None:
        raise ValueError(f"not an ISO date: {token!r}")
    return datetime.date(int(match[1]), int(match[2]), int(match[3] or 1))


# the array kinds that hold no numbers, though a cast to float64 or complex128 would read them
_NOT_NUMBERS = {"U": "str", "S": "bytes", "b": "bool"}


def _refuse_non_numbers(array: np.ndarray) -> None:
    """Raise TypeError if ``array`` holds text, bytes or bools, by its dtype or, in an object array, by its first such entry."""
    if array.dtype.kind == "O":  # only an object array is scanned entry by entry
        array = np.asarray(next((item for item in array.flat if isinstance(item, (str, bytes, bool, np.bool_))), 0.0))
    if array.dtype.kind in _NOT_NUMBERS:
        raise TypeError(f"got {_NOT_NUMBERS[array.dtype.kind]} entries")


def _real_array(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a float64 array of ``shape`` (of any shape when it is None).

    Raises ValidationError naming ``name`` when it is complex, holds an entry
    that is not a number (a string, bytes, a bool, a dict) or an integer
    beyond float64, has rows of unequal length or has another shape.  Text and
    bools are refused before the cast, which would parse ``"0.5"``, also as
    entries of an object array.  A float64 array passes without a copy.
    """
    try:
        array = np.asarray(value)  # rows of unequal length fail here
        _refuse_non_numbers(array)
        real = not np.iscomplexobj(array)
        array = array.astype(np.float64, copy=False) if real else None  # other non-numbers here
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must hold real numbers: {exc}") from exc
    if not real:
        raise ValidationError(f"{name} must be real")
    if shape is not None and array.shape != shape:
        raise ValidationError(f"{name} shape {array.shape} does not match {shape}")
    return array


def _finite_real(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape`` (of any shape when it is None).

    Raises ValidationError naming ``name`` when :func:`_real_array` refuses it
    or it holds a non-finite entry.  It may be the caller's own array, so
    a constructor freezes it only after all of its checks have passed.
    """
    array = _real_array(name, value, shape)
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} has non-finite entries")
    return array


def _store(instance, **checked) -> None:
    """Set frozen ``instance``'s ``checked`` fields, then make every ndarray field read-only.

    A field may hold the caller's own array, so a constructor calls this last, once every check has passed.
    """
    for name, value in checked.items():
        object.__setattr__(instance, name, value)
    for item in dataclasses.fields(instance):
        value = getattr(instance, item.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
