"""Exception types raised by the library, and the rules for its settings.

Everything derives from UnlearnLabError so callers can catch library
failures in one clause. A validation error names every offending field
in its message when more than one thing is wrong; ``integer_problems``
checks every count and seed, and every real-valued setting is read
through ``real_or_nan`` and stored through ``plain_number``.
"""
from __future__ import annotations

import math
import numbers

import numpy as np


class UnlearnLabError(Exception):
    """Base class for all library errors."""


class DimensionError(UnlearnLabError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(UnlearnLabError):
    """A public operation produced NaN or infinity."""


class ContractError(UnlearnLabError):
    """An operation was called outside its documented contract."""


class DegenerateEmbeddingError(UnlearnLabError):
    """A vector with (near-)zero norm reached a normalization step."""


class CheckpointFormatError(UnlearnLabError):
    """Checkpoint bytes do not look like a known container version."""


class CheckpointIntegrityError(UnlearnLabError):
    """Checkpoint container is recognized but damaged or inconsistent."""


class ParseError(UnlearnLabError):
    """A data file could not be parsed; message includes the line number."""


class ValidationError(UnlearnLabError):
    """Invalid configuration or arguments.

    Where several things are wrong, the message lists every one of them,
    so a caller fixes them at once instead of one by one.
    """


class EmptyUnlearnSetError(ValidationError):
    """The requested unlearning target selects no samples."""


class ConfigurationError(ValidationError):
    """A run cannot proceed with the given sizes or settings, such as a
    batch larger than the rows it is drawn from."""


class NoValidAnchorError(UnlearnLabError):
    """No anchor in the batch has the contrast sets its loss requires."""


class UnlearnableConfigurationError(UnlearnLabError):
    """A full pass produced no usable anchor; the task cannot progress."""


class DivergenceError(UnlearnLabError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


def integer_problems(**fields: tuple) -> list[str]:
    """A problem naming each name=(value, minimum[, maximum]) field whose
    value is not a Python or numpy integer in that range, in argument
    order. Bools and floats, even 2.0, are not integers."""
    problems = []
    for name, (value, minimum, *maximum) in fields.items():
        integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not integral or value < minimum or maximum and value > maximum[0]:
            bound = f"in [{minimum}, {maximum[0]}]" if maximum else f">= {minimum}"
            problems.append(f"{name} must be an integer {bound}, got {value!r}")
    return problems


def plain_number(value):
    """A numpy scalar as its Python number (``.item()``), so that a config
    holding it dumps to JSON; any other value as given, so an int setting
    still reads as an int."""
    return value.item() if isinstance(value, np.generic) else value


def real_or_nan(value) -> float:
    """value as a float if it is a real number, else NaN, which every range
    check fails, so a string, None or a bool is reported with the field's
    range. An int past the float range reads as an infinity of its sign.
    """
    if type(value) is float:  # the common case, without the ABC checks
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
