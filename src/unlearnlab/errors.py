"""Exception types raised by the library.

Everything derives from UnlearnLabError so callers can catch library
failures in one clause. A validation error names every offending field
in its message when more than one thing is wrong.
"""
from __future__ import annotations


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


class ConfigurationError(UnlearnLabError):
    """A run cannot proceed with the given sizes or settings."""


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
