"""Exception hierarchy shared across the package, and the check that turns a
size numpy refuses to allocate into a ConfigError.

The CLI maps these onto exit codes: ConfigError -> 2, file-format and
other I/O problems -> 3, NumericError -> 4.
"""
import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value (bad schedule bounds, thresholds, sizes...)."""


class GridShapeError(ValueError):
    """Grid shapes disagree with what an operation requires."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values (e.g. diverging training)."""


class FormatError(IOError):
    """Base class for on-disk format problems."""


class MagicMismatchError(FormatError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(FormatError):
    """File ended before the declared payload was read."""


class DimensionMismatchError(FormatError):
    """Header dimensions disagree with the payload or with each other."""


class DegenerateQueryError(ValueError):
    """A retrieval query produced a zero feature vector and cannot be normalized."""


class StageError(RuntimeError):
    """Wraps a failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def check_allocatable(what: str, shape) -> None:
    """ConfigError naming the setting `what` if numpy refuses a float64 array
    of shape (MemoryError, or ValueError past its largest array); np.empty
    writes nothing, so this runs before an array of that size is filled."""
    try:
        np.empty(shape)
    except (MemoryError, ValueError) as e:
        raise ConfigError(f"{what} is too large: {e}") from e
