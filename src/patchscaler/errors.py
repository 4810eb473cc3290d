"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, file-format and
other I/O problems -> 3, NumericError -> 4.
"""


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
