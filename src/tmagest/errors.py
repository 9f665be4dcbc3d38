"""Exception hierarchy shared across the package."""

import os


class TmagestError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TmagestError):
    """Invalid configuration or parameter outside its legal domain."""


class StructuralError(TmagestError):
    """Shape, ordering, or sizing violation in streamed data."""


class NotReadyError(TmagestError):
    """An operation was requested before enough data accumulated."""


class CalibrationError(TmagestError):
    """Threshold calibration received unusable input."""


class TrainingError(TmagestError):
    """Training dataset or settings cannot produce a valid model."""


class UsageError(TmagestError):
    """An object was used before it was ready (e.g. predict on a bare model)."""


class RecordingParseError(TmagestError):
    """A recording or annotation file failed to parse.

    Carries the 1-based line number of the offending row and the file's path
    when known; the message starts with them (``a.csv: line 2: ...``).
    """

    def __init__(self, message: str, line: int | None = None,
                 path: str | os.PathLike | None = None):
        self.reason, self.line, self.path = message, line, path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ModelIOError(TmagestError):
    """Base class for model-file serialization failures."""


class ModelFormatError(ModelIOError):
    """File does not start with the expected magic bytes."""


class ModelVersionError(ModelIOError):
    """Container version is not supported by this build."""


class ModelTruncatedError(ModelIOError):
    """File ended before all declared payload bytes were read."""
