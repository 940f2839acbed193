"""Exception hierarchy shared across the package."""


class SaddleLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SaddleLabError):
    """Operand shapes or lengths do not agree."""


class ParameterError(SaddleLabError):
    """A scalar argument is outside its allowed range."""


class NumericError(SaddleLabError):
    """A computation produced or received non-finite values."""


class InfeasibleProfileError(ParameterError):
    """Imbalance profile rounds the smallest class to zero samples."""


class GeometryError(ParameterError):
    """Class-mean placement is impossible in the requested dimension."""


class EmptyClassError(SaddleLabError):
    """Requested class has no samples."""


class ConfigError(SaddleLabError):
    """Experiment config file is malformed or contains unknown keys."""


class RunAbortedError(SaddleLabError):
    """Training run failed; the message records the failing epoch and step."""


class CheckpointError(SaddleLabError):
    """Checkpoint file is corrupt, truncated, or of the wrong version."""
