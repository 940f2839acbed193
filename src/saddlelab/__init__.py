"""Desk-scale laboratory for studying saddle points in class-imbalanced
training: synthetic long-tail datasets, re-weighted/margin losses, SGD/SAM/
PGD/LPF-SGD optimizers, Hessian spectral diagnostics, and amplification-factor
checks, all bitwise reproducible from (config, seed)."""

__version__ = "0.1.0"

from .errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    EmptyClassError,
    GeometryError,
    InfeasibleProfileError,
    NumericError,
    ParameterError,
    RunAbortedError,
    SaddleLabError,
)
from .linalg import SeededRng

__all__ = [
    "__version__",
    "SaddleLabError",
    "DimensionError",
    "ParameterError",
    "NumericError",
    "InfeasibleProfileError",
    "GeometryError",
    "EmptyClassError",
    "ConfigError",
    "CheckpointError",
    "RunAbortedError",
    "SeededRng",
]
