"""Exception types shared across the package, and the positive-number and length rules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, tolerance failures with 1, statistically undecidable results
with 3.
"""

import math


class ValidationError(ValueError):
    """A physical parameter or input array is outside its valid domain."""


class ConfigurationError(ValueError):
    """A grid, file, or run configuration is inconsistent or unusable."""


class InsufficientDataError(RuntimeError):
    """Too few samples to produce the requested statistical result."""


class NoDetectionError(RuntimeError):
    """An image has no statistically significant, resolvable peak."""


def require_positive(name: str, value: float) -> None:
    """Raise ValidationError unless value is finite and > 0; name heads the message."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and > 0, got {value}")


def require_length(name: str, value: float) -> None:
    """Raise ValidationError unless a coherence length is > 0: math.inf (no turbulence) passes."""
    if not value > 0:
        raise ValidationError(f"{name} must be > 0 (inf for no turbulence), got {value}")
