"""Exception taxonomy shared by all simulator modules.

The CLI maps these onto exit codes: configuration problems exit 2, bad
input data exits 3, everything else (integrity violations, bugs) exits 4.
"""

import math
from dataclasses import fields


class Car2CloudError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(Car2CloudError):
    """Invalid or inconsistent configuration (unknown key, bad value)."""


class ValidationError(Car2CloudError):
    """Input data violates a documented contract."""


class ParseError(ValidationError):
    """Malformed input file; message carries line number or element path."""


class InfeasibleError(ValidationError):
    """A resource-planning demand cannot be met (e.g. radio outage)."""


class SimulationError(Car2CloudError):
    """Simulation integrity violation, e.g. overlapping vehicles."""


def check_finite(config, prefix: str) -> None:
    """Raise ConfigError naming prefix + the field if a float field of a dataclass is nan or ±inf."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value!r}")
