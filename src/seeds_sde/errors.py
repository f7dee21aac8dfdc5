"""Exception types shared across the package, and the two input checks that raise
a ConfigError naming what they check."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (solver/schedule/grid mismatch)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class GridError(ValueError):
    """Invalid time discretization."""


class DegenerateGridError(GridError):
    """Two consecutive grid times coincide after schedule inversion."""


def as_integer(key: str, value, most: float = math.inf) -> int:
    """``value`` as an int; a ConfigError naming ``key`` unless it is integral (a bool is
    not) and at most ``most``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value > most:
        raise ConfigError(f"{key} must be at most {most}, got {value!r}")
    return int(value)


def as_number(key: str, value, inf_ok: bool = False) -> float:
    """``value`` as a float; a ConfigError naming ``key`` unless it is a finite
    number (a bool is not), or +inf where ``inf_ok`` allows it."""
    try:
        if not isinstance(value, bool) and (math.isfinite(value) or inf_ok and value == math.inf):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")
