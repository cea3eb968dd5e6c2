"""Exception types shared by all hetasym modules, and the range rules that
every numeric parameter is checked against where it enters.

Two failure families are distinguished so the CLI can map them onto
distinct exit codes: bad input/configuration (exit 2) versus numerical
failures such as unphysical parameters or non-convergence (exit 3).
"""

import math


class ValidationError(ValueError):
    """Invalid input data, parameters, or configuration."""


class NumericalDomainError(ArithmeticError):
    """A computation left its numerical domain (unphysical parameters,
    eigenvalues out of range beyond tolerance, impossible inversions)."""


# Each rule is written so that NaN fails it, and returns the value it checked.

def positive(name: str, value: float) -> float:
    """value if 0 < value < inf; raises ValidationError otherwise."""
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def non_negative(name: str, value: float) -> float:
    """value if 0 <= value < inf; raises ValidationError otherwise."""
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def unit_interval(name: str, value: float) -> float:
    """value if 0 < value <= 1; raises ValidationError otherwise."""
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"{name} must be in (0, 1], got {value}")
    return value


def integer_at_least(name: str, value, minimum: int) -> int:
    """int(value) if value is an integer >= minimum (2.0 counts, 2.5 does
    not); raises ValidationError otherwise."""
    try:
        ok = value >= minimum and int(value) == value
    except (TypeError, ValueError, OverflowError):  # a string, NaN, inf
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)
