"""Small argument-validation helpers used across the library.

These raise ``ValueError`` with a consistent message format so that
misconfiguration is caught at construction time rather than deep inside an
experiment sweep.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def check_probability(value: Number, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_positive(value: Number, name: str) -> None:
    """Require ``value > 0``."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_non_negative(value: Number, name: str) -> None:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
