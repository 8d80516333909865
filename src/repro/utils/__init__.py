"""Shared low-level utilities: bit I/O, RNG normalization, validation."""

from repro.utils.bitio import (
    BitReader,
    BitWriter,
    bits_to_bytes,
    bytes_to_bits,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "bits_to_bytes",
    "bytes_to_bits",
    "ensure_rng",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
