"""Bit-level I/O.

The DNA pipeline and the JPEG entropy coder both operate on bit streams that
are not byte-aligned, so the library keeps a single, well-tested pair of
``BitWriter``/``BitReader`` classes here plus vectorized bytes<->bits
conversions used in hot paths.

Bit order is most-significant-bit first throughout the library: the first
bit written is the highest bit of the first byte. This matches the order in
which JPEG entropy-coded segments and the paper's 2-bits-per-base mapping
consume data.
"""

from __future__ import annotations

import numpy as np


class BitWriter:
    """Accumulates individual bits / bit fields into a byte buffer (MSB first)."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_count = 0  # bits used in the current (last) byte, 0..7

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._bytes) * 8 - (8 - self._bit_count) % 8

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if self._bit_count == 0:
            self._bytes.append(0)
        if bit:
            self._bytes[-1] |= 1 << (7 - self._bit_count)
        self._bit_count = (self._bit_count + 1) % 8

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def to_bytes(self) -> bytes:
        """Return the buffer, zero-padding the final partial byte."""
        return bytes(self._bytes)


class BitReader:
    """Reads bits / bit fields from a byte buffer (MSB first)."""

    def __init__(self, data: bytes) -> None:
        self._bits = bytes_to_bits(data)
        self._pos = 0

    @property
    def position(self) -> int:
        """Current bit offset from the start."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        """Read one bit; raises EOFError past the end."""
        if self._pos >= len(self._bits):
            raise EOFError("bit stream exhausted")
        bit = int(self._bits[self._pos])
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if self._pos + width > len(self._bits):
            raise EOFError(
                f"requested {width} bits, only {self.remaining} remaining"
            )
        value = 0
        for _ in range(width):
            value = (value << 1) | int(self._bits[self._pos])
            self._pos += 1
        return value


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Vectorized bytes -> uint8 bit array (MSB of each byte first)."""
    if len(data) == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Vectorized 0/1 array -> bytes, zero-padding to a byte boundary."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return b""
    return np.packbits(bits).tobytes()
