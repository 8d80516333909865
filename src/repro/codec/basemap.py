"""The paper's direct 2-bits-per-base mapping (00=A, 01=C, 10=G, 11=T).

DNA strings travel through the library as Python ``str`` of ``ACGT``
characters (readable, easy to diff in tests); hot paths convert to uint8
index arrays with :func:`bases_to_indices`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

BASES = "ACGT"
# Lookup table over ASCII codes for vectorized conversion.
_ASCII_TO_INDEX = np.full(128, -1, dtype=np.int8)
for _i, _b in enumerate(BASES):
    _ASCII_TO_INDEX[ord(_b)] = _i


def bases_to_indices(strand: str) -> np.ndarray:
    """Convert an ACGT string to a uint8 index array (A=0, C=1, G=2, T=3)."""
    codes = np.frombuffer(strand.encode("ascii"), dtype=np.uint8)
    indices = _ASCII_TO_INDEX[codes]
    if np.any(indices < 0):
        bad = strand[int(np.argmax(indices < 0))]
        raise ValueError(f"invalid DNA character {bad!r}")
    return indices.astype(np.uint8)


_INDEX_TO_ASCII = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)


def indices_to_bases(indices: np.ndarray) -> str:
    """Convert an index array back to an ACGT string."""
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() > 3):
        raise ValueError("base indices must be in [0, 3]")
    return _INDEX_TO_ASCII[indices.astype(np.int64)].tobytes().decode("ascii")


def random_bases(length: int, rng: RngLike = None) -> str:
    """Generate a uniformly random DNA string of the given length."""
    generator = ensure_rng(rng)
    return indices_to_bases(generator.integers(0, 4, size=length))
