"""Normalization of random sources.

Every stochastic component in the library accepts either an integer seed, a
``numpy.random.Generator``, or ``None`` (fresh entropy), and normalizes it
through :func:`ensure_rng`. Experiments pass integer seeds so that every
figure is reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted random source.

    Args:
        rng: ``None`` for fresh OS entropy, an ``int`` seed, or an existing
            ``Generator`` (returned unchanged, so callers can thread one
            generator through a whole experiment).

    Raises:
        TypeError: if ``rng`` is not one of the accepted types.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"expected None, int seed, or numpy Generator, got {type(rng).__name__}"
    )
