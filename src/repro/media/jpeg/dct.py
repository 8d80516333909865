"""Blockwise 8x8 DCT used by the JPEG codec.

The orthonormal 2-D DCT-II over an 8x8 block equals the JPEG FDCT exactly
(the 1/4 * C(u) * C(v) scaling of T.81 is the product of the two 1-D
orthonormal factors), so :func:`scipy.fft.dctn` with ``norm='ortho'`` is
the textbook-correct transform. All blocks of an image are transformed in
one vectorized call. scipy loads on the first transform, not at import,
so the storage path never loads it.
"""

from __future__ import annotations

import numpy as np


def blockify(image: np.ndarray, block: int = 8) -> tuple:
    """Split an image into (n_blocks, block, block), padding by edge-replication.

    Returns (blocks, padded_shape, grid) where grid is (rows, cols) of the
    block layout — everything :func:`unblockify` needs.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {image.shape}")
    height, width = image.shape
    pad_h = (-height) % block
    pad_w = (-width) % block
    padded = np.pad(image, ((0, pad_h), (0, pad_w)), mode="edge")
    rows = padded.shape[0] // block
    cols = padded.shape[1] // block
    blocks = (
        padded.reshape(rows, block, cols, block)
        .transpose(0, 2, 1, 3)
        .reshape(rows * cols, block, block)
    )
    return blocks, padded.shape, (rows, cols)


def unblockify(
    blocks: np.ndarray, padded_shape: tuple, grid: tuple, original_shape: tuple,
    block: int = 8,
) -> np.ndarray:
    """Reassemble blocks into an image and crop away the padding."""
    rows, cols = grid
    image = (
        blocks.reshape(rows, cols, block, block)
        .transpose(0, 2, 1, 3)
        .reshape(padded_shape)
    )
    height, width = original_shape
    return image[:height, :width]


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """JPEG FDCT of every block (level shift is the caller's job)."""
    from scipy.fft import dctn

    return dctn(blocks.astype(np.float64), axes=(-2, -1), norm="ortho")


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct`."""
    from scipy.fft import idctn

    return idctn(np.asarray(coefficients, dtype=np.float64),
                 axes=(-2, -1), norm="ortho")
