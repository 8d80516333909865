"""Synthetic grayscale photographs.

The paper's workload is ten private JPEG photos of 5 KB-1.5 MB; this
generator stands in for them (see DESIGN.md's substitution table). Images
combine the structures that drive JPEG behaviour on natural photos: smooth
illumination gradients (low-frequency energy), geometric objects with hard
edges (localized high frequency), and band-limited texture noise
(mid-frequency energy). Sizes and object counts are parameterized so a
compressed-size mix like the paper's can be produced. scipy (for the
texture blur) loads on the first call, not at import.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


def synth_image(
    height: int = 256,
    width: int = 256,
    n_shapes: int = 12,
    texture_strength: float = 12.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Generate a (height, width) uint8 grayscale image.

    Args:
        height / width: image dimensions (>= 16 each).
        n_shapes: number of random ellipses and rectangles to draw.
        texture_strength: amplitude of the band-limited texture component.
        rng: random source.
    """
    from scipy import ndimage

    if height < 16 or width < 16:
        raise ValueError("image must be at least 16x16")
    generator = ensure_rng(rng)
    ys, xs = np.mgrid[0:height, 0:width]

    # Smooth illumination: a tilted plane plus two broad Gaussian blobs.
    angle = generator.uniform(0, 2 * np.pi)
    gradient = (
        np.cos(angle) * xs / width + np.sin(angle) * ys / height
    ) * generator.uniform(40, 90)
    image = np.full((height, width), generator.uniform(80, 160)) + gradient
    for _ in range(2):
        cy, cx = generator.uniform(0, height), generator.uniform(0, width)
        sigma = generator.uniform(0.25, 0.6) * min(height, width)
        blob = np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma**2)))
        image += generator.uniform(-50, 50) * blob

    # Geometric objects: filled ellipses and axis-aligned rectangles.
    for _ in range(n_shapes):
        shade = generator.uniform(0, 255)
        if generator.random() < 0.5:
            cy, cx = generator.uniform(0, height), generator.uniform(0, width)
            ry = generator.uniform(0.03, 0.2) * height
            rx = generator.uniform(0.03, 0.2) * width
            mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        else:
            y0 = int(generator.uniform(0, height * 0.9))
            x0 = int(generator.uniform(0, width * 0.9))
            y1 = min(height, y0 + int(generator.uniform(4, height * 0.3)))
            x1 = min(width, x0 + int(generator.uniform(4, width * 0.3)))
            mask = np.zeros((height, width), dtype=bool)
            mask[y0:y1, x0:x1] = True
        alpha = generator.uniform(0.5, 1.0)
        image[mask] = (1 - alpha) * image[mask] + alpha * shade

    # Band-limited texture: blurred white noise.
    noise = generator.normal(0.0, 1.0, size=(height, width))
    texture = ndimage.gaussian_filter(noise, sigma=1.5)
    scale = texture.std()
    if scale > 0:
        image += texture_strength * texture / scale

    return np.clip(np.round(image), 0, 255).astype(np.uint8)
