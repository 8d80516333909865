"""Baseline JPEG-style grayscale codec built from scratch.

See :mod:`repro.media.jpeg.codec` for the container format and the
robust-decoding behaviour the evaluation relies on.
"""

from repro.media.jpeg.codec import JpegCodec, JpegDecodeStats

__all__ = ["JpegCodec", "JpegDecodeStats"]
