"""Fuzzing the robust JPEG decoder: corruption must never crash it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media import JpegCodec, synth_image


@pytest.fixture(scope="module")
def gray_compressed():
    return JpegCodec(quality=60).encode(synth_image(40, 40, rng=1))


class TestGrayFuzz:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=400))
    def test_random_bytes_never_crash(self, data):
        image, stats = JpegCodec().decode_robust(data)
        assert image.dtype == np.uint8
        assert stats.blocks_decoded <= stats.blocks_total

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 40))
    def test_multibyte_corruption_never_crashes(self, seed, n_corrupt):
        data = bytearray(JpegCodec(quality=60).encode(synth_image(24, 24, rng=3)))
        rng = np.random.default_rng(seed)
        for position in rng.choice(len(data), min(n_corrupt, len(data)),
                                   replace=False):
            data[position] = int(rng.integers(0, 256))
        image, _ = JpegCodec(quality=60).decode_robust(bytes(data))
        assert image.dtype == np.uint8

    def test_truncation_ladder(self, gray_compressed):
        """Decoded block count never increases as the stream is cut."""
        codec = JpegCodec(quality=60)
        previous = None
        for keep in range(len(gray_compressed), 6, -16):
            _, stats = codec.decode_robust(gray_compressed[:keep])
            if previous is not None:
                assert stats.blocks_decoded <= previous
            previous = stats.blocks_decoded

    def test_empty_input(self):
        image, stats = JpegCodec().decode_robust(b"")
        assert stats.blocks_decoded == 0
