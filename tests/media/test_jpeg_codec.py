"""Tests for the JPEG codec container and robust decoding."""

import numpy as np
import pytest

from repro.media import JpegCodec, psnr, synth_image
from repro.utils.bitio import bits_to_bytes, bytes_to_bits


@pytest.fixture(scope="module")
def image():
    return synth_image(96, 80, rng=11)


@pytest.fixture(scope="module")
def codec():
    return JpegCodec(quality=75)


@pytest.fixture(scope="module")
def compressed(image, codec):
    return codec.encode(image)


class TestEncode:
    def test_compresses(self, image, compressed):
        assert len(compressed) < image.size

    def test_deterministic(self, image, codec):
        assert codec.encode(image) == codec.encode(image)

    def test_quality_size_tradeoff(self, image):
        small = JpegCodec(quality=20).encode(image)
        large = JpegCodec(quality=95).encode(image)
        assert len(small) < len(large)

    def test_rejects_non_2d(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.zeros((4, 4, 3), dtype=np.uint8))

    def test_rejects_empty(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.zeros((0, 8), dtype=np.uint8))

    def test_non_multiple_of_eight_dimensions(self, codec):
        image = synth_image(33, 47, rng=2)
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == image.shape

    @pytest.mark.parametrize("shape", [(1, 1), (7, 9), (8, 8), (9, 17),
                                       (16, 3)])
    def test_edge_block_geometry(self, codec, shape):
        """Partial edge blocks pad on encode and crop on decode."""
        rows, cols = np.mgrid[0:shape[0], 0:shape[1]]
        image = (rows * 9 + cols * 5 + 40).astype(np.uint8)
        decoded, stats = codec.decode_robust(codec.encode(image))
        assert decoded.shape == shape
        assert not stats.failed
        assert stats.blocks_total == (-(-shape[0] // 8)) * (-(-shape[1] // 8))
        assert np.abs(decoded.astype(int) - image.astype(int)).max() <= 12


class TestDecode:
    def test_roundtrip_quality(self, image, codec, compressed):
        decoded = codec.decode(compressed)
        assert decoded.shape == image.shape
        assert psnr(image, decoded) > 28.0

    def test_higher_quality_higher_psnr(self, image):
        low = JpegCodec(quality=20)
        high = JpegCodec(quality=95)
        psnr_low = psnr(image, low.decode(low.encode(image)))
        psnr_high = psnr(image, high.decode(high.encode(image)))
        assert psnr_high > psnr_low + 3.0

    def test_flat_image_nearly_lossless(self, codec):
        flat = np.full((32, 32), 77, dtype=np.uint8)
        decoded = codec.decode(codec.encode(flat))
        assert np.abs(decoded.astype(int) - 77).max() <= 1

    def test_strict_decode_raises_on_truncation(self, codec, compressed):
        with pytest.raises(ValueError):
            codec.decode(compressed[: len(compressed) // 2])


class TestRobustDecode:
    def test_clean_stream_fully_decodes(self, codec, compressed, image):
        decoded, stats = codec.decode_robust(compressed)
        assert not stats.failed
        assert stats.blocks_decoded == stats.blocks_total
        assert decoded.shape == image.shape

    def test_truncated_stream_partial_decode(self, codec, compressed, image):
        decoded, stats = codec.decode_robust(compressed[: len(compressed) // 3])
        assert stats.failed
        assert 0 < stats.blocks_decoded < stats.blocks_total
        assert decoded.shape == image.shape  # geometry survives

    def test_destroyed_header_gives_fallback(self, codec, compressed):
        corrupted = b"XX" + compressed[2:]
        decoded, stats = codec.decode_robust(corrupted)
        assert stats.blocks_decoded == 0

    def test_never_raises_on_random_corruption(self, codec, compressed, rng):
        bits = bytes_to_bits(compressed)
        for _ in range(25):
            flipped = bits.copy()
            for position in rng.choice(len(bits), 5, replace=False):
                flipped[position] ^= 1
            decoded, stats = codec.decode_robust(bits_to_bytes(flipped))
            assert decoded.dtype == np.uint8

    def test_early_corruption_worse_than_late(self, codec, image, rng):
        """The Figure 10 trend, aggregated over many single-bit flips."""
        compressed = codec.encode(image)
        clean = codec.decode(compressed)
        bits = bytes_to_bits(compressed)
        n = len(bits)

        def mean_loss(window):
            losses = []
            for position in rng.choice(window, 40, replace=False):
                flipped = bits.copy()
                flipped[position] ^= 1
                decoded, _ = codec.decode_robust(bits_to_bytes(flipped))
                if decoded.shape != clean.shape:
                    losses.append(48.0)
                else:
                    value = psnr(clean, decoded)
                    losses.append(0.0 if value == float("inf")
                                  else max(0.0, 60.0 - value))
            return np.mean(losses)

        early = mean_loss(np.arange(72, n // 5))
        late = mean_loss(np.arange(4 * n // 5, n))
        assert early > late
