"""Tests for bit-priority rankings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import (
    identity_ranking,
    oracle_ranking,
    proportional_share_ranking,
)
from repro.media import JpegCodec, synth_image


class TestIdentityRanking:
    def test_is_identity(self):
        np.testing.assert_array_equal(identity_ranking(5), [0, 1, 2, 3, 4])

    def test_empty(self):
        assert identity_ranking(0).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            identity_ranking(-1)


class TestProportionalShare:
    def test_is_permutation(self):
        rank = proportional_share_ranking([16, 8, 24])
        assert sorted(rank.tolist()) == list(range(48))

    def test_within_file_order_preserved(self):
        rank = proportional_share_ranking([10, 20])
        for start, size in ((0, 10), (10, 20)):
            positions = [np.where(rank == start + j)[0][0] for j in range(size)]
            assert positions == sorted(positions)

    def test_proportional_interleaving(self):
        """A file twice the size gets twice the bits in every prefix."""
        rank = proportional_share_ranking([100, 200])
        prefix = rank[:30]
        from_small = (prefix < 100).sum()
        from_large = (prefix >= 100).sum()
        assert abs(from_large - 2 * from_small) <= 3

    def test_top_priority_segment_first(self):
        rank = proportional_share_ranking([8, 16, 8], top_priority_segments=[0])
        np.testing.assert_array_equal(rank[:8], np.arange(8))

    def test_multiple_top_segments_in_order(self):
        rank = proportional_share_ranking([4, 4, 4], top_priority_segments=[2, 0])
        np.testing.assert_array_equal(rank[:4], [8, 9, 10, 11])
        np.testing.assert_array_equal(rank[4:8], [0, 1, 2, 3])

    def test_empty_segments_skipped(self):
        rank = proportional_share_ranking([0, 6, 0])
        assert sorted(rank.tolist()) == list(range(6))

    def test_no_segments(self):
        assert proportional_share_ranking([]).size == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            proportional_share_ranking([-1])

    def test_rejects_bad_top_index(self):
        with pytest.raises(ValueError):
            proportional_share_ranking([4], top_priority_segments=[1])

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=6))
    def test_always_a_permutation(self, sizes):
        rank = proportional_share_ranking(sizes)
        assert sorted(rank.tolist()) == list(range(sum(sizes)))


class TestOracleRanking:
    @pytest.fixture(scope="class")
    def setup(self):
        codec = JpegCodec(quality=50)
        image = synth_image(24, 24, rng=3)
        return codec, image, codec.encode(image)

    def test_is_permutation(self, setup):
        codec, image, compressed = setup
        rank = oracle_ranking(compressed, codec=codec, original=image)
        assert sorted(rank.tolist()) == list(range(len(compressed) * 8))

    def test_header_bits_rank_high(self, setup):
        """Destroying the header is catastrophic, so header bits must
        dominate the top of the oracle ranking."""
        codec, image, compressed = setup
        rank = oracle_ranking(compressed, codec=codec, original=image)
        top = set(rank[:40].tolist())
        header_bits = set(range(16))  # the magic bytes: guaranteed fatal
        assert len(top & header_bits) >= 8

    def test_progress_callback(self, setup):
        codec, image, compressed = setup
        calls = []
        oracle_ranking(compressed, codec=codec, original=image,
                       progress=lambda done, total: calls.append((done, total)))
        assert calls[-1][0] == calls[-1][1] == len(compressed) * 8
