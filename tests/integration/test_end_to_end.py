"""Integration tests: the complete store-and-retrieve path."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.cluster import BatchedGreedyClusterer
from repro.cluster.batched import relabel_batch
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.crypto import ChaCha20
from repro.files import FileEntry, pack_archive, unpack_archive_robust
from repro.media import JpegCodec, psnr, synth_image
from repro.primers import PcrSelector, PrimerDesigner, attach_primers
from repro.utils.bitio import bits_to_bytes, bytes_to_bits

MATRIX = MatrixConfig(m=8, n_columns=80, nsym=16, payload_rows=12)


class TestFullStack:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper"])
    def test_encrypted_archive_roundtrip(self, layout, rng):
        """Archive -> encrypt -> encode -> noisy channel -> decode -> verify."""
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout=layout))
        key, nonce = bytes(range(32)), bytes(12)
        image = synth_image(32, 32, rng=rng)
        compressed = JpegCodec(quality=60).encode(image)
        encrypted = ChaCha20(key, nonce).process(compressed)
        packed = pack_archive([FileEntry("img", encrypted)])
        assert packed.n_bits <= pipeline.capacity_bits

        bits = bytes_to_bits(packed.data)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.05), FixedCoverage(9))
        clusters = simulator.sequence(unit.strands, rng)
        decoded_bits, report = pipeline.decode(clusters, bits.size)
        assert report.clean

        entries = unpack_archive_robust(bits_to_bytes(decoded_bits))
        recovered = ChaCha20(key, nonce).process(entries[0].data)
        assert recovered == compressed
        decoded_image = JpegCodec(quality=60).decode(recovered)
        assert psnr(image, decoded_image) > 25.0

    def test_gamma_coverage_with_dropouts(self, rng):
        """Erasure path: Gamma coverage at a safe mean still decodes."""
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="gini"))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), GammaCoverage(12, shape=3)
        )
        clusters = simulator.sequence(unit.strands, rng)
        decoded, report = pipeline.decode(clusters, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_realistic_clustering_instead_of_oracle(self, rng):
        """Swap perfect clustering for the greedy edit-distance clusterer."""
        matrix = MatrixConfig(m=8, n_columns=24, nsym=6, payload_rows=8)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)

        model = ErrorModel.uniform(0.02)
        reads = []
        for strand in unit.strands:
            reads.extend(model.apply_many(strand, 6, rng))
        order = rng.permutation(len(reads))
        clusters = BatchedGreedyClusterer(threshold=10).cluster_batch(
            ReadBatch.from_strings([[reads[i] for i in order]])
        )
        decoded, report = pipeline.decode(clusters, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_random_access_via_primers(self, rng):
        """Two files with different primer pairs; PCR pulls out only one."""
        matrix = MatrixConfig(m=8, n_columns=30, nsym=6, payload_rows=6)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix))
        pairs = PrimerDesigner(length=16, min_distance=7).design_set(2, rng=3)

        payloads = {}
        tagged_pool = []
        for file_id, pair in enumerate(pairs):
            bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
            payloads[file_id] = bits
            unit = pipeline.encode(bits)
            for strand in unit.strands:
                tagged_pool.append(attach_primers(strand, pair))
        rng.shuffle(tagged_pool)

        # Sequence the whole pot with noise, then select file 1 by primers.
        model = ErrorModel.uniform(0.02)
        noisy_reads = []
        for strand in tagged_pool:
            noisy_reads.extend(model.apply_many(strand, 5, rng))
        selector = PcrSelector(pairs[1], max_errors=4)
        selected = selector.select_batch(ReadBatch.from_strings([noisy_reads]))
        assert selected.n_reads >= 0.9 * 5 * matrix.n_columns

        clusters = BatchedGreedyClusterer(threshold=10).cluster_batch(
            selected
        ).to_clusters()
        # Keep the plausible clusters (primer survivors of the other file
        # are rare but possible).
        clusters = [c for c in clusters if c.coverage >= 2]
        decoded, report = pipeline.decode(clusters, pipeline.capacity_bits)
        assert report.clean
        np.testing.assert_array_equal(decoded, payloads[1])

    def test_perfect_clusters_match_simulator(self, rng):
        """Relabeling a shuffled pool by true source regroups it correctly."""
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        model = ErrorModel.uniform(0.04)
        tagged = []
        for index, strand in enumerate(unit.strands):
            for read in model.apply_many(strand, 7, rng):
                tagged.append((index, read))
        rng.shuffle(tagged)
        pool = ReadBatch.from_strings([[read for _, read in tagged]])
        sources = np.array([index for index, _ in tagged], dtype=np.int64)
        clusters = relabel_batch(pool, sources, len(unit.strands))
        assert clusters.coverage_counts().tolist() == [7] * len(unit.strands)
        decoded, report = pipeline.decode(clusters, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
