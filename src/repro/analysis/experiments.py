"""Experiment harnesses behind the paper's evaluation figures.

* :func:`min_coverage_for_error_free` — Figure 12: sweep coverage upward
  until a unit decodes with zero bit errors.
* :func:`min_coverage_vs_redundancy` — Figure 13: the same search while
  *effective* redundancy is reduced by injecting controlled erasures.
* :class:`ImageStoreExperiment` — Figures 14/15: an encrypted multi-image
  archive stored under any layout, retrieved at varying coverage, with
  per-image quality-loss accounting and the honest staged decode for
  DnaMapper (directory first, then the ranking it implies).

Every retrieval in these harnesses rides the batched consensus engine —
the coverage sweeps here run hundreds of unit decodes, so they are only
tractable because of that batch path. The min-coverage searches go one
level further and batch at the *store plane*: each coverage step
concatenates every still-unsolved trial's unit into one spanning
:class:`~repro.channel.readbatch.ReadBatch` and decodes them all through
a single :meth:`~repro.core.pipeline.DnaStoragePipeline.decode_many`
call (one consensus pass per step, not per trial). The read side is
columnar too: one :class:`~repro.channel.sequencer.ReadPool` (a single
batched-engine call) covers all trials of a sweep, and decodes consume
zero-copy :class:`~repro.channel.readbatch.ReadBatch` slices of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.errors import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.channel.sequencer import ReadPool
from repro.core.layout import MatrixConfig
from repro.core.pipeline import DnaStoragePipeline, PipelineConfig
from repro.core.ranking import proportional_share_ranking
from repro.crypto.chacha20 import ChaCha20
from repro.files.archive import (
    ArchiveError,
    FileEntry,
    PackedArchive,
    directory_file_sizes,
    directory_size_bits,
    pack_archive,
    unpack_archive_robust,
)
from repro.media.jpeg import JpegCodec
from repro.media.psnr import quality_loss_db
from repro.utils.bitio import bits_to_bytes, bytes_to_bits
from repro.utils.rng import RngLike, ensure_rng

#: Quality-loss value recorded when an image cannot be decoded at all
#: (the paper calls this "catastrophic data loss").
CATASTROPHIC_LOSS_DB = 48.0


# ---------------------------------------------------------------------------
# Figures 12 / 13: minimum coverage searches
# ---------------------------------------------------------------------------

def min_coverage_for_error_free(
    pipeline: DnaStoragePipeline,
    error_rate: float,
    coverages: Sequence[int],
    trials: int = 3,
    rng: RngLike = None,
    extra_erasure_columns: Sequence[int] = (),
    payload_bits: Optional[np.ndarray] = None,
) -> float:
    """Average (over trials) minimum coverage for an exact decode.

    For each trial, a fresh random payload is encoded (one batched
    ``encode_many`` pass over all trials); *one* read pool covering every
    trial's strands at the largest requested coverage is generated in a
    single batched-engine call. The search then walks the coverages
    upward: at each step, *all* still-unsolved trials' units are
    concatenated into one spanning batch and decoded through a single
    :meth:`~repro.core.pipeline.DnaStoragePipeline.decode_many` call (one
    consensus pass for the whole step); trials that decode bit-exact drop
    out with that coverage as their minimum. Decodes consume columnar
    sub-batches of the pool — no strings, no per-read Python objects
    anywhere in the sweep — and per-trial results are identical to
    decoding each trial on its own (nested read sets make the search
    order immaterial). Trials where even the largest coverage fails
    contribute ``max(coverages) + 1``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coverages = sorted(int(c) for c in coverages)
    if not coverages:
        raise ValueError("coverages must be non-empty")
    generator = ensure_rng(rng)
    model = ErrorModel.uniform(error_rate)
    n_columns = pipeline.matrix_config.n_columns
    trial_bits: List[np.ndarray] = []
    for _ in range(trials):
        if payload_bits is None:
            bits = generator.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        else:
            bits = np.asarray(payload_bits, dtype=np.uint8)
        trial_bits.append(bits)
    all_strands: List[str] = []
    for unit in pipeline.encode_many(trial_bits):
        all_strands.extend(unit.strands)
    pool = ReadPool(all_strands, model, max_coverage=coverages[-1],
                    rng=generator)
    minima = np.full(trials, coverages[-1] + 1, dtype=np.int64)
    remaining = list(range(trials))
    for coverage in coverages:
        if not remaining:
            break
        spanning = ReadBatch.concat([
            pool.batch_at(coverage, first_cluster=t * n_columns,
                          n_clusters=n_columns)
            for t in remaining
        ])
        results = pipeline.decode_many(
            spanning, [trial_bits[t].size for t in remaining],
            extra_erasure_columns=extra_erasure_columns,
        )
        unsolved = []
        for t, (decoded, report) in zip(remaining, results):
            if report.clean and np.array_equal(decoded, trial_bits[t]):
                minima[t] = coverage
            else:
                unsolved.append(t)
        remaining = unsolved
    return float(np.mean(minima))


def min_coverage_vs_redundancy(
    matrix: MatrixConfig,
    layout: str,
    error_rate: float,
    effective_nsym_values: Sequence[int],
    coverages: Sequence[int],
    trials: int = 3,
    rng: RngLike = None,
) -> List[Tuple[int, float]]:
    """Figure 13: min coverage as effective redundancy shrinks.

    Effective redundancy is reduced the way the paper does it: the encoded
    unit keeps its full ``nsym`` parity columns, but ``nsym - target``
    redundancy columns are declared erased at decode time, so only
    ``target`` parity symbols actually help.

    Returns ``[(effective_nsym, mean_min_coverage), ...]``.
    """
    generator = ensure_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix, layout=layout))
    results = []
    for target in effective_nsym_values:
        target = int(target)
        if not (0 < target <= matrix.nsym):
            raise ValueError(f"effective nsym {target} out of (0, {matrix.nsym}]")
        # Erase the *last* parity columns deterministically; which ones is
        # immaterial since every column carries one symbol per codeword.
        sacrificed = list(range(matrix.n_columns - (matrix.nsym - target),
                                matrix.n_columns))
        value = min_coverage_for_error_free(
            pipeline, error_rate, coverages, trials=trials, rng=generator,
            extra_erasure_columns=sacrificed,
        )
        results.append((target, value))
    return results


# ---------------------------------------------------------------------------
# Figures 14 / 15 / 16: image-store experiments
# ---------------------------------------------------------------------------

@dataclass
class StoredImage:
    """One image of the store with its crypto material."""

    name: str
    original: np.ndarray
    compressed: bytes
    key: bytes
    nonce: bytes


@dataclass
class RetrievalResult:
    """Outcome of one retrieval of the whole store.

    Attributes:
        losses_db: per-image quality loss (CATASTROPHIC_LOSS_DB when the
            image could not be decoded).
        n_catastrophic: images that could not be decoded at all.
        archive_ok: False when even the directory was unusable.
        decode_clean: True when every RS codeword decoded.
    """

    losses_db: List[float]
    n_catastrophic: int
    archive_ok: bool
    decode_clean: bool

    @property
    def mean_loss_db(self) -> float:
        return float(np.mean(self.losses_db)) if self.losses_db else float("nan")


class ImageStoreExperiment:
    """Encrypted multi-image archive stored in one encoding unit.

    Mirrors the paper's Section 6.1 setup: several images of different
    sizes are JPEG-compressed, encrypted, packed together with a directory
    file, and encoded into a single matrix under the chosen layout. Under
    DnaMapper, the directory gets the highest priority and every file a
    proportional share of each reliability class.

    Args:
        images: grayscale (H, W) uint8 arrays.
        matrix: encoding-unit geometry (must fit the archive).
        layout: 'baseline', 'gini', or 'dnamapper'.
        quality: JPEG quality for compression.
        encrypt: ChaCha20-encrypt every image payload (as the paper does).
        rng: random source for keys.
    """

    def __init__(
        self,
        images: Sequence[np.ndarray],
        matrix: MatrixConfig,
        layout: str = "baseline",
        quality: int = 75,
        encrypt: bool = True,
        rng: RngLike = None,
    ) -> None:
        generator = ensure_rng(rng)
        self.codec = JpegCodec(quality=quality)
        self.layout = layout
        self.encrypt = encrypt
        self.images: List[StoredImage] = []
        entries: List[FileEntry] = []
        for i, image in enumerate(images):
            compressed = self.codec.encode(np.asarray(image))
            key = generator.bytes(32)
            nonce = generator.bytes(12)
            payload = (
                ChaCha20(key, nonce).process(compressed) if encrypt else compressed
            )
            name = f"image_{i:02d}.rj"
            self.images.append(StoredImage(
                name=name, original=np.asarray(image), compressed=compressed,
                key=key, nonce=nonce,
            ))
            entries.append(FileEntry(name=name, data=payload))
        self.archive: PackedArchive = pack_archive(entries)

        self.pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=matrix, layout=layout)
        )
        if self.archive.n_bits > self.pipeline.capacity_bits:
            raise ValueError(
                f"archive of {self.archive.n_bits} bits exceeds unit capacity "
                f"{self.pipeline.capacity_bits}"
            )
        self.ranking = (
            proportional_share_ranking(
                self.archive.segment_bits, top_priority_segments=[0]
            )
            if layout == "dnamapper"
            else None
        )
        self.unit = self.pipeline.encode(
            bytes_to_bits(self.archive.data), ranking=self.ranking
        )
        self._clean_decodes = [
            self.codec.decode_robust(img.compressed)[0] for img in self.images
        ]

    def build_pool(
        self,
        error_rate: float,
        max_coverage: int,
        rng: RngLike = None,
        dispersion_shape: Optional[float] = None,
    ) -> ReadPool:
        """Pre-generate reads for a coverage sweep at one error rate."""
        return ReadPool(
            self.unit.strands,
            ErrorModel.uniform(error_rate),
            max_coverage=max_coverage,
            rng=rng,
            dispersion_shape=dispersion_shape,
        )

    def retrieve(self, batch: ReadBatch) -> RetrievalResult:
        """Decode the whole store from one unit's read batch (e.g.
        ``pool.batch_at(coverage)``) and score every image."""
        received = self.pipeline.receive(batch)
        matrix, report = self.pipeline.correct_matrix(received)
        prioritized = self.pipeline.prioritized_bits(matrix)
        try:
            data = self.extract_archive(prioritized)
            entries = unpack_archive_robust(data)
        except ArchiveError:
            return RetrievalResult(
                losses_db=[CATASTROPHIC_LOSS_DB] * len(self.images),
                n_catastrophic=len(self.images),
                archive_ok=False,
                decode_clean=report.clean,
            )
        by_name = {entry.name: entry.data for entry in entries}
        losses: List[float] = []
        catastrophic = 0
        for stored, clean in zip(self.images, self._clean_decodes):
            payload = by_name.get(stored.name)
            if payload is None or len(payload) != len(stored.compressed):
                losses.append(CATASTROPHIC_LOSS_DB)
                catastrophic += 1
                continue
            compressed = (
                ChaCha20(stored.key, stored.nonce).process(payload)
                if self.encrypt else payload
            )
            image, _ = self.codec.decode_robust(compressed)
            if image.shape != stored.original.shape:
                losses.append(CATASTROPHIC_LOSS_DB)
                catastrophic += 1
                continue
            losses.append(
                quality_loss_db(stored.original, clean, image)
            )
        return RetrievalResult(
            losses_db=losses,
            n_catastrophic=catastrophic,
            archive_ok=True,
            decode_clean=report.clean,
        )

    def extract_archive(self, prioritized: np.ndarray) -> bytes:
        """Invert the priority mapping, staged through the directory.

        For the baseline and Gini the mapping is the identity. For
        DnaMapper the decoder first reads the header (the very highest
        priority bits), learns the directory extent, parses the directory,
        and only then can rebuild the full permutation — no stored
        metadata, exactly the property the paper claims.
        """
        n_bits = self.archive.n_bits
        if self.ranking is None:
            return bits_to_bytes(prioritized[:n_bits])
        header_prefix = bits_to_bytes(prioritized[: 9 * 8])
        dir_bits = directory_size_bits(header_prefix)  # may raise ArchiveError
        if dir_bits > n_bits:
            raise ArchiveError("directory extent exceeds the stored payload")
        directory_blob = bits_to_bytes(prioritized[:dir_bits])
        sizes = directory_file_sizes(directory_blob)
        segment_bits = [dir_bits] + [size * 8 for size in sizes]
        if sum(segment_bits) != n_bits:
            raise ArchiveError("directory sizes disagree with the unit payload")
        ranking = proportional_share_ranking(
            segment_bits, top_priority_segments=[0]
        )
        return bits_to_bytes(
            self.pipeline.unrank_bits(prioritized, n_bits, ranking)
        )


