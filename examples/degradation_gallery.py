#!/usr/bin/env python
"""A terminal rendition of the paper's Figure 15.

Stores one image with DnaMapper, retrieves it at decreasing coverage, and
renders the decoded results side by side as ASCII art: the left panel is
(near-)lossless, the others show growing — but graceful — quality loss.
Run with::

    python examples/degradation_gallery.py
"""

import numpy as np

from repro.analysis import ImageStoreExperiment
from repro.core import MatrixConfig
from repro.media import synth_image
from repro.media.ascii_art import side_by_side
from repro.media.psnr import quality_loss_db
from repro.crypto import ChaCha20


def main() -> None:
    matrix = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=20)
    image = synth_image(96, 96, n_shapes=8, rng=4)
    experiment = ImageStoreExperiment(
        [image], matrix, layout="dnamapper", quality=65, rng=1,
    )
    pool = experiment.build_pool(error_rate=0.11, max_coverage=12, rng=6)

    panels = {}
    stored = experiment.images[0]
    clean = experiment.codec.decode_robust(stored.compressed)[0]
    for coverage in (12, 6, 4):
        received = experiment.pipeline.receive(pool.batch_at(coverage))
        corrected, _ = experiment.pipeline.correct_matrix(received)
        prioritized = experiment.pipeline.prioritized_bits(corrected)
        try:
            data = experiment.extract_archive(prioritized)
            from repro.files import unpack_archive_robust
            payload = unpack_archive_robust(data)[0].data
            compressed = ChaCha20(stored.key, stored.nonce).process(payload)
            decoded, _ = experiment.codec.decode_robust(compressed)
        except Exception:
            decoded = np.full_like(image, 128)
        if decoded.shape != image.shape:
            decoded = np.full_like(image, 128)
        loss = quality_loss_db(image, clean, decoded)
        panels[f"cov={coverage} ({loss:.1f} dB loss)"] = decoded

    print("DnaMapper graceful degradation (error rate 11%):\n")
    print(side_by_side(panels, width=32))


if __name__ == "__main__":
    main()
