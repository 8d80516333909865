"""Media substrate: JPEG codec, synthetic images, and quality metrics.

The paper's workload is a set of (private) JPEG photographs; its DnaMapper
evaluation depends on two structural properties of baseline JPEG:

1. encoding units depend only on *previously* encoded units, and
2. entropy coding is error-prone — a corrupted bit can desynchronize the
   Huffman decoder and destroy everything after it,

so earlier file bits need more reliable storage (the paper's Figure 10).
This subpackage implements a baseline JPEG-style codec from scratch (8x8
DCT, quantization, zigzag, DC-DPCM + AC-RLE with the standard JPEG Annex K
Huffman tables) with a corruption-robust decoder, plus a synthetic image
generator standing in for the paper's private photos and the PSNR metric
used throughout the evaluation.
"""

from repro.media.jpeg import JpegCodec, JpegDecodeStats
from repro.media.psnr import psnr, quality_loss_db
from repro.media.synth import synth_image

__all__ = [
    "JpegCodec",
    "JpegDecodeStats",
    "psnr",
    "quality_loss_db",
    "synth_image",
]
