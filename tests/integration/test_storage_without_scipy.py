"""A storage process loads no scipy.

Only posterior consensus (``lfilter``), the JPEG DCT and the synthetic
image generator call scipy, and each imports it on first use. So a fresh
interpreter that imports ``repro`` and serves reads — a labeled
serve-geometry round trip through ``StoreService`` and a pooled round
trip through ``LSHClusterer`` — must hold no ``scipy`` module; after
that, the three scipy users must still work, loading scipy then.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent.parent

SCRIPT = r"""
import sys

import numpy as np

import repro
from repro import (
    DnaStore, ErrorModel, FixedCoverage, GammaCoverage, MatrixConfig,
    PipelineConfig, ReadRequest, SequencingSimulator,
)
from repro.cluster import LSHClusterer
from repro.service import StoreService


def scipy_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy")


def assert_no_scipy():
    loaded = scipy_modules()
    assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:4]}"


assert_no_scipy()
rng = np.random.default_rng(0)

store = DnaStore(PipelineConfig(
    matrix=MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6),
    layout="gini",
))
bits = rng.integers(0, 2, 4 * store.unit_capacity_bits, dtype=np.uint8)
simulator = SequencingSimulator(ErrorModel.uniform(0.01),
                                GammaCoverage(16, shape=6))
service = StoreService(store, cache_capacity=256)
service.put("labeled", simulator.sequence_store(store.encode(bits), rng=rng),
            bits.size)
service.submit("labeled")
[answer] = service.tick()
assert answer.clean and np.array_equal(answer.bits, bits)

store = DnaStore(PipelineConfig(matrix=MatrixConfig(), layout="gini"))
bits = rng.integers(0, 2, store.unit_capacity_bits, dtype=np.uint8)
simulator = SequencingSimulator(ErrorModel.uniform(0.02), FixedCoverage(8))
pool = simulator.sequence_store(store.encode(bits), rng=rng, labeled=False)
clusterer = LSHClusterer.for_strand_length(
    store.pipeline.matrix_config.strand_length)
result = store.read(ReadRequest(pool, bits.size, pool=True,
                                clusterer=clusterer))
assert result.clean and np.array_equal(result.bits, bits)
assert_no_scipy()
print("storage loaded no scipy")

from repro import JpegCodec, PosteriorReconstructor, psnr, synth_image

image = synth_image(32, 32, rng=1)
decoded = JpegCodec(quality=90).decode(JpegCodec(quality=90).encode(image))
assert decoded.shape == image.shape and psnr(image, decoded) > 30
strand = "ACGTTGCAAC" * 4
reads = SequencingSimulator(ErrorModel.uniform(0.03), FixedCoverage(9)) \
    .sequence_batch([strand], rng=2)
[estimate] = PosteriorReconstructor().reconstruct_batch(reads, len(strand))
assert estimate.size == len(strand)
assert {"scipy.fft", "scipy.ndimage", "scipy.signal"} <= set(scipy_modules())
print("scipy users work")
"""


def test_storage_path_loads_no_scipy_and_its_users_still_work():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p]
    )
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["storage loaded no scipy",
                                           "scipy users work"]
