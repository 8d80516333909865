"""Positional error profiling — the measurement behind Figures 3-6.

Runs a reconstructor over many randomly generated clusters and records,
for every position of the strand, how often the reconstructed symbol
differs from the original. The resulting per-position error-probability
curve is the paper's "reliability skew".

All trials of a profile run through the columnar read plane as a single
batch: one :class:`~repro.channel.engine.BatchedChannelEngine` call emits
every read of every trial (one RNG draw over the whole sweep), and one
``reconstruct_batch`` call scans them — thousands of trials cost a
handful of vectorized passes rather than ``trials x coverage`` Python
iterations. That call runs inside the ``consensus.reconstruct`` stage
span the pipeline's decode uses, so a recording tracer attributes the
profile's consensus time. Every profile accepts an
:class:`~repro.channel.engine.ErrorRateMap` in place of the uniform
model, opening positional-degradation scenarios (ramped rates along the
strand) to the same batched measurement;
:func:`positional_confidence_profile` pairs the realized error curve
with the posterior's per-position confidence for those studies.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.channel.engine import BatchedChannelEngine, RateSpec
from repro.consensus.base import Reconstructor, consensus_span
from repro.utils.rng import RngLike, ensure_rng


def _simulate_trials(
    error_model: RateSpec,
    length: int,
    coverage: int,
    trials: int,
    generator: np.random.Generator,
    n_alphabet: int,
):
    """Random originals + their noisy clusters, one engine call for all."""
    originals = generator.integers(
        0, n_alphabet, size=(trials, length)
    ).astype(np.uint8)
    engine = BatchedChannelEngine(error_model, n_alphabet=n_alphabet)
    batch = engine.sequence_counts(
        originals, np.full(trials, coverage, dtype=np.int64), generator
    )
    return originals, batch


def positional_error_profile(
    reconstructor: Reconstructor,
    length: int,
    error_model: RateSpec,
    coverage: int,
    trials: int,
    rng: RngLike = None,
    n_alphabet: int = 4,
) -> np.ndarray:
    """Per-position error frequency of a reconstructor.

    Args:
        reconstructor: algorithm under test (must handle ``n_alphabet``).
        length: strand length L.
        error_model: channel noise per read — a uniform ``ErrorModel`` or
            a positional ``ErrorRateMap`` for skew scenarios.
        coverage: reads per cluster N.
        trials: number of independent clusters.
        rng: random source.
        n_alphabet: alphabet size of the generated strands.

    Returns:
        Array of ``length`` error frequencies in [0, 1].
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if coverage < 1:
        raise ValueError(f"coverage must be >= 1, got {coverage}")
    generator = ensure_rng(rng)
    originals, batch = _simulate_trials(
        error_model, length, coverage, trials, generator, n_alphabet
    )
    with consensus_span(batch):
        estimates = reconstructor.reconstruct_batch(batch, length)
    errors = (estimates != originals).sum(axis=0, dtype=np.float64)
    return errors / trials


def positional_confidence_profile(
    reconstructor,
    length: int,
    error_model: RateSpec,
    coverage: int,
    trials: int,
    rng: RngLike = None,
    n_alphabet: int = 4,
) -> Tuple[np.ndarray, np.ndarray]:
    """Realized error curve paired with the posterior confidence curve.

    The measurement behind positional-degradation studies: simulate
    ``trials`` clusters under ``error_model`` (typically an
    :class:`~repro.channel.engine.ErrorRateMap` ramp), reconstruct them
    through the batched confidence entry point, and report, per position,
    both how often the estimate is wrong and how much posterior mass the
    winning symbol carried. Where the realized error peaks, the
    confidence dips — alignment ambiguity *is* the reliability skew.

    Args:
        reconstructor: must expose ``reconstruct_batch_with_confidence``,
            which only
            :class:`~repro.consensus.posterior.PosteriorReconstructor`
            defines among the engines.
        length: strand length L.
        error_model: uniform ``ErrorModel`` or positional ``ErrorRateMap``.
        coverage: reads per cluster N.
        trials: number of independent clusters.
        rng: random source.
        n_alphabet: alphabet size of the generated strands.

    Returns:
        ``(error_profile, confidence_profile)``, each of shape
        ``(length,)`` — mean error frequency and mean winning posterior
        mass per position.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if coverage < 1:
        raise ValueError(f"coverage must be >= 1, got {coverage}")
    generator = ensure_rng(rng)
    originals, batch = _simulate_trials(
        error_model, length, coverage, trials, generator, n_alphabet
    )
    with consensus_span(batch):
        results = reconstructor.reconstruct_batch_with_confidence(
            batch, length
        )
    estimates = np.stack([estimate for estimate, _ in results])
    confidences = np.stack([confidence for _, confidence in results])
    errors = (estimates != originals).mean(axis=0, dtype=np.float64)
    return errors, confidences.mean(axis=0)


def positional_error_profile_binary(
    reconstructor: Reconstructor,
    length: int,
    error_model: RateSpec,
    coverage: int,
    trials: int,
    rng: RngLike = None,
    adversarial: bool = False,
) -> np.ndarray:
    """Binary-alphabet profile, optionally with adversarial tie-breaking.

    This is the Figure 6 measurement: ``adversarial=True`` requires the
    reconstructor to expose ``reconstruct_adversarial`` (the optimal median
    search), which picks among tied optima the string *most accurate in
    the middle* — attempting to produce the opposite skew.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if coverage < 1:
        raise ValueError(f"coverage must be >= 1, got {coverage}")
    generator = ensure_rng(rng)
    originals, batch = _simulate_trials(
        error_model, length, coverage, trials, generator, n_alphabet=2
    )
    if adversarial:
        # Adversarial selection needs the original per trial; stays scalar.
        estimates = np.stack([
            reconstructor.reconstruct_adversarial(
                [np.asarray(r, dtype=np.int64) for r in batch.reads_of(t)],
                length, originals[t],
            )
            for t in range(trials)
        ])
    else:
        with consensus_span(batch):
            estimates = reconstructor.reconstruct_batch(batch, length)
    errors = (estimates != originals).sum(axis=0, dtype=np.float64)
    return errors / trials
