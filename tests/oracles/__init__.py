"""Frozen differential oracles; live code must not import.

Each module keeps the original, deliberately slow implementation of one
layer that the batched engines in ``src/repro`` replaced. The
differential suites pin the live code byte-identical to them:

* :mod:`oracles.consensus` — the per-cluster reconstructors;
* :mod:`oracles.cluster` — the sequential string-plane greedy clusterer;
* :mod:`oracles.ecc` — the scalar Reed–Solomon errata chain;
* :mod:`oracles.core` — the per-cell encoder (with the bit <-> base
  codec it renders strands through), the per-estimate receive parse, the
  per-codeword correction loop and the per-unit store decode;
* :mod:`oracles.channel` — the one-draw IDS pass with its cumsum
  placement, before the engine's memory was slimmed;
* :mod:`oracles.primers` — the per-read, per-cut PCR selector.

Test modules import them as ``oracles.<layer>``: ``tests/`` is on
``sys.path`` because ``tests/conftest.py`` lives outside any package.
Do not optimize these modules; their value is that they never change.
"""
