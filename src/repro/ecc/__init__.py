"""Error-correction substrate: GF(2^m) arithmetic and Reed-Solomon codes.

The paper's storage architecture (its Figure 1) protects data with
Reed-Solomon codewords laid across DNA molecules. This subpackage provides:

* :class:`repro.ecc.gf.GaloisField` — GF(2^m) arithmetic over log/antilog
  tables, vectorized with numpy, for m up to 16 (the paper uses m=16; the
  scaled-down experiment configs use m=8).
* :class:`repro.ecc.reed_solomon.ReedSolomon` — a systematic RS codec with
  combined error-and-erasure decoding (Berlekamp–Massey + Chien + Forney)
  and support for shortened codes. :meth:`~repro.ecc.reed_solomon.
  ReedSolomon.decode_many` runs the whole errata chain across a batch of
  codewords in lockstep (:mod:`repro.ecc.batched`), returning per-row
  failure flags instead of raising; the frozen scalar decoder it is
  differentially pinned against is a test oracle
  (``tests/oracles/ecc.py``).
* :class:`repro.ecc.uneven.UnevenEccScheme` — the unequal-error-correction
  strawman of the paper's Section 4.1, used as an evaluated baseline.
"""

from repro.ecc.batched import BatchDecodeResult
from repro.ecc.gf import GaloisField
from repro.ecc.reed_solomon import DecodeFailure, ReedSolomon
from repro.ecc.uneven import UnevenEccScheme, redundancy_profile_for_skew

__all__ = [
    "GaloisField",
    "ReedSolomon",
    "BatchDecodeResult",
    "DecodeFailure",
    "UnevenEccScheme",
    "redundancy_profile_for_skew",
]
