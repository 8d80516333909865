"""Binary <-> DNA base coding.

The paper assumes the maximum-density direct mapping (2 bits per base,
00=A 01=C 10=G 11=T) and notes that constrained codes (homopolymer-free,
GC-balanced) are common alternatives:

* :mod:`repro.codec.basemap` — the paper's base alphabet and the
  vectorized string <-> index conversions the pipeline renders strands
  with.
* :mod:`repro.codec.constraints` — GC-content and homopolymer validators
  (the primer designer's filter).
"""

from repro.codec.basemap import (
    BASES,
    bases_to_indices,
    indices_to_bases,
    random_bases,
)
from repro.codec.constraints import (
    gc_content,
    max_homopolymer_run,
    violates_constraints,
)

__all__ = [
    "BASES",
    "bases_to_indices",
    "indices_to_bases",
    "random_bases",
    "gc_content",
    "max_homopolymer_run",
    "violates_constraints",
]
