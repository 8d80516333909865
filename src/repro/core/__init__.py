"""The paper's contribution: skew-aware data layout for DNA storage.

* :mod:`repro.core.layout` — the encoding-matrix abstraction (Figure 1)
  and the three codeword/placement policies: the baseline row layout,
  Gini's diagonal interleaving (Figure 8), and DnaMapper's priority
  zig-zag placement (Figure 9).
* :mod:`repro.core.ranking` — bit-priority heuristics (Section 5.3):
  positional JPEG ranking, the proportional multi-file share, and the
  brute-force oracle.
* :mod:`repro.core.pipeline` — the end-to-end encode/decode pipeline
  (Section 6 methodology).
"""

from repro.core.layout import (
    BaselineLayout,
    DnaMapperLayout,
    GiniLayout,
    LayoutPolicy,
    MatrixConfig,
)
from repro.core.pipeline import (
    DecodeReport,
    DnaStoragePipeline,
    EncodedUnit,
    PipelineConfig,
)
from repro.core.ranking import (
    identity_ranking,
    oracle_ranking,
    proportional_share_ranking,
)
from repro.core.store import (
    DnaStore,
    ReadRequest,
    ReadResult,
    StoreImage,
    StoreReport,
)

__all__ = [
    "MatrixConfig",
    "LayoutPolicy",
    "BaselineLayout",
    "GiniLayout",
    "DnaMapperLayout",
    "PipelineConfig",
    "DnaStoragePipeline",
    "EncodedUnit",
    "DecodeReport",
    "identity_ranking",
    "proportional_share_ranking",
    "oracle_ranking",
    "DnaStore",
    "ReadRequest",
    "ReadResult",
    "StoreImage",
    "StoreReport",
]
