"""Cost model: translating coverage and redundancy into read/write costs.

The paper's bottom line is economic — "minimizing the required sequencing
coverage is crucial to reducing the cost of reading from DNA", Gini saves
"up to 30%" of reading and "12.5%" of writing cost. This module makes the
conversion explicit so experiment outputs can be reported in cost terms:

* writing (synthesis) cost scales with the total number of bases
  synthesized: payload bases + index + primers, times (1 + redundancy);
* reading (sequencing) cost scales with the total bases sequenced:
  strand length times number of molecules times coverage.

Default unit prices are deliberately relative (cost *units* per base);
absolute dollar figures change monthly, ratios are what the paper argues
about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layout import MatrixConfig
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class CostModel:
    """Relative per-base prices for synthesis and sequencing.

    Attributes:
        synthesis_per_base: write cost per synthesized base (per distinct
            molecule — copies come from amplification, which is cheap).
        sequencing_per_base: read cost per sequenced base (per read).
        primer_overhead_bases: bases of primers per molecule (both ends).
    """

    synthesis_per_base: float = 1.0
    sequencing_per_base: float = 0.01
    primer_overhead_bases: int = 40

    def __post_init__(self) -> None:
        check_positive(self.synthesis_per_base, "synthesis_per_base")
        check_positive(self.sequencing_per_base, "sequencing_per_base")
        check_non_negative(self.primer_overhead_bases, "primer_overhead_bases")

    # -- write side -----------------------------------------------------------

    def strand_bases(self, matrix: MatrixConfig) -> int:
        """Physical bases per molecule including primers."""
        return matrix.strand_length + self.primer_overhead_bases

    def write_cost(self, matrix: MatrixConfig) -> float:
        """Synthesis cost of one encoding unit."""
        return self.synthesis_per_base * self.strand_bases(matrix) * matrix.n_columns

    def write_cost_per_data_bit(self, matrix: MatrixConfig) -> float:
        """Synthesis cost amortized per stored payload bit."""
        return self.write_cost(matrix) / matrix.data_bits

    # -- read side ------------------------------------------------------------

    def read_cost(self, matrix: MatrixConfig, coverage: float) -> float:
        """Sequencing cost of retrieving one unit at a mean coverage."""
        check_non_negative(coverage, "coverage")
        return (
            self.sequencing_per_base
            * self.strand_bases(matrix)
            * matrix.n_columns
            * coverage
        )

    # -- the paper's comparisons ------------------------------------------------

    def read_saving(
        self, matrix: MatrixConfig, baseline_coverage: float, new_coverage: float
    ) -> float:
        """Fractional read-cost saving of a coverage reduction (0..1)."""
        baseline = self.read_cost(matrix, baseline_coverage)
        if baseline == 0:
            raise ValueError("baseline coverage must be positive")
        return 1.0 - self.read_cost(matrix, new_coverage) / baseline
