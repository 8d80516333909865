"""Named channel profiles for the sequencing technologies the paper cites.

Error-rate and indel-fraction figures come from the paper's Section 8
("Breakdown of Error Types" / "Realistic Error Rates"):

* Illumina NGS workflows: ~1% total error, 25-30% of errors are indels.
* Nanopore workflows: 12-15% total error, over 60% indels.
* Enzymatic synthesis (emerging): indel-dominated, rates possibly over 30%.
* The wetlab validation in the paper measured ~0.3% with NGS.
"""

from __future__ import annotations

from repro.channel.errors import ErrorModel


def illumina_profile(total_rate: float = 0.01) -> ErrorModel:
    """Illumina NGS: low error, ~27% indels (split evenly), rest substitutions."""
    return ErrorModel.with_breakdown(
        total_rate, ins_frac=0.135, del_frac=0.135, sub_frac=0.73
    )


def nanopore_profile(total_rate: float = 0.13) -> ErrorModel:
    """Nanopore: high error, >60% indels."""
    return ErrorModel.with_breakdown(
        total_rate, ins_frac=0.30, del_frac=0.32, sub_frac=0.38
    )


def enzymatic_synthesis_profile(total_rate: float = 0.30) -> ErrorModel:
    """Emerging enzymatic synthesis: indel-dominated and very noisy."""
    return ErrorModel.with_breakdown(
        total_rate, ins_frac=0.45, del_frac=0.40, sub_frac=0.15
    )
