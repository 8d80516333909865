"""FASTA export of synthesized strands.

Interoperability layer: the strands of an encoding unit can be written as
a FASTA synthesis order (``repro.cli encode --fasta``), one record per
molecule named ``strand_<index>``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence, Union

PathLike = Union[str, Path]
_VALID_SEQUENCE = re.compile(r"^[ACGT]*$")


def write_fasta(path: PathLike, strands: Sequence[str]) -> None:
    """Write strands as FASTA records named ``strand_<index>``."""
    path = Path(path)
    with path.open("w", encoding="ascii") as handle:
        for index, strand in enumerate(strands):
            _check_sequence(strand)
            handle.write(f">strand_{index}\n{strand}\n")


def _check_sequence(sequence: str) -> None:
    if not _VALID_SEQUENCE.match(sequence):
        raise ValueError(f"invalid DNA sequence {sequence[:20]!r}...")
