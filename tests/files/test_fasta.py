"""Tests for the FASTA synthesis-order export."""

import pytest

from repro.codec.basemap import random_bases
from repro.files.fasta import write_fasta


class TestFasta:
    def test_records_named_by_index(self, tmp_path, rng):
        strands = [random_bases(30, rng) for _ in range(5)]
        path = tmp_path / "strands.fasta"
        write_fasta(path, strands)
        assert path.read_text().splitlines() == [
            line
            for i, strand in enumerate(strands)
            for line in (f">strand_{i}", strand)
        ]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fasta"
        write_fasta(path, [])
        assert path.read_text() == ""

    def test_rejects_invalid_characters(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta(tmp_path / "bad.fasta", ["ACGX"])

    @pytest.mark.parametrize("strand", ["acgt", "AC GT", "ACGU"])
    def test_rejects_anything_but_upper_case_acgt(self, tmp_path, strand):
        with pytest.raises(ValueError, match="invalid DNA sequence"):
            write_fasta(tmp_path / "bad.fasta", ["ACGT", strand])

    def test_roundtrip(self, tmp_path, rng):
        strands = [random_bases(n, rng) for n in (0, 1, 57, 120)]
        path = tmp_path / "strands.fasta"
        write_fasta(str(path), strands)
        records = path.read_text().split(">")[1:]
        assert [record.splitlines()[1:] for record in records] \
            == [[strand] for strand in strands]

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "order.fasta"
        write_fasta(path, ["ACGT", "TTGA", "CC"])
        write_fasta(path, ["GG"])
        assert path.read_text() == ">strand_0\nGG\n"
