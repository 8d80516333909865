"""Tests for the archive container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files import (
    ArchiveError,
    FileEntry,
    pack_archive,
    unpack_archive_robust,
)
from repro.files.archive import directory_file_sizes, directory_size_bits


def _entries(*pairs):
    return [FileEntry(name=name, data=data) for name, data in pairs]


class TestPackUnpack:
    def test_roundtrip(self):
        entries = _entries(("a.bin", b"hello"), ("b.bin", b"world!!"))
        packed = pack_archive(entries)
        assert unpack_archive_robust(packed.data) == entries

    def test_empty_archive(self):
        packed = pack_archive([])
        assert unpack_archive_robust(packed.data) == []

    def test_empty_file(self):
        entries = _entries(("empty", b""))
        assert unpack_archive_robust(pack_archive(entries).data) == entries

    def test_unicode_names(self):
        entries = _entries(("フォト.jpg", b"\x00\x01"))
        assert unpack_archive_robust(pack_archive(entries).data) == entries

    def test_segment_bits_match_layout(self):
        entries = _entries(("x", b"12345"), ("y", b"678"))
        packed = pack_archive(entries)
        assert packed.segment_bits[1] == 5 * 8
        assert packed.segment_bits[2] == 3 * 8
        assert sum(packed.segment_bits) == packed.n_bits

    @settings(max_examples=40)
    @given(st.lists(
        st.tuples(st.text(min_size=1, max_size=20), st.binary(max_size=200)),
        max_size=6,
    ))
    def test_roundtrip_property(self, pairs):
        entries = [FileEntry(name=f"{i}_{name}", data=data)
                   for i, (name, data) in enumerate(pairs)]
        assert unpack_archive_robust(pack_archive(entries).data) == entries


class TestDirectorySizeBits:
    def test_matches_segment_zero(self):
        packed = pack_archive(_entries(("a", b"xyz"), ("bb", b"")))
        assert directory_size_bits(packed.data) == packed.segment_bits[0]

    def test_bad_magic(self):
        with pytest.raises(ArchiveError):
            directory_size_bits(b"XXX" + b"\x00" * 10)

    def test_too_short(self):
        with pytest.raises(ArchiveError):
            directory_size_bits(b"AR1")


class TestDirectoryFileSizes:
    def test_reads_sizes_from_directory_prefix_alone(self):
        entries = _entries(("a", b"xyz"), ("bb", b""), ("c", b"q" * 300))
        packed = pack_archive(entries)
        prefix = packed.data[: packed.segment_bits[0] // 8]
        assert directory_file_sizes(prefix) == [3, 0, 300]
        assert directory_file_sizes(packed.data) == [3, 0, 300]

    def test_empty_archive(self):
        assert directory_file_sizes(pack_archive([]).data) == []

    def test_sizes_rebuild_the_segment_map(self):
        packed = pack_archive(_entries(("x", b"12345"), ("y", b"678")))
        sizes = directory_file_sizes(packed.data)
        assert [8 * size for size in sizes] == packed.segment_bits[1:]

    def test_too_short(self):
        with pytest.raises(ArchiveError, match="shorter than the header"):
            directory_file_sizes(b"AR1\x00")

    def test_bad_magic(self):
        packed = pack_archive(_entries(("a", b"1")))
        with pytest.raises(ArchiveError, match="magic"):
            directory_file_sizes(b"XR1" + packed.data[3:])

    def test_directory_past_blob(self):
        packed = pack_archive(_entries(("a", b"1")))
        prefix = packed.data[: packed.segment_bits[0] // 8 - 1]
        with pytest.raises(ArchiveError, match="past the blob"):
            directory_file_sizes(prefix)

    def test_entry_count_past_directory(self):
        packed = bytearray(pack_archive(_entries(("a", b"1"))).data)
        packed[7:9] = (2).to_bytes(2, "big")  # claims a second entry
        with pytest.raises(ArchiveError, match="truncated"):
            directory_file_sizes(bytes(packed))


def _directory_with(entry_bytes, n_files=1):
    """A header declaring ``entry_bytes`` as its whole directory."""
    return (b"AR1" + len(entry_bytes).to_bytes(4, "big")
            + n_files.to_bytes(2, "big") + entry_bytes)


class TestUnpackErrors:
    @pytest.mark.parametrize("entry, message", [
        (b"\x00", "name length"),
        (b"\x00\x05ab", r"truncated \(name\)"),
        (b"\x00\x01a\x00\x00", r"truncated \(size\)"),
        (b"\x00\x01a\x00\x00\x00\x01zz", "length mismatch"),
        (b"\x00\x01\xff\x00\x00\x00\x01", "UTF-8"),
    ])
    def test_unusable_directory_raises(self, entry, message):
        with pytest.raises(ArchiveError, match=message):
            unpack_archive_robust(_directory_with(entry) + b"payload")

    def test_truncated_header(self):
        with pytest.raises(ArchiveError):
            unpack_archive_robust(b"AR1\x00")

    def test_bad_magic(self):
        packed = pack_archive(_entries(("a", b"1")))
        with pytest.raises(ArchiveError):
            unpack_archive_robust(b"XR1" + packed.data[3:])

    def test_directory_overflow(self):
        packed = bytearray(pack_archive(_entries(("a", b"1"))).data)
        packed[3:7] = (10**6).to_bytes(4, "big")  # absurd directory length
        with pytest.raises(ArchiveError):
            unpack_archive_robust(bytes(packed))


class TestRobustUnpack:
    def test_corrupt_payload_is_contained(self):
        entries = _entries(("a", b"A" * 50), ("b", b"B" * 50))
        packed = bytearray(pack_archive(entries).data)
        packed[-10] ^= 0xFF  # corrupt inside file b's payload
        recovered = unpack_archive_robust(bytes(packed))
        assert recovered[0].data == entries[0].data  # file a untouched
        assert recovered[1].data != entries[1].data
        assert len(recovered[1].data) == 50

    def test_truncated_payload_zero_padded(self):
        packed = pack_archive(_entries(("a", b"123456"))).data
        recovered = unpack_archive_robust(packed[:-2])
        assert recovered[0].data == b"1234\x00\x00"

    def test_trailing_bytes_ignored(self):
        entries = _entries(("a", b"1"), ("b", b"23"))
        packed = pack_archive(entries).data
        assert unpack_archive_robust(packed + b"zz") == entries

    def test_payload_region_lost_entirely(self):
        entries = _entries(("a", b"abc"), ("b", b"de"))
        packed = pack_archive(entries)
        directory = packed.data[: packed.segment_bits[0] // 8]
        recovered = unpack_archive_robust(directory)
        assert [entry.name for entry in recovered] == ["a", "b"]
        assert [entry.data for entry in recovered] == [b"\x00" * 3,
                                                        b"\x00" * 2]

    def test_corrupt_directory_still_raises(self):
        packed = bytearray(pack_archive(_entries(("a", b"1"))).data)
        packed[0] = 0  # destroy the magic
        with pytest.raises(ArchiveError):
            unpack_archive_robust(bytes(packed))

    def test_name_too_long_rejected_at_pack(self):
        with pytest.raises(ArchiveError):
            pack_archive(_entries(("x" * 5000, b"")))
