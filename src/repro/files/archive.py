"""Archive container: header + directory + concatenated file payloads.

Wire format (big-endian):

======  ======  =================================================
offset  bytes   field
======  ======  =================================================
0       3       magic ``AR1``
3       4       directory length in bytes
7       2       number of files
9..     --      directory: per file u16 name length, UTF-8 name,
                u32 payload size
..      --      payloads, concatenated in directory order
======  ======  =================================================

The directory region (header included) is what DnaMapper stores at the
highest priority; :attr:`PackedArchive.segment_bits` exposes the bit
extents of the directory and of every file so that
:func:`repro.core.ranking.proportional_share_ranking` can be applied
directly. Robust unpacking (:func:`unpack_archive_robust`) tolerates a
corrupted payload region — file boundaries come from the directory, so
corrupt image bytes stay contained in their file — and refuses only when
the directory itself is unusable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence

_MAGIC = b"AR1"
_HEADER = struct.Struct(">3sIH")
_DIR_ENTRY_NAME = struct.Struct(">H")
_DIR_ENTRY_SIZE = struct.Struct(">I")
_MAX_FILES = 65535
_MAX_NAME = 4096


class ArchiveError(Exception):
    """Raised when an archive cannot be parsed."""


@dataclass(frozen=True)
class FileEntry:
    """One named file inside an archive."""

    name: str
    data: bytes


@dataclass(frozen=True)
class PackedArchive:
    """A serialized archive plus the segment map for priority ranking.

    Attributes:
        data: the full serialized archive.
        segment_bits: bit length of each segment — segment 0 is the header
            plus directory, segments 1..n are the file payloads in order.
    """

    data: bytes
    segment_bits: List[int]

    @property
    def n_bits(self) -> int:
        return len(self.data) * 8


def pack_archive(files: Sequence[FileEntry]) -> PackedArchive:
    """Serialize files into the archive format with a segment map."""
    if len(files) > _MAX_FILES:
        raise ArchiveError(f"too many files: {len(files)} > {_MAX_FILES}")
    directory = bytearray()
    for entry in files:
        name_bytes = entry.name.encode("utf-8")
        if len(name_bytes) > _MAX_NAME:
            raise ArchiveError(f"file name too long: {entry.name!r}")
        directory += _DIR_ENTRY_NAME.pack(len(name_bytes))
        directory += name_bytes
        directory += _DIR_ENTRY_SIZE.pack(len(entry.data))
    header = _HEADER.pack(_MAGIC, len(directory), len(files))
    payloads = b"".join(entry.data for entry in files)
    data = header + bytes(directory) + payloads
    segment_bits = [(len(header) + len(directory)) * 8]
    segment_bits += [len(entry.data) * 8 for entry in files]
    return PackedArchive(data=data, segment_bits=segment_bits)


def directory_size_bits(data: bytes) -> int:
    """Bit length of the header+directory segment of a serialized archive.

    Used by the staged DnaMapper decode: the directory occupies the
    highest-priority positions, so its extent can be determined from the
    (already reliable) header alone.
    """
    if len(data) < _HEADER.size:
        raise ArchiveError("archive shorter than its header")
    magic, dir_len, _ = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ArchiveError("bad archive magic")
    return (_HEADER.size + dir_len) * 8


def directory_file_sizes(directory_blob: bytes) -> List[int]:
    """File sizes declared by a header+directory blob (payloads absent).

    The staged DnaMapper decode calls this on just the highest-priority
    bits — the header plus directory — to learn every file's size and
    rebuild the proportional-share ranking without stored metadata.
    """
    if len(directory_blob) < _HEADER.size:
        raise ArchiveError("directory blob shorter than the header")
    magic, dir_len, n_files = _HEADER.unpack_from(directory_blob)
    if magic != _MAGIC:
        raise ArchiveError("bad archive magic")
    if n_files > _MAX_FILES:
        raise ArchiveError(f"implausible file count {n_files}")
    end = _HEADER.size + dir_len
    if end > len(directory_blob):
        raise ArchiveError("directory extends past the blob")
    sizes: List[int] = []
    cursor = _HEADER.size
    for _ in range(n_files):
        if cursor + _DIR_ENTRY_NAME.size > end:
            raise ArchiveError("directory truncated")
        (name_len,) = _DIR_ENTRY_NAME.unpack_from(directory_blob, cursor)
        cursor += _DIR_ENTRY_NAME.size + name_len
        if cursor + _DIR_ENTRY_SIZE.size > end:
            raise ArchiveError("directory truncated")
        (size,) = _DIR_ENTRY_SIZE.unpack_from(directory_blob, cursor)
        cursor += _DIR_ENTRY_SIZE.size
        sizes.append(size)
    return sizes


def unpack_archive_robust(data: bytes) -> List[FileEntry]:
    """Best-effort unpacking: payloads may be corrupt or truncated.

    The directory must parse (it is stored at the highest reliability);
    payloads are sliced by the directory sizes, zero-padded when the
    stream is short. Corruption inside a payload therefore never leaks
    across file boundaries.
    """
    if len(data) < _HEADER.size:
        raise ArchiveError("archive shorter than its header")
    magic, dir_len, n_files = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ArchiveError("bad archive magic")
    if n_files > _MAX_FILES:
        raise ArchiveError(f"implausible file count {n_files}")
    directory_end = _HEADER.size + dir_len
    if directory_end > len(data):
        raise ArchiveError("directory extends past the archive")

    names: List[str] = []
    sizes: List[int] = []
    cursor = _HEADER.size
    for _ in range(n_files):
        if cursor + _DIR_ENTRY_NAME.size > directory_end:
            raise ArchiveError("directory truncated (name length)")
        (name_len,) = _DIR_ENTRY_NAME.unpack_from(data, cursor)
        cursor += _DIR_ENTRY_NAME.size
        if name_len > _MAX_NAME or cursor + name_len > directory_end:
            raise ArchiveError("directory truncated (name)")
        try:
            name = data[cursor: cursor + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError("directory name is not valid UTF-8") from exc
        cursor += name_len
        if cursor + _DIR_ENTRY_SIZE.size > directory_end:
            raise ArchiveError("directory truncated (size)")
        (size,) = _DIR_ENTRY_SIZE.unpack_from(data, cursor)
        cursor += _DIR_ENTRY_SIZE.size
        names.append(name)
        sizes.append(size)
    if cursor != directory_end:
        raise ArchiveError("directory length mismatch")

    entries: List[FileEntry] = []
    offset = directory_end
    for name, size in zip(names, sizes):
        payload = data[offset: offset + size]
        if len(payload) < size:
            payload = payload + b"\x00" * (size - len(payload))
        entries.append(FileEntry(name=name, data=payload))
        offset += size
    return entries
