"""Multi-file archives with a directory file.

The paper's evaluation (Section 6.1) encodes ten images *plus a directory
file* ("containing the names and sizes of all files") into one encoding
unit, giving the directory the highest priority under DnaMapper. This
subpackage implements that container and the robust unpacking the
graceful-degradation experiments need.
"""

from repro.files.archive import (
    ArchiveError,
    FileEntry,
    PackedArchive,
    directory_file_sizes,
    directory_size_bits,
    pack_archive,
    unpack_archive_robust,
)

__all__ = [
    "FileEntry",
    "PackedArchive",
    "ArchiveError",
    "pack_archive",
    "unpack_archive_robust",
    "directory_size_bits",
    "directory_file_sizes",
]
