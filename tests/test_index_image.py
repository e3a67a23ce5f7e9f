"""The disk index image: every way the file can be wrong is a StorageError.

An image is the whole index in one file (magic number, format version,
catalog, columns, CRC32 — ``repro/indexes/pathindex.py``).  Reopening a
damaged one must fail typed, never hand a scan a wrong relation.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.graph.examples import figure1_graph
from repro.indexes.pathindex import IMAGE_MAGIC, PathIndex

#: Bytes before the catalog: magic, version, catalog length.
HEADER = len(IMAGE_MAGIC) + 8


@pytest.fixture
def image(tmp_path):
    path = tmp_path / "index.db"
    PathIndex.build(figure1_graph(), 2, backend="disk", path=path)
    return path


def _flip(path, offset: int, bits: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset] ^= bits
    path.write_bytes(raw)


class TestImageFailures:
    @pytest.mark.parametrize("keep", [0, 5, HEADER, -5], ids=str)
    def test_truncated_file(self, image, keep):
        image.write_bytes(image.read_bytes()[:keep])
        with pytest.raises(StorageError):
            PathIndex.open_disk(figure1_graph(), image)

    def test_bad_magic_number(self, image):
        _flip(image, 0, 0xFF)
        with pytest.raises(StorageError, match="magic"):
            PathIndex.open_disk(figure1_graph(), image)

    def test_unknown_version(self, image):
        _flip(image, len(IMAGE_MAGIC), 0x80)  # version 1 -> 129
        with pytest.raises(StorageError, match="version 129"):
            PathIndex.open_disk(figure1_graph(), image)

    def test_flipped_column_byte(self, image):
        # The last byte before the CRC belongs to the last target column.
        _flip(image, -5, 0x01)
        with pytest.raises(StorageError, match="checksum"):
            PathIndex.open_disk(figure1_graph(), image)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="cannot read"):
            PathIndex.open_disk(figure1_graph(), tmp_path / "absent.db")
