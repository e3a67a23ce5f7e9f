"""From-scratch storage engine: a disk B+tree, pages, record encoding.

The paper implements its k-path index on PostgreSQL's B+trees; this
package provides the equivalent persistent ordered dictionary without
an external database (the default in-memory index needs none of it —
it is sorted columns, see :mod:`repro.indexes.pathindex`):

* :mod:`repro.storage.records` — a memcomparable tuple codec, so byte
  order equals tuple order;
* :mod:`repro.storage.pager` — fixed-size page file with an LRU buffer
  pool;
* :mod:`repro.storage.diskbtree` — a page-based disk B+tree built on the
  pager (the faithful "real database" backend).
"""

from repro.storage.records import decode_key, encode_key
from repro.storage.pager import Pager
from repro.storage.diskbtree import DiskBPlusTree

__all__ = [
    "DiskBPlusTree",
    "Pager",
    "encode_key",
    "decode_key",
]
