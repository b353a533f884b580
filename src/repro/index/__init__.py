"""Index structures.

* :mod:`repro.index.posmap` — the paper's **positional index** (§3), the
  one positional structure of the system: logical positions over stable
  physical keys in O(log s) both ways, so structural edits splice the key
  space instead of moving data.  It backs every sheet axis (positions →
  cell keys) and every table's presentation order (positions → rids).
* :mod:`repro.index.btree` — B+-tree key index behind every table index,
  the implicit primary-key index included, and the key↔position mapping
  of the interface manager.
* :mod:`repro.index.index2d` — grid and quadtree indexes over spreadsheet
  cell blocks (interface storage manager, §3).
"""

from repro.index.posmap import LOGICAL_MAX, PositionalMapper
from repro.index.btree import BPlusTree
from repro.index.index2d import GridIndex, QuadTree

__all__ = [
    "PositionalMapper",
    "LOGICAL_MAX",
    "BPlusTree",
    "GridIndex",
    "QuadTree",
]
