"""Positional mapping: the key-space splice behind O(log n) structural
edits (PositionalMapper) and its integration into the CellStore."""

import pytest

from repro.core.cell import Cell
from repro.errors import DataSpreadError
from repro.index.posmap import LOGICAL_MAX, PositionalMapper
from repro.interface_storage import CellStore


class TestPositionalMapper:
    def test_identity_until_spliced(self):
        mapper = PositionalMapper()
        assert mapper.pristine
        assert mapper.physical_of(0) == 0
        assert mapper.physical_of(12345) == 12345
        assert mapper.position_of(77) == 77

    def test_insert_shifts_logical_not_physical(self):
        mapper = PositionalMapper()
        mapper.insert(3, 2)
        assert not mapper.pristine
        assert mapper.physical_of(2) == 2       # above: untouched
        assert mapper.physical_of(5) == 3       # below: same physical key
        assert mapper.physical_of(100) == 98
        # The fresh rows got keys outside the identity space.
        assert mapper.physical_of(3) >= LOGICAL_MAX
        assert mapper.physical_of(4) >= LOGICAL_MAX
        mapper.validate()

    def test_delete_frees_keys_and_reports_intervals(self):
        mapper = PositionalMapper()
        dropped = mapper.delete(2, 3)
        assert dropped == [(2, 4)]
        assert mapper.physical_of(2) == 5       # shifted up
        assert mapper.position_of(3) is None    # freed key
        assert mapper.position_of(5) == 2
        mapper.validate()

    def test_freed_key_goes_back_at_a_position(self):
        mapper = PositionalMapper()
        mapper.insert(2, 1)                     # a fresh key at 2
        assert mapper.delete(5, 1) == [(4, 4)]  # frees key 4
        mapper.insert_key(1, 4)
        assert mapper.physical_of(1) == 4
        assert mapper.position_of(4) == 1
        assert mapper.physical_of(0) == 0
        assert mapper.physical_of(2) == 1       # the rest shifted up
        assert mapper.physical_of(6) == 5       # behind the old hole: same place
        mapper.validate()
        with pytest.raises(DataSpreadError):
            mapper.insert_key(0, 4)             # mapped again: refused
        with pytest.raises(DataSpreadError):
            mapper.insert_key(0, mapper.physical_of(3))
        mapper.validate()

    def test_reverse_lookup_roundtrip_through_edits(self):
        mapper = PositionalMapper()
        for step in range(50):
            if step % 3 == 2:
                mapper.delete(step % 7, 1 + step % 2)
            else:
                mapper.insert(step % 11, 1 + step % 3)
        mapper.validate()
        for pos in range(0, 300, 7):
            assert mapper.position_of(mapper.physical_of(pos)) == pos

    def test_intervals_cover_range_in_order(self):
        mapper = PositionalMapper()
        mapper.insert(5, 2)
        spans = mapper.intervals(0, 9)
        # Contiguous logical coverage of [0, 9] in order.
        assert spans[0][2] == 0
        covered = sum(hi - lo + 1 for lo, hi, _ in spans)
        assert covered == 10
        logical_starts = [s[2] for s in spans]
        assert logical_starts == sorted(logical_starts)

    def test_out_of_universe_rejected(self):
        mapper = PositionalMapper()
        with pytest.raises(IndexError):
            mapper.physical_of(-1)
        with pytest.raises(IndexError):
            mapper.physical_of(LOGICAL_MAX)

    def test_splice_counts(self):
        mapper = PositionalMapper()
        mapper.insert(0, 1)
        mapper.delete(0, 1)
        assert mapper.counts.splices == 2


class TestCellStoreStructural:
    @pytest.mark.parametrize("index_kind", ["grid", "quadtree"])
    def test_insert_moves_zero_cells(self, index_kind):
        store = CellStore(tile_rows=8, tile_cols=4, index_kind=index_kind)
        for row in range(100):
            store.set(row, 0, row)
        store.stats.reset()
        store.insert_rows(50, 5)
        assert store.stats.cells_moved == 0
        assert store.stats.cells_dropped == 0
        assert store.get(49, 0) == 49
        assert store.get(55, 0) == 50
        assert store.get(104, 0) == 99

    def test_delete_drops_only_removed_slice(self):
        store = CellStore()
        for row in range(100):
            store.set(row, 0, row)
        store.stats.reset()
        dropped = store.delete_rows(10, 3)
        assert dropped == 3
        assert store.stats.cells_dropped == 3
        assert store.stats.cells_moved == 0
        assert store.get(10, 0) == 13
        assert len(store) == 97

    def test_column_splice(self):
        store = CellStore()
        store.set(0, 10, "x")
        store.insert_cols(0, 4)
        assert store.get(0, 14) == "x"
        store.delete_cols(0, 4)
        assert store.get(0, 10) == "x"
        assert store.stats.cells_moved == 0

    @pytest.mark.parametrize("index_kind", ["grid", "quadtree"])
    def test_used_bounds_agrees_with_brute_force(self, index_kind):
        store = CellStore(tile_rows=8, tile_cols=4, index_kind=index_kind)
        coords = [(3, 17), (40, 2), (9, 9), (77, 30), (5, 0)]
        for row, col in coords:
            store.set(row, col, "v")
        store.insert_rows(6, 3)
        store.delete_cols(1, 2)
        store.delete_rows(0, 1)
        brute = {(row, col) for row, col, _ in store.items()}
        rows = [r for r, _ in brute]
        cols = [c for _, c in brute]
        assert store.used_bounds() == (min(rows), min(cols), max(rows), max(cols))

    def test_used_bounds_empty_after_purge(self):
        store = CellStore()
        store.set(5, 5, "x")
        store.delete_rows(5, 1)
        assert len(store) == 0
        assert store.used_bounds() is None

    def test_range_query_after_splice_is_row_major(self):
        store = CellStore()
        for row in range(6):
            for col in range(3):
                store.set(row, col, (row, col))
        store.insert_rows(2, 2)
        hits = list(store.get_range(0, 0, 10, 10))
        assert [coord for coord in hits] == sorted(hits)
        assert {payload for _, _, payload in hits} == {
            (row, col) for row in range(6) for col in range(3)
        }

    def test_get_range_blocks_scanned_stays_local(self):
        """The E8 property survives the mapper: a viewport-sized range on a
        spliced sheet still touches only nearby blocks."""
        store = CellStore(tile_rows=8, tile_cols=4)
        for row in range(400):
            store.set(row, 0, row)
        store.insert_rows(100, 1)
        store.stats.reset()
        list(store.get_range(0, 0, 7, 3))
        assert store.stats.blocks_scanned <= 2
