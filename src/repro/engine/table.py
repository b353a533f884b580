"""Tables: schema + physical store + positional mapper + key indexes.

A table row has three identities:

* its **rid** — immutable storage handle; rids are the physical keys of
  the table's :class:`~repro.index.posmap.PositionalMapper`,
* its **position** — 0-based presentation order, maintained by that
  mapper (paper §3's positional index) so the interface can show rows in
  a stable, user-visible order and fetch any window in
  O(log s + window), with the reverse ``position_of(rid)`` in O(log s),
* its **primary key** (optional) — the database identity the interface
  manager uses to translate sheet edits into updates (paper §3, Interface
  Manager), indexed by an implicit unique :class:`TableIndex`.

Reads in presentation order go through one loop,
:meth:`Table.scan_column_batches`, which merges the store's batched heap
scan into the order; :meth:`Table.scan` and :meth:`Table.scan_columns`
are tuple adapters over it.

All mutations funnel through this class so that constraint checking, index
maintenance and change events stay consistent.  Change events drive the
two-way sync layer: every listener receives :class:`ChangeEvent` records
after the fact.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import NULL_SANITIZER
from repro.engine.hybridstore import restructure_blocks
from repro.engine.layout import LayoutAdvisor, LayoutMigration, LayoutRecommendation
from repro.engine.pager import BufferPool
from repro.engine.schema import Column, TableSchema
from repro.engine.store import DEFAULT_BATCH_SIZE, GroupedTupleStore, LayoutPolicy
from repro.engine.types import coerce_value
from repro.errors import ConstraintError, ExecutionError, SchemaError, StorageError
from repro.index.btree import BPlusTree
from repro.index.posmap import PositionalMapper

__all__ = ["Table", "ChangeEvent", "TableIndex"]


@dataclass
class TableIndex:
    """One key index: ``column`` value → rid (unique) or rid bucket.

    Secondary indexes and the primary key share this type and every
    maintenance path.  NULL keys are not indexed (SQL: NULL never equals
    anything, and an ``IS NULL`` probe is served by zone maps instead), so
    ``len(tree)`` counts the *non-null* rows only."""

    name: str
    column: str
    unique: bool
    tree: BPlusTree = field(default_factory=BPlusTree)


@dataclass(frozen=True)
class ChangeEvent:
    """A committed change, delivered to sync listeners.

    ``kind`` is one of ``insert``, ``update``, ``delete``, ``add_column``,
    ``drop_column``, ``rename_column``.  ``position`` is the presentation
    position the change happened at (None for schema changes)."""

    table: str
    kind: str
    position: Optional[int] = None
    rid: Optional[int] = None
    row: Optional[Tuple[Any, ...]] = None
    old_row: Optional[Tuple[Any, ...]] = None
    column: Optional[str] = None
    extra: Optional[str] = None


class _FrozenOrder:
    """Presentation order of rows ``[0, n)`` captured when a scan opens:
    the mapper's spans as ``(first_rid, last_rid, first_position)``
    triples in position order.  Capturing it costs O(spans), not a copy
    of every rid, and later splices of the live mapper do not reach it."""

    def __init__(self, spans: List[Tuple[int, int, int]]):
        self.spans = spans
        self.n_rows = sum(hi - lo + 1 for lo, hi, _ in spans)
        self._starts = [first for _, _, first in spans]
        self._by_rid = sorted(spans)
        self._rid_starts = [lo for lo, _, _ in self._by_rid]
        # _first_after[i]: lowest first position among spans i.. in rid order.
        self._first_after = [self.n_rows] * (len(spans) + 1)
        for index in range(len(spans) - 1, -1, -1):
            self._first_after[index] = min(
                self._first_after[index + 1], self._by_rid[index][2]
            )

    def rids(self, start: int, count: int) -> List[int]:
        """rids at positions ``[start, start+count)``, clamped to the order."""
        out: List[int] = []
        index = max(0, bisect.bisect_right(self._starts, start) - 1)
        while index < len(self.spans) and len(out) < count:
            lo, hi, first = self.spans[index]
            lo += max(0, start - first)
            out.extend(range(lo, min(hi, lo + count - len(out) - 1) + 1))
            index += 1
        return out

    def batches(self, size: int) -> Iterator[Tuple[range, List[int], List[Any]]]:
        """Zero-column ``(positions, rids, [])`` batches straight off the
        spans — no page is read."""
        for start in range(0, self.n_rows, size):
            rids = self.rids(start, size)
            yield range(start, start + len(rids)), rids, []

    def first_position_above(self, rid: int) -> int:
        """Lowest position holding a rid greater than ``rid`` (``n_rows``
        when there is none) — O(log spans)."""
        index = bisect.bisect_right(self._rid_starts, rid)
        best = self._first_after[index]
        if index:
            lo, hi, first = self._by_rid[index - 1]
            if rid < hi:
                best = min(best, first + rid + 1 - lo)
        return best

    def positions_of(self, rids: List[int]) -> Sequence[Optional[int]]:
        """Position of each rid (None when absent).  A run of consecutive
        rids inside one span maps to a ``range`` and an ascending batch
        inside one span to a list, both without a bisect per rid."""
        index = bisect.bisect_right(self._rid_starts, rids[0]) - 1
        if index >= 0:
            lo, hi, first = self._by_rid[index]
            if rids[-1] <= hi:
                if rids == list(range(rids[0], rids[-1] + 1)):
                    return range(first + rids[0] - lo, first + rids[-1] - lo + 1)
                if all(a < b for a, b in zip(rids, rids[1:])):
                    return [first + rid - lo for rid in rids]
        out: List[Optional[int]] = []
        for rid in rids:
            index = bisect.bisect_right(self._rid_starts, rid) - 1
            if index < 0 or rid > self._by_rid[index][1]:
                out.append(None)
            else:
                lo, _, first = self._by_rid[index]
                out.append(first + rid - lo)
        return out


class Table:
    """One relation with positional presentation order."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        layout: LayoutPolicy = LayoutPolicy.HYBRID,
        pool: Optional[BufferPool] = None,
        page_capacity: int = 128,
    ):
        self.name = name
        self.schema = schema
        self.store = GroupedTupleStore(schema, pool, layout, page_capacity, owner=name)
        self.positions = PositionalMapper()
        # Adaptive layout: off by default; ALTER TABLE ... SET LAYOUT AUTO
        # (or set_auto_layout) turns the advisor loop on.
        self.auto_layout = False
        # Page encodings ride the same maintenance loop; turn this off to
        # keep an auto-layout table migrating on plain pages only (used
        # by benchmarks that isolate the advisor's grouping decisions).
        self.auto_encode = True
        self.layout_advisor = LayoutAdvisor()
        self.layout_stats_horizon = 2048
        self._layout_migration: Optional[LayoutMigration] = None
        # The primary key is an implicit unique index: maintained and
        # probed like any other, but neither persisted as a definition nor
        # droppable, so it lives beside the user's ``indexes``.
        self.primary_index: Optional[TableIndex] = None
        if schema.primary_key is not None:
            self.primary_index = TableIndex(f"{name}_pkey", schema.primary_key, True)
        # Secondary indexes by lowered index name; every DML path below
        # funnels through the _index_* helpers so the trees never drift
        # from the store (checker RC008 enforces this statically).
        self.indexes: Dict[str, TableIndex] = {}
        # Executor probes through index_for(); counted for the
        # db_index_lookups metric.
        self.index_lookups = 0
        self.listeners: List[Callable[[ChangeEvent], None]] = []
        # Maintenance event sink (a repro.obs.EventLog); the owning
        # Database wires its shared log in on attach.  None = no eventing.
        self.events = None
        # Runtime invariant checks; the catalog swaps in the database's
        # Sanitizer when sanitize mode is on.
        self.sanitizer = NULL_SANITIZER

    # -- basics -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.store.n_rows

    @property
    def column_names(self) -> List[str]:
        return self.schema.column_names

    def _emit(self, event: ChangeEvent) -> None:
        for listener in self.listeners:
            listener(event)

    def _record_event(self, kind: str, **data: Any) -> None:
        if self.events is not None:
            self.events.record(kind, table=self.name, **data)

    # -- validation -----------------------------------------------------------

    def _prepare_row(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        if len(values) != self.schema.n_columns:
            raise ExecutionError(
                f"table {self.name!r} expects {self.schema.n_columns} values, "
                f"got {len(values)}"
            )
        prepared = []
        for column, value in zip(self.schema.columns, values):
            coerced = coerce_value(value, column.dtype)
            if coerced is None and column.default is not None:
                coerced = column.default
            if coerced is None and column.not_null:
                raise ConstraintError(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )
            prepared.append(coerced)
        return tuple(prepared)

    # -- reads ---------------------------------------------------------------

    def rid_at(self, position: int) -> int:
        if not 0 <= position < self.store.n_rows:
            raise IndexError(
                f"position {position} outside table {self.name!r} of "
                f"{self.store.n_rows} rows"
            )
        return self.positions.physical_of(position)

    def position_of(self, rid: int) -> Optional[int]:
        """Presentation position of a live rid, or None — O(log s)."""
        position = self.positions.position_of(rid)
        if position is None or position >= self.store.n_rows:
            return None
        return position

    def row_at(self, position: int) -> Tuple[Any, ...]:
        return self.store.get(self.rid_at(position))

    def get(self, rid: int) -> Tuple[Any, ...]:
        return self.store.get(rid)

    def rids(self, position: int = 0, count: Optional[int] = None) -> List[int]:
        """rids of rows ``[position, position+count)`` in presentation
        order (clamped; all remaining rows when ``count`` is None) —
        O(log s + spans + count) from the mapper's spans."""
        position = max(position, 0)
        n_rows = self.store.n_rows
        end = n_rows if count is None else min(n_rows, position + count)
        out: List[int] = []
        for lo, hi, _ in self.positions.intervals(position, end - 1):
            out.extend(range(lo, hi + 1))
        return out

    def window(self, position: int, count: int) -> List[Tuple[Any, ...]]:
        """The viewport fetch: rows ``[position, position+count)`` in
        presentation order — O(log s + count)."""
        return [self.store.get(rid) for rid in self.rids(position, count)]

    def _freeze_order(self) -> _FrozenOrder:
        """The presentation order at this instant; caller holds the store
        mutation lock so it matches the store snapshot taken beside it."""
        return _FrozenOrder(self.positions.intervals(0, self.store.n_rows - 1))

    def scan(self) -> Iterator[Tuple[int, int, Tuple[Any, ...]]]:
        """Yield ``(position, rid, row)`` in presentation order:
        :meth:`scan_columns` over the full column set."""
        return self.scan_columns(self.column_names)

    def scan_columns(
        self, names: Sequence[str]
    ) -> Iterator[Tuple[int, int, Tuple[Any, ...]]]:
        """Yield ``(position, rid, values)`` in presentation order: the
        tuple adapter over :meth:`scan_column_batches`, opened now (so the
        snapshot is pinned at call time) with one-page batches (so a
        consumer that stops early reads only the page prefix it used)."""
        batches = self.scan_column_batches(names, self.store.rows_per_page)
        return (
            (position, rid, values)
            for positions, rids, cols in batches
            for position, rid, values in zip(
                positions, rids, zip(*cols) if cols else itertools.repeat(())
            )
        )

    def scan_column_batches(
        self,
        names: Sequence[str],
        batch_size: int = DEFAULT_BATCH_SIZE,
        predicate_ranges: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Tuple[Sequence[int], List[int], List[List[Any]]]]:
        """The table's one read loop: yields ``(positions, rids, columns)``
        in presentation order, with ``columns`` holding one rid-aligned
        value list per name and ``positions`` the rows' presentation
        positions (a ``range`` when they are contiguous).

        The presentation order and a store snapshot are captured together
        under the store's mutation lock when this is called, so the scan
        is isolated from later DML and layout migrations.  An empty
        ``names`` yields empty column lists straight from the order,
        without touching any page — what a bare ``COUNT(*)`` costs.

        ``predicate_ranges`` (lowered column name → ``expr.IntervalSet``)
        turns on zone-map data skipping: pages proven to hold no possible
        match are dropped before decode, leaving holes in ``positions``.
        Survivors are a superset of the true matches; callers still apply
        the full predicate.

        The store yields heap order; rows it surfaces ahead of their
        presentation position are held back and a row is emitted only once
        no row at a lower position can still arrive.  A position is
        settled once its row has arrived, or — when the snapshot's heap
        order is ascending rid order — once its rid is at or below the
        highest rid seen so far (that row arrived or zone maps skipped
        it).  Without that proof, held rows wait for the end of the scan."""
        names = list(names)
        with self.store.mutation_lock:
            order = self._freeze_order()
            if not names:
                return order.batches(batch_size)
            # One critical section pins both identities of the table: the
            # presentation order and the physical chains must describe the
            # same set of rows.
            snap = self.store.snapshot()
            try:
                source = self.store.scan_group_batches(
                    names,
                    batch_size,
                    snapshot=snap,
                    predicate_ranges=predicate_ranges,
                )
            except BaseException:
                snap.release()
                raise
        complete = not predicate_ranges

        def emit(ready: List[Tuple[int, int, Tuple[Any, ...]]]):
            for lo in range(0, len(ready), batch_size):
                chunk = ready[lo : lo + batch_size]
                yield (
                    [position for position, _, _ in chunk],
                    [rid for _, rid, _ in chunk],
                    [list(column) for column in zip(*(row for _, _, row in chunk))],
                )

        def batches() -> Iterator[Tuple[Sequence[int], List[int], List[List[Any]]]]:
            settled = 0  # every position below this is emitted or never arrives
            held: List[Tuple[int, int, Tuple[Any, ...]]] = []  # heap by position
            emitted = 0
            top_rid = -1
            try:
                for rids, cols in source:
                    positions = order.positions_of(rids)
                    if not isinstance(positions, range) and None in positions:
                        rid = rids[positions.index(None)]
                        raise StorageError(
                            f"rid {rid} missing from positional index of {self.name!r}"
                        )
                    bound = 0
                    if snap.rids_ascending:
                        top_rid = max(top_rid, rids[-1])
                        bound = order.first_position_above(top_rid)
                    n = len(rids)
                    if (
                        not held
                        and positions[0] >= settled
                        and positions[-1] < max(bound, settled + n)
                        and (
                            isinstance(positions, range)
                            or all(a < b for a, b in zip(positions, positions[1:]))
                        )
                    ):
                        # In order and nothing below can still arrive:
                        # pass the store's batch straight through.
                        yield positions, rids, cols
                        emitted += n
                        settled = max(bound, positions[-1] + 1)
                        continue
                    for item in zip(positions, rids, zip(*cols)):
                        heapq.heappush(held, item)
                    settled = max(settled, bound)
                    ready = []
                    while held and held[0][0] <= settled:
                        item = heapq.heappop(held)
                        ready.append(item)
                        if item[0] == settled:
                            settled += 1
                    emitted += len(ready)
                    yield from emit(ready)
                ready = [heapq.heappop(held) for _ in range(len(held))]
                emitted += len(ready)
                yield from emit(ready)
                if complete and emitted != order.n_rows:
                    raise StorageError(
                        f"{order.n_rows - emitted} rows missing from column "
                        f"scan of {self.name!r}"
                    )
            finally:
                snap.release()

        return batches()

    def rows(self) -> List[Tuple[Any, ...]]:
        return [row for _, _, row in self.scan()]

    def find_by_key(self, key: Any) -> Optional[int]:
        """rid for a primary-key value, or None."""
        if self.primary_index is None:
            raise ExecutionError(f"table {self.name!r} has no primary key")
        return self.primary_index.tree.get(key)

    # -- key indexes ------------------------------------------------------------

    def _all_indexes(self) -> List[TableIndex]:
        """The primary-key index (if any) and every secondary index — the
        one list every maintenance path and the planner walk."""
        indexes = list(self.indexes.values())
        if self.primary_index is not None:
            indexes.insert(0, self.primary_index)
        return indexes

    def index_for(self, column: str) -> Optional[TableIndex]:
        """Any index over ``column`` (unique preferred), or None."""
        column_l = column.lower()
        best: Optional[TableIndex] = None
        for index in self._all_indexes():
            if index.column.lower() == column_l:
                if index.unique:
                    return index
                best = best or index
        return best

    def create_index(self, name: str, column: str, unique: bool) -> TableIndex:
        """Build a secondary index over ``column`` from the current rows.

        Runs under the store mutation lock so the initial build and
        subsequent DML maintenance cannot interleave."""
        name_l = name.lower()
        if name_l in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        self.schema.column(column)  # raises SchemaError on unknown column
        with self.store.mutation_lock:
            index = TableIndex(name, column, unique, BPlusTree(unique=unique))
            col = self.schema.column_index(column)
            for rid in self.store.rids():
                key = self.store.get(rid)[col]
                if key is None:
                    continue
                try:
                    index.tree.insert(key, rid)
                except StorageError:
                    raise ConstraintError(
                        f"cannot create unique index {name!r}: duplicate "
                        f"key {key!r} in table {self.name!r}"
                    ) from None
            self.indexes[name_l] = index
        self._record_event(
            "index_create", index=name, column=column, unique=unique
        )
        return index

    def drop_index(self, name: str) -> TableIndex:
        name_l = name.lower()
        index = self.indexes.pop(name_l, None)
        if index is None:
            raise SchemaError(f"no such index {name!r}")
        self._record_event("index_drop", index=index.name)
        return index

    def _index_key(self, index: TableIndex, row: Sequence[Any]) -> Any:
        return row[self.schema.column_index(index.column)]

    def _index_check(
        self,
        new_row: Sequence[Any],
        rid: Optional[int] = None,
        old_row: Optional[Sequence[Any]] = None,
    ) -> None:
        """Unique and primary-key checks for inserting ``new_row`` (or
        updating row ``rid`` from ``old_row``), run *before* any tree or
        the store is touched so a rejected statement leaves no partial
        state."""
        for index in self._all_indexes():
            if not index.unique:
                continue
            key = self._index_key(index, new_row)
            if old_row is not None and key == self._index_key(index, old_row):
                continue
            primary = index is self.primary_index
            if key is None:
                if primary:
                    raise ConstraintError(
                        f"primary key of {self.name!r} may not be NULL"
                    )
                continue
            holder = index.tree.get(key)
            if holder is not None and holder != rid:
                if primary:
                    raise ConstraintError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                raise ConstraintError(
                    f"duplicate key {key!r} violates unique index "
                    f"{index.name!r} of table {self.name!r}"
                )

    def _index_insert(self, rid: int, row: Sequence[Any]) -> None:
        for index in self._all_indexes():
            key = self._index_key(index, row)
            if key is not None:
                index.tree.insert(key, rid)

    def _index_delete(self, rid: int, row: Sequence[Any]) -> None:
        for index in self._all_indexes():
            key = self._index_key(index, row)
            if key is not None:
                index.tree.delete(key, None if index.unique else rid)

    def _index_update(
        self, rid: int, old_row: Sequence[Any], new_row: Sequence[Any]
    ) -> None:
        """Re-key every index whose column changed; uniqueness was already
        vetted by :meth:`_index_check`."""
        for index in self._all_indexes():
            old_key = self._index_key(index, old_row)
            new_key = self._index_key(index, new_row)
            if old_key is new_key or old_key == new_key:
                continue
            if old_key is not None:
                index.tree.delete(old_key, None if index.unique else rid)
            if new_key is not None:
                index.tree.insert(new_key, rid)

    # -- writes -----------------------------------------------------------------

    def insert(
        self,
        values: Sequence[Any],
        position: Optional[int] = None,
        emit: bool = True,
        rid: Optional[int] = None,
    ) -> int:
        """Insert a row, by default appending; ``position`` inserts into the
        middle of the presentation order (paper's positional insert).
        ``rid`` puts a deleted row's record id back (rollback only).

        Every check — values, position, unique keys — runs before the
        mapper, the store or any index is touched."""
        row = self._prepare_row(values)
        if position is not None and position < 0:
            raise ExecutionError(f"negative position {position}")
        self._index_check(row)
        with self.store.mutation_lock:
            n_rows = self.store.n_rows
            if position is None or position >= n_rows:
                position = n_rows
            if rid is not None:
                self.positions.insert_key(position, rid)
            elif position < n_rows:
                self.positions.insert(position, 1)
            # An append takes the key already waiting at the end of the
            # order, so an append-only table never splices its mapper.
            rid = self.positions.physical_of(position)
            self.store.insert(row, rid=rid)
            self._index_insert(rid, row)
        if emit:
            self._emit(ChangeEvent(self.name, "insert", position, rid, row))
        return rid

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[int]:
        return [self.insert(row) for row in rows]

    def update_rid(
        self,
        rid: int,
        changes: Dict[str, Any],
        position: Optional[int] = None,
        emit: bool = True,
    ) -> Tuple[Any, ...]:
        """Update named columns of one row; returns the new full row."""
        old_row = self.store.get(rid)
        new_values = list(old_row)
        for column_name, value in changes.items():
            column = self.schema.column(column_name)
            index = self.schema.column_index(column_name)
            coerced = coerce_value(value, column.dtype)
            if coerced is None and column.not_null:
                raise ConstraintError(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )
            new_values[index] = coerced
        new_row = tuple(new_values)
        self._index_check(new_row, rid, old_row)
        self._index_update(rid, old_row, new_row)
        if len(changes) == 1:
            # Single-column update: touch only that column's group (the
            # tuple-update cost baseline for E6).
            ((column_name, _),) = changes.items()
            index = self.schema.column_index(column_name)
            self.store.update_column(rid, column_name, new_row[index])
        else:
            self.store.update(rid, new_row)
        if emit:
            self._emit(
                ChangeEvent(self.name, "update", position, rid, new_row, old_row)
            )
        return new_row

    def delete_at(self, position: int, emit: bool = True) -> Tuple[Any, ...]:
        """Delete the row at a presentation position."""
        return self._delete(position, self.rid_at(position), emit)

    def delete_rids(self, rids: Sequence[int], emit: bool = True) -> int:
        """Delete rows by rid (used by DELETE ... WHERE plans), from the
        highest position down so the lower positions stay valid."""
        targets = set()
        for rid in rids:
            position = self.position_of(rid)
            if position is not None:
                targets.add((position, rid))
        for position, rid in sorted(targets, reverse=True):
            self._delete(position, rid, emit)
        return len(targets)

    def _delete(self, position: int, rid: int, emit: bool) -> Tuple[Any, ...]:
        with self.store.mutation_lock:
            row = self.store.get(rid)
            self._index_delete(rid, row)
            self.positions.delete(position, 1)
            self.store.delete(rid)
        if emit:
            self._emit(ChangeEvent(self.name, "delete", position, rid, None, row))
        return row

    # -- schema evolution ----------------------------------------------------------

    def add_column(
        self,
        column: Column,
        group_index: Optional[int] = None,
        new_group: Optional[bool] = None,
        emit: bool = True,
    ) -> int:
        """ADD COLUMN; returns pages rewritten (0 for a fresh group)."""
        rewritten = self.store.add_column(column, group_index, new_group)
        if emit:
            self._emit(ChangeEvent(self.name, "add_column", column=column.name))
        return rewritten

    def drop_column(self, name: str, emit: bool = True) -> int:
        if self.schema.primary_key is not None and name.lower() == self.schema.primary_key.lower():
            raise SchemaError(f"cannot drop primary key column {name!r}")
        rewritten = self.store.drop_column(name)
        # Indexes over the dropped column go with it (sqlite drops the
        # column's indexes the same way on table rewrite).
        doomed = [
            key
            for key, index in self.indexes.items()
            if index.column.lower() == name.lower()
        ]
        for key in doomed:
            self.indexes.pop(key)
        if emit:
            self._emit(ChangeEvent(self.name, "drop_column", column=name))
        return rewritten

    def rename_column(self, old: str, new: str, emit: bool = True) -> None:
        self.store.rename_column(old, new)
        for index in self._all_indexes():
            if index.column.lower() == old.lower():
                index.column = new
        if emit:
            self._emit(ChangeEvent(self.name, "rename_column", column=old, extra=new))

    # -- adaptive layout ---------------------------------------------------------------

    @property
    def migration_active(self) -> bool:
        return self._layout_migration is not None

    @property
    def layout_migration_target(self) -> Optional[List[List[str]]]:
        """The in-flight migration's target grouping (None when idle) —
        what persistence carries so a recovered server resumes the
        half-done migration instead of waiting for the advisor to
        re-learn it from cold statistics."""
        if self._layout_migration is None:
            return None
        return [list(group) for group in self._layout_migration.target]

    def set_auto_layout(self, enabled: bool) -> None:
        self.auto_layout = enabled

    def set_static_layout(self, mode: str) -> LayoutMigration:
        """Migrate synchronously to a static extreme (``row``/``column``)
        and suspend the advisor loop — otherwise the next maintenance
        tick would consult the same accumulated stats and migrate right
        back.  Shared by the live ``ALTER ... SET LAYOUT`` path and WAL
        replay of ``layout_set`` records, so the two cannot drift."""
        if mode == "row":
            target: List[List[str]] = [list(self.schema.column_names)]
        elif mode == "column":
            target = [[name] for name in self.schema.column_names]
        else:
            raise SchemaError(f"unknown static layout mode {mode!r}")
        self.set_auto_layout(False)
        return self.migrate_layout(target, online=False)

    def cancel_layout_migration(self) -> None:
        """Abandon any in-flight migration (the store keeps its current,
        fully consistent intermediate layout)."""
        self._layout_migration = None

    def reconcile_layout_migration(self) -> None:
        """Drop an armed migration whose (reconciled) target the store has
        already reached — needed after an externally applied restructure
        (WAL replay of a layout_step) so a migration that completed before
        a crash is not reported as still in flight."""
        if self._layout_migration is not None and self._layout_migration.done:
            self._layout_migration = None

    def migrate_layout(
        self, target_groups: Sequence[Sequence[str]], online: bool = True
    ) -> LayoutMigration:
        """Start (or, with ``online=False``, fully run) a re-partition of
        the physical layout toward ``target_groups``.  Either way the new
        target supersedes any migration already in flight — otherwise a
        later maintenance tick would keep pulling the layout toward the
        abandoned target."""
        migration = LayoutMigration(self.store, target_groups)
        if online:
            self._layout_migration = None if migration.done else migration
        else:
            self._layout_migration = None
            migration.run_to_completion()
        return migration

    def advise_layout(self) -> Optional[LayoutRecommendation]:
        return self.layout_advisor.advise(self.store)

    def layout_tick(
        self,
        steps: int = 1,
        observer: Optional[Callable[[str, str, List[List[str]]], None]] = None,
        max_blocks: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One beat of the adaptive-layout maintenance loop.

        Advances an in-flight migration by up to ``steps`` bounded
        restructure steps; otherwise (with auto layout on) consults the
        advisor and starts a migration when the predicted saving clears
        the migration cost.  Returns a small report dict for observability.

        ``max_blocks`` additionally budgets the restructure work of one
        beat: after the first step (which always runs, so a migration can
        never stall outright), further steps are taken only while the
        beat's written pages plus the next step's predicted cost stay
        within the budget.  ``None`` (the default) keeps the unbudgeted
        behaviour.

        ``observer(table_name, event, groups)`` is called with
        ``("start", target_groups)`` when the advisor launches a migration
        and ``("step", new_groups)`` after each applied restructure step —
        the hook the durable server uses to WAL-log layout transitions so
        replay converges to the live physical layout.

        The whole beat runs under the store's mutation lock: the stats
        decay, the advisor's read of those stats, and any restructure
        step form one atomic unit against concurrent DML and snapshot
        acquisition (open snapshots keep streaming the pre-step chains).
        """
        with self.store.mutation_lock:
            return self._layout_tick_locked(steps, observer, max_blocks)

    def _layout_tick_locked(
        self,
        steps: int,
        observer: Optional[Callable[[str, str, List[List[str]]], None]],
        max_blocks: Optional[int],
    ) -> Dict[str, Any]:
        report: Dict[str, Any] = {"table": self.name, "action": "idle"}
        # Age the workload window first so it keeps tracking recent
        # behaviour on every tick — including the ticks spent stepping a
        # migration (a multi-step migration must not freeze the window).
        if self.store.access_stats.total_ops > self.layout_stats_horizon:
            self.store.access_stats.decay()
        migration = self._layout_migration
        if migration is not None:
            done = False
            written_before = migration.pages_written
            for index in range(max(1, steps)):
                if index > 0 and max_blocks is not None:
                    spent = migration.pages_written - written_before
                    if spent >= max_blocks:
                        break
                    upcoming = migration.peek()
                    if upcoming is not None:
                        predicted = restructure_blocks(
                            self.schema.groups,
                            upcoming,
                            self.store.n_rows,
                            self.store.pool.page_capacity,
                        )
                        if spent + predicted > max_blocks:
                            break
                before = self.schema.groups
                done = migration.step()
                if self.schema.groups != before:
                    if observer is not None:
                        observer(self.name, "step", self.schema.groups)
                    self._record_event("migration_step", groups=self.schema.groups)
                if done:
                    break
            if done:
                self._layout_migration = None
                self._record_event(
                    "migration_finish",
                    steps=migration.steps_taken,
                    pages_written=migration.pages_written,
                )
            report.update(
                action="migrated" if done else "migrating",
                steps_taken=migration.steps_taken,
                pages_written=migration.pages_written,
                blocks_this_tick=migration.pages_written - written_before,
                groups=self.schema.groups,
            )
            if self.sanitizer.enabled:
                # Post-migration consistency: the grouping must still
                # partition the columns and the positional index must agree
                # with the store — checked after every tick that moved data.
                self.sanitizer.check_table(self)
            return report
        if self.auto_layout:
            # No migration in flight: let the encoder compact chains the
            # workload scans before consulting the advisor (whose cost
            # model then sees the measured compression ratios).
            encoded = self.store.encoding_tick() if self.auto_encode else []
            for group_index, ratio in encoded:
                self._record_event(
                    "encode_group",
                    group=group_index,
                    ratio=round(ratio, 2),
                    columns=list(self.schema.groups[group_index]),
                )
            if encoded:
                report["encoded_groups"] = [group for group, _ in encoded]
            recommendation = self.layout_advisor.advise(self.store)
            if recommendation is not None:
                self._record_event(
                    "layout_advice",
                    current_cost=recommendation.current_cost,
                    target_cost=recommendation.target_cost,
                    migration_cost=recommendation.migration_cost,
                    saving=recommendation.saving,
                    worthwhile=recommendation.worthwhile,
                    target_groups=[list(g) for g in recommendation.target_groups],
                )
            if recommendation is not None and recommendation.worthwhile:
                self._layout_migration = LayoutMigration(
                    self.store, recommendation.target_groups
                )
                if observer is not None:
                    observer(
                        self.name,
                        "start",
                        [list(g) for g in recommendation.target_groups],
                    )
                self._record_event(
                    "migration_start",
                    groups=[list(g) for g in recommendation.target_groups],
                )
                report.update(
                    action="migration_started",
                    recommendation=recommendation.to_dict(),
                )
        return report

    # -- maintenance ------------------------------------------------------------------

    def checkpoint(self) -> int:
        return self.store.checkpoint()

    def validate(self) -> None:
        """Full consistency check: store, mapper, and every index entry
        against the stored rows (not only the sizes)."""
        self.store.validate()
        self.positions.validate()
        live = self.store.rids()
        ordered = self.rids()
        if len(live) != self.store.n_rows or sorted(ordered) != sorted(live):
            raise StorageError(
                f"positions [0, {self.store.n_rows}) of {self.name!r} map "
                f"{len(ordered)} rids that are not the store's {len(live)} "
                "live rids"
            )
        rows = {rid: self.store.read_row(rid) for rid in live}
        for index in self._all_indexes():
            index.tree.validate()
            col = self.schema.column_index(index.column)
            expected: Dict[Any, List[int]] = {}
            for rid, row in rows.items():
                # A NULL primary key is itself a violation: it is kept as
                # an expected key the tree can never hold.
                if row[col] is not None or index is self.primary_index:
                    expected.setdefault(row[col], []).append(rid)
            actual = {
                key: sorted(value) if isinstance(value, list) else [value]
                for key, value in index.tree.items()
            }
            if actual != {key: sorted(rids) for key, rids in expected.items()}:
                raise StorageError(
                    f"index {index.name!r} of {self.name!r} does not match "
                    "the stored rows"
                )
