"""Per-layer attribution for the traced run.

The benchmark wraps the public entry points of each ``repro`` package
from here — nothing inside the program changes — and records one span
per call: name, start, end, parent and the id of the operation that
caused it.  A span's self time is its duration minus its children's, so
the self times of one op add up to the op's traced time.

Class methods are wrapped on the class.  A module-level function is
patched in every ``repro`` module holding a reference to it, because
``from x import f`` copies are not reached by patching ``x.f``.  A
target the program no longer has is skipped (its layer then reads 0).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.common import TRACE_SLICE_S

#: span name -> wrapped targets, as (module, "Class.method" or "function").
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "server.apply": [
        ("repro.server.service", "WorkbookService.apply"),
        ("repro.server.service", "WorkbookService.step"),
    ],
    "server.wal": [
        ("repro.server.wal", "WriteAheadLog.append"),
        ("repro.server.wal", "WriteAheadLog.append_many"),
        ("repro.server.wal", "WriteAheadLog.sync"),
        ("repro.server.wal", "WriteAheadLog.truncate_to"),
    ],
    "server.snapshot": [("repro.server.snapshot", "SnapshotStore.write")],
    "server.broadcast": [("repro.server.broadcast", "Broadcaster.publish")],
    "engine.statement": [("repro.engine.database", "Database.execute")],
    "engine.parse": [("repro.engine.sql_parser", "parse_sql")],
    "engine.plan": [("repro.engine.planner", "Planner.plan_select")],
    "engine.execute": [("repro.engine.planner", "PlannedQuery.execute")],
    "engine.maint": [("repro.engine.database", "Database.maintenance_tick")],
    "index.btree": [
        ("repro.index.btree", "BPlusTree.get"),
        ("repro.index.btree", "BPlusTree.insert"),
        ("repro.index.btree", "BPlusTree.delete"),
        ("repro.index.btree", "BPlusTree.range_scan"),
        ("repro.index.btree", "BPlusTree.items"),
        ("repro.index.btree", "BPlusTree.__contains__"),
    ],
    "core.workbook": [
        ("repro.core.workbook", "Workbook.set"),
        ("repro.core.workbook", "Workbook.execute"),
        ("repro.core.workbook", "Workbook.get_range"),
    ],
    "core.sync": [
        ("repro.core.sync", "SyncManager.on_event"),
        ("repro.core.sync", "SyncManager.flush"),
    ],
    "core.dbsql_refresh": [("repro.core.dbsql", "DBSQLRegion.refresh")],
    "core.dbtable_refresh": [("repro.core.dbtable", "DBTableRegion.refresh")],
    "core.structural": [
        ("repro.core.workbook", "Workbook.insert_rows"),
        ("repro.core.workbook", "Workbook.delete_rows"),
    ],
    "window.fetch": [("repro.window.cache", "WindowCache.window")],
    "compute.recalc": [
        ("repro.compute.engine", "ComputeEngine.recalc_visible"),
        ("repro.compute.engine", "ComputeEngine.drain"),
        ("repro.compute.engine", "ComputeEngine.register_formula"),
    ],
    "compute.background": [("repro.compute.engine", "ComputeEngine.background_step")],
    "formula.parse": [("repro.formula.parser", "parse_formula")],
}

#: Module-local bindings given their own span before SPANS patches the
#: rest: the service's SQL re-parses (validation, read-only test, layout
#: and index promotion) are apply-pipeline work, not statement parsing.
LOCAL_SPANS: Dict[str, List[Tuple[str, str]]] = {
    "server.apply": [("repro.server.service", "parse_sql")],
}

#: Calls on a table's presentation-order structure that walk every row.
FULL_WALKS = ("__iter__", "to_list", "position_of")

#: Recovery-only spans: snapshot load versus WAL replay.
RECOVERY_SPANS: Dict[str, List[Tuple[str, str]]] = {
    "recovery.load": [
        ("repro.server.snapshot", "SnapshotStore.load"),
        ("repro.core.persist", "workbook_from_dict"),
        ("repro.server.wal", "read_wal"),
    ],
    "recovery.replay": [
        ("repro.server.service", "apply_op"),
        ("repro.core.workbook", "Workbook.recalc_all"),
    ],
}


class SpanLog:
    """Spans kept in memory: (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.op_id = 0
        self.enabled = True
        # open frames: [span index, start, accumulated child time]
        self._stack: List[List[Any]] = []
        self.rows_examined = 0
        self.rows_returned = 0

    def call(self, name: str, fn: Callable, args: Tuple, kwargs: Dict) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [len(self.spans), time.perf_counter(), 0.0]
        self.spans.append((name, frame[1], 0.0, parent, self.op_id))
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            self.spans[frame[0]] = (name, frame[1], end, parent, self.op_id)
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            if stack:
                stack[-1][2] += duration


def _resolve(module_name: str, target: str) -> Optional[Tuple[Any, str, Any]]:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner: Any = module
    *path, attr = target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, current))
        setattr(owner, attr, value)

    def wrap(
        self,
        name: Any,
        owner: Any,
        attr: str,
        original: Any,
        after: Optional[Callable[[Tuple, Any], None]] = None,
        local: bool = False,
    ) -> None:
        """``name`` is a span name, or a callable picking one per call;
        ``local`` patches a function in ``owner``'s module only."""
        log = self.log

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name() if callable(name) else name
            result = log.call(label, original, args, kwargs)
            if after is not None and log.enabled:
                after(args, result)
            return result

        if isinstance(owner, type) or local:
            self._set(owner, attr, wrapper)
            return
        # A module-level function: patch every repro module holding it.
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            if getattr(module, attr, None) is original:
                self._set(module, attr, wrapper)

    def install(self, spans: Dict[str, List[Tuple[str, str]]], local: bool = False) -> None:
        for name, targets in spans.items():
            for module_name, target in targets:
                resolved = _resolve(module_name, target)
                if resolved is None:
                    continue
                after = None
                if target == "PlannedQuery.execute":
                    after = functools.partial(_count_rows, self.log)
                self.wrap(name, *resolved, after=after, local=local)

    def install_structure(self, name: Any, cls: type) -> None:
        """Wrap every public method (and ``__iter__``) of a structure
        class found at run time, e.g. whatever backs a table's order.
        Calls that walk every row get the span name ``<name>.walk``."""
        for attr, original in list(vars(cls).items()):
            if not inspect.isfunction(original):
                continue
            if attr.startswith("_") and attr != "__iter__":
                continue
            suffix = ".walk" if attr in FULL_WALKS else ""
            if callable(name):
                label: Any = lambda suffix=suffix: name() + suffix
            else:
                label = name + suffix
            self.wrap(label, cls, attr, original)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _order_or_axis() -> str:
    """For one class backing both a table's order and a sheet axis: the
    calling package decides."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    caller = frame.f_globals.get("__name__", "") if frame is not None else ""
    return "index.order" if caller.startswith("repro.engine") else "index.sheet_axis"


def _plan_nodes(node: Any) -> Iterator[Any]:
    yield node
    for child in node.children():
        yield from _plan_nodes(child)


def _count_rows(log: SpanLog, args: Tuple, rows: Any) -> None:
    """After a SELECT executes: rows examined by its scans versus rows
    returned (``engine.rows_examined_per_row``)."""
    examined = 0
    for node in _plan_nodes(args[0].plan):
        examined += int(getattr(node, "rows_scanned", 0) or 0)
    log.rows_examined += examined
    log.rows_returned += len(rows)


class TracedRun:
    """Alternates traced and untraced slices of the measured phase so the
    trace's own cost shows as ``obs.trace_overhead_ratio``."""

    def __init__(self, workload: Any, gc_clock: Any) -> None:
        self.workload = workload
        self.gc_clock = gc_clock
        self.log = SpanLog()
        self.patches = Patches(self.log)
        self.order_type = workload.order_structure_type()
        self.axis_type = workload.sheet_axis_type()
        self.tracing = False
        self.traced_ops = 0
        self.traced_s = 0.0
        self.untraced_ops = 0
        self.untraced_s = 0.0
        self.delta: Dict[str, float] = {}
        self._slice_start: Optional[Dict[str, float]] = None

    # -- slices -------------------------------------------------------------

    def _counters(self) -> Dict[str, float]:
        values = dict(self.workload.counters())
        values["gc_s"] = self.gc_clock.seconds
        return values

    def _accumulate(self, before: Dict[str, float], sign: float) -> None:
        after = self._counters()
        for key, value in after.items():
            self.delta[key] = self.delta.get(key, 0.0) + sign * (value - before.get(key, 0.0))

    def _start_tracing(self) -> None:
        self.patches.install(LOCAL_SPANS, local=True)
        self.patches.install(SPANS)
        if self.order_type is not None and self.order_type is self.axis_type:
            self.patches.install_structure(_order_or_axis, self.order_type)
        else:
            if self.order_type is not None:
                self.patches.install_structure("index.order", self.order_type)
            if self.axis_type is not None:
                self.patches.install_structure("index.sheet_axis", self.axis_type)
        self._slice_start = self._counters()
        self.tracing = True

    def _stop_tracing(self) -> None:
        if self._slice_start is not None:
            self._accumulate(self._slice_start, 1.0)
            self._slice_start = None
        self.patches.uninstall()
        self.tracing = False

    def before_op(self, measured_s: float) -> None:
        want = int(measured_s / TRACE_SLICE_S) % 2 == 1
        if want and not self.tracing:
            self._start_tracing()
        elif not want and self.tracing:
            self._stop_tracing()
        self.log.op_id += 1

    def after_op(self, elapsed: float, ok: bool) -> None:
        if self.tracing:
            self.traced_ops += ok
            self.traced_s += elapsed
        else:
            self.untraced_ops += ok
            self.untraced_s += elapsed

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Oracle checks between ops: no spans, counters subtracted."""
        if not self.tracing:
            yield
            return
        self.log.enabled = False
        before = self._counters()
        try:
            yield
        finally:
            self._accumulate(before, -1.0)
            self.log.enabled = True

    def finish(self) -> None:
        if self.tracing:
            self._stop_tracing()

    # -- recovery -------------------------------------------------------------

    def traced_recovery(self, probe: Any) -> Tuple[float, List[str], Dict[str, float]]:
        log = SpanLog()
        patches = Patches(log)
        patches.install(RECOVERY_SPANS)
        try:
            seconds, problems = self.workload.crash_and_recover(probe)
        finally:
            patches.uninstall()
        reopens = max(len(self.workload.reopen_s), 1)
        return seconds, problems, {name: total / reopens for name, total in log.total_s.items()}

    # -- metrics ----------------------------------------------------------------

    def metrics(self, recovery_totals: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
        log, delta = self.log, self.delta
        ops = max(self.traced_ops, 1)
        self_s, calls = log.self_s, log.calls

        def ms(*names: str) -> Tuple[float, str]:
            return (sum(self_s.get(n, 0.0) for n in names) * 1000.0 / ops, "ms/op")

        def per(numerator: float, denominator: float, unit: str) -> Tuple[float, str]:
            return (numerator / denominator if denominator else 0.0, unit)

        statements = delta.get("statements", 0.0)
        appends = delta.get("wal_appends", 0.0)
        delivered = delta.get("deltas_delivered", 0.0)
        suppressed = delta.get("deltas_suppressed", 0.0)
        pages_read = delta.get("pages_read", 0.0)
        pages_skipped = delta.get("pages_skipped", 0.0)
        hits = delta.get("pool_hits", 0.0)
        misses = delta.get("pool_misses", 0.0)
        traced_rate = self.traced_ops / self.traced_s if self.traced_s else 0.0
        untraced_rate = self.untraced_ops / self.untraced_s if self.untraced_s else 0.0
        return {
            "server.apply_self_ms": ms("server.apply"),
            "server.wal_append_ms": ms("server.wal"),
            "server.wal_bytes_per_op": per(delta.get("wal_bytes", 0.0), ops, "B/op"),
            "server.wal_syncs_per_op": per(delta.get("wal_syncs", 0.0), ops, "count/op"),
            "server.snapshot_ms": ms("server.snapshot"),
            "server.snapshots": (delta.get("snapshots", 0.0), "count"),
            "server.recovery_load_ms": (recovery_totals.get("recovery.load", 0.0) * 1000.0, "ms"),
            "server.recovery_replay_ms": (recovery_totals.get("recovery.replay", 0.0) * 1000.0, "ms"),
            "server.broadcast_ms": ms("server.broadcast"),
            "server.deltas_delivered_per_op": per(delivered, ops, "count/op"),
            "server.deltas_suppressed_ratio": per(suppressed, delivered + suppressed, "ratio"),
            "engine.parse_ms": ms("engine.parse"),
            "engine.plan_ms": ms("engine.plan"),
            "engine.execute_ms": ms("engine.statement", "engine.execute"),
            "engine.index_lookups_per_stmt": per(delta.get("index_lookups", 0.0), statements, "count/stmt"),
            "engine.rows_examined_per_row": per(float(log.rows_examined), float(log.rows_returned), "ratio"),
            "engine.pages_read_per_stmt": per(pages_read, statements, "count/stmt"),
            "engine.pages_skipped_ratio": per(pages_skipped, pages_read + pages_skipped, "ratio"),
            "engine.bytes_decoded_per_stmt": per(delta.get("bytes_decoded", 0.0), statements, "B/stmt"),
            "engine.pool_hit_ratio": per(hits, hits + misses, "ratio"),
            "engine.maint_ms": ms("engine.maint"),
            "index.order_ms": ms("index.order", "index.order.walk"),
            "index.order_full_walks_per_stmt": per(float(calls.get("index.order.walk", 0)), statements, "count/stmt"),
            "index.btree_ms": ms("index.btree"),
            "index.sheet_axis_ms": ms("index.sheet_axis", "index.sheet_axis.walk"),
            "core.workbook_ms": ms("core.workbook"),
            "core.sync_ms": ms("core.sync"),
            "core.regions_refreshed_per_write": per(delta.get("regions_refreshed", 0.0), appends, "count/write"),
            "core.dbsql_refresh_ms": ms("core.dbsql_refresh"),
            "core.dbtable_refresh_ms": ms("core.dbtable_refresh"),
            "core.structural_ms": ms("core.structural"),
            "window.fetch_ms": ms("window.fetch"),
            "formula.parse_ms": ms("formula.parse"),
            "formula.reparses_per_op": per(delta.get("reparses", 0.0), ops, "count/op"),
            "compute.recalc_ms": ms("compute.recalc"),
            "compute.evaluations_per_op": per(delta.get("evaluations", 0.0), ops, "count/op"),
            "compute.background_ms": ms("compute.background"),
            "runtime.gc_ms": per(delta.get("gc_s", 0.0) * 1000.0, ops, "ms/op"),
            "obs.trace_overhead_ratio": per(traced_rate, untraced_rate, "ratio"),
        }
