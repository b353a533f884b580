"""Probes of the program's known defects, run after every
``sheet_interactive`` run on services of their own.

The measured workload keeps clear of these defects, because an op that
fails, or a wrong durable state, would make every run report
``"correct": false`` and hide any other regression behind it.  So that
they stay visible, each run also provokes each defect at the
workbook's natural scale and prints what it saw as a ``known defect``
line of the report (never timed, never part of ``correct``):

1. an edit or row insert in a 1,000-row running sum raises
   ``RecursionError``, and the failed apply leaves the live ledger apart
   from the durable state;
2. a workbook handed to ``WorkbookService(dir, workbook=...)`` is not
   snapshotted, so a crash before the first compaction loses its tables;
3. a DBTABLE cell edit made after ``DBTableRegion.scroll_to`` replays
   onto another row, because the scroll is not logged.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Any, Dict, Iterator, List, Tuple

from perfbench.common import FLUSH_POLICY
from repro import Database, Workbook, WorkbookService
from repro.server.service import recover_state

#: ledger ops per probe: half cell edits, half row inserts
LEDGER_OPS = 20
#: the orders table behind the DBTABLE probe, its window, and the scroll
DBTABLE_ROWS = 200
DBTABLE_WINDOW = 10
DBTABLE_SCROLL = 100

ORDERS_DDL = "CREATE TABLE orders (id INT PRIMARY KEY, cust INT, amt REAL, region TEXT)"


def spread_out(start: float) -> Iterator[float]:
    """Positions as fractions of a depth, spread evenly (golden-ratio
    steps) so every probe hits shallow and deep rows alike."""
    value = start
    while True:
        yield value
        value = (value + 0.6180339887498949) % 1.0


def ledger_workbook(rows: int) -> Workbook:
    """``Ledger!B{r} = B{r-1} + A{r}`` over ``rows`` rows."""
    workbook = Workbook(database=Database())
    workbook.add_sheet("Ledger")
    for row in range(1, rows + 1):
        workbook.set("Ledger", f"A{row}", (row * 7) % 50 - 20)
        workbook.set("Ledger", f"B{row}", f"=B{row - 1}+A{row}" if row > 1 else "=A1")
    return workbook


def _serve(directory: str, workbook: Any = None) -> WorkbookService:
    return WorkbookService(directory, workbook=workbook, background_maintenance=False,
                           **FLUSH_POLICY)


def _cells(workbook: Workbook, name: str) -> Dict[Tuple[int, int], Any]:
    sheet = workbook.sheet(name)
    used = sheet.used_range()
    if used is None:
        return {}
    return {
        (used.start.row + r, used.start.col + c): value
        for r, row in enumerate(sheet.grid(used))
        for c, value in enumerate(row)
        if value is not None
    }


def deep_running_sum(seed: int, directory: str, rows: int) -> str:
    rng = random.Random(f"defect-ledger-{seed}")
    depths = spread_out(rng.random())
    service = _serve(directory, ledger_workbook(rows))
    errors: Dict[str, int] = {}
    try:
        service.compact(force=True)
        editor = service.connect("editor", sheet="Ledger", n_rows=40, n_cols=4).session_id
        ledger_rows = rows
        for i in range(LEDGER_OPS):
            try:
                if i % 2 == 0:
                    row = 1 + int(next(depths) * ledger_rows)
                    service.set_cell(editor, "Ledger", f"A{row}", rng.randrange(-50, 50))
                else:
                    service.apply(editor, {"type": "insert_rows", "sheet": "Ledger",
                                           "at": int(next(depths) * ledger_rows), "count": 1})
                    ledger_rows += 1
            except Exception as error:  # the defect under probe: count it
                errors[type(error).__name__] = errors.get(type(error).__name__, 0) + 1
        live = _cells(service.workbook, "Ledger")
        try:
            durable = _cells(recover_state(directory, eager=False).workbook, "Ledger")
            differ = sum(1 for key in set(live) | set(durable) if live.get(key) != durable.get(key))
            durable_note = f"{differ} of {len(live)} live Ledger cells differ from the durable state"
        except Exception as error:  # a failed rebuild is part of what the probe shows
            differ = 1
            durable_note = f"rebuilding the durable state raised {type(error).__name__}"
    finally:
        service.close(drain=False)
    failed = sum(errors.values())
    seen = "reproduced" if failed or differ else "not reproduced"
    return (f"known defect 1 (deep running sum) {seen}: {failed} of {LEDGER_OPS} edits and "
            f"row inserts on a {rows}-row running balance failed {dict(sorted(errors.items()))}; "
            f"{durable_note}")


def unsnapshotted_workbook(seed: int, directory: str) -> str:
    rng = random.Random(f"defect-handed-{seed}")
    database = Database()
    database.execute(ORDERS_DDL)
    service = _serve(directory, Workbook(database=database))
    try:
        client = service.connect("client", sheet="Sheet1").session_id
        service.execute(client, "INSERT INTO orders VALUES (?, ?, ?, ?)",
                        (1, rng.randrange(100), 10.0, "north"))
    finally:
        service.close(drain=False)
    try:
        reopened = _serve(directory)
    except Exception as error:  # the defect under probe
        return (f"known defect 2 (handed-in workbook not snapshotted) reproduced: reopening "
                f"after a crash before the first compaction raised {type(error).__name__}")
    try:
        rows = list(reopened.workbook.database.table("orders").rows())
        seen = "not reproduced" if len(rows) == 1 else "reproduced"
        return f"known defect 2 (handed-in workbook not snapshotted) {seen}: {len(rows)} of 1 rows recovered"
    except Exception as error:  # the table itself is gone
        return (f"known defect 2 (handed-in workbook not snapshotted) reproduced: the recovered "
                f"workbook has no orders table ({type(error).__name__})")
    finally:
        reopened.close(drain=False)


def dbtable_edit_after_scroll(seed: int, directory: str) -> str:
    rng = random.Random(f"defect-dbtable-{seed}")
    database = Database()
    database.execute(ORDERS_DDL)
    database.table("orders").insert_many(
        [(i, rng.randrange(100), float(i), "north") for i in range(DBTABLE_ROWS)]
    )
    workbook = Workbook(database=database)
    workbook.dbtable("Sheet1", "A1", "orders", window_rows=DBTABLE_WINDOW)
    service = _serve(directory, workbook)
    try:
        service.compact(force=True)
        editor = service.connect("editor", sheet="Sheet1").session_id
        region = next(r for r in service.workbook.regions.all() if r.context.kind == "dbtable")
        region.scroll_to(DBTABLE_SCROLL)
        # A2 is the first data row under the header: amt of the order at the offset.
        service.set_cell(editor, "Sheet1", "C2", -1.0)
        live = sorted(row[0] for row in service.workbook.database.table("orders").rows()
                      if row[2] == -1.0)
        durable_db = recover_state(directory, eager=False).workbook.database
        durable = sorted(row[0] for row in durable_db.table("orders").rows() if row[2] == -1.0)
    finally:
        service.close(drain=False)
    seen = "reproduced" if live != durable else "not reproduced"
    return (f"known defect 3 (DBTABLE edit after an unlogged scroll) {seen}: the edit updated "
            f"order {live} live and order {durable} after replay")


def probe_known_defects(seed: int, workdir: str, ledger_rows: int) -> List[str]:
    """One report line per known defect; the probes' files live in
    ``workdir`` and are removed."""
    lines = []
    try:
        for name, probe in (
            ("ledger", lambda d: deep_running_sum(seed, d, ledger_rows)),
            ("handed", lambda d: unsnapshotted_workbook(seed, d)),
            ("dbtable", lambda d: dbtable_edit_after_scroll(seed, d)),
        ):
            lines.append(probe(os.path.join(workdir, name)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return lines
