"""``sheet_interactive``: one analyst's in-memory workbook.

* ``orders``: 20,000 rows with an index on ``cust`` (default, unbounded
  buffer pool).
* ``Sheet1``: a 1,000-row input block (``A``, ``B``), a per-row formula
  ``C = A*2+B`` and the aggregates ``E1 = SUM(C)``, ``E2 = AVERAGE(A)``.
* ``Ledger``: a 1,000-row running balance, ``B{r} = B{r-1} + A{r}``.  No
  measured op touches it: an edit or row insert deeper than about 400
  cells raises ``RecursionError`` in the compute engine today, and the
  failed apply leaves the live workbook apart from its durable state.
  ``perfbench/defects.py`` provokes that defect at this depth on a
  service of its own after every run and reports it (see README.md,
  "Known defects this benchmark shows").
* ``Data``: a 40-row ``DBTABLE`` window over ``orders`` that the scrolls
  move, a ``DBSQL`` ``GROUP BY region`` over ``cust < 10``, and a second
  40-row ``DBTABLE`` window at ``M1`` (the edit pane) that never
  scrolls: a cell edit after an unlogged scroll replays onto another
  row today, another defect the probes report.
* Two sessions: an editor on ``Sheet1`` and a watcher on ``Data``.

Mix per op: 58.8% cell edits on ``Sheet1``; 25.8% scrolls (the editor's
``Session.scroll_to`` plus the scrolled ``DBTABLE`` window moved to the
next ``mixed_scroll_trace`` position, then ``step()`` and a read of both
visible grids); 10.3% linked writes (half cell edits in the edit pane
from the watcher, which become an UPDATE by key; half SQL INSERTs from
the editor; both refresh the ``DBSQL`` region); 5.2%
``insert_rows``/``delete_rows`` on ``Sheet1``.  After every op the
client polls both sessions.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.base import ORDERS_DDL, ORDERS_INDEX, ServiceWorkload, order_row, table_rows
from perfbench.common import OpStream, warm_then_mix
from perfbench.defects import probe_known_defects
from repro import Database, Workbook
from repro.baselines.naive_spreadsheet import NaiveSpreadsheet
from repro.formula.parser import parse_formula
from repro.server.service import recover_state
from repro.workloads.traces import mixed_scroll_trace

ROWS = 20_000
BLOCK = 1_000
LEDGER = 1_000
WINDOW = 40
SETUP_MARK_ROWS = 250  # formula rows set up between two set-up stage marks
FIRST = 2  # 0-based sheet row of the first Sheet1 block row (A3)
DBSQL = ("SELECT region, COUNT(*), SUM(amt) FROM orders WHERE cust < 10 "
         "GROUP BY region ORDER BY region")
INSERT = "INSERT INTO orders VALUES (?, ?, ?, ?)"
EDIT_PANE = "M1"  # anchor of the DBTABLE window that the linked edits go to
AMT_COL = "O"  # orders.amt inside the edit pane

#: (op kind, ops of that kind in every shuffled block of 194)
MIX = (
    ("edit", 114),
    ("scroll", 50),
    ("dbedit", 10),
    ("sqlins", 10),
    ("ins_row", 5),
    ("del_row", 5),
)
CLASS = {"edit": "edit", "scroll": "scroll", "dbedit": "sync", "sqlins": "sync",
         "ins_row": "struct", "del_row": "struct"}
CLASS_METRICS = {"edit": [50, 95], "struct": [50], "scroll": [50, 95], "sync": [50]}


def initial_rows(seed: int, rows: int) -> List[Tuple[int, int, float, str]]:
    rng = random.Random(f"sheet-data-{seed}")
    return [order_row(rng, i, max(rows // 10, 1)) for i in range(rows)]


def generate_ops(seed: int, rows: int, block: int) -> Iterator[List[Any]]:
    rng = random.Random(f"sheet-ops-{seed}")
    block_rows, next_id = block, rows
    customers = max(rows // 10, 1)
    scrolls: List[Tuple[int, int]] = []
    for kind in warm_then_mix(rng, MIX):
        if kind == "edit":
            row = FIRST + rng.randrange(block_rows) + 1
            yield ["edit", f"{rng.choice('AB')}{row}", rng.randrange(-500, 500)]
        elif kind == "scroll":
            if not scrolls:
                chunk = rng.randrange(2**31)
                scrolls = list(zip(
                    mixed_scroll_trace(block, WINDOW, 5000, seed=chunk),
                    mixed_scroll_trace(rows, WINDOW, 5000, seed=chunk + 1),
                ))[::-1]
            top, offset = scrolls.pop()
            yield ["scroll", FIRST + top, offset]
        elif kind == "dbedit":
            yield ["dbedit", f"{AMT_COL}{2 + rng.randrange(WINDOW)}",
                   round(rng.uniform(1.0, 1000.0), 2)]
        elif kind == "sqlins":
            yield ["sqlins", *order_row(rng, next_id, customers)]
            next_id += 1
        elif kind == "ins_row":
            block_rows += 1
            yield ["ins_row", FIRST + rng.randrange(block_rows)]
        elif kind == "del_row" and block_rows > 1:
            block_rows -= 1
            yield ["del_row", FIRST + rng.randrange(block_rows)]


def sheet_grid(workbook: Workbook, name: str) -> Dict[Tuple[int, int], Any]:
    """Every non-empty stored value of a sheet, by (row, col)."""
    sheet = workbook.sheet(name)
    used = sheet.used_range()
    if used is None:
        return {}
    grid = sheet.grid(used)
    return {
        (used.start.row + r, used.start.col + c): value
        for r, row in enumerate(grid)
        for c, value in enumerate(row)
        if value is not None
    }


class SheetInteractive(ServiceWorkload):
    name = "sheet_interactive"
    class_metrics = CLASS_METRICS
    crash_suffix = 0

    def __init__(self, seed: int, workdir: str, rows: int = ROWS, block: int = BLOCK,
                 ledger: int = LEDGER) -> None:
        super().__init__(seed, workdir)
        self.rows, self.block, self.ledger = rows, block, ledger
        self.stream = OpStream(generate_ops(seed, rows, block))
        self.editor: Any = None
        self.watcher: Any = None

    # -- set-up -------------------------------------------------------------------

    def prepare(self) -> None:
        self.data = initial_rows(self.seed, self.rows)

    def setup(self) -> List[str]:
        database = Database()
        workbook = Workbook(database=database)
        database.execute(ORDERS_DDL)
        self.load(database, "orders", self.data)
        database.execute(ORDERS_INDEX)
        last = FIRST + self.block
        for row in range(FIRST + 1, last + 1):
            workbook.set("Sheet1", f"A{row}", row % 97)
            workbook.set("Sheet1", f"B{row}", row % 13)
            workbook.set("Sheet1", f"C{row}", f"=A{row}*2+B{row}")
            if row % SETUP_MARK_ROWS == 0:
                self.mark()
        workbook.set("Sheet1", "E1", f"=SUM(C{FIRST + 1}:C{last})")
        workbook.set("Sheet1", "E2", f"=AVERAGE(A{FIRST + 1}:A{last})")
        workbook.add_sheet("Ledger")
        for row in range(1, self.ledger + 1):
            workbook.set("Ledger", f"A{row}", (row * 7) % 50 - 20)
            workbook.set("Ledger", f"B{row}", f"=B{row - 1}+A{row}" if row > 1 else "=A1")
            if row % SETUP_MARK_ROWS == 0:
                self.mark()
        workbook.add_sheet("Data")
        workbook.dbtable("Data", "A1", "orders", window_rows=WINDOW)
        workbook.dbsql("Data", "G1", DBSQL)
        workbook.dbtable("Data", EDIT_PANE, "orders", window_rows=WINDOW)
        self._serve(workbook)
        self.editor = self.service.connect("editor", sheet="Sheet1", n_rows=WINDOW, n_cols=8)
        self.watcher = self.service.connect("watcher", sheet="Data", n_rows=WINDOW + 5, n_cols=16)
        self.mark()
        problems = self.run_untimed(len(MIX))
        self.service.compact(force=True)
        return problems

    # -- ops -------------------------------------------------------------------------

    def _dbtables(self, workbook: Optional[Workbook] = None) -> List[Any]:
        """The DBTABLE windows: the scrolled one at ``A1``, then the edit pane."""
        workbook = workbook or self.service.workbook
        return sorted((r for r in workbook.regions.all() if r.context.kind == "dbtable"),
                      key=lambda r: r.context.anchor.col)

    def _dbtable(self, workbook: Optional[Workbook] = None) -> Any:
        return self._dbtables(workbook)[0]

    def _dbsql(self) -> Any:
        return next(r for r in self.service.workbook.regions.all() if r.context.kind == "dbsql")

    def op_class(self, op: List[Any]) -> str:
        return CLASS[op[0]]

    def apply(self, op: List[Any]) -> Tuple[Any, None]:
        service = self.service
        editor, watcher = self.editor.session_id, self.watcher.session_id
        kind = op[0]
        output = None
        if kind == "edit":
            service.set_cell(editor, "Sheet1", op[1], op[2])
        elif kind == "scroll":
            self.editor.scroll_to(op[1])
            region = self._dbtable()
            region.scroll_to(op[2])
            service.step()
            workbook = service.workbook
            output = (
                workbook.get_range("Sheet1", self.editor.viewport.as_range()),
                workbook.get_range("Data", region.context.extent),
            )
        elif kind == "dbedit":
            service.set_cell(watcher, "Data", op[1], op[2])
        elif kind == "sqlins":
            service.execute(editor, INSERT, tuple(op[1:]))
        else:
            op_type = "insert_rows" if kind == "ins_row" else "delete_rows"
            service.apply(editor, {"type": op_type, "sheet": "Sheet1", "at": op[1], "count": 1})
        service.poll(editor)
        service.poll(watcher)
        return output, None

    # -- oracles ---------------------------------------------------------------------

    def check(self, op: List[Any], output: Any) -> List[str]:
        if op[0] in ("scroll", "dbedit", "sqlins"):
            return self._region_problems()
        return []

    def _region_problems(self) -> List[str]:
        """DBSQL grid equal to ``Database.execute``; each DBTABLE grid equal
        to ``Table.window`` at the region's offset."""
        workbook = self.service.workbook
        problems = []
        dbsql = self._dbsql()
        extent = dbsql.context.extent
        shown = [tuple(row) for row in workbook.sheet("Data").grid(extent)]
        expected = workbook.database.execute(DBSQL).rows
        if shown != [tuple(row) for row in expected]:
            problems.append(f"DBSQL grid {shown[:2]} != execute {expected[:2]}")
        for dbtable in self._dbtables():
            extent = dbtable.context.extent
            shown = [tuple(row) for row in workbook.sheet("Data").grid(extent)][1:]
            expected = workbook.database.table("orders").window(dbtable.offset, WINDOW)
            if shown != [tuple(row) for row in expected]:
                problems.append(f"DBTABLE grid at {dbtable.context.anchor} offset "
                                f"{dbtable.offset} != Table.window")
        return problems

    def final_checks(self) -> List[str]:
        problems = self._region_problems()
        workbook = self.service.workbook
        for name in ("Sheet1", "Ledger"):
            stale = self._recompute_mismatches(workbook, name)
            if stale:
                problems.append(
                    f"{name}: {stale[0]} of {stale[1]} formula cells differ from a from-scratch recompute"
                )
        return problems

    @staticmethod
    def _recompute_mismatches(workbook: Workbook, name: str) -> Optional[Tuple[int, int]]:
        """Recompute every formula of a sheet from its current text and
        inputs with the naive fixpoint evaluator; count live differences."""
        sheet = workbook.sheet(name)
        naive = NaiveSpreadsheet()
        naive.values.update(sheet_grid(workbook, name))
        formulas = sorted(
            ((address.row, address.col), cell.formula)
            for address, cell in sheet.formula_cells()
            if cell.region_id is None
        )
        for key, text in formulas:
            naive.formulas[key] = parse_formula(text)
            naive.values[key] = None
        naive.recalc_all()
        differ = sum(
            1 for key, _ in formulas if sheet.value_at(*key) != naive.values.get(key)
        )
        return (differ, len(formulas)) if differ else None

    def known_defects(self) -> List[str]:
        return probe_known_defects(self.seed, f"{self.workdir}-defects", self.ledger)

    def capture(self) -> Any:
        workbook = self.service.workbook
        return (
            self._dbtable().offset,
            {name: sheet_grid(workbook, name) for name in workbook.sheet_names()},
            table_rows(workbook, "orders"),
        )

    def precheck(self) -> List[str]:
        """Rebuild the durable state (snapshot + WAL) beside the live
        service, before the forced snapshot would hide a divergence."""
        live = self.capture()
        try:
            rebuilt = recover_state(self.workdir, eager=False).workbook
        except Exception as error:  # a failed rebuild is a result, not a crash
            return [f"durable state could not be rebuilt: {type(error).__name__}"]
        return self.compare(live, rebuilt, "durable")

    def compare(self, live: Any, workbook: Workbook, label: str) -> List[str]:
        offset, cells, orders = live
        # The scroll position is view state, not logged: restore it.
        self._dbtable(workbook).scroll_to(offset)
        problems = []
        if table_rows(workbook, "orders") != orders:
            problems.append(f"{label} orders differ from the live table")
        for name, grid in cells.items():
            other = sheet_grid(workbook, name) if name in workbook.sheet_names() else {}
            differ = sum(1 for key in set(grid) | set(other) if grid.get(key) != other.get(key))
            if differ:
                problems.append(f"{name}: {differ} of {len(grid)} live cells differ from the {label} workbook")
        return problems
