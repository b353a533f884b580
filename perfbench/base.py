"""What every workload shares: one durable service in a private
directory, the public counters, crash-and-reopen, and the orders data."""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import statistics
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import FLUSH_POLICY, OpStream, SpeedProbe, StageClock, service_counters
from repro import WorkbookService

REGIONS = ("north", "south", "east", "west", "central")

ORDERS_DDL = "CREATE TABLE orders (id INT PRIMARY KEY, cust INT, amt REAL, region TEXT)"
ORDERS_INDEX = "CREATE INDEX orders_cust ON orders (cust)"

#: reopens per run: at least 2, then more while under 4 s in all, at most 6
REOPENS_MIN = 2
REOPENS_MAX = 6
REOPEN_BUDGET_S = 4.0

#: rows per ``insert_many`` call of the set-up's bulk loads
LOAD_CHUNK = 5_000


def order_row(rng: random.Random, order_id: int, customers: int) -> Tuple[int, int, float, str]:
    return (
        order_id,
        rng.randrange(customers),
        round(rng.uniform(1.0, 1000.0), 2),
        rng.choice(REGIONS),
    )


class ServiceWorkload:
    """One workload against one ``WorkbookService`` in ``workdir``."""

    #: the table whose presentation-order structure the trace follows
    table = "orders"

    #: After the measured phase: ``None`` reopens on the snapshot and WAL
    #: suffix the phase left; ``n`` forces a snapshot and runs the next
    #: ``n`` ops first, so every reopen replays a suffix of one length.
    crash_suffix: Optional[int] = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.service: Optional[WorkbookService] = None
        self.stream: OpStream
        #: exceptions met outside the measured phase, by type
        self.untimed_errors: Dict[str, int] = {}
        #: the timed reopens of the run, in seconds as measured
        self.reopen_s: List[float] = []
        self.data: Any = None
        #: times the set-up while it runs (``None`` otherwise)
        self.clock: Optional[StageClock] = None

    def prepare(self) -> None:
        """Generate the seeded data (benchmark work, so never timed)."""

    def mark(self) -> None:
        """The end of one set-up stage (see :class:`StageClock`)."""
        if self.clock is not None:
            self.clock.mark()

    def _oracle(self) -> Any:
        """Leaves benchmark work out of the set-up time."""
        return self.clock.paused() if self.clock is not None else contextlib.nullcontext()

    def load(self, database: Any, table: str, rows: List[Tuple[Any, ...]]) -> None:
        """The set-up's bulk load, in chunks with a stage mark after each."""
        for start in range(0, len(rows), LOAD_CHUNK):
            database.table(table).insert_many(rows[start:start + LOAD_CHUNK])
            self.mark()

    def run_untimed(self, count: int) -> List[str]:
        """Run the next ``count`` ops of the stream outside the measured
        phase (the set-up's warm pass, the crash suffix); returns their
        oracle mismatches."""
        problems: List[str] = []
        for _ in range(count):
            op = self.stream.next()
            try:
                output, _ = self.apply(op)
            except Exception as error:  # counted and reported, as in the measured phase
                name = type(error).__name__
                self.untimed_errors[name] = self.untimed_errors.get(name, 0) + 1
                continue
            finally:
                self.mark()
            with self._oracle():
                problems += self.check(op, output)
        return problems

    def _serve(self, workbook: Any) -> None:
        self.service = WorkbookService(
            self.workdir, workbook=workbook, background_maintenance=False, **FLUSH_POLICY
        )

    def crash_and_recover(self, probe: SpeedProbe) -> Tuple[float, List[str]]:
        """``close(drain=False)`` (a crash) and the timed reopen, repeated
        over the same files, then the comparison of the reopened state
        with the live one.  Returns the median reopen at the reference
        speed (each reopen is timed between two speed samples)."""
        problems = self.precheck()
        if self.crash_suffix is not None:
            self.service.compact(force=True)
            problems += self.run_untimed(self.crash_suffix)
        live = self.capture()
        scaled: List[float] = []
        self.reopen_s = []
        while len(scaled) < REOPENS_MIN or (
            sum(self.reopen_s) < REOPEN_BUDGET_S and len(scaled) < REOPENS_MAX
        ):
            self.service.close(drain=False)
            self.service = None
            # A restarted process would not carry the benchmark's heap:
            # keep it out of the collector's way while the reopen is timed.
            gc.collect()
            gc.freeze()
            try:
                self.service, raw, seconds = probe.timed(lambda: WorkbookService(
                    self.workdir, background_maintenance=False, **FLUSH_POLICY
                ))
            except Exception as error:  # a failed recovery is a result, not a crash
                return (statistics.median(scaled) if scaled else 0.0), problems + [
                    f"reopen raised {type(error).__name__}: {str(error)[:120]}"
                ]
            finally:
                gc.unfreeze()
            self.reopen_s.append(raw)
            scaled.append(seconds)
        return statistics.median(scaled), problems + self.compare(
            live, self.service.workbook, "recovered"
        )

    def precheck(self) -> List[str]:
        return []

    def known_defects(self) -> List[str]:
        """Report lines of the program's known defects that this workload
        keeps out of its measured phase (never timed)."""
        return []

    def capture(self) -> Any:
        return None

    def counters(self) -> dict:
        return service_counters(self.service)

    def order_structure_type(self) -> Optional[type]:
        table = self.service.workbook.database.table(self.table)
        positions = getattr(table, "positions", None)
        return type(positions) if positions is not None else None

    def sheet_axis_type(self) -> Optional[type]:
        workbook = self.service.workbook
        sheet = workbook.sheet(workbook.sheet_names()[0])
        rows = getattr(getattr(sheet, "store", None), "rows", None)
        return type(rows) if rows is not None else None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def table_rows(workbook: Any, table: str) -> List[Tuple[Any, ...]]:
    """Every row of ``table`` in key order (the end-state oracles)."""
    return sorted(workbook.database.table(table).rows())
