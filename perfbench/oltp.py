"""``sql_oltp``: durable point traffic from one application session.

``orders`` holds 100,000 rows (about 3,100 pages) behind a 256-frame
buffer pool, so the table is about 12x the pool.  Keys are skewed: 80%
come from a seeded hot tenth of the keys, 20% are uniform.  No regions,
no formulas: the work lands in the engine's point paths, the indexes,
the WAL and the periodic snapshots, while compute and window idle.

Mix per op: 20% SELECT by PK, 20% SELECT by the ``cust`` index, 20%
UPDATE by PK, 5% DELETE by PK (the ``point`` class); 25% autocommit
INSERT and 10% ``BEGIN`` + 1-3 DML + ``COMMIT`` (the ``commit`` class:
an INSERT's latency, or the COMMIT call of a transaction).  A dict model
checks every result; the run ends with ``close(drain=False)`` and a
reopen whose table must equal the model.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from perfbench.base import ORDERS_DDL, ORDERS_INDEX, ServiceWorkload, order_row, table_rows
from perfbench.common import OpStream, warm_then_mix
from repro import Database, Workbook

ROWS = 100_000
BUFFER_FRAMES = 256

SELECT_PK = "SELECT id, cust, amt, region FROM orders WHERE id = ?"
SELECT_CUST = "SELECT id, cust, amt, region FROM orders WHERE cust = ?"
UPDATE_PK = "UPDATE orders SET amt = ? WHERE id = ?"
DELETE_PK = "DELETE FROM orders WHERE id = ?"
INSERT = "INSERT INTO orders VALUES (?, ?, ?, ?)"

#: (op kind, ops of that kind in every shuffled block of 20)
MIX = (
    ("sel_pk", 4),
    ("sel_cust", 4),
    ("upd", 4),
    ("del", 1),
    ("ins", 5),
    ("txn", 2),
)
CLASS = {"sel_pk": "point", "sel_cust": "point", "upd": "point", "del": "point",
         "ins": "commit", "txn": "commit"}
CLASS_METRICS = {"point": [50, 95], "commit": [50, 95]}


def initial_rows(seed: int, rows: int) -> List[Tuple[int, int, float, str]]:
    rng = random.Random(f"oltp-data-{seed}")
    return [order_row(rng, i, max(rows // 10, 1)) for i in range(rows)]


def generate_ops(seed: int, rows: int) -> Iterator[List[Any]]:
    """Endless op stream; tracks which keys exist so every op applies."""
    rng = random.Random(f"oltp-ops-{seed}")
    data = initial_rows(seed, rows)
    cust_of: Dict[int, int] = {row[0]: row[1] for row in data}
    live: List[int] = list(cust_of)
    slot: Dict[int, int] = {key: i for i, key in enumerate(live)}
    hot = rng.sample(live, max(len(live) // 10, 1))
    next_id = rows
    customers = max(rows // 10, 1)

    def pick() -> int:
        if rng.random() < 0.8:
            for _ in range(8):
                key = rng.choice(hot)
                if key in slot:
                    return key
        return rng.choice(live)

    def remove(key: int) -> None:
        i = slot.pop(key)
        last = live.pop()
        if last != key:
            live[i] = last
            slot[last] = i
        del cust_of[key]

    def add() -> List[Any]:
        nonlocal next_id
        row = list(order_row(rng, next_id, customers))
        next_id += 1
        slot[row[0]] = len(live)
        live.append(row[0])
        cust_of[row[0]] = row[1]
        return ["ins", *row]

    for kind in warm_then_mix(rng, MIX):
        if kind == "sel_pk":
            yield ["sel_pk", pick()]
        elif kind == "sel_cust":
            yield ["sel_cust", cust_of[pick()]]
        elif kind == "upd":
            yield ["upd", pick(), round(rng.uniform(1.0, 1000.0), 2)]
        elif kind == "del" and len(live) > 1:
            key = pick()
            remove(key)
            yield ["del", key]
        elif kind == "ins":
            yield add()
        else:
            statements = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    statements.append(add())
                else:
                    statements.append(["upd", pick(), round(rng.uniform(1.0, 1000.0), 2)])
            yield ["txn", statements]


class SqlOltp(ServiceWorkload):
    name = "sql_oltp"
    class_metrics = CLASS_METRICS
    crash_suffix = 20

    def __init__(self, seed: int, workdir: str, rows: int = ROWS) -> None:
        super().__init__(seed, workdir)
        self.rows = rows
        self.stream = OpStream(generate_ops(seed, rows))
        self.model: Dict[int, Tuple[int, int, float, str]] = {}
        self.by_cust: Dict[int, Set[int]] = {}
        self.session_id = 0

    # -- set-up ---------------------------------------------------------------

    def prepare(self) -> None:
        self.data = initial_rows(self.seed, self.rows)
        for row in self.data:
            self._put(row)

    def setup(self) -> List[str]:
        database = Database(buffer_frames=BUFFER_FRAMES)
        workbook = Workbook(database=database)
        database.execute(ORDERS_DDL)
        self.load(database, "orders", self.data)
        database.execute(ORDERS_INDEX)
        self._serve(workbook)
        self.session_id = self.service.connect("app").session_id
        self.mark()
        problems = self.run_untimed(len(MIX))
        self.service.compact(force=True)
        return problems

    # -- the model --------------------------------------------------------------

    def _put(self, row: Tuple[int, int, float, str]) -> None:
        old = self.model.get(row[0])
        if old is not None:
            self.by_cust[old[1]].discard(row[0])
        self.model[row[0]] = row
        self.by_cust.setdefault(row[1], set()).add(row[0])

    def _drop(self, key: int) -> None:
        row = self.model.pop(key)
        self.by_cust[row[1]].discard(key)

    # -- ops ----------------------------------------------------------------------

    def op_class(self, op: List[Any]) -> str:
        return CLASS[op[0]]

    def _statement(self, op: List[Any]) -> Any:
        execute, sid = self.service.execute, self.session_id
        kind = op[0]
        if kind == "sel_pk":
            return execute(sid, SELECT_PK, (op[1],)).result
        if kind == "sel_cust":
            return execute(sid, SELECT_CUST, (op[1],)).result
        if kind == "upd":
            return execute(sid, UPDATE_PK, (op[2], op[1])).result
        if kind == "del":
            return execute(sid, DELETE_PK, (op[1],)).result
        return execute(sid, INSERT, tuple(op[1:])).result

    def apply(self, op: List[Any]) -> Tuple[Any, Optional[float]]:
        if op[0] != "txn":
            return self._statement(op), None
        execute, sid = self.service.execute, self.session_id
        execute(sid, "BEGIN")
        outputs = [self._statement(statement) for statement in op[1]]
        started = time.perf_counter()
        execute(sid, "COMMIT")
        return outputs, time.perf_counter() - started

    # -- oracles ----------------------------------------------------------------

    def check(self, op: List[Any], output: Any) -> List[str]:
        kind = op[0]
        if kind == "txn":
            problems: List[str] = []
            for statement, result in zip(op[1], output):
                problems += self.check(statement, result)
            return problems
        if kind == "sel_pk":
            expected = [self.model[op[1]]] if op[1] in self.model else []
            got = sorted(output.rows)
        elif kind == "sel_cust":
            expected = sorted(self.model[key] for key in self.by_cust.get(op[1], ()))
            got = sorted(output.rows)
        else:
            # An earlier failed op can leave the stream expecting a key the
            # model lacks; the statement must then touch no row.
            row = self.model.get(op[1])
            if kind == "upd" and row is not None:
                self._put((row[0], row[1], op[2], row[3]))
            elif kind == "del" and row is not None:
                self._drop(op[1])
            elif kind == "ins":
                self._put(tuple(op[1:]))
                row = self.model[op[1]]
            expected, got = (0 if row is None else 1), output.rowcount
        if got != expected:
            return [f"{kind} {op[1]}: got {str(got)[:80]}, expected {str(expected)[:80]}"]
        return []

    def final_checks(self) -> List[str]:
        return []  # the reopened table is compared with the model instead

    def compare(self, live: Any, workbook: Any, label: str) -> List[str]:
        rows = table_rows(workbook, "orders")
        expected = sorted(self.model.values())
        if rows == expected:
            return []
        missing = len(set(expected) - set(rows))
        extra = len(set(rows) - set(expected))
        return [f"{label} orders differ from the model: {missing} missing, {extra} unexpected"]
