"""``sql_analytics``: read-mostly statements over a table bigger than
the buffer pool.

``orders`` holds 20,000 rows and ``customers`` 1,000 behind a 256-frame
pool (the orders table is about 2.4x the pool).  The op stream cycles
through five templates with seeded parameters — a 1% primary-key range,
``GROUP BY region`` with ``COUNT``/``AVG``, ``ORDER BY amt DESC LIMIT
10``, ``COUNT(*)``, and an ``orders JOIN customers GROUP BY tier`` over
a 1% band of customers — and one INSERT follows every ten queries.  The work lands in
the engine's executor, store, pager, encodings and zone maps; the INSERT
trickle invalidates zones, so a read gain that costs writes shows.

Every query is checked against stdlib ``sqlite3`` loaded with the same
rows (the connection of :class:`repro.baselines.sqlite_backend.SqliteComparator`).
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

from perfbench.base import ORDERS_DDL, ORDERS_INDEX, ServiceWorkload, order_row, table_rows
from perfbench.common import OpStream, same_rows
from repro import Database, Workbook
from repro.baselines.sqlite_backend import SqliteComparator

ROWS = 20_000
CUSTOMERS = 1_000
BUFFER_FRAMES = 256
TIERS = ("gold", "silver", "bronze", "basic")

CUSTOMERS_DDL = "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier TEXT)"
INSERT = "INSERT INTO orders VALUES (?, ?, ?, ?)"

#: template name -> SQL; result rows are compared sorted unless noted.
TEMPLATES = (
    ("range", "SELECT id, cust, amt, region FROM orders WHERE id BETWEEN ? AND ?"),
    ("group", "SELECT region, COUNT(*), AVG(amt) FROM orders GROUP BY region"),
    ("topk", "SELECT id, amt FROM orders ORDER BY amt DESC LIMIT 10"),
    ("count", "SELECT COUNT(*) FROM orders"),
    ("join", "SELECT c.tier, COUNT(*), SUM(o.amt) FROM orders o JOIN customers c "
             "ON o.cust = c.id WHERE o.cust BETWEEN ? AND ? GROUP BY c.tier"),
)
SQL = dict(TEMPLATES)
QUERIES_PER_INSERT = 10
CLASS_METRICS = {"query": [50, 90]}


def initial_data(seed: int, rows: int, customers: int) -> Tuple[List[Tuple], List[Tuple]]:
    rng = random.Random(f"analytics-data-{seed}")
    orders = [order_row(rng, i, customers) for i in range(rows)]
    people = [(i, f"customer{i}", rng.choice(TIERS)) for i in range(customers)]
    return orders, people


def generate_ops(seed: int, rows: int, customers: int) -> Iterator[List[Any]]:
    rng = random.Random(f"analytics-ops-{seed}")
    width = max(rows // 100, 1)
    next_id = rows
    issued = 0
    while True:
        for name, _ in TEMPLATES:
            if name == "range":
                low = rng.randrange(max(rows - width, 1))
                yield ["range", low, low + width - 1]
            elif name == "join":
                low = rng.randrange(max(customers - customers // 100, 1))
                yield ["join", low, low + max(customers // 100, 1) - 1]
            else:
                yield [name]
            issued += 1
            if issued % QUERIES_PER_INSERT == 0:
                yield ["ins", *order_row(rng, next_id, customers)]
                next_id += 1


class SqlAnalytics(ServiceWorkload):
    name = "sql_analytics"
    class_metrics = CLASS_METRICS

    def __init__(self, seed: int, workdir: str, rows: int = ROWS,
                 customers: int = CUSTOMERS) -> None:
        super().__init__(seed, workdir)
        self.rows = rows
        self.customers = customers
        self.stream = OpStream(generate_ops(seed, rows, customers))
        self.reference: Optional[SqliteComparator] = None
        self.session_id = 0

    def prepare(self) -> None:
        """The seeded data, and the sqlite reference loaded with it."""
        self.data = orders, people = initial_data(self.seed, self.rows, self.customers)
        self.reference = SqliteComparator()
        sqlite = self.reference.connection
        sqlite.execute(ORDERS_DDL)
        sqlite.execute(CUSTOMERS_DDL)
        sqlite.executemany(INSERT, orders)
        sqlite.executemany("INSERT INTO customers VALUES (?, ?, ?)", people)
        sqlite.commit()

    def setup(self) -> List[str]:
        orders, people = self.data
        database = Database(buffer_frames=BUFFER_FRAMES)
        workbook = Workbook(database=database)
        database.execute(ORDERS_DDL)
        database.execute(CUSTOMERS_DDL)
        self.load(database, "orders", orders)
        self.load(database, "customers", people)
        database.execute(ORDERS_INDEX)
        self._serve(workbook)
        self.session_id = self.service.connect("analyst").session_id
        self.mark()
        problems = self.run_untimed(QUERIES_PER_INSERT + 1)  # every template and an INSERT
        self.service.compact(force=True)
        return problems

    def op_class(self, op: List[Any]) -> str:
        return "insert" if op[0] == "ins" else "query"

    def apply(self, op: List[Any]) -> Tuple[Any, None]:
        if op[0] == "ins":
            return self.service.execute(self.session_id, INSERT, tuple(op[1:])).result, None
        return self.service.execute(self.session_id, SQL[op[0]], tuple(op[1:])).result, None

    def check(self, op: List[Any], output: Any) -> List[str]:
        sqlite = self.reference.connection
        if op[0] == "ins":
            sqlite.execute(INSERT, tuple(op[1:]))
            return [] if output.rowcount == 1 else [f"insert {op[1]}: rowcount {output.rowcount}"]
        expected = sqlite.execute(SQL[op[0]], tuple(op[1:])).fetchall()
        got = list(output.rows)
        if op[0] == "topk":
            # Ties in amt may order differently: the amt sequence must
            # match, and every returned row must exist with that amt.
            amounts = dict(sqlite.execute(
                f"SELECT id, amt FROM orders WHERE id IN ({','.join('?' * len(got))})",
                [row[0] for row in got],
            ).fetchall()) if got else {}
            ok = [row[1] for row in got] == [row[1] for row in expected] and all(
                amounts.get(row[0]) == row[1] for row in got
            )
        else:
            ok = same_rows(sorted(got, key=repr), sorted(expected, key=repr))
        if ok:
            return []
        return [f"{op[0]} {op[1:]}: got {str(got[:3])[:100]}, sqlite {str(expected[:3])[:100]}"]

    def compare(self, live: Any, workbook: Any, label: str) -> List[str]:
        rows = table_rows(workbook, "orders")
        expected = sorted(self.reference.connection.execute("SELECT * FROM orders").fetchall())
        if same_rows(rows, expected):
            return []
        return [f"{label} orders differ from sqlite ({len(rows)} vs {len(expected)} rows)"]

    def final_checks(self) -> List[str]:
        return self.compare(None, self.service.workbook, "live")

    def close(self) -> None:
        if self.reference is not None:
            self.reference.close()
            self.reference = None
        super().close()
