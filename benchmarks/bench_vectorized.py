"""Vectorized batch execution over compressed column fragments.

The batched executor's headline claims, measured head-to-head on two
databases holding identical rows: the query as the engine runs it
(batch-compiled selection over column fragments, late materialization,
page encodings) versus the executor's retained row-closure fallback over
the plain, unencoded store (the planned scans lose their conjunct ASTs,
so every pushed predicate runs row at a time and zone maps skip
nothing):

* a narrow SELECT over a wide (12-column) hybrid table runs at **>= 3x
  the rows/second** on the batched + encoded path,
* scanning a low-cardinality column off encoded pages **decodes fewer
  bytes** than the plain-page representation of the same column,
* both paths return **identical rows** for every probe query (filters
  that batch-compile, and filters that fall back to row closures).

Headline numbers land in ``BENCH_vectorized.json`` via
:func:`benchmarks.conftest.write_bench_json`.  Run ``BENCH_SMOKE=1``
(the CI smoke step) to shrink the table while keeping every assertion
live.
"""

from __future__ import annotations

import os
import time

from repro.engine.database import Database
from repro.engine.executor import ProjectedScan
from repro.engine.planner import Planner
from repro.engine.sql_parser import parse_statement

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

N_COLS = 12
N_ROWS = 3000 if SMOKE else 24000
REPEATS = 3 if SMOKE else 8
SPEEDUP_FLOOR = 3.0

PROBES = [
    # (sql, params): mix of batch-compilable and row-fallback filters.
    ("SELECT c0, c2 FROM wide WHERE c2 < 40", []),
    ("SELECT c0, c1 FROM wide WHERE c1 = 3 AND c0 >= ?", [100]),
    ("SELECT c3, c4 FROM wide WHERE c3 LIKE 'tag1%'", []),  # row fallback
    ("SELECT c0 FROM wide WHERE c1 IN (1, 2) OR c2 BETWEEN 5 AND 9", []),
    ("SELECT COUNT(*), SUM(c2) FROM wide WHERE c1 <> 0", []),
]


def build_db() -> Database:
    """A 12-column table: a unique key, low-cardinality ints (dict/RLE
    bait), a few-valued text tag, and packed-int ballast columns."""
    db = Database(auto_layout_interval=0)
    columns = ["c0 INT", "c1 INT", "c2 INT", "c3 TEXT"] + [
        f"c{i} INT" for i in range(4, N_COLS)
    ]
    db.execute(f"CREATE TABLE wide ({', '.join(columns)})")
    table = db.table("wide")
    for i in range(N_ROWS):
        row = [i, i % 7, (i * 13) % 100, f"tag{i % 4}"] + [
            (i * 31 + j) % 250 for j in range(4, N_COLS)
        ]
        table.insert(tuple(row), emit=False)
    return db


def encode_all_groups(db: Database) -> float:
    """Encode every chain of ``wide``; returns the mean compression ratio."""
    store = db.table("wide").store
    ratios = []
    for group_index in range(store.n_groups):
        store.encode_group(group_index)
        ratios.append(store.group_encoding_ratio(group_index))
    return sum(ratios) / len(ratios)


def _plan_nodes(node):
    yield node
    for child in node.children():
        yield from _plan_nodes(child)


def row_fallback_rows(db: Database, sql: str, params=()):
    """Plan and run ``sql`` with every pushed conjunct left to its row
    closure: the reference path (planning included, like ``execute``)."""
    planned = Planner(db.catalog).plan_select(parse_statement(sql))
    for node in _plan_nodes(planned.plan):
        if isinstance(node, ProjectedScan):
            node.predicates = [(fn, text, None) for fn, text, _ in node.predicates]
            node.data_skipping = False
    return planned.execute(params)


NARROW_SQL = "SELECT c0, c2 FROM wide WHERE c2 < 10"


def timed_narrow_scan(run) -> float:
    """Best-of-``REPEATS`` seconds for the narrow 2-of-12-column scan
    (min over runs shields the ratio from scheduler noise)."""
    run()  # warm the cache outside the timed window
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_batched_path_beats_row_fallback():
    plain_db = build_db()
    vector_db = build_db()
    ratio = encode_all_groups(vector_db)

    # Correctness first: every probe returns identical rows on both paths.
    for sql, params in PROBES:
        expected = row_fallback_rows(plain_db, sql, params)
        actual = vector_db.execute(sql, params).rows
        assert actual == expected, f"paths diverged on {sql!r}"

    reference_seconds = timed_narrow_scan(
        lambda: row_fallback_rows(plain_db, NARROW_SQL)
    )
    vector_seconds = timed_narrow_scan(lambda: vector_db.execute(NARROW_SQL))
    reference_rate = N_ROWS / reference_seconds
    vector_rate = N_ROWS / vector_seconds
    speedup = vector_rate / reference_rate

    # Encoded pages decode fewer bytes than plain ones for the same
    # low-cardinality column scan (c1 cycles through 7 values).
    def column_bytes(db: Database, name: str) -> int:
        store = db.table("wide").store
        before = store.bytes_decoded
        for _ in store.scan_column(name):
            pass
        return store.bytes_decoded - before

    plain_bytes = column_bytes(plain_db, "c1")
    encoded_bytes = column_bytes(vector_db, "c1")

    print(
        f"\nnarrow scan over {N_ROWS} rows x {N_COLS} cols: "
        f"row-fallback={reference_rate:,.0f} rows/s "
        f"batched={vector_rate:,.0f} rows/s "
        f"({speedup:.1f}x), encoding ratio {ratio:.1f}x, "
        f"c1 scan bytes plain={plain_bytes} encoded={encoded_bytes}"
    )
    write_bench_json(
        "vectorized",
        {
            "rows": N_ROWS,
            "cols": N_COLS,
            "row_fallback_rows_per_s": round(reference_rate),
            "vectorized_rows_per_s": round(vector_rate),
            "speedup": round(speedup, 2),
            "encoding_ratio": round(ratio, 2),
            "scan_bytes_plain": plain_bytes,
            "scan_bytes_encoded": encoded_bytes,
        },
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched+encoded path only {speedup:.2f}x the row-closure fallback "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert encoded_bytes < plain_bytes, (
        f"encoded scan decoded {encoded_bytes} bytes, "
        f"plain decoded {plain_bytes}"
    )
