"""Point-operation scaling: 10x the rows may cost at most 2x the time.

A shape gate, independent of machine speed: point SELECT / UPDATE /
DELETE by primary key and by a secondary index run against a small and a
ten times larger table, and for every operation the median latency on
the large table must stay within ``RATIO_CEILING`` of the small one.  An
O(n) step anywhere on the point path — a scan instead of a probe, a copy
of the presentation order, a full rid→position map — shows up as a ~10x
ratio; the O(log n) paths the engine promises stay near 1x.

Operations alternate between the two tables so a change in machine speed
during the run hits both sides alike.  Medians land in
``BENCH_point_scaling.json``.  ``BENCH_SMOKE=1`` (the CI smoke step)
shrinks the tables from 10k/100k to 2k/20k rows.

    PYTHONPATH=src python -m pytest benchmarks/bench_point_scaling.py -q
"""

from __future__ import annotations

import os
import random
import statistics
import time

from repro.engine.database import Database

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SMALL_ROWS = 2_000 if SMOKE else 10_000
LARGE_ROWS = SMALL_ROWS * 10
OPS_PER_CELL = 60
WARMUP_OPS = 5
RATIO_CEILING = 2.0

#: (name, SQL, parameter builder) — ``key`` is a live primary key; the
#: secondary column ``w`` holds ``key + W_OFFSET`` so it names one row.
W_OFFSET = 1_000_000
OPERATIONS = [
    ("select_pk", "SELECT v, w FROM t WHERE k = ?", lambda key: (key,)),
    ("update_pk", "UPDATE t SET v = v + 1 WHERE k = ?", lambda key: (key,)),
    ("delete_pk", "DELETE FROM t WHERE k = ?", lambda key: (key,)),
    ("select_index", "SELECT k, v FROM t WHERE w = ?", lambda key: (key + W_OFFSET,)),
    ("update_index", "UPDATE t SET v = v + 1 WHERE w = ?", lambda key: (key + W_OFFSET,)),
    ("delete_index", "DELETE FROM t WHERE w = ?", lambda key: (key + W_OFFSET,)),
]


def build(n_rows: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, w INT)")
    db.execute("CREATE INDEX t_w ON t (w)")
    table = db.table("t")
    for key in range(n_rows):
        table.insert((key, key % 97, key + W_OFFSET), emit=False)
    db.checkpoint()
    return db


def test_point_operations_scale_logarithmically():
    rng = random.Random(12)
    small, large = build(SMALL_ROWS), build(LARGE_ROWS)
    # Each op gets keys of its own, so a DELETE never hits a row an
    # earlier op already removed and every op touches exactly one row.
    per_op = OPS_PER_CELL + WARMUP_OPS
    keys = rng.sample(range(SMALL_ROWS), per_op * len(OPERATIONS))
    report = {}
    failures = []
    for index, (name, sql, params) in enumerate(OPERATIONS):
        own_keys = keys[index * per_op : (index + 1) * per_op]
        times = {"small": [], "large": []}
        for step, key in enumerate(own_keys):
            for label, db in (("small", small), ("large", large)):
                start = time.perf_counter()
                result = db.execute(sql, params(key))
                elapsed = time.perf_counter() - start
                touched = len(result.rows) if name.startswith("select") else result.rowcount
                assert touched == 1, f"{name} on {label} touched {touched} rows"
                if step >= WARMUP_OPS:
                    times[label].append(elapsed)
        small_p50 = statistics.median(times["small"])
        large_p50 = statistics.median(times["large"])
        ratio = large_p50 / small_p50
        report[name] = {
            "small_p50_ms": round(small_p50 * 1000, 4),
            "large_p50_ms": round(large_p50 * 1000, 4),
            "ratio": round(ratio, 3),
        }
        if ratio > RATIO_CEILING:
            failures.append(f"{name}: {ratio:.2f}x")
    small.table("t").validate()
    large.table("t").validate()
    write_bench_json(
        "point_scaling",
        {
            "small_rows": SMALL_ROWS,
            "large_rows": LARGE_ROWS,
            "ops_per_cell": OPS_PER_CELL,
            "ratio_ceiling": RATIO_CEILING,
            "operations": report,
        },
    )
    assert not failures, (
        f"10x rows cost more than {RATIO_CEILING}x time: {', '.join(failures)}"
    )
