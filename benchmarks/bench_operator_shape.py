"""Operator shape: a top-k costs about a scan, and COUNT(*) does not grow
with the table.

Two gates, both ratios of medians measured in one process, so they hold
on any machine speed:

* On a table twice the size of the buffer pool, ``ORDER BY v DESC LIMIT
  10`` may take at most ``TOPK_CEILING`` times ``SELECT id, v`` over the
  same rows.  Both read the same pages and compute one value per row; a
  full sort, or a page copy per read, shows as a multiple of the scan.
* ``SELECT COUNT(*)`` on ten times the rows may take at most
  ``COUNT_CEILING`` times as long.  A count that walks the rows shows up
  as ~10x.

Statements alternate between the compared sides, so a change of machine
speed during the run hits both alike.  Medians land in
``BENCH_operator_shape.json``; the full run also records the median of
every operator (scan, top-k, COUNT(*), GROUP BY, point select) at 100k
rows.  ``BENCH_SMOKE=1`` (the CI smoke step) shrinks the tables from
100k to 20k rows (top-k) and from 10k/100k to 2k/20k rows (count).

    PYTHONPATH=src python -m pytest benchmarks/bench_operator_shape.py -q
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, List

from repro.engine.database import Database

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

TOPK_ROWS = 20_000 if SMOKE else 100_000
COUNT_SMALL_ROWS = 2_000 if SMOKE else 10_000
COUNT_LARGE_ROWS = COUNT_SMALL_ROWS * 10
REPS = 9 if SMOKE else 7
WARMUP = 2
TOPK_CEILING = 1.5
COUNT_CEILING = 2.0

OPERATORS = {
    "scan": "SELECT id, v FROM t",
    "topk": "SELECT id, v FROM t ORDER BY v DESC LIMIT 10",
    "count": "SELECT COUNT(*) FROM t",
    "group_by": "SELECT g, COUNT(*), AVG(v) FROM t GROUP BY g",
    "point": "SELECT v FROM t WHERE id = 4321",
}


def build(n_rows: int, pool_fraction: float = 0.0) -> Database:
    """``t(id, v, g)`` with seeded values; with ``pool_fraction`` the
    buffer pool is shrunk to that share of the table's pages and emptied,
    so every scan reads pages from the simulated disk."""
    rng = random.Random(n_rows)
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, g INT)")
    table = db.table("t")
    for key in range(n_rows):
        table.insert((key, rng.randrange(1_000_000), key % 10), emit=False)
    db.checkpoint()
    if pool_fraction:
        pool = db.catalog.pool
        pool.capacity = max(1, int(table.store.n_pages * pool_fraction))
        pool.drop_cache()
    return db


def medians(runs: Dict[str, tuple]) -> Dict[str, float]:
    """Median seconds of each ``name -> (db, sql)``, run round-robin."""
    times: Dict[str, List[float]] = {name: [] for name in runs}
    for rep in range(REPS + WARMUP):
        for name, (db, sql) in runs.items():
            start = time.perf_counter()
            db.execute(sql)
            elapsed = time.perf_counter() - start
            if rep >= WARMUP:
                times[name].append(elapsed)
    return {name: statistics.median(values) for name, values in times.items()}


def test_top_k_and_count_shapes():
    big = build(TOPK_ROWS, pool_fraction=0.5)
    pages = big.table("t").store.n_pages
    frames = big.catalog.pool.capacity
    expected = sorted(big.execute(OPERATORS["scan"]).rows, key=lambda row: -row[1])
    assert [row[1] for row in big.execute(OPERATORS["topk"]).rows] == [
        row[1] for row in expected[:10]
    ]
    names = ("scan", "topk") if SMOKE else tuple(OPERATORS)
    operator_p50 = medians({name: (big, OPERATORS[name]) for name in names})
    topk_ratio = operator_p50["topk"] / operator_p50["scan"]

    small, large = build(COUNT_SMALL_ROWS), build(COUNT_LARGE_ROWS)
    assert large.execute(OPERATORS["count"]).scalar() == COUNT_LARGE_ROWS
    count_p50 = medians(
        {"small": (small, OPERATORS["count"]), "large": (large, OPERATORS["count"])}
    )
    count_ratio = count_p50["large"] / count_p50["small"]

    write_bench_json(
        "operator_shape",
        {
            "topk_rows": TOPK_ROWS,
            "table_pages": pages,
            "pool_frames": frames,
            "operator_p50_ms": {
                name: round(value * 1000, 3) for name, value in operator_p50.items()
            },
            "topk_over_scan": round(topk_ratio, 3),
            "topk_ceiling": TOPK_CEILING,
            "count_rows": [COUNT_SMALL_ROWS, COUNT_LARGE_ROWS],
            "count_p50_ms": {
                name: round(value * 1000, 4) for name, value in count_p50.items()
            },
            "count_ratio": round(count_ratio, 3),
            "count_ceiling": COUNT_CEILING,
        },
    )
    assert pages >= 2 * frames
    assert topk_ratio <= TOPK_CEILING, (
        f"top-k took {topk_ratio:.2f}x a scan of the same columns"
    )
    assert count_ratio <= COUNT_CEILING, (
        f"COUNT(*) on 10x the rows took {count_ratio:.2f}x the time"
    )
