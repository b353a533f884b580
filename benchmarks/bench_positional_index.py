"""E5 — §3 positional index: O(log n) positional access vs the rownum
emulation a vanilla RDBMS needs.

Three operations per table size n, DataSpread (the table's positional
mapper, O(log s) in the number of spliced spans) vs the naive baseline
(explicit rownum column, OFFSET-style scans, renumbering):

* ``window(pos, 40)`` — the viewport fetch,
* ``row_at(pos)`` — a point positional lookup,
* ``insert_at(middle)`` — a middle insert, which the baseline pays O(n)
  renumbering for.

Expected shape: DataSpread flat-ish in n (log factor); baseline linear in n
for all three — the gap at n=50k should be orders of magnitude.  The
``rows_scanned`` / ``rows_renumbered`` extra-info fields show the logical
work driving the wall-clock gap.
"""

import pytest

from repro.baselines.naive_db import NaiveDbTable
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.workloads.traces import random_jump_trace

SIZES = [1000, 10_000, 50_000]
WINDOW = 40


def make_dataspread_table(n_rows: int) -> Table:
    schema = TableSchema.from_pairs(
        [("id", DBType.INTEGER), ("v", DBType.REAL)], primary_key="id"
    )
    table = Table("t", schema)
    for i in range(n_rows):
        table.insert((i, float(i)), emit=False)
    return table


def make_naive_table(n_rows: int) -> NaiveDbTable:
    table = NaiveDbTable([("id", DBType.INTEGER), ("v", DBType.REAL)])
    for i in range(n_rows):
        table.append((i, float(i)))
    return table


@pytest.mark.parametrize("n_rows", SIZES)
def test_window_fetch_positional_index(benchmark, n_rows):
    table = make_dataspread_table(n_rows)
    positions = iter(random_jump_trace(n_rows, WINDOW, 10_000, seed=5) * 100)

    def fetch():
        return table.window(next(positions), WINDOW)

    benchmark(fetch)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "dataspread"


@pytest.mark.parametrize("n_rows", SIZES)
def test_window_fetch_offset_scan(benchmark, n_rows):
    table = make_naive_table(n_rows)
    positions = iter(random_jump_trace(n_rows, WINDOW, 10_000, seed=5) * 100)

    def fetch():
        return table.window(next(positions), WINDOW)

    benchmark(fetch)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "naive-rownum"
    benchmark.extra_info["rows_scanned"] = table.rows_scanned


@pytest.mark.parametrize("n_rows", SIZES)
def test_middle_insert_positional_index(benchmark, n_rows):
    table = make_dataspread_table(n_rows)
    next_id = iter(range(n_rows, 100_000_000))

    def insert_middle():
        table.insert((next(next_id), 0.0), position=table.n_rows // 2, emit=False)

    benchmark(insert_middle)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "dataspread"


@pytest.mark.parametrize("n_rows", [1000, 10_000])
def test_middle_insert_renumbering(benchmark, n_rows):
    table = make_naive_table(n_rows)
    next_id = iter(range(n_rows, 100_000_000))

    def insert_middle():
        table.insert_at(table.n_rows // 2, (next(next_id), 0.0))

    benchmark.pedantic(insert_middle, rounds=5, iterations=1)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "naive-rownum"
    benchmark.extra_info["rows_renumbered"] = table.rows_renumbered


@pytest.mark.parametrize("n_rows", SIZES)
def test_point_lookup_positional_index(benchmark, n_rows):
    table = make_dataspread_table(n_rows)
    positions = iter(random_jump_trace(n_rows, 1, 10_000, seed=9) * 100)

    def lookup():
        return table.row_at(next(positions))

    benchmark(lookup)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "dataspread"


@pytest.mark.parametrize("n_rows", [1000, 10_000])
def test_point_lookup_offset_scan(benchmark, n_rows):
    table = make_naive_table(n_rows)
    positions = iter(random_jump_trace(n_rows, 1, 10_000, seed=9) * 100)

    def lookup():
        return table.row_at(next(positions))

    benchmark(lookup)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "naive-rownum"
