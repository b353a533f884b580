"""Keyed sort, fused top-k and the constant-time ``COUNT(*)``.

``SortNode`` orders rows by :func:`repro.engine.types.sort_key` and, under
a LIMIT, keeps only ``offset + limit`` rows.  The reference here is the
three-way comparator the engine used to sort with: ``compare_values``
per key, NULL first, each key negated when descending, fed to a stable
``sorted`` through ``functools.cmp_to_key``.  The keyed sort must return
exactly that order, ties included.
"""

from __future__ import annotations

import datetime as dt
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.executor import (
    ExecContext,
    LimitNode,
    ProjectedScan,
    SortNode,
    ValuesScan,
)
from repro.engine.types import compare_values, sort_key
from repro.errors import ExecutionError

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from(["", "a", "B", "ab", "b", "10", "9"]),
    st.dates(dt.date(1999, 12, 30), dt.date(2000, 1, 2)),
    st.datetimes(dt.datetime(1999, 12, 31), dt.datetime(2000, 1, 2)),
)


def reference_compare(left, right) -> int:
    """ORDER BY's ascending comparison: NULL first, then compare_values."""
    if left is None and right is None:
        return 0
    if left is None:
        return -1
    if right is None:
        return 1
    return compare_values(left, right) or 0


def reference_sort(rows, key_indexes, directions, offset, limit):
    def compare(a, b):
        for index, descending in zip(key_indexes, directions):
            outcome = reference_compare(a[index], b[index])
            if outcome:
                return -outcome if descending else outcome
        return 0

    ordered = sorted(rows, key=functools.cmp_to_key(compare))
    if limit is None:
        return ordered[offset:]
    return ordered[offset : offset + limit]


def constant(value):
    return lambda row, params: value


def column(index):
    return lambda row, params: row[index]


@given(left=values, right=values)
def test_sort_key_orders_like_compare_values(left, right):
    expected = reference_compare(left, right)
    a, b = sort_key(left), sort_key(right)
    assert ((a > b) - (a < b)) == expected


@given(
    rows=st.lists(st.tuples(values, values, values, st.integers()), max_size=60),
    spec=st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3),
    limit=st.one_of(st.none(), st.integers(0, 70)),
    offset=st.one_of(st.none(), st.integers(0, 70)),
)
@settings(max_examples=300, deadline=None)
def test_sort_node_equals_the_comparator_sort(rows, spec, limit, offset):
    # The fourth column tags each input row, so tie order is observable.
    rows = [row[:3] + (i,) for i, row in enumerate(rows)]
    columns = [(None, name) for name in ("x", "y", "z", "tag")]
    keys = [(column(index), descending) for index, descending in spec]
    limit_fn = None if limit is None else constant(limit)
    offset_fn = None if offset is None else constant(offset)
    sort = SortNode(ValuesScan(rows, columns), keys, limit_fn, offset_fn)
    node = sort
    if limit is not None or offset is not None:
        node = LimitNode(sort, limit_fn, offset_fn)
    got = list(node.run(ExecContext()))
    expected = reference_sort(
        rows,
        [index for index, _ in spec],
        [descending for _, descending in spec],
        offset or 0,
        limit,
    )
    assert got == expected
    if limit is not None:
        assert sort.top == (offset or 0) + limit
        assert sort.rows_out == min(len(rows), sort.top)
    else:
        assert sort.top is None and sort.rows_out == len(rows)


def test_negative_bounds_still_raise():
    rows = [(3,), (1,), (2,)]
    for limit, offset in ((-1, None), (2, -1)):
        sort = SortNode(
            ValuesScan(rows, [(None, "x")]),
            [(column(0), False)],
            constant(limit),
            None if offset is None else constant(offset),
        )
        node = LimitNode(sort, constant(limit), None if offset is None else constant(offset))
        with pytest.raises(ExecutionError):
            list(node.run(ExecContext()))


@pytest.fixture
def ranked():
    db = Database(page_capacity=16, buffer_frames=4)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, tag TEXT)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(
            f"({i}, {'NULL' if i % 7 == 0 else (i * 37) % 50}, 't{i % 4}')"
            for i in range(200)
        )
    )
    return db


def test_top_k_through_the_planner(ranked):
    full = ranked.execute("SELECT id, v FROM t ORDER BY v DESC, id").rows
    for limit, offset in ((10, 0), (5, 3), (0, 0), (300, 0), (4, 198)):
        got = ranked.execute(
            f"SELECT id, v FROM t ORDER BY v DESC, id LIMIT {limit} OFFSET {offset}"
        ).rows
        assert got == full[offset : offset + limit]
    # A hidden sort column (ORDER BY an unselected expression) and a
    # parameterised bound take the same top-k path.
    hidden = ranked.execute("SELECT id FROM t ORDER BY v + 0, tag DESC, id").rows
    got = ranked.execute(
        "SELECT id FROM t ORDER BY v + 0, tag DESC, id LIMIT ? OFFSET ?", (6, 2)
    ).rows
    assert got == hidden[2:8]


def test_explain_trace_shows_the_top_k_bound(ranked):
    text = "\n".join(
        row[0]
        for row in ranked.execute(
            "EXPLAIN TRACE SELECT id, v FROM t ORDER BY v DESC LIMIT 10 OFFSET 2"
        ).rows
    )
    assert "Sort(1 keys, top=12) rows_out=12" in text
    plain = "\n".join(
        row[0] for row in ranked.execute("EXPLAIN TRACE SELECT id FROM t ORDER BY v").rows
    )
    assert "Sort(1 keys) rows_out=200" in plain


def test_bare_count_is_counted_without_rows(ranked):
    result, trace = ranked.trace_statement("SELECT COUNT(*) FROM t")
    assert result.scalar() == 200
    scan = next(
        span
        for span in _walk(trace)
        if span.name.startswith("ProjectedScan")
    )
    assert scan.counters["rows_scanned"] == 200
    assert scan.counters["rows_out"] == 200
    assert scan.counters["pages_read"] == 0
    assert scan.counters["batches"] == 1
    # Shapes the shortcut must leave to the general aggregate path.
    assert ranked.execute("SELECT COUNT(*), COUNT(*) FROM t").rows == [(200, 200)]
    assert ranked.execute("SELECT COUNT(*) FROM t WHERE v > 40").scalar() == len(
        [1 for (v,) in ranked.execute("SELECT v FROM t").rows if v is not None and v > 40]
    )
    assert ranked.execute("SELECT COUNT(v) FROM t").scalar() == 200 - 29
    assert ranked.execute("SELECT COUNT(*), MAX(v) FROM t").rows == [(200, 49)]
    assert ranked.execute("SELECT COUNT(*) FROM t GROUP BY tag").rows == [(50,)] * 4
    ranked.execute("CREATE TABLE e (a INT)")
    assert ranked.execute("SELECT COUNT(*) FROM e").rows == [(0,)]


def test_bare_count_follows_transactions_and_positional_inserts(ranked):
    ranked.execute("BEGIN")
    ranked.execute("DELETE FROM t WHERE id < 50")
    assert ranked.execute("SELECT COUNT(*) FROM t").scalar() == 150
    ranked.execute("ROLLBACK")
    assert ranked.execute("SELECT COUNT(*) FROM t").scalar() == 200
    ranked.execute("INSERT INTO t VALUES (500, 1, 'x') AT POSITION 0")
    assert ranked.execute("SELECT COUNT(*) FROM t").scalar() == 201


def test_count_rows_declines_filtered_or_wide_scans(ranked):
    table = ranked.table("t")
    assert ProjectedScan(table, "t", ["v"]).count_rows() is None
    filtered = ProjectedScan(table, "t", [])
    filtered.add_predicate(lambda row, params: True, "true")
    assert filtered.count_rows() is None
    assert ProjectedScan(table, "t", []).count_rows() == 200


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
