"""Boundary-scale differential test for the scan and DML-target paths.

Tables of 0–3000 rows cross page (32–128 records), batch (1024 rows) and
zone-map boundaries.  A random mix of ``AT POSITION`` inserts,
DELETE/UPDATE by scan, by primary key and by secondary index, ``CREATE
INDEX``, a rolled-back delete (old rids return at the heap tail) and
forced page encodings runs against the engine and stdlib ``sqlite3``.
Then, through an unbounded pool:

* every query's result multiset matches sqlite's, for WHEREs that zone
  maps can skip on and ones they cannot,
* every filtered query returns its rows in presentation order — the
  unfiltered ``SELECT *`` filtered in Python by the same predicate — and
  ``LIMIT`` without ``ORDER BY`` returns that list's prefix.

And through a pool of a few frames, so every scan reads and writes back
pages through the simulated disk: ``ORDER BY`` with and without
``LIMIT``/``OFFSET`` (single and multi-key, ASC/DESC, NULLs) returns
sqlite's exact sequence, and ``GROUP BY`` with COUNT/SUM/AVG/MIN/MAX
returns sqlite's multiset.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.baselines.sqlite_backend import SqliteComparator

TAGS = ["x", "y", "u"]


def row_for(k: int):
    """Deterministic row for key ``k``: ``b`` tracks the key (zone maps
    can skip on it), ``a`` repeats (index buckets), some values NULL."""
    return (k, k % 37, None if k % 97 == 0 else k, TAGS[k % 3])


def between(low: int, high: int):
    return lambda row: row[2] is not None and low <= row[2] < high


# (SQL WHERE, the same predicate over a full row (k, a, b, c)).
def predicates(low: int, high: int, point: int):
    return [
        (f"b >= {low} AND b < {high}", between(low, high)),  # skippable
        (f"b + 0 >= {low} AND b + 0 < {high}", between(low, high)),  # not
        (f"a = {point % 37}", lambda row: row[1] == point % 37),
        (
            f"c = 'u' OR b < {low}",
            lambda row: row[3] == "u" or (row[2] is not None and row[2] < low),
        ),
        ("b IS NULL", lambda row: row[2] is None),
    ]


n_rows_strategy = st.one_of(
    st.sampled_from([0, 1, 31, 32, 33, 127, 128, 129, 1023, 1024, 1025, 2048, 3000]),
    st.integers(0, 3000),
)

op_strategy = st.one_of(
    st.tuples(st.just("insert_at"), st.floats(0, 1), st.integers(0, 3000)),
    st.tuples(st.just("delete_scan"), st.integers(0, 3000), st.integers(1, 400)),
    st.tuples(st.just("update_scan"), st.integers(0, 3000), st.integers(1, 400)),
    st.tuples(st.just("delete_pk"), st.integers(0, 3000)),
    st.tuples(st.just("update_pk"), st.integers(0, 3000)),
    st.tuples(st.just("delete_index"), st.integers(0, 36)),
    st.tuples(st.just("update_index"), st.integers(0, 36)),
    st.tuples(st.just("create_index")),
    st.tuples(st.just("encode"), st.integers(0, 3)),
    st.tuples(st.just("rollback_delete"), st.integers(0, 3000)),
)


def run_op(comparator: SqliteComparator, op, next_key: int) -> None:
    db, sqlite = comparator.database, comparator.connection
    kind = op[0]

    def both(sql: str) -> None:
        db.execute(sql)
        sqlite.execute(sql)

    if kind == "insert_at":
        # A fresh key with a drawn ``b``: the row sits at a random position
        # but at the heap tail, so skipping scans surface it last.
        k, a, _, c = row_for(next_key)
        values = f"{k}, {a}, {op[2]}, '{c}'"
        position = int(op[1] * db.table("t").n_rows)
        db.execute(f"INSERT INTO t VALUES ({values}) AT POSITION {position}")
        sqlite.execute(f"INSERT INTO t VALUES ({values})")
    elif kind == "delete_scan":
        both(f"DELETE FROM t WHERE b >= {op[1]} AND b < {op[1] + op[2]}")
    elif kind == "update_scan":
        both(
            f"UPDATE t SET c = 'u', b = b + 1 "
            f"WHERE b >= {op[1]} AND b < {op[1] + op[2]}"
        )
    elif kind == "delete_pk":
        both(f"DELETE FROM t WHERE k = {op[1]}")
    elif kind == "update_pk":
        both(f"UPDATE t SET a = a + 1, c = 'y' WHERE k = {op[1]}")
    elif kind == "delete_index":
        both(f"DELETE FROM t WHERE a = {op[1]}")
    elif kind == "update_index":
        both(f"UPDATE t SET b = NULL WHERE a = {op[1]}")
    elif kind == "create_index":
        if "idx_a" not in db.table("t").indexes:
            both("CREATE INDEX idx_a ON t (a)")
    elif kind == "encode":
        store = db.table("t").store
        if store.n_rows:
            store.encode_group(op[1] % store.n_groups)
    elif kind == "rollback_delete":
        db.execute("BEGIN")
        db.execute(f"DELETE FROM t WHERE b < {op[1]}")
        db.execute("ROLLBACK")


def populate(comparator: SqliteComparator, n_rows: int, group_size, ops) -> None:
    """Create and load ``t`` in both engines, then run ``ops`` on both."""
    db, sqlite = comparator.database, comparator.connection
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, c TEXT)")
    sqlite.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT)"
    )
    table = db.table("t")
    if group_size is not None:
        names = table.column_names
        table.store.restructure(
            [names[i : i + group_size] for i in range(0, len(names), group_size)]
        )
    rows = [row_for(k) for k in range(n_rows)]
    for row in rows:
        table.insert(row, emit=False)
    sqlite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    next_key = n_rows
    for op in ops:
        run_op(comparator, op, next_key)
        next_key += 1
    sqlite.commit()
    table.validate()


@given(
    n_rows=n_rows_strategy,
    group_size=st.sampled_from([None, 1, 2]),
    ops=st.lists(op_strategy, max_size=6),
    low=st.integers(0, 3000),
    width=st.integers(1, 3000),
    limit=st.integers(1, 40),
)
# A row inserted at the front surfaces at the heap tail, behind more
# than one batch of survivors of a skipping scan; then the same after a
# rolled-back delete has put old rids back out of rid order.
@example(
    n_rows=3000,
    group_size=None,
    ops=[("insert_at", 0.0, 5)],
    low=0,
    width=1500,
    limit=3,
)
@example(
    n_rows=2500,
    group_size=2,
    ops=[("rollback_delete", 200), ("insert_at", 0.3, 40), ("encode", 1)],
    low=10,
    width=2000,
    limit=30,
)
@settings(max_examples=12, deadline=None)
def test_scans_and_dml_agree_with_sqlite_at_boundary_scale(
    n_rows, group_size, ops, low, width, limit
):
    comparator = SqliteComparator()
    try:
        populate(comparator, n_rows, group_size, ops)
        db = comparator.database
        full = db.execute("SELECT * FROM t").rows
        comparator.assert_match("SELECT * FROM t")
        comparator.assert_match("SELECT count(*) FROM t")
        for where, matches in predicates(low, low + width, low):
            comparator.assert_match(f"SELECT * FROM t WHERE {where}")
            comparator.assert_match(f"SELECT k, c FROM t WHERE {where}")
            expected = [row for row in full if matches(row)]
            assert db.execute(f"SELECT * FROM t WHERE {where}").rows == expected, where
            narrow = db.execute(f"SELECT k FROM t WHERE {where}").rows
            assert narrow == [(row[0],) for row in expected], where
            limited = db.execute(f"SELECT * FROM t WHERE {where} LIMIT {limit}").rows
            assert limited == expected[:limit], where
    finally:
        comparator.close()


# ORDER BY keys either end in the unique ``k`` or are the whole select
# list, so sqlite's answer is one exact sequence despite ties and NULLs.
ORDERED = [
    "SELECT k, b FROM t ORDER BY b, k",
    "SELECT k, b FROM t ORDER BY b DESC, k DESC",
    "SELECT b, a FROM t ORDER BY b DESC, a",
    "SELECT c, a FROM t ORDER BY c DESC, a",
    "SELECT a FROM t ORDER BY a DESC",
    "SELECT k FROM t ORDER BY a DESC, b, k DESC",
    "SELECT k, c FROM t ORDER BY b + 0, k",
]

GROUPED = [
    "SELECT a % 5, COUNT(*), COUNT(b), SUM(b), AVG(b), MIN(b), MAX(b) "
    "FROM t GROUP BY a % 5",
    "SELECT c, COUNT(*), SUM(a), AVG(a), MIN(k), MAX(b) FROM t GROUP BY c",
    "SELECT c, a % 3, COUNT(*), MIN(c), MAX(c), AVG(b) FROM t "
    "WHERE b >= {low} GROUP BY c, a % 3",
    "SELECT COUNT(*), SUM(b), AVG(b), MIN(b), MAX(b) FROM t",
    "SELECT COUNT(*) FROM t",
]

#: Frames in the small pool: far fewer than the table's pages, so every
#: scan goes through the simulated disk's reads and write-backs.
SMALL_POOL = 6


@given(
    n_rows=n_rows_strategy,
    group_size=st.sampled_from([None, 1, 2]),
    ops=st.lists(op_strategy, max_size=4),
    low=st.integers(0, 3000),
    limit=st.integers(0, 40),
    offset=st.integers(0, 3000),
)
@example(
    n_rows=1500,
    group_size=None,
    ops=[("update_index", 3), ("insert_at", 0.5, 7), ("encode", 0)],
    low=300,
    limit=10,
    offset=1490,
)
@settings(max_examples=10, deadline=None)
def test_order_by_limit_and_group_by_agree_with_sqlite_through_a_small_pool(
    n_rows, group_size, ops, low, limit, offset
):
    comparator = SqliteComparator()
    db = comparator.database = Database(page_capacity=32, buffer_frames=SMALL_POOL)
    try:
        populate(comparator, n_rows, group_size, ops)
        reads = db.catalog.pool.stats.reads
        for sql in ORDERED:
            for suffix in ("", f" LIMIT {limit}", f" LIMIT {limit} OFFSET {offset}"):
                ok, ours, theirs = comparator.ordered_match(sql + suffix)
                assert ok, (sql + suffix, ours[:5], theirs[:5])
        for sql in GROUPED:
            comparator.assert_match(sql.format(low=low))
        ok, ours, theirs = comparator.ordered_match(
            "SELECT c, COUNT(*), MAX(b) FROM t GROUP BY c "
            f"ORDER BY COUNT(*) DESC, c LIMIT {limit}"
        )
        assert ok, (ours, theirs)
        if db.table("t").store.n_pages > SMALL_POOL:
            assert db.catalog.pool.stats.reads > reads
    finally:
        comparator.close()
