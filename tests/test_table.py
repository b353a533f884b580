"""Unit tests for the Table abstraction: positional order, key index,
change events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.persist import workbook_from_dict, workbook_to_dict
from repro.core.workbook import Workbook
from repro.engine.database import Database
from repro.engine.executor import ExecContext, IndexScan
from repro.engine.schema import Column, TableSchema
from repro.engine.store import LayoutPolicy
from repro.engine.table import ChangeEvent, Table
from repro.engine.types import DBType
from repro.errors import ConstraintError, ExecutionError, StorageError


def make_table(pk=True):
    schema = TableSchema.from_pairs(
        [("id", DBType.INTEGER), ("name", DBType.TEXT)],
        primary_key="id" if pk else None,
    )
    return Table("t", schema)


class TestPositionalOrder:
    def test_append_order(self):
        table = make_table()
        for i in range(5):
            table.insert((i, f"n{i}"))
        assert [row[0] for row in table.rows()] == [0, 1, 2, 3, 4]

    def test_insert_at_position(self):
        table = make_table()
        table.insert((1, "a"))
        table.insert((2, "b"))
        table.insert((9, "mid"), position=1)
        assert [row[0] for row in table.rows()] == [1, 9, 2]

    def test_row_at_and_rid_at(self):
        table = make_table()
        rid = table.insert((7, "x"))
        assert table.rid_at(0) == rid
        assert table.row_at(0) == (7, "x")

    def test_window(self):
        table = make_table()
        for i in range(100):
            table.insert((i, f"n{i}"))
        window = table.window(40, 5)
        assert [row[0] for row in window] == [40, 41, 42, 43, 44]

    def test_window_clamps(self):
        table = make_table()
        table.insert((1, "a"))
        assert table.window(5, 10) == []

    def test_delete_at_shifts_positions(self):
        table = make_table()
        for i in range(4):
            table.insert((i, str(i)))
        table.delete_at(1)
        assert [row[0] for row in table.rows()] == [0, 2, 3]
        assert table.row_at(1) == (2, "2")

    def test_scan_yields_positions(self):
        table = make_table()
        for i in range(3):
            table.insert((i, str(i)))
        positions = [pos for pos, _, _ in table.scan()]
        assert positions == [0, 1, 2]


class TestPrimaryKey:
    def test_find_by_key(self):
        table = make_table()
        rid = table.insert((42, "x"))
        assert table.find_by_key(42) == rid
        assert table.find_by_key(99) is None

    def test_no_pk_find_raises(self):
        table = make_table(pk=False)
        table.insert((1, "a"))
        with pytest.raises(ExecutionError):
            table.find_by_key(1)

    def test_update_changes_key_index(self):
        table = make_table()
        rid = table.insert((1, "a"))
        table.update_rid(rid, {"id": 5})
        assert table.find_by_key(5) == rid
        assert table.find_by_key(1) is None

    def test_delete_removes_key(self):
        table = make_table()
        table.insert((1, "a"))
        table.delete_at(0)
        assert table.find_by_key(1) is None

    def test_key_index_follows_a_renamed_key_column(self):
        db = make_db([(1, 10)])
        db.execute("ALTER TABLE t RENAME COLUMN k TO kk")
        db.execute("INSERT INTO t VALUES (2, 20)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (2, 21)")
        assert db.execute("SELECT v FROM t WHERE kk = 2").rows == [(20,)]
        db.table("t").validate()

    def test_not_null_enforced_on_update(self):
        table = make_table()
        rid = table.insert((1, "a"))
        with pytest.raises(ConstraintError):
            table.update_rid(rid, {"id": None})


class TestEvents:
    def collect(self, table):
        events = []
        table.listeners.append(events.append)
        return events

    def test_insert_event(self):
        table = make_table()
        events = self.collect(table)
        table.insert((1, "a"))
        assert events[0].kind == "insert"
        assert events[0].position == 0
        assert events[0].row == (1, "a")

    def test_update_event_carries_old_row(self):
        table = make_table()
        rid = table.insert((1, "a"))
        events = self.collect(table)
        table.update_rid(rid, {"name": "b"}, position=0)
        assert events[0].kind == "update"
        assert events[0].old_row == (1, "a")
        assert events[0].row == (1, "b")

    def test_delete_event(self):
        table = make_table()
        table.insert((1, "a"))
        events = self.collect(table)
        table.delete_at(0)
        assert events[0].kind == "delete"
        assert events[0].old_row == (1, "a")

    def test_schema_events(self):
        table = make_table()
        events = self.collect(table)
        table.add_column(Column("x", DBType.INTEGER))
        table.rename_column("x", "y")
        table.drop_column("y")
        assert [e.kind for e in events] == ["add_column", "rename_column", "drop_column"]

    def test_emit_false_suppresses(self):
        table = make_table()
        events = self.collect(table)
        table.insert((1, "a"), emit=False)
        assert events == []

    def test_delete_rids_bulk(self):
        table = make_table()
        rids = [table.insert((i, str(i))) for i in range(5)]
        events = self.collect(table)
        deleted = table.delete_rids([rids[1], rids[3]])
        assert deleted == 2
        assert [row[0] for row in table.rows()] == [0, 2, 4]
        assert all(e.kind == "delete" for e in events)


class TestValidation:
    def test_validate_full_consistency(self):
        table = make_table()
        for i in range(50):
            table.insert((i, str(i)))
        table.delete_at(10)
        table.update_rid(table.rid_at(5), {"name": "patched"}, position=5)
        table.validate()

    def test_single_column_update_uses_group_path(self):
        schema = TableSchema.from_pairs(
            [("id", DBType.INTEGER), ("a", DBType.TEXT), ("b", DBType.TEXT)],
            primary_key="id",
            group_size=1,
        )
        table = Table("g", schema, LayoutPolicy.HYBRID)
        rid = table.insert((1, "x", "y"))
        table.checkpoint()
        before = table.store.pool.stats.writes
        table.update_rid(rid, {"b": "z"})
        table.checkpoint()
        assert table.store.pool.stats.writes - before == 1

    def test_validate_compares_index_entries_not_only_sizes(self):
        table = make_table()
        rids = [table.insert((i, str(i))) for i in range(3)]
        table.validate()
        # Same entry count, wrong rid: only an entry-by-entry check sees it.
        table.primary_index.tree.delete(1)
        table.primary_index.tree.insert(1, rids[2])
        with pytest.raises(StorageError):
            table.validate()


def make_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?)", row)
    return db


class TestStatementAtomicity:
    def test_negative_position_rejected_before_any_mutation(self):
        db = make_db([(1, 10), (2, 20)])
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (3, 30) AT POSITION -1")
        table = db.table("t")
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        assert table.store.n_rows == 2
        table.validate()
        db.execute("INSERT INTO t VALUES (3, 30)")
        assert table.rows() == [(1, 10), (2, 20), (3, 30)]

    def test_failed_update_leaves_primary_key_untouched(self):
        db = make_db([(1, 10), (2, 20)])
        db.execute("CREATE UNIQUE INDEX iv ON t (v)")
        table = db.table("t")
        rid = table.find_by_key(1)
        with pytest.raises(ConstraintError):
            db.execute("UPDATE t SET k = 5, v = 20 WHERE k = 1")
        assert table.find_by_key(1) == rid
        assert table.find_by_key(5) is None
        db.execute("INSERT INTO t VALUES (5, 50)")
        table.validate()
        assert table.rows() == [(1, 10), (2, 20), (5, 50)]

    def test_rollback_of_scattered_delete_restores_order_and_rids(self):
        db = make_db([(i, i * 10) for i in range(7)])
        table = db.table("t")
        before = [table.rid_at(i) for i in range(7)]
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE k = 2 OR k = 5")
        db.execute("ROLLBACK")
        assert [row[0] for row in table.rows()] == list(range(7))
        assert [table.rid_at(i) for i in range(7)] == before
        table.validate()


# -- model-based property: Table/Database against a Python list ------------

KEYS = st.integers(0, 20)
SMALL = st.integers(0, 3)

_STATEMENTS = st.one_of(
    st.tuples(st.just("append"), KEYS, KEYS, SMALL),
    st.tuples(st.just("insert_at"), st.integers(0, 14), KEYS, KEYS, SMALL),
    st.tuples(st.just("delete_pk"), KEYS),
    st.tuples(st.just("delete_w"), SMALL),
    st.tuples(st.just("delete_scan"), st.integers(0, 2)),
    st.tuples(st.just("update_w_by_pk"), KEYS, SMALL),
    st.tuples(st.just("update_w_by_w"), SMALL, SMALL),
    st.tuples(st.just("update_scan"), st.integers(0, 2)),
    st.tuples(st.just("update_pk"), KEYS, KEYS),
    st.tuples(st.just("update_pk_v"), KEYS, KEYS, KEYS),
)

_OPERATIONS = st.lists(
    st.one_of(
        _STATEMENTS,
        st.tuples(st.just("delete_at"), st.integers(0, 14)),
        st.tuples(
            st.sampled_from(["rollback", "commit"]),
            st.lists(_STATEMENTS, min_size=1, max_size=5),
        ),
        st.tuples(st.just("reload")),
    ),
    max_size=25,
)


def _model_statement(db, model, op):
    """Run one SQL statement on ``db`` and mirror it on the list model of
    ``[k, v, w]`` rows; returns the new model.  Statements that violate a
    unique key must raise and leave the table exactly as it was."""
    kind = op[0]
    keys = [row[0] for row in model]
    if kind in ("append", "insert_at"):
        if kind == "append":
            _, k, v, w = op
            sql, at = "INSERT INTO t VALUES (?, ?, ?)", len(model)
        else:
            _, position, k, v, w = op
            sql = f"INSERT INTO t VALUES (?, ?, ?) AT POSITION {position}"
            at = min(position, len(model))
        if k in keys or v in [row[1] for row in model]:
            with pytest.raises(ConstraintError):
                db.execute(sql, (k, v, w))
            return model
        db.execute(sql, (k, v, w))
        return model[:at] + [[k, v, w]] + model[at:]
    if kind == "delete_pk":
        db.execute("DELETE FROM t WHERE k = ?", (op[1],))
        return [row for row in model if row[0] != op[1]]
    if kind == "delete_w":
        db.execute("DELETE FROM t WHERE w = ?", (op[1],))
        return [row for row in model if row[2] != op[1]]
    if kind == "delete_scan":
        db.execute("DELETE FROM t WHERE v % 3 = ?", (op[1],))
        return [row for row in model if row[1] % 3 != op[1]]
    if kind == "update_w_by_pk":
        db.execute("UPDATE t SET w = ? WHERE k = ?", (op[2], op[1]))
        return [[k, v, op[2] if k == op[1] else w] for k, v, w in model]
    if kind == "update_w_by_w":
        db.execute("UPDATE t SET w = ? WHERE w = ?", (op[2], op[1]))
        return [[k, v, op[2] if w == op[1] else w] for k, v, w in model]
    if kind == "update_scan":
        db.execute("UPDATE t SET w = w + 1 WHERE v % 3 = ?", (op[1],))
        return [[k, v, w + 1 if v % 3 == op[1] else w] for k, v, w in model]
    if kind == "update_pk":
        _, old, new = op
        if old in keys and new != old and new in keys:
            with pytest.raises(ConstraintError):
                db.execute("UPDATE t SET k = ? WHERE k = ?", (new, old))
            return model
        db.execute("UPDATE t SET k = ? WHERE k = ?", (new, old))
        return [[new if k == old else k, v, w] for k, v, w in model]
    _, old, new, new_v = op  # update_pk_v
    target = [row for row in model if row[0] == old]
    others = [row for row in model if row[0] != old]
    if target and (
        new in [row[0] for row in others] or new_v in [row[1] for row in others]
    ):
        with pytest.raises(ConstraintError):
            db.execute("UPDATE t SET k = ?, v = ? WHERE k = ?", (new, new_v, old))
        return model
    db.execute("UPDATE t SET k = ?, v = ? WHERE k = ?", (new, new_v, old))
    return [[new, new_v, w] if k == old else [k, v, w] for k, v, w in model]


def _check_against_model(db, model):
    table = db.table("t")
    rows = [tuple(row) for row in model]
    table.validate()
    assert table.n_rows == len(rows)
    assert table.window(0, len(rows) + 5) == rows
    assert table.window(2, 3) == rows[2:5]
    assert [table.get(table.rid_at(i)) for i in range(len(rows))] == rows
    assert [(position, row) for position, _, row in table.scan()] == list(
        enumerate(rows)
    )
    # An index scan with no usable bound fetches every row through the
    # index path and must still hand them back in presentation order.
    every = IndexScan(table, "t", None, table.index_for("w"))
    assert list(every.run(ExecContext())) == rows
    for w in range(4):
        got = db.execute("SELECT k, v, w FROM t WHERE w = ?", (w,)).rows
        assert got == [row for row in rows if row[2] == w]
    for k in (0, 5, 17):
        got = db.execute("SELECT k, v, w FROM t WHERE k = ?", (k,)).rows
        assert got == [row for row in rows if row[0] == k]
    assert db.execute("SELECT COUNT(*) FROM t").rows == [(len(rows),)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), _OPERATIONS)
def test_table_matches_list_model(initial, operations):
    """Property: appends, positional inserts and deletes, DML by primary
    key, by secondary index and by scan, key-changing updates, committed
    and rolled-back transactions and a snapshot round trip keep the table
    equal to a Python list of rows in presentation order."""
    workbook = Workbook()
    db = workbook.database
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, w INT)")
    db.execute("CREATE UNIQUE INDEX iv ON t (v)")
    db.execute("CREATE INDEX iw ON t (w)")
    model = []
    for key in range(initial):
        model = _model_statement(db, model, ("append", key, key, key % 4))
    for op in operations:
        kind = op[0]
        if kind == "delete_at":
            if model:
                position = op[1] % len(model)
                db.table("t").delete_at(position)
                model = model[:position] + model[position + 1 :]
        elif kind == "reload":
            workbook = workbook_from_dict(workbook_to_dict(workbook))
            db = workbook.database
        elif kind in ("rollback", "commit"):
            db.execute("BEGIN")
            inner = model
            for statement in op[1]:
                inner = _model_statement(db, inner, statement)
            db.execute(kind.upper())
            if kind == "commit":
                model = inner
        else:
            model = _model_statement(db, model, op)
        _check_against_model(db, model)
