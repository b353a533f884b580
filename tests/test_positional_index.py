"""The positional index of a table: presentation order over rids, kept by
a :class:`PositionalMapper` — including moving a row, which is a delete
plus putting the freed rid back (the primitive rollback relies on)."""

from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.index.posmap import PositionalMapper


def make(n: int = 5) -> Table:
    table = Table("t", TableSchema.from_pairs([("id", DBType.INTEGER)]))
    for i in range(n):
        table.insert((100 + i,))
    return table


def order(table: Table):
    return [row[0] for row in table.rows()]


def move(table: Table, from_pos: int, to_pos: int) -> None:
    """Drag one row: ``to_pos`` is its position in the *resulting* order
    (clamped to the end); the row keeps its rid."""
    rid = table.rid_at(from_pos)
    row = table.delete_at(from_pos)
    table.insert(row, position=min(to_pos, table.n_rows), rid=rid)


class TestMove:
    """``move(f, t)``: the row ends up at position ``t`` of the resulting
    order (``t`` clamps to the end)."""

    def test_move_forward(self):
        table = make()  # [100, 101, 102, 103, 104]
        rid = table.rid_at(0)
        move(table, 0, 2)
        assert order(table) == [101, 102, 100, 103, 104]
        assert table.rid_at(2) == rid

    def test_move_backward(self):
        table = make()
        rid = table.rid_at(3)
        move(table, 3, 1)
        assert order(table) == [100, 103, 101, 102, 104]
        assert table.rid_at(1) == rid

    def test_move_to_end(self):
        table = make()
        move(table, 0, 4)
        assert order(table) == [101, 102, 103, 104, 100]

    def test_move_past_end_clamps(self):
        table = make()
        move(table, 1, 99)
        assert order(table) == [100, 102, 103, 104, 101]

    def test_move_to_same_position_is_identity(self):
        table = make()
        move(table, 2, 2)
        assert order(table) == [100, 101, 102, 103, 104]
        table.validate()

    def test_move_adjacent_forward(self):
        """The classic off-by-one trap: moving one slot forward must swap
        neighbours, not no-op."""
        table = make()
        move(table, 1, 2)
        assert order(table) == [100, 102, 101, 103, 104]

    def test_move_keeps_tree_valid(self):
        table = make(50)
        for step in range(40):
            move(table, step % table.n_rows, (step * 7) % table.n_rows)
        table.validate()
        assert sorted(order(table)) == list(range(100, 150))


class TestBasics:
    def test_window_and_positions(self):
        table = make(10)
        assert isinstance(table.positions, PositionalMapper)
        assert [row[0] for row in table.window(3, 4)] == [103, 104, 105, 106]
        rid = table.insert((999,), position=0)
        assert table.rid_at(0) == rid
        assert table.position_of(rid) == 0
        assert table.position_of(table.rid_at(5)) == 5
        assert table.position_of(123456) is None
