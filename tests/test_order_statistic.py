"""Unit + property tests for the order-statistic operations of the span
treap behind :class:`PositionalMapper` — select (``physical_of``), rank
(``position_of``), window (``intervals``) and positional splices — checked
against a Python list of the physical keys at the first positions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataSpreadError
from repro.index.posmap import LOGICAL_MAX, PositionalMapper


def keys(mapper: PositionalMapper, count: int, start: int = 0):
    """The physical keys at positions ``[start, start+count)``."""
    out = []
    for lo, hi, _ in mapper.intervals(start, start + count - 1):
        out.extend(range(lo, hi + 1))
    return out


def is_fresh(key: int) -> bool:
    return key >= LOGICAL_MAX


class TestBasics:
    def test_empty(self):
        mapper = PositionalMapper()
        assert mapper.pristine
        assert mapper.n_spans == 1
        assert keys(mapper, 0) == []
        mapper.validate()

    def test_bulk_load_preserves_order(self):
        # Appending rows takes the keys already waiting in order: no splice.
        mapper = PositionalMapper()
        assert [mapper.physical_of(i) for i in range(100)] == list(range(100))
        assert keys(mapper, 100) == list(range(100))
        assert mapper.pristine
        mapper.validate()

    def test_get(self):
        mapper = PositionalMapper()
        mapper.insert(1, 1)
        assert mapper.physical_of(0) == 0
        assert is_fresh(mapper.physical_of(1))
        assert mapper.physical_of(2) == 1
        assert mapper.position_of(mapper.physical_of(1)) == 1

    def test_get_out_of_range(self):
        mapper = PositionalMapper()
        with pytest.raises(IndexError):
            mapper.physical_of(LOGICAL_MAX)
        with pytest.raises(IndexError):
            mapper.physical_of(-1)
        assert mapper.position_of(-5) is None

    def test_set(self):
        # Replacing the key at a position: free it, then put another freed
        # key back in its place.
        mapper = PositionalMapper()
        mapper.delete(3, 1)  # frees key 3: [0, 1, 2, 4, ...]
        mapper.delete(1, 1)  # frees key 1: [0, 2, 4, ...]
        mapper.insert_key(1, 3)
        assert keys(mapper, 4) == [0, 3, 2, 4]
        mapper.validate()

    def test_insert_middle(self):
        mapper = PositionalMapper()
        mapper.insert(2, 1)
        got = keys(mapper, 4)
        assert got[:2] == [0, 1] and is_fresh(got[2]) and got[3] == 2
        mapper.validate()

    def test_insert_ends(self):
        mapper = PositionalMapper()
        mapper.insert(0, 1)
        got = keys(mapper, 3)
        assert is_fresh(got[0]) and got[1:] == [0, 1]
        mapper.insert(LOGICAL_MAX - 1, 1)  # the last slot of the universe
        assert is_fresh(mapper.physical_of(LOGICAL_MAX - 1))
        mapper.validate()

    def test_insert_bad_position(self):
        mapper = PositionalMapper()
        assert mapper.insert(LOGICAL_MAX, 1) == []
        assert mapper.pristine
        with pytest.raises(DataSpreadError):
            mapper.insert_key(0, 7)  # key 7 is still mapped
        assert mapper.pristine

    def test_delete(self):
        mapper = PositionalMapper()
        assert mapper.delete(1, 1) == [(1, 1)]
        assert keys(mapper, 2) == [0, 2]
        assert mapper.position_of(1) is None

    def test_delete_all(self):
        mapper = PositionalMapper()
        for step in range(3):
            assert mapper.delete(0, 1) == [(step, step)]
        assert keys(mapper, 2) == [3, 4]
        mapper.validate()


class TestSlices:
    def test_iter_slice(self):
        mapper = PositionalMapper()
        assert keys(mapper, 5, start=10) == [10, 11, 12, 13, 14]

    def test_iter_slice_clamps(self):
        mapper = PositionalMapper()
        assert mapper.intervals(-3, 1) == [(0, 1, 0)]
        assert mapper.intervals(5, 4) == []
        assert mapper.intervals(LOGICAL_MAX - 1, LOGICAL_MAX + 9) == [
            (LOGICAL_MAX - 1, LOGICAL_MAX - 1, LOGICAL_MAX - 1)
        ]

    def test_insert_slice(self):
        mapper = PositionalMapper()
        mapper.insert(1, 3)
        got = keys(mapper, 5)
        assert got[0] == 0 and got[4] == 1
        assert all(is_fresh(key) for key in got[1:4])
        assert got[1:4] == list(range(got[1], got[1] + 3))
        mapper.validate()

    def test_insert_slice_empty(self):
        mapper = PositionalMapper()
        assert mapper.insert(0, 0) == []
        assert mapper.pristine

    def test_delete_slice(self):
        mapper = PositionalMapper()
        assert mapper.delete(3, 4) == [(3, 6)]
        assert keys(mapper, 6) == [0, 1, 2, 7, 8, 9]
        mapper.validate()

    def test_delete_slice_bounds(self):
        mapper = PositionalMapper()
        assert mapper.delete(0, 0) == []
        assert mapper.delete(0, -1) == []
        assert mapper.delete(LOGICAL_MAX, 1) == []
        assert mapper.pristine


class TestScale:
    def test_large_sequential(self):
        mapper = PositionalMapper()
        for i in range(5000):
            assert mapper.physical_of(i) == i
        assert mapper.position_of(2500) == 2500
        assert mapper.n_spans == 1
        mapper.validate()

    def test_many_middle_inserts(self):
        mapper = PositionalMapper()
        reference = []
        for i in range(2000):
            position = (i * 37) % (len(reference) + 1)
            mapper.insert(position, 1)
            reference.insert(position, mapper.physical_of(position))
        assert keys(mapper, len(reference)) == reference
        assert all(mapper.position_of(key) == i for i, key in enumerate(reference))
        mapper.validate()


def _apply(mapper, model, freed, op, a, b):
    """One positional operation on the mapper and on the list model of the
    keys at the first ``len(model)`` positions."""
    if op == "insert":
        position = a % (len(model) + 1)
        mapper.insert(position, 1)
        model.insert(position, mapper.physical_of(position))
    elif op == "append":
        model.append(mapper.physical_of(len(model)))
    elif op == "delete" and model:
        position = a % len(model)
        assert mapper.delete(position, 1) == [(model[position], model[position])]
        freed.append(model.pop(position))
    elif op == "restore" and freed:
        key = freed.pop(b % len(freed))
        position = a % (len(model) + 1)
        mapper.insert_key(position, key)
        model.insert(position, key)
    elif op == "get" and model:
        position = a % len(model)
        assert mapper.physical_of(position) == model[position]
        assert mapper.position_of(model[position]) == position
    elif op == "slice" and model:
        position = a % len(model)
        count = b % (len(model) - position + 1)
        assert keys(mapper, count, position) == model[position : position + count]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "append", "delete", "restore", "get", "slice"]),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        max_size=60,
    )
)
def test_matches_python_list_model(operations):
    """Property: the mapper's first positions behave exactly like a Python
    list of keys under random positional operations, freed keys put back
    included."""
    mapper = PositionalMapper()
    model = []
    freed = []
    for op, a, b in operations:
        _apply(mapper, model, freed, op, a, b)
    assert keys(mapper, len(model)) == model
    for key in freed:
        assert mapper.position_of(key) is None
    mapper.validate()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 50))
def test_slice_ops_match_list_model(initial, position, count):
    mapper = PositionalMapper()
    model = list(range(initial))
    position = position % (len(model) + 1)
    mapper.insert(position, 2)
    model[position:position] = keys(mapper, 2, position)
    start = min(position, len(model) - 1) if model else 0
    count = min(count, len(model) - start)
    removed = model[start : start + count]
    dropped = mapper.delete(start, count)
    assert [key for lo, hi in dropped for key in range(lo, hi + 1)] == removed
    del model[start : start + count]
    assert keys(mapper, len(model)) == model
    mapper.validate()
