"""The index structures against a dict model, and what a unique one costs.

A :class:`~repro.metadb.storage.Table` with a unique key, a unique
nullable column, a two-column non-unique hash index and an ordered index
is driven through inserts, updates (unique violations among them, which
``Table.update_row`` rolls back), deletes and restores.  After every step
each index answers what the live rows say: probes, IN-list probes,
membership, length, the NULL bucket, whole scans both ways (NULL keys
last, in rowid order), ranges and range counts.
"""

import itertools
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.metadb import Column, ColumnType, IntegrityError, TableSchema
from repro.metadb import index as index_module
from repro.metadb.storage import Table

SMALL = st.integers(min_value=0, max_value=6)
NULLABLE = st.one_of(st.none(), SMALL)
LABELS = st.sampled_from([None, "x", "y"])
#: Every key the model can hold, and some it never does.
PROBES = {
    ("k",): list(range(-1, 8)) + [None],
    ("u",): list(range(-1, 8)) + [None],
    ("a", "b"): list(itertools.product([None, *range(-1, 8)], [None, "x", "y", "z"])),
}
BOUNDS = [None, -1, 0, 2, 3, 6, 7]


def _schema() -> TableSchema:
    return TableSchema(
        "r",
        [Column("k", ColumnType.INTEGER, nullable=False),
         Column("u", ColumnType.INTEGER),
         Column("a", ColumnType.INTEGER),
         Column("b", ColumnType.TEXT),
         Column("v", ColumnType.INTEGER)],
        primary_key="k",
        unique=[("u",)],
        indexes=[("a", "b"), ("v",)],
    )


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = Table(_schema())
        self.rows: dict[int, dict] = {}       # rowid -> live row
        self.deleted: dict[int, dict] = {}    # rowid -> last image

    def _taken(self, row: dict, rowid=None) -> bool:
        """True when another live row holds ``row``'s key or its non-NULL ``u``."""
        return any(
            other_id != rowid and (other["k"] == row["k"]
                                   or row["u"] is not None and other["u"] == row["u"])
            for other_id, other in self.rows.items())

    @rule(k=SMALL, u=NULLABLE, a=NULLABLE, b=LABELS, v=NULLABLE)
    def insert(self, k, u, a, b, v):
        row = {"k": k, "u": u, "a": a, "b": b, "v": v}
        if self._taken(row):
            with pytest.raises(IntegrityError):
                self.table.insert_row(row)
        else:
            self.rows[self.table.insert_row(row)] = row

    @precondition(lambda self: self.rows)
    @rule(data=st.data(), changes=st.fixed_dictionaries(
        {}, optional={"k": SMALL, "u": NULLABLE, "a": NULLABLE, "b": LABELS, "v": NULLABLE}))
    def update(self, data, changes):
        rowid = data.draw(st.sampled_from(sorted(self.rows)), label="rowid")
        row = {**self.rows[rowid], **changes}
        if self._taken(row, rowid):
            with pytest.raises(IntegrityError):     # every index rolled back
                self.table.update_row(rowid, changes)
        else:
            assert self.table.update_row(rowid, changes) == self.rows[rowid]
            self.rows[rowid] = row

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def delete(self, data):
        rowid = data.draw(st.sampled_from(sorted(self.rows)), label="rowid")
        self.deleted[rowid] = self.table.delete(rowid)
        del self.rows[rowid]

    @precondition(lambda self: self.deleted)
    @rule(data=st.data())
    def restore(self, data):
        """An undo puts a row back under its rowid; a rollback never finds
        its keys taken, so a row whose keys were is left out."""
        rowid = data.draw(st.sampled_from(sorted(self.deleted)), label="rowid")
        row = self.deleted.pop(rowid)
        if not self._taken(row):
            self.table.restore(rowid, row)
            self.rows[rowid] = row

    @invariant()
    def rows_agree(self):
        assert {rowid: self.table.row(rowid) for rowid in self.table.rowids()} == self.rows

    @invariant()
    def hash_indexes_agree(self):
        for index in self.table._hash_indexes:
            keyed, nulls = defaultdict(set), set()
            for rowid, row in self.rows.items():
                key = tuple(row[column] for column in index.columns)
                if None in key:
                    nulls.add(rowid)
                else:
                    keyed[key if len(key) > 1 else key[0]].add(rowid)
            assert index.unique == (index.columns != ("a", "b"))
            assert index.nulls() == nulls
            assert len(index) == len(self.rows)
            probes = PROBES[index.columns]
            for key in probes:
                found = index.probe(key)
                assert len(found) == len(keyed[key]) and set(found) == keyed[key]
                assert (key in index) == bool(keyed[key])
            assert sorted(index.probe_many(probes)) == \
                sorted(rowid for key in probes for rowid in keyed[key])

    @invariant()
    def ordered_index_agrees(self):
        index = self.table.ordered_index_on("v")
        nulls = sorted(rowid for rowid, row in self.rows.items() if row["v"] is None)
        assert index.nulls() == set(nulls)
        assert len(index) == len(self.rows)
        for descending in (False, True):
            scanned = list(index.scan(descending=descending))
            keyed = scanned[:len(scanned) - len(nulls)]
            assert sorted(scanned) == sorted(self.rows)
            assert scanned[len(keyed):] == nulls
            values = [self.rows[rowid]["v"] for rowid in keyed]
            assert None not in values and values == sorted(values, reverse=descending)
        for low, high, low_inclusive, high_inclusive in itertools.product(
                BOUNDS, BOUNDS, (True, False), (True, False)):
            inside = sorted(
                rowid for rowid, row in self.rows.items() if row["v"] is not None
                and (low is None or row["v"] > low or low_inclusive and row["v"] == low)
                and (high is None or row["v"] < high or high_inclusive and row["v"] == high))
            bounds = dict(low_inclusive=low_inclusive, high_inclusive=high_inclusive)
            assert index.count_range(low, high, **bounds) == len(inside)
            assert sorted(index.range(low, high, **bounds)) == inside


def test_index_machine_agrees_with_a_dict_model():
    run_state_machine_as_test(
        IndexMachine,
        settings=settings(max_examples=60, stateful_step_count=30, deadline=None),
    )


def test_a_unique_hash_index_costs_a_dict_entry_per_row():
    """Two unique hash indexes over 10 000 rows: what ``index.py``
    allocates per row and index stays well under the ~250 B a one-element
    set per key cost (the set alone is 216 B)."""
    schema = TableSchema(
        "m", [Column("k", ColumnType.INTEGER, nullable=False), Column("u", ColumnType.TEXT)],
        primary_key="k", unique=[("u",)])
    rows = [schema.normalize_row({"k": n, "u": f"u{n}"}) for n in range(10_000)]
    table = Table(schema)
    tracemalloc.start()
    try:
        for row in rows:
            table.insert_row(row)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traces = snapshot.filter_traces([tracemalloc.Filter(True, index_module.__file__)])
    allocated = sum(stat.size for stat in traces.statistics("filename"))
    assert allocated / len(rows) / 2 < 80
