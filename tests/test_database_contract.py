"""One contract, every implementation: :class:`repro.metadb.DatabaseApi`.

Every class the tiers above the data tier can be handed — a plain
``Database``, a ``ReplicaGroup``, a ``ShardedDatabase`` and their
composition — is held to the same behaviour here.  The core is a
stateful property test: a random interleaving of inserts, updates,
deletes, batches (reads bound to an earlier statement's row among
them), queries, transactions (with rollbacks) and, on the persistent
builds, close/reopen must always agree with a plain Python-dict model,
regardless of which index, shard or copy served each statement: on a
table the sharded builds place by its key, on a parent/child pair they
place by a column that is not the key, where a statement selected by
key has to find its shard first, and on a table whose rows follow
their item, wherever and whenever the item's owner turns up.

A new implementation joins by satisfying the protocol and adding one
line to :data:`BUILDS`.
"""

import inspect
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.metadb import (
    Aggregate,
    And,
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    DatabaseApi,
    Delete,
    Explain,
    ForeignKey,
    In,
    Insert,
    IntegrityError,
    Join,
    QueryError,
    Ref,
    Select,
    TableSchema,
    TransactionError,
    Update,
    follows,
    follows_item,
    partitioned,
    prepare,
)
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.shard import ShardedDatabase

#: Placement is declared on the schemas below.  The sharded builds place
#: ``t`` by its key, so an update of ``v`` never moves a row between
#: shards; ``notes`` is broadcast.  ``e`` is placed by ``at``, which is
#: not its key, and ``c`` follows its ``e``: the shape of every table an
#: HLE page reads (``hle`` by ``start_time``, ``ana`` by its ``hle``),
#: where a statement selected by key has to find the shard first.  ``e``
#: and ``c`` own the items their ``item`` column names and ``loc``
#: follows its item: the shape of the location tables.
FOUR_SHARDS = (8, 16, 24)


class Build(NamedTuple):
    """One implementation or composition under test.  ``open(path)``
    creates it — or, for a persistent build, reopens what is already
    under ``path``; ``shard``/``replication`` say which ``describe()``
    sections it must fill."""

    name: str
    open: Callable[[Optional[Path]], DatabaseApi]
    persistent: bool = False
    shard: bool = False
    replication: bool = False


BUILDS = [
    Build("database", lambda path: Database(name="c")),
    Build("database-persistent", lambda path: Database(path, name="c"),
          persistent=True),
    Build("replica-group-x1", lambda path: ReplicaGroup(name="c"),
          replication=True),
    Build("replica-group-x3", lambda path: ReplicaGroup(name="c", n_replicas=2),
          replication=True),
    Build("sharded-x1", lambda path: ShardedDatabase(name="c"),
          shard=True),
    Build("sharded-x4",
          lambda path: ShardedDatabase(FOUR_SHARDS, name="c"),
          shard=True),
    Build("sharded-x4-copies-x2-persistent",
          lambda path: ShardedDatabase(FOUR_SHARDS, path=path, name="c",
                                       replicas_per_shard=2),
          persistent=True, shard=True, replication=True),
]

#: The builds whose shards the contract machine splits and rebalances,
#: up to this many shards.
RESHARDABLE = {"sharded-x4", "sharded-x4-copies-x2-persistent"}
MAX_SHARDS = 8

every_build = pytest.mark.parametrize(
    "build", BUILDS, ids=[build.name for build in BUILDS])


def _t_schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("k", ColumnType.INTEGER, nullable=False),
            Column("v", ColumnType.INTEGER),
            Column("tag", ColumnType.TEXT),
        ],
        primary_key="k",
        indexes=[("v",)],
        placement=partitioned("k"),
    )


def _notes_schema() -> TableSchema:
    return TableSchema(
        "notes",
        [Column("note_id", ColumnType.INTEGER, nullable=False),
         Column("text", ColumnType.TEXT)],
        primary_key="note_id",
    )


def _e_schema() -> TableSchema:
    return TableSchema(
        "e",
        [Column("id", ColumnType.INTEGER, nullable=False),
         Column("at", ColumnType.INTEGER, nullable=False),
         Column("label", ColumnType.TEXT),
         Column("item", ColumnType.TEXT, nullable=False)],
        primary_key="id",
        unique=[("item",)],
        indexes=[("at",)],
        placement=partitioned("at"),
        item_key="item",
    )


def _c_schema() -> TableSchema:
    return TableSchema(
        "c",
        [Column("cid", ColumnType.INTEGER, nullable=False),
         Column("e_id", ColumnType.INTEGER, nullable=False),
         Column("note", ColumnType.TEXT),
         Column("item", ColumnType.TEXT, nullable=False)],
        primary_key="cid",
        unique=[("item",)],
        indexes=[("e_id",)],
        foreign_keys=[ForeignKey("e_id", "e", "id")],
        placement=follows("e_id", "e", "id"),
        item_key="item",
    )


def _loc_schema() -> TableSchema:
    return TableSchema(
        "loc",
        [Column("ref", ColumnType.INTEGER, nullable=False),
         Column("item", ColumnType.TEXT, nullable=False),
         Column("note", ColumnType.TEXT)],
        primary_key="ref",
        indexes=[("item",)],
        placement=follows_item("item"),
    )


def _fresh(build: Build, root: Path):
    """A new instance of ``build`` with its five tables; returns (db, path)."""
    path = Path(tempfile.mkdtemp(dir=root)) / "db" if build.persistent else None
    db = build.open(path)
    _create_tables(db)
    return db, path


def _create_tables(db) -> None:
    for schema in (_t_schema(), _notes_schema(), _e_schema(), _c_schema(),
                   _loc_schema()):
        db.create_table(schema)


# -- the stateful core -------------------------------------------------------

KEYS = st.integers(min_value=0, max_value=30)
VALUES = st.integers(min_value=-50, max_value=50)
EVENT_IDS = st.integers(min_value=0, max_value=11)
CHILD_IDS = st.integers(min_value=0, max_value=23)
LOC_REFS = st.integers(min_value=0, max_value=47)
ITEMS = st.sampled_from([f"e:{n}" for n in range(12)]
                        + [f"c:{n}" for n in range(24)]
                        + ["x:0", "x:1"])


def _at(event_id: int) -> int:
    """Where an ``e`` row is placed: fixed by its id and never updated, so
    an id always lands on the same shard.  (Keys are unique per shard, not
    across shards; the program draws them from ``allocate_id``.)"""
    return (event_id * 7) % 32


def _parent_of(child_id: int) -> int:
    """A ``c`` row's parent, fixed by its id for the same reason.  Ids 8
    to 11 of ``e`` never have children."""
    return child_id % 8


def _item_of(ref: int) -> str:
    """A ``loc`` row's item, fixed by its ref: the item of an ``e`` row,
    of a ``c`` row (whose shard is its parent's: a chain of two), or of
    nothing at all."""
    if ref % 4 == 3:
        return f"x:{ref % 2}"
    return f"c:{ref // 2}" if ref % 2 else f"e:{ref // 4}"


def _executed(db) -> int:
    """SELECTs run where rows live: a replica group counts every
    statement its copy answered, its copies the ones they ran."""
    if isinstance(db, ReplicaGroup):
        return sum(copy.stats.selects for copy in
                   [db.primary, *(replica.db for replica in db.replicas)])
    return db.stats.selects


class ContractMachine(RuleBasedStateMachine):
    """Every statement carries ``tx=self.tx``: inside a transaction that
    is the contract's read-your-own-writes rule, outside one (``None``)
    its every-committed-transaction rule."""

    def __init__(self, build: Build, root: Path):
        super().__init__()
        self.build = build
        self.db, self.path = _fresh(build, root)
        self.model: dict[int, dict] = {}
        self.events: dict[int, dict] = {}
        self.children: dict[int, dict] = {}
        self.locs: dict[int, dict] = {}
        self.notes: dict[int, dict] = {}
        #: ref -> the shard its item's owner was on when the row went in
        #: (None: no owner then).  Sharded builds only.
        self.loc_home: dict[int, Optional[int]] = {}
        self.tx = None
        self.tx_shadow: tuple[dict, ...] = ({}, {}, {}, {}, {}, {})
        self.last_id = 0
        self.resharded = False

    def teardown(self):
        if self.tx is not None:
            self.db.rollback(self.tx)
        self.db.close()

    def _expected_point(self, key):
        return [self.model[key]] if key in self.model else []

    # -- mutations ----------------------------------------------------------

    @rule(key=KEYS, value=st.one_of(st.none(), VALUES),
          tag=st.sampled_from(["a", "b", "c"]))
    def insert(self, key, value, tag):
        row = {"k": key, "v": value, "tag": tag}
        if key in self.model:
            with pytest.raises(IntegrityError):
                self.db.execute(Insert("t", row), tx=self.tx)
        else:
            self.db.execute(Insert("t", row), tx=self.tx)
            self.model[key] = row

    @rule(key=KEYS, value=VALUES)
    def update(self, key, value):
        affected = self.db.execute(
            Update("t", {"v": value}, Comparison("k", "=", key)), tx=self.tx
        )
        if key in self.model:
            assert affected == 1
            self.model[key] = {**self.model[key], "v": value}
        else:
            assert affected == 0

    @rule(key=KEYS)
    def delete(self, key):
        affected = self.db.execute(
            Delete("t", Comparison("k", "=", key)), tx=self.tx
        )
        assert affected == (1 if key in self.model else 0)
        self.model.pop(key, None)

    @rule(key=KEYS, value=VALUES)
    def batch_of_a_write_and_its_read(self, key, value):
        """One round trip, statement order kept, each result exactly
        what ``execute`` would have returned."""
        point = Select("t", where=Comparison("k", "=", key))
        results = self.db.execute_batch(
            [Update("t", {"v": value}, Comparison("k", "=", key)), point],
            tx=self.tx,
        )
        if key in self.model:
            self.model[key] = {**self.model[key], "v": value}
        assert results == [len(self._expected_point(key)),
                           self._expected_point(key)]
        assert results[1] == self.db.execute(point, tx=self.tx)

    # -- a table placed by a column that is not its key, and its child -----

    def _children_of(self, event_ids) -> list[dict]:
        return sorted((row for row in self.children.values()
                       if row["e_id"] in event_ids),
                      key=lambda row: row["cid"])

    @rule(event_id=EVENT_IDS, label=st.sampled_from(["x", "y"]))
    def insert_event(self, event_id, label):
        row = {"id": event_id, "at": _at(event_id), "label": label,
               "item": f"e:{event_id}"}
        if event_id in self.events:
            with pytest.raises(IntegrityError):
                self.db.execute(Insert("e", row), tx=self.tx)
        else:
            self.db.execute(Insert("e", row), tx=self.tx)
            self.events[event_id] = row

    @rule(child_id=CHILD_IDS, note=st.sampled_from(["p", "q"]))
    def insert_child(self, child_id, note):
        """Lands on its parent's shard, found by key; an orphan or a
        repeated key is refused as one node would refuse it."""
        row = {"cid": child_id, "e_id": _parent_of(child_id), "note": note,
               "item": f"c:{child_id}"}
        if child_id in self.children or row["e_id"] not in self.events:
            with pytest.raises(IntegrityError):
                self.db.execute(Insert("c", row), tx=self.tx)
        else:
            self.db.execute(Insert("c", row), tx=self.tx)
            self.children[child_id] = row

    @rule(event_id=EVENT_IDS)
    def delete_event_by_key(self, event_id):
        delete = Delete("e", Comparison("id", "=", event_id))
        if self._children_of({event_id}):
            with pytest.raises(IntegrityError):      # restrict
                self.db.execute(delete, tx=self.tx)
            return
        affected = self.db.execute(delete, tx=self.tx)
        assert affected == (1 if event_id in self.events else 0)
        self.events.pop(event_id, None)

    @rule(event_id=EVENT_IDS)
    def delete_children_by_parent_key(self, event_id):
        gone = self._children_of({event_id})
        affected = self.db.execute(
            Delete("c", Comparison("e_id", "=", event_id)), tx=self.tx)
        assert affected == len(gone)
        for row in gone:
            del self.children[row["cid"]]

    @rule(event_id=EVENT_IDS, label=st.sampled_from(["x", "y", "z"]))
    def update_event_by_key(self, event_id, label):
        affected = self.db.execute(
            Update("e", {"label": label}, Comparison("id", "=", event_id)),
            tx=self.tx)
        assert affected == (1 if event_id in self.events else 0)
        if event_id in self.events:
            self.events[event_id] = {**self.events[event_id], "label": label}

    @rule(event_id=EVENT_IDS)
    def reads_by_key(self, event_id):
        """Point, child and count reads, all selected by the parent key."""
        by_id = Comparison("id", "=", event_id)
        by_parent = Comparison("e_id", "=", event_id)
        results = self.db.execute_batch([
            Select("e", where=by_id),
            Select("e", where=by_id, aggregates=[Aggregate("count", "*", "n")]),
            Select("c", where=by_parent, order_by=[("cid", "asc")]),
            Select("c", where=by_parent,
                   aggregates=[Aggregate("count", "*", "n")]),
        ], tx=self.tx)
        event = [self.events[event_id]] if event_id in self.events else []
        children = self._children_of({event_id})
        assert results == [event, [{"n": len(event)}],
                           children, [{"n": len(children)}]]

    @rule(event_ids=st.lists(EVENT_IDS, min_size=0, max_size=5))
    def in_list_reads_by_key(self, event_ids):
        events = self.db.execute(
            Select("e", where=In("id", event_ids), order_by=[("id", "desc")]),
            tx=self.tx)
        assert events == sorted(
            (self.events[key] for key in set(event_ids) if key in self.events),
            key=lambda row: -row["id"])
        children = self._children_of(set(event_ids))
        assert self.db.execute(
            Select("c", where=In("e_id", event_ids),
                   order_by=[("cid", "asc")], limit=3, offset=1),
            tx=self.tx) == children[1:4]
        assert self.db.execute(
            Select("c", where=In("e_id", event_ids),
                   aggregates=[Aggregate("count", "*", "n")]),
            tx=self.tx) == [{"n": len(children)}]

    @rule(key=KEYS, event_id=EVENT_IDS,
          event_ids=st.lists(EVENT_IDS, min_size=0, max_size=4),
          low=st.integers(min_value=0, max_value=31),
          span=st.integers(min_value=0, max_value=20),
          limit=st.sampled_from([None, 1, 3]))
    def execute_batch_of_reads(self, key, event_id, event_ids, low, span,
                               limit):
        """A point, a parent-key, an IN-list and a range read in one
        batch, inside a transaction and outside: each what ``execute``
        returns.  The sharded builds send each shard its share of the
        batch at once, the replicated ones answer it from one copy."""
        in_range = sorted(
            (row for row in self.events.values()
             if low <= row["at"] <= low + span),
            key=lambda row: (-row["at"], row["id"]))
        stop = None if limit is None else 1 + limit
        statements = [
            Select("t", where=Comparison("k", "=", key)),
            Select("c", where=Comparison("e_id", "=", event_id),
                   order_by=[("cid", "asc")]),
            Select("e", where=In("id", event_ids), order_by=[("id", "asc")]),
            Select("e", where=Between("at", low, low + span),
                   order_by=[("at", "desc"), ("id", "asc")],
                   limit=limit, offset=1),
            Select("t", order_by=[("k", "desc")], limit=limit),
        ]
        expected = [
            self._expected_point(key),
            self._children_of({event_id}),
            sorted((self.events[key] for key in set(event_ids)
                    if key in self.events), key=lambda row: row["id"]),
            in_range[1:stop],
            sorted(self.model.values(),
                   key=lambda row: -row["k"])[:limit],
        ]
        results = self.db.execute_batch(statements, tx=self.tx)
        assert results == expected
        assert results == [self.db.execute(statement, tx=self.tx)
                           for statement in statements]

    @rule(event_id=EVENT_IDS, span=st.integers(min_value=0, max_value=8))
    def reads_bound_to_an_earlier_row(self, event_id, span):
        """Reads bound on the database side to the row of the batch's
        first statement (by parent key, by key, by a range around it)
        and to an aggregate's NULL, with and without ``if_null``; all of
        them ``[]``, unexecuted, when the first statement finds nothing.
        Afterwards each statement that ran holds what it ran with."""
        by_event = Comparison("e_id", "=", Ref(0, "id"))
        statements = [
            Select("e", where=Comparison("id", "=", event_id)),
            Select("c", where=by_event, order_by=[("cid", "asc")]),
            Select("e", where=Comparison("id", "=", Ref(0, "id"))),
            Select("e", where=Between("at", Ref(0, "at", shift=-span),
                                      Ref(0, "at", shift=span)),
                   order_by=[("at", "asc"), ("id", "asc")]),
            Select("c", where=by_event, aggregates=[Aggregate("max", "cid", "top")]),
            Select("c", where=Comparison("cid", "=", Ref(4, "top"))),
            Select("c", where=Comparison("cid", ">=", Ref(4, "top", if_null=0)),
                   order_by=[("cid", "asc")]),
        ]
        executed = _executed(self.db)
        results = self.db.execute_batch(statements, tx=self.tx)
        event = self.events.get(event_id)
        if event is None:
            assert results == [[]] * len(statements)
            assert _executed(self.db) == executed + 1
            with pytest.raises(QueryError):     # still holds its reference
                self.db.execute(statements[1], tx=self.tx)
            return
        # Each statement is left as it ran: replayed alone, the same rows.
        assert results == [self.db.execute(statement, tx=self.tx)
                           for statement in statements]
        children = self._children_of({event_id})
        top = children[-1]["cid"] if children else None
        assert results == [
            [event], children, [event],
            sorted((row for row in self.events.values()
                    if abs(row["at"] - event["at"]) <= span),
                   key=lambda row: (row["at"], row["id"])),
            [{"top": top}],
            children[-1:],
            [row for row in sorted(self.children.values(), key=lambda row: row["cid"])
             if row["cid"] >= (top or 0)],
        ]

    # -- a table whose rows follow their item -------------------------------

    def _locs_of(self, items) -> list[dict]:
        return sorted((row for row in self.locs.values()
                       if row["item"] in items), key=lambda row: row["ref"])

    def _owner_shard(self, item: str) -> Optional[int]:
        """The shard holding the item's owner now, if it has one."""
        kind, number = item.split(":")
        if kind == "c" and int(number) in self.children:
            kind, number = "e", _parent_of(int(number))
        if kind == "e" and int(number) in self.events:
            return self.db.shard_map.spec_for_value(_at(int(number))).shard_id
        return None

    @rule(ref=LOC_REFS, note=st.sampled_from(["m", "n"]))
    def insert_loc(self, ref, note):
        """Goes to its item's owner: present, absent (then, and whenever
        the owner is created later, in this transaction or another, the
        row is still found), or never there.  Keys are unique per shard,
        so a ref in use is left alone."""
        if ref in self.locs:
            return
        row = {"ref": ref, "item": _item_of(ref), "note": note}
        if self.build.shard:
            self.loc_home[ref] = self._owner_shard(row["item"])
        self.db.execute(Insert("loc", row), tx=self.tx)
        self.locs[ref] = row

    @rule(item=ITEMS, note=st.sampled_from(["m", "n", "o"]))
    def update_locs_by_item(self, item, note):
        affected = self.db.execute(
            Update("loc", {"note": note}, Comparison("item", "=", item)),
            tx=self.tx)
        hit = self._locs_of({item})
        assert affected == len(hit)
        for row in hit:
            self.locs[row["ref"]] = {**row, "note": note}

    @rule(item=ITEMS)
    def delete_locs_by_item(self, item):
        gone = self._locs_of({item})
        affected = self.db.execute(
            Delete("loc", Comparison("item", "=", item)), tx=self.tx)
        assert affected == len(gone)
        for row in gone:
            del self.locs[row["ref"]]
            self.loc_home.pop(row["ref"], None)

    @rule(items=st.lists(ITEMS, min_size=0, max_size=4))
    def reads_by_item(self, items):
        """By one item, by an IN list, and with no filter at all: each
        row once, whichever shard holds it."""
        by_ref = [("ref", "asc")]
        count = [Aggregate("count", "*", "n")]
        statements = [Select("loc", where=In("item", items), order_by=by_ref),
                      Select("loc", where=In("item", items), aggregates=count),
                      Select("loc", order_by=by_ref, limit=5),
                      Select("loc", aggregates=count)]
        expected = [self._locs_of(set(items)),
                    [{"n": len(self._locs_of(set(items)))}],
                    sorted(self.locs.values(), key=lambda row: row["ref"])[:5],
                    [{"n": len(self.locs)}]]
        for item in items[:2]:
            where = Comparison("item", "=", item)
            statements += [Select("loc", where=where, order_by=by_ref),
                           Select("loc", where=where, aggregates=count)]
            expected += [self._locs_of({item}),
                         [{"n": len(self._locs_of({item}))}]]
        assert self.db.execute_batch(statements, tx=self.tx) == expected

    # -- a broadcast table ----------------------------------------------------

    @rule(note_id=st.integers(min_value=0, max_value=5),
          text=st.sampled_from(["r", "s"]))
    def insert_note(self, note_id, text):
        row = {"note_id": note_id, "text": text}
        if note_id in self.notes:
            with pytest.raises(IntegrityError):
                self.db.execute(Insert("notes", row), tx=self.tx)
        else:
            self.db.execute(Insert("notes", row), tx=self.tx)
            self.notes[note_id] = row

    @rule()
    def notes_from_every_copy(self):
        """A broadcast read is answered by one shard or copy in turn:
        asked as often as there can be shards, each copy answers."""
        expected = sorted(self.notes.values(), key=lambda row: row["note_id"])
        for _ in range(MAX_SHARDS):
            assert self.db.execute(Select("notes", order_by=[("note_id", "asc")]),
                                   tx=self.tx) == expected

    # -- transactions ---------------------------------------------------------

    def _snapshot(self) -> tuple[dict, ...]:
        return (*({key: dict(row) for key, row in table.items()}
                  for table in (self.model, self.events, self.children,
                                self.locs, self.notes)),
                dict(self.loc_home))

    @precondition(lambda self: self.tx is None)
    @rule()
    def begin(self):
        self.tx = self.db.begin()
        self.tx_shadow = self._snapshot()

    @precondition(lambda self: self.tx is not None)
    @rule()
    def commit(self):
        self.db.commit(self.tx)
        self.tx = None

    @precondition(lambda self: self.tx is not None)
    @rule()
    def rollback(self):
        self.db.rollback(self.tx)
        (self.model, self.events, self.children, self.locs, self.notes,
         self.loc_home) = self.tx_shadow
        self.tx = None

    @rule()
    def allocate_id(self):
        """Strictly increasing whatever the transactions around it do."""
        allocated = self.db.allocate_id("t", "k")
        assert allocated > self.last_id
        self.last_id = allocated

    # -- topology changes -----------------------------------------------------

    def _reshard(self, change) -> None:
        """Run ``change`` (a split or a rebalance).  No row changes; a
        ``loc`` row of the shard that split is expected where its item's
        owner is now, or on the low half when the owner is gone."""
        before = {spec.shard_id for spec in self.db.shard_map}
        if change() is None:
            return
        after = {spec.shard_id for spec in self.db.shard_map}
        (gone,) = before - after
        low = min(after - before)
        for ref, home in self.loc_home.items():
            if home == gone:
                owner = self._owner_shard(self.locs[ref]["item"])
                self.loc_home[ref] = low if owner is None else owner
        self.resharded = True

    @precondition(lambda self: self.build.name in RESHARDABLE
                  and self.tx is None and len(self.db.shard_map) < MAX_SHARDS)
    @rule(data=st.data())
    def split(self, data):
        """At a point strictly inside one shard's range."""
        shard_map = self.db.shard_map
        points = [half / 2 for half in range(-2, 66)
                  if shard_map.spec_for_value(half / 2).low != half / 2]
        at = data.draw(st.sampled_from(points), label="at")
        shard_id = shard_map.spec_for_value(at).shard_id
        self._reshard(lambda: self.db.split(shard_id, at))

    @precondition(lambda self: self.build.name in RESHARDABLE
                  and self.tx is None and len(self.db.shard_map) < MAX_SHARDS)
    @rule(table=st.sampled_from([None, "t", "e"]))
    def rebalance(self, table):
        self._reshard(lambda: self.db.rebalance(table))

    @invariant()
    def every_copy_agrees_after_a_split(self):
        if not (self.resharded and self.build.replication):
            return
        self.resharded = False
        for spec in self.db.shard_map:
            group = self.db.shard_db(spec.shard_id)
            assert len(group.replicas) == self.db.replicas_per_shard - 1
            assert group.verify() == {replica.name: {}
                                      for replica in group.replicas}

    # -- durability -----------------------------------------------------------

    @precondition(lambda self: self.build.persistent and self.tx is None)
    @rule(checkpoint=st.booleans())
    def close_and_reopen(self, checkpoint):
        """From a snapshot or from the journal alone, the same rows."""
        if checkpoint:
            self.db.checkpoint()
        self.db.close()
        self.db = self.build.open(self.path)
        self.last_id = 0    # a sequence re-seeds above the highest stored id

    # -- queries agree with the model ------------------------------------------

    @rule(key=KEYS)
    def point_query(self, key):
        rows = self.db.execute(Select("t", where=Comparison("k", "=", key)),
                               tx=self.tx)
        assert rows == self._expected_point(key)

    @rule(low=VALUES, high=VALUES)
    def range_query(self, low, high):
        low, high = min(low, high), max(low, high)
        rows = self.db.execute(
            Select("t", where=Between("v", low, high), order_by=[("k", "asc")]),
            tx=self.tx,
        )
        expected = sorted(
            (row for row in self.model.values()
             if row["v"] is not None and low <= row["v"] <= high),
            key=lambda row: row["k"],
        )
        assert rows == expected

    @rule(direction=st.sampled_from(["asc", "desc"]),
          limit=st.sampled_from([None, 1, 4]), below=st.one_of(st.none(), KEYS))
    def ordered_by_v(self, direction, limit, below):
        """``ORDER BY v``, which ``v``'s ordered index answers: NULLS LAST
        both ways.  The ``v`` sequence always, and the rows too when no
        LIMIT cuts a run of ties."""
        where = None if below is None else Comparison("k", "<", below)
        rows = self.db.execute(
            Select("t", where=where, order_by=[("v", direction)], limit=limit),
            tx=self.tx)
        expected = [row for row in self.model.values()
                    if below is None or row["k"] < below]
        values = sorted((row["v"] for row in expected if row["v"] is not None),
                        reverse=direction == "desc")
        values += [None] * (len(expected) - len(values))
        assert [row["v"] for row in rows] == values[:limit]
        if limit is None:
            assert sorted(rows, key=lambda row: row["k"]) == \
                sorted(expected, key=lambda row: row["k"])

    @rule(grouped=st.booleans(), limit=st.sampled_from([None, 0, 1, 2]),
          order=st.sampled_from([None, ("n", "desc"), ("s", "asc"), ("a", "desc"),
                                 ("lo", "asc"), ("tag", "desc")]))
    def aggregated(self, grouped, limit, order):
        """COUNT(*), and COUNT, SUM, AVG, MIN and MAX of ``v``, over the
        table or by ``tag``, ordered by an alias or by ``tag`` (NULLS
        LAST, ties in group order) and cut: AVG close, the rest equal."""
        grouped = grouped or (order is not None and order[0] == "tag")
        aggregates = [Aggregate("count", "*", "n"), Aggregate("count", "v", "c"),
                      Aggregate("sum", "v", "s"), Aggregate("avg", "v", "a"),
                      Aggregate("min", "v", "lo"), Aggregate("max", "v", "hi")]
        rows = self.db.execute(Select(
            "t", group_by=["tag"] if grouped else [], aggregates=aggregates,
            order_by=[order] if order else [], limit=limit), tx=self.tx)
        groups: dict = {} if grouped else {None: []}
        for row in self.model.values():
            groups.setdefault(row["tag"] if grouped else None, []).append(row)
        expected = []
        for tag in sorted(groups, key=repr):
            values = [row["v"] for row in groups[tag] if row["v"] is not None]
            expected.append({
                **({"tag": tag} if grouped else {}),
                "n": len(groups[tag]), "c": len(values),
                "s": sum(values) if values else None,
                "a": sum(values) / len(values) if values else None,
                "lo": min(values, default=None), "hi": max(values, default=None)})
        if order is not None:
            column, direction = order
            present = sorted((row for row in expected if row[column] is not None),
                             key=lambda row: row[column], reverse=direction == "desc")
            expected = present + [row for row in expected if row[column] is None]
        expected = expected[:limit]
        assert [{**row, "a": None} for row in rows] == \
            [{**row, "a": None} for row in expected]
        for row, want in zip(rows, expected):
            assert (row["a"] is None) == (want["a"] is None)
            assert want["a"] is None or math.isclose(row["a"], want["a"])

    @rule(op=st.sampled_from(["<", "<=", ">", ">=", "="]), between=st.booleans())
    def mistyped(self, op, between):
        """A range on ``v`` with a str literal matches nothing, as a
        comparison between types that do not compare is false; SUM of the
        TEXT column ``tag`` is a QueryError, rows or no rows."""
        where = Between("v", "a", "z") if between else Comparison("v", op, "x")
        assert self.db.execute(Select("t", where=where), tx=self.tx) == []
        with pytest.raises(QueryError):
            self.db.execute(Select("t", aggregates=[Aggregate("sum", "tag", "x")]),
                            tx=self.tx)

    @rule(keys=st.lists(KEYS, min_size=2, max_size=4))
    def batch_of_reads(self, keys):
        statements = [Select("t", where=Comparison("k", "=", key))
                      for key in keys]
        statements.append(Select("t", aggregates=[Aggregate("count", "*", "n")]))
        results = self.db.execute_batch(statements, tx=self.tx)
        assert results == [*(self._expected_point(key) for key in keys),
                           [{"n": len(self.model)}]]

    @invariant()
    def count_agrees(self):
        rows = self.db.execute(Select("t"), tx=self.tx)
        assert len(rows) == len(self.model)
        count = [Aggregate("count", "*", "n")]
        assert self.db.execute_batch(
            [Select("e", aggregates=count), Select("c", aggregates=count)],
            tx=self.tx,
        ) == [[{"n": len(self.events)}], [{"n": len(self.children)}]]

    @invariant()
    def a_following_row_is_held_once_and_with_its_owner(self):
        """Each ``loc`` row on exactly one shard, and that shard its
        owner's when the owner was there first."""
        rows = self.db.execute(Select("loc"), tx=self.tx)
        assert sorted(row["ref"] for row in rows) == sorted(self.locs)
        if not self.build.shard:
            return
        for ref in self.locs:
            holders = [spec.shard_id for spec in self.db.shard_map
                       if self.db.shard_db(spec.shard_id).holds("loc", "ref", ref)]
            assert len(holders) == 1, (ref, holders)
            if self.loc_home[ref] is not None:
                assert holders == [self.loc_home[ref]], ref


@every_build
def test_random_statements_agree_with_a_dict_model(build, tmp_path):
    run_state_machine_as_test(
        lambda: ContractMachine(build, tmp_path),
        settings=settings(max_examples=40, stateful_step_count=40,
                          deadline=None),
    )


# -- the named cases ---------------------------------------------------------

@pytest.fixture()
def opened(build, tmp_path):
    db, _path = _fresh(build, tmp_path)
    yield db
    db.close()


@every_build
def test_satisfies_the_protocol(build, opened):
    assert isinstance(opened, DatabaseApi)
    # Python 3.12's isinstance() finds protocol members statically, so a
    # ``__getattr__`` forwarder does not count there; hold every Python
    # to that stricter reading.
    members = [name for name in vars(DatabaseApi) if not name.startswith("_")]
    assert {"name", "execute_batch", "describe", "close"} <= set(members)
    for member in members:
        inspect.getattr_static(opened, member)
    assert opened.name == "c"
    assert isinstance(opened.obs, Observability)


@every_build
def test_a_transaction_reads_its_own_writes(build, opened):
    """On a partitioned and on a broadcast table, however the reads
    rotate: uncommitted rows are visible through ``tx=`` only where the
    transaction lives, and gone from everywhere after a rollback."""
    row = {"k": 20, "v": 1, "tag": "a"}
    note = {"note_id": 1, "text": "uncommitted"}
    tx = opened.begin()
    opened.execute(Insert("t", row), tx=tx)
    opened.execute(Insert("notes", note), tx=tx)
    for _copy in range(6):
        assert opened.execute(Select("t"), tx=tx) == [row]
        assert opened.execute(Select("notes"), tx=tx) == [note]
    assert opened.execute_batch([Select("t"), Select("notes")], tx=tx) == [
        [row], [note]]
    opened.rollback(tx)
    for _copy in range(6):
        assert opened.execute(Select("t")) == []
        assert opened.execute(Select("notes")) == []


@every_build
def test_a_committed_transaction_is_read_from_every_copy(build, opened):
    row = {"k": 3, "v": 7, "tag": "b"}
    tx = opened.begin()
    opened.execute(Insert("t", row), tx=tx)
    opened.commit(tx)
    selects, rows_read = opened.stats.selects, opened.stats.rows_read
    for _copy in range(6):
        assert opened.execute("SELECT * FROM t WHERE k = 3") == [row]
    assert opened.stats.selects == selects + 6
    assert opened.stats.rows_read == rows_read + 6
    assert opened.execute_batch([]) == []


@every_build
def test_a_left_outer_join_reads_like_the_plain_database(build, opened):
    """A broadcast right side under a partitioned and under a following
    left side, the shape of name construction (``loc_files`` to
    ``loc_archives``): every left row comes back, alone where nothing
    matches, with ORDER BY/LIMIT and aggregates computed on top."""
    model = Database(name="model")
    _create_tables(model)
    rows = [Insert("notes", {"note_id": n, "text": f"note {n}"}) for n in (1, 2, 3)]
    # v: a match, a miss, NULL; k spread over all four shards.
    rows += [Insert("t", {"k": k, "v": v, "tag": "a" if k % 2 else "b"})
             for k, v in ((0, 1), (5, 9), (9, None), (13, 2), (18, 1),
                          (22, None), (27, 3), (30, 7))]
    rows += [Insert("e", {"id": n, "at": _at(n), "label": None, "item": f"e:{n}"})
             for n in range(4)]
    rows += [Insert("loc", {"ref": ref, "item": _item_of(ref), "note": None})
             for ref in (0, 1, 2, 3, 4, 8, 12, 40)]
    for database in (model, opened):
        for statement in rows:
            database.execute(statement)

    to_notes = Join("notes", "v", "note_id", outer=True)
    from_loc = Join("notes", "ref", "note_id", outer=True)
    count = [Aggregate("count", "*", "n"), Aggregate("count", "text", "matched")]
    ordered = [
        Select("t", join=to_notes, order_by=[("k", "asc")]),
        Select("t", join=to_notes, order_by=[("text", "desc"), ("k", "asc")],
               limit=5, offset=1),
        Select("t", join=to_notes, where=Comparison("k", ">=", 9),
               columns=["k", "tag"], order_by=[("k", "desc")], limit=3),
        Select("t", join=to_notes, aggregates=count),
        Select("t", join=to_notes, aggregates=count, group_by=["tag"]),
        Select("t", join=to_notes, where=Comparison("v", "=", 9), aggregates=count),
        Select("loc", join=from_loc, order_by=[("ref", "asc")]),
        Select("loc", join=from_loc, where=Comparison("item", "=", "e:0"),
               order_by=[("ref", "asc")]),
        Select("loc", join=from_loc, where=In("item", ["e:1", "e:3", "x:0"]),
               aggregates=count),
        Select("loc", join=from_loc, where=Comparison("item", "=", "e:9")),
    ]
    for select in ordered:
        assert opened.execute(select) == model.execute(select), select
    # Without an ORDER BY the rows are the model's in some order.
    for select in (Select("t", join=to_notes),
                   Select("loc", join=from_loc, where=In("item", ["e:0", "e:2"]))):
        key = "k" if select.table == "t" else "ref"
        assert sorted(opened.execute(select), key=lambda row: row[key]) == \
            sorted(model.execute(select), key=lambda row: row[key])
    everything = model.execute(ordered[0])
    assert len(everything) == 8 and sum("text" in row for row in everything) == 4
    # What the inner form of the same statement drops.
    inner = model.execute(Select("t", join=Join("notes", "v", "note_id")))
    assert len(inner) == 4
    model.close()


@every_build
def test_a_malformed_reference_is_refused_before_anything_runs(build, opened):
    """A reference to itself, to a later statement, past either end of
    the batch or to a statement that is not a SELECT, and one handed to
    plain ``execute``: a ``QueryError``, with nothing run."""
    event = {"id": 1, "at": 3, "label": "x", "item": "e:1"}
    opened.execute(Insert("e", event))
    point = Select("e", where=Comparison("id", "=", 1))

    def bound_to(index: int) -> Select:
        return Select("c", where=Comparison("e_id", "=", Ref(index, "id")))

    insert = Insert("notes", {"note_id": 1, "text": "never"})
    for batch in ([point, bound_to(2), point], [bound_to(0)],
                  [point, bound_to(-1)], [point, bound_to(7)],
                  [insert, bound_to(0)]):
        selects = opened.stats.selects
        with pytest.raises(QueryError):
            opened.execute_batch(batch)
        assert opened.stats.selects == selects
    for statement in (bound_to(0), Select("e", where=Comparison("id", "=", Ref(0, "id"))),
                      Select("e", where=Between("at", Ref(0, "at"), 9)),
                      Select("notes", where=Comparison("note_id", ">", Ref(0, "id"))),
                      Select("t", where=Comparison("tag", "=", Ref(0, "item")))):
        selects = opened.stats.selects
        with pytest.raises(QueryError, match="unresolved"):
            opened.execute(statement)
        assert opened.stats.selects == selects
    assert opened.execute(Select("notes")) == []
    assert opened.execute_batch([point, bound_to(0)]) == [[event], []]


@every_build
def test_a_bound_value_is_checked_like_a_literal(build, opened):
    """NaN and bytes may be stored but not bound: a reference that
    resolves to one fails as the literal fails in ``bind``."""
    opened.create_table(TableSchema(
        "blobs", [Column("id", ColumnType.INTEGER, nullable=False),
                  Column("data", ColumnType.BLOB), Column("x", ColumnType.REAL)],
        primary_key="id"))
    opened.execute(Insert("blobs", {"id": 1, "data": b"\x00", "x": float("nan")}))
    template = prepare("SELECT * FROM t WHERE v = ?")
    for column, value in (("data", b"\x00"), ("x", float("nan"))):
        with pytest.raises(QueryError) as literal:
            template.bind([value])
        by_id = Select("t", where=Comparison("k", "=", Ref(0, "id")))
        with pytest.raises(QueryError) as bound:
            opened.execute_batch([
                Select("blobs"), by_id,
                Select("t", where=Comparison("v", "=", Ref(0, column)))])
        assert str(bound.value) == str(literal.value)
        # The batch failed: what it had bound holds its reference again.
        assert type(by_id.where.value) is Ref


@every_build
def test_ddl_round_trip(build, opened):
    assert opened.has_table("notes") and not opened.has_table("scratch")
    opened.create_table(TableSchema(
        "scratch", [Column("id", ColumnType.INTEGER, nullable=False)],
        primary_key="id"))
    assert opened.has_table("scratch")
    assert opened.table_names() == ["c", "e", "loc", "notes", "scratch", "t"]
    assert opened.table("scratch").schema.primary_key == "id"
    opened.execute(Insert("scratch", {"id": 1}))
    assert opened.execute(Select("scratch")) == [{"id": 1}]
    opened.drop_table("scratch")
    assert not opened.has_table("scratch")
    assert opened.table_names() == ["c", "e", "loc", "notes", "t"]


@every_build
def test_explain_plan_names_the_table(build, opened):
    plan = opened.explain_plan(Select("t", where=Comparison("k", "=", 1)))
    assert isinstance(plan, dict)
    assert plan["table"] == "t"
    assert plan["access"]


@every_build
def test_a_limit_no_slice_takes_is_a_query_error(build, opened):
    """A LIMIT or OFFSET past ``sys.maxsize`` is refused as a statement,
    not met by a slice's ``ValueError``; the largest LIMIT a slice takes
    returns every row, merged in order across shards."""
    for k in range(4):
        opened.execute(Insert("t", {"k": 9 * k, "v": k, "tag": "a"}))
    for sql in ("SELECT * FROM t LIMIT 99999999999999999999",
                "SELECT * FROM t ORDER BY v DESC LIMIT 5 OFFSET 99999999999999999999"):
        with pytest.raises(QueryError):
            opened.execute(sql)
    with pytest.raises(QueryError):
        opened.execute(Select("t", limit=sys.maxsize + 1))
    assert len(opened.execute(f"SELECT * FROM t LIMIT {sys.maxsize}")) == 4
    ordered = opened.execute(f"SELECT v FROM t ORDER BY v DESC LIMIT {sys.maxsize}")
    assert [row["v"] for row in ordered] == [3, 2, 1, 0]


@every_build
def test_explain_plan_splits_the_where(build, opened):
    """``index_cond`` is what the access path enforces, ``filter`` what
    the matcher still tests, as SQL text, on every implementation."""
    plan = opened.explain_plan(Select("t", where=Comparison("k", "=", 1)))
    assert (plan["index_cond"], plan["filter"]) == (["k = 1"], [])
    plan = opened.explain_plan(Select("t", where=And([
        Between("v", 1, 3), Comparison("tag", "=", "a")])))
    assert (plan["access"], plan["index_cond"], plan["filter"]) == \
        ("range_scan", ["v BETWEEN 1 AND 3"], ["tag = 'a'"])


@every_build
def test_an_explain_statement_answers_explain_plan(build, opened):
    """``execute`` of an EXPLAIN is the one-element list of what
    ``explain_plan`` says, on every implementation."""
    select = Select("t", where=Comparison("k", "=", 1))
    assert opened.execute(Explain(select)) == [opened.explain_plan(select)]
    assert "cached_plan" in opened.execute("EXPLAIN SELECT * FROM t WHERE k = 1")[0]


@every_build
def test_describe_reports_exactly_the_layers_present(build, opened):
    opened.execute(Insert("t", {"k": 1, "v": 1, "tag": "a"}))
    report = opened.describe()
    assert set(report) == {"kind", "name", "stats", "shard", "replication"}
    assert report["name"] == "c"
    assert report["stats"] == opened.stats.snapshot()
    assert (report["shard"] is not None) == build.shard
    assert (report["replication"] is not None) == build.replication
    assert json.loads(json.dumps(report))["kind"] == report["kind"]


# -- a SELECT * row is a read-only snapshot of the stored row -----------------

def _copies(db) -> list[Database]:
    """Every ``Database`` under ``db`` that answers reads: a group's
    primary and followers, each shard's copies."""
    if isinstance(db, Database):
        return [db]
    if isinstance(db, ReplicaGroup):
        return [db.primary, *(replica.db for replica in db.replicas)]
    return [copy for spec in db.shard_map
            for copy in _copies(db.shard_db(spec.shard_id))]


def _groups_with_followers(db) -> list[ReplicaGroup]:
    groups = [db] if isinstance(db, ReplicaGroup) else [
        db.shard_db(spec.shard_id) for spec in db.shard_map
    ] if isinstance(db, ShardedDatabase) else []
    return [group for group in groups
            if isinstance(group, ReplicaGroup) and group.replicas]


@every_build
def test_a_select_star_row_is_read_only(build, opened):
    """Whichever path served it (probe, scan, walk, IN list, SQL text,
    batch, merge), no caller can change a stored row through a row it
    was handed."""
    for k in range(0, 32, 3):
        opened.execute(Insert("t", {"k": k, "v": k % 5, "tag": "a"}))
    results = [
        opened.execute(Select("t")),
        opened.execute(Select("t", where=Comparison("k", "=", 9))),
        opened.execute(Select("t", where=Between("v", 1, 3),
                              order_by=[("v", "desc")], limit=4)),
        opened.execute("SELECT * FROM t WHERE k IN (3, 27)"),
        *opened.execute_batch([Select("t", order_by=[("k", "asc")],
                                      limit=5, offset=2)]),
    ]
    for rows in results:
        assert rows
        for row in rows:
            with pytest.raises(TypeError):
                row["v"] = 99
            with pytest.raises(TypeError):
                del row["tag"]
    assert opened.execute(Select("t", where=Comparison("v", "=", 99))) == []
    assert all(len(row) == 3 for row in opened.execute(Select("t")))


@every_build
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_row_read_is_a_snapshot_of_the_stored_row(build, data):
    """Rows read through the database and from each copy before an
    UPDATE, a DELETE and a rollback, a reopen from the WAL, the shipping
    of those writes to the followers and an anti-entropy repair, and a
    split still equal what they were when read; a fresh read sees every
    change."""
    keys = data.draw(st.sets(KEYS, min_size=3, max_size=10), label="keys")
    model = {k: {"k": k, "v": k % 7, "tag": "a"} for k in sorted(keys)}
    updated, deleted = data.draw(st.permutations(sorted(keys)), label="order")[:2]
    everything = Select("t", order_by=[("k", "asc")])
    held: list[tuple[list, list[dict]]] = []

    def read(db) -> None:
        for source in (db, *_copies(db)):
            rows = source.execute(everything)
            held.append((rows, [dict(row) for row in rows]))

    def unchanged() -> None:
        for rows, as_read in held:
            assert rows == as_read

    with tempfile.TemporaryDirectory() as root:
        db, path = _fresh(build, Path(root))
        try:
            for row in model.values():
                db.execute(Insert("t", row))
            read(db)
            # Shipped to every follower of a replicated build as it commits.
            db.execute(Update("t", {"v": 100}, Comparison("k", "=", updated)))
            model[updated] = {**model[updated], "v": 100}
            unchanged()
            read(db)
            tx = db.begin()
            db.execute(Update("t", {"v": -1}, Comparison("k", "=", deleted)), tx=tx)
            db.execute(Delete("t", Comparison("k", "=", deleted)), tx=tx)
            db.rollback(tx)
            unchanged()
            db.execute(Delete("t", Comparison("k", "=", deleted)))
            del model[deleted]
            unchanged()
            read(db)
            for group in _groups_with_followers(db):
                follower = group.replicas[0].db
                follower.execute(Update("t", {"tag": "stray"}))
                read(db)
                group.repair()
                assert group.verify() == {replica.name: {}
                                          for replica in group.replicas}
                unchanged()
            if build.persistent:
                if data.draw(st.booleans(), label="checkpoint"):
                    db.checkpoint()
                db.close()
                db = build.open(path)
                unchanged()
                read(db)
            if build.shard:
                shard_map = db.shard_map
                at = data.draw(st.sampled_from(
                    [half / 2 for half in range(-2, 66)
                     if shard_map.spec_for_value(half / 2).low != half / 2]),
                    label="at")
                db.split(shard_map.spec_for_value(at).shard_id, at)
                unchanged()
            assert db.execute(everything) == list(model.values())
            for group in _groups_with_followers(db):
                rows = group.primary.execute(everything)
                assert all(follower.db.execute(everything) == rows
                           for follower in group.replicas)
        finally:
            db.close()


# -- a sharded transaction opens a shard's part when it first touches it -------

def _four_shards(**kwargs) -> ShardedDatabase:
    db = ShardedDatabase(FOUR_SHARDS, name="c", **kwargs)
    _create_tables(db)
    return db


def _shard_transactions(db: ShardedDatabase) -> dict[int, tuple[int, int]]:
    """(committed, rolled back) per shard, from each shard's own stats."""
    return {
        spec.shard_id: (
            db.shard_db(spec.shard_id).stats.transactions_committed,
            db.shard_db(spec.shard_id).stats.transactions_rolled_back)
        for spec in db.shard_map
    }


def _moved(before: dict, after: dict) -> dict:
    return {
        shard: (after[shard][0] - before[shard][0],
                after[shard][1] - before[shard][1])
        for shard in after if after[shard] != before[shard]
    }


@pytest.mark.parametrize("copies", [1, 2])
def test_a_transaction_commits_only_on_the_shards_it_touched(copies):
    db = _four_shards(replicas_per_shard=copies)
    begins = []
    for spec in db.shard_map:
        shard = db.shard_db(spec.shard_id)
        shard.begin = (lambda inner=shard.begin, shard_id=spec.shard_id:
                       begins.append(shard_id) or inner())
    before = _shard_transactions(db)

    # No statement: no shard hears of it.
    tx = db.begin()
    assert db._in_flight == 1 and tx.parts == {}
    db.commit(tx)
    assert begins == [] and _shard_transactions(db) == before
    assert db._in_flight == 0

    # One write, one shard (k=20 lives on shard 2), then a read of the
    # same key inside the transaction: still that shard alone.
    tx = db.begin()
    db.execute(Insert("t", {"k": 20, "v": 1, "tag": "a"}), tx=tx)
    assert db.execute(Select("t", where=Comparison("k", "=", 20)), tx=tx) \
        == [{"k": 20, "v": 1, "tag": "a"}]
    db.commit(tx)
    assert begins == [2]
    assert _moved(before, _shard_transactions(db)) == {2: (1, 0)}
    assert db._in_flight == 0

    # Autocommit is the same object: a by-key write opens one part (the
    # row with id 3 is placed by at=21, on shard 2), a broadcast write four.
    begins.clear()
    before = _shard_transactions(db)
    db.execute(Insert("e", {"id": 3, "at": _at(3), "label": "x", "item": "e:3"}))
    db.execute(Insert("c", {"cid": 3, "e_id": 3, "note": "p", "item": "c:3"}))
    assert db.execute(Update("e", {"label": "y"}, Comparison("id", "=", 3))) == 1
    assert db.execute(Delete("c", Comparison("e_id", "=", 3))) == 1
    assert begins == [2, 2, 2, 2]
    assert _moved(before, _shard_transactions(db)) == {2: (4, 0)}
    begins.clear()
    db.execute(Insert("notes", {"note_id": 1, "text": "everywhere"}))
    assert sorted(begins) == [0, 1, 2, 3]
    assert db._in_flight == 0
    db.close()


def test_a_failed_statement_rolls_back_every_part_it_opened():
    db = _four_shards()
    db.execute(Insert("t", {"k": 1, "v": 1, "tag": "a"}))     # shard 0
    before = _shard_transactions(db)
    tx = db.begin()
    db.execute(Insert("t", {"k": 9, "v": 1, "tag": "a"}), tx=tx)    # shard 1
    db.execute(Insert("t", {"k": 30, "v": 1, "tag": "a"}), tx=tx)   # shard 3
    with pytest.raises(IntegrityError):
        db.execute(Insert("t", {"k": 1, "v": 2, "tag": "b"}), tx=tx)
    assert set(tx.parts) == {0, 1, 3}
    db.rollback(tx)
    assert _moved(before, _shard_transactions(db)) == {
        0: (0, 1), 1: (0, 1), 3: (0, 1)}
    assert db.execute(Select("t")) == [{"k": 1, "v": 1, "tag": "a"}]
    assert db._in_flight == 0
    with pytest.raises(TransactionError):
        db.rollback(tx)
    with pytest.raises(TransactionError):
        db.commit(tx)
    assert db._in_flight == 0

    # Autocommit: the failing statement undoes what it did on the shards
    # it reached (a broadcast insert that the last shard refuses).
    db.shard_db(3).execute(Insert("notes", {"note_id": 7, "text": "stray"}))
    before = _shard_transactions(db)
    with pytest.raises(IntegrityError):
        db.execute(Insert("notes", {"note_id": 7, "text": "everywhere"}))
    moved = _moved(before, _shard_transactions(db))
    assert moved == {0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1)}
    assert [len(db.shard_db(spec.shard_id).table("notes"))
            for spec in db.shard_map] == [0, 0, 0, 1]
    assert db._in_flight == 0
    assert db.stats.transactions_rolled_back == 2
    db.close()
