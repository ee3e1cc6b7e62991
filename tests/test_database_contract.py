"""One contract, every implementation: :class:`repro.metadb.DatabaseApi`.

Every class the tiers above the data tier can be handed — a plain
``Database``, a ``ReplicaGroup``, a ``ShardedDatabase``, their
composition, and the load harness's ``RemoteDatabase`` — is held to the
same behaviour here.  The core is a stateful property test: a random
interleaving of inserts, updates, deletes, batches, queries,
transactions (with rollbacks) and, on the persistent builds,
close/reopen must always agree with a plain Python-dict model,
regardless of which index, shard or copy served each statement.

A new implementation joins by satisfying the protocol and adding one
line to :data:`BUILDS`.
"""

import inspect
import json
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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

from repro.metadb import (
    Aggregate,
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    DatabaseApi,
    Delete,
    Insert,
    IntegrityError,
    Select,
    TableSchema,
    Update,
)
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.shard import ShardConfig, ShardedDatabase
from repro.web.loadgen import RemoteDatabase

#: The sharded builds place ``t`` by its key, so an update of ``v``
#: never moves a row between shards; ``notes`` is broadcast.
PLACEMENT = ShardConfig(partitioned={"t": "k"})
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
    Build("sharded-x1", lambda path: ShardedDatabase(config=PLACEMENT, name="c"),
          shard=True),
    Build("sharded-x4",
          lambda path: ShardedDatabase(FOUR_SHARDS, config=PLACEMENT, name="c"),
          shard=True),
    Build("sharded-x4-copies-x2-persistent",
          lambda path: ShardedDatabase(FOUR_SHARDS, path=path, config=PLACEMENT,
                                       name="c", replicas_per_shard=2),
          persistent=True, shard=True, replication=True),
    Build("remote", lambda path: RemoteDatabase(Database(name="c"))),
]

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
    )


def _notes_schema() -> TableSchema:
    return TableSchema(
        "notes",
        [Column("note_id", ColumnType.INTEGER, nullable=False),
         Column("text", ColumnType.TEXT)],
        primary_key="note_id",
    )


def _fresh(build: Build, root: Path):
    """A new instance of ``build`` with both tables; returns (db, path)."""
    path = Path(tempfile.mkdtemp(dir=root)) / "db" if build.persistent else None
    db = build.open(path)
    db.create_table(_t_schema())
    db.create_table(_notes_schema())
    return db, path


# -- the stateful core -------------------------------------------------------

KEYS = st.integers(min_value=0, max_value=30)
VALUES = st.integers(min_value=-50, max_value=50)


class ContractMachine(RuleBasedStateMachine):
    """Every statement carries ``tx=self.tx``: inside a transaction that
    is the contract's read-your-own-writes rule, outside one (``None``)
    its every-committed-transaction rule."""

    def __init__(self, build: Build, root: Path):
        super().__init__()
        self.build = build
        self.db, self.path = _fresh(build, root)
        self.model: dict[int, dict] = {}
        self.tx = None
        self.tx_shadow: dict[int, dict] = {}
        self.last_id = 0

    def teardown(self):
        if self.tx is not None:
            self.db.rollback(self.tx)
        self.db.close()

    def _expected_point(self, key):
        return [self.model[key]] if key in self.model else []

    # -- mutations ----------------------------------------------------------

    @rule(key=KEYS, value=VALUES, tag=st.sampled_from(["a", "b", "c"]))
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

    # -- transactions ---------------------------------------------------------

    @precondition(lambda self: self.tx is None)
    @rule()
    def begin(self):
        self.tx = self.db.begin()
        self.tx_shadow = {key: dict(row) for key, row in self.model.items()}

    @precondition(lambda self: self.tx is not None)
    @rule()
    def commit(self):
        self.db.commit(self.tx)
        self.tx = None

    @precondition(lambda self: self.tx is not None)
    @rule()
    def rollback(self):
        self.db.rollback(self.tx)
        self.model = self.tx_shadow
        self.tx = None

    @rule()
    def allocate_id(self):
        """Strictly increasing whatever the transactions around it do."""
        allocated = self.db.allocate_id("t", "k")
        assert allocated > self.last_id
        self.last_id = allocated

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
def test_ddl_round_trip(build, opened):
    assert opened.has_table("notes") and not opened.has_table("scratch")
    opened.create_table(TableSchema(
        "scratch", [Column("id", ColumnType.INTEGER, nullable=False)],
        primary_key="id"))
    assert opened.has_table("scratch")
    assert opened.table_names() == ["notes", "scratch", "t"]
    assert opened.table("scratch").schema.primary_key == "id"
    opened.execute(Insert("scratch", {"id": 1}))
    assert opened.execute(Select("scratch")) == [{"id": 1}]
    opened.drop_table("scratch")
    assert not opened.has_table("scratch")
    assert opened.table_names() == ["notes", "t"]


@every_build
def test_explain_plan_names_the_table(build, opened):
    plan = opened.explain_plan(Select("t", where=Comparison("k", "=", 1)))
    assert isinstance(plan, dict)
    assert plan["table"] == "t"
    assert plan["access"]


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
