"""Prepared batches against the same batches unprepared, through every
``DatabaseApi``, and the plans a database keeps for them.

``repro.metadb.PreparedBatch`` translates a batch once per shape and
binds a fresh ``Batch`` per request.  Its oracle is the batch as it was
sent before (``tests/oracle_pages.py``: a plain list built per call,
each statement translated on its own, references scanned for by every
layer).  Both must return the same rows, and serve the same page bytes,
on one ``Database``, a replica group of one and of two copies, and a
sharded catalog of one shard and of 4 x 2.  Then the plan cache: what a
database may keep for a shape, when it lets go of it, and what EXPLAIN
says about it.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dm import DataManager, EntityNotFound
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import (
    And, Between, Column, ColumnType, Comparison, Database, In, Insert, IsNull, Like,
    Not, Or, Param, PreparedBatch, QueryError, Ref, Select, TableSchema, Update,
    partitioned,
)
from repro.metadb import database as database_module
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.shard import ShardedDatabase
from repro.web import HttpRequest, WebServer
from repro.web.servlets import SESSION_COOKIE

from . import oracle_pages
from .test_pages import _copies, _event, _events

DAY = 86_400.0
BUILDS = ("database", "group-x1", "group-x2", "sharded-x1", "sharded-4x2")


def _database(build: str):
    obs = Observability(name=build)
    if build == "database":
        return Database(name=build, obs=obs)
    if build.startswith("group"):
        return ReplicaGroup(name=build, obs=obs, n_replicas=int(build[-1]) - 1)
    if build == "sharded-x1":
        return ShardedDatabase(name=build, obs=obs)
    return ShardedDatabase((DAY, 2 * DAY, 3 * DAY), name=build, obs=obs,
                           replicas_per_shard=2)


class _Stack:
    """A small catalogue loaded through a DataManager on ``build``."""

    def __init__(self, build: str, events, tmp_path):
        self.database = _database(build)
        storage = StorageManager(scratch_dir=tmp_path / "scratch")
        storage.register(DiskArchive("main", tmp_path / "main"))
        dm = self.dm = DataManager(self.database, storage, obs=self.database.obs)
        dm.io.names.ensure_archive("main", "/mnt/main")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        bob = dm.users.create_user("bob", "pw", group="scientist")
        root = dm.users.create_user("root", "pw", group="admin")
        self.users = (alice, bob, root, None)
        self.catalogs = [dm.semantic.create_catalog(alice, "shared", public=True),
                         dm.semantic.create_catalog(bob, "private")]
        self.hle_ids = []
        for index, (day, public, bobs, files, analyses, filed, no_rate,
                    own_item) in enumerate(events):
            owner = bob if bobs else alice
            hle_id = dm.semantic.insert_hle(owner, {
                "start_time": day * DAY + 100.0 * index, "end_time": day * DAY + 160.0,
                "peak_rate": None if no_rate else 40.0 + index, "public": public,
                "title": f"event {index}", "created_at": 1000.0,
                "item_id": f"flare-{index}" if own_item else None,
            })
            self.hle_ids.append(hle_id)
            item = f"flare-{index}" if own_item else f"hle:{hle_id}"
            for n, (_archive, role) in enumerate(files):
                dm.io.names.register_file(item, "main", f"hle/{hle_id}/{n}.bin",
                                          role=role, checksum=f"sum-{hle_id}-{n}")
            for ana_public, ana_bobs in analyses:
                ana_id = dm.io.default_database.allocate_id("ana", "ana_id")
                dm.io.execute(Insert("ana", {
                    "ana_id": ana_id, "item_id": f"ana:{ana_id}", "hle_id": hle_id,
                    "owner_id": (bob if ana_bobs else alice).user_id,
                    "public": ana_public, "algorithm": "histogram", "created_at": 1000.0,
                }))
            for n in filed:      # alice's shared catalogue, bob's private one
                filer = (alice, bob)[n]
                if public or filer is owner:
                    dm.semantic.add_to_catalog(filer, self.catalogs[n], hle_id)
        self.web = WebServer(dm, obs=dm.obs)

    def executed(self) -> int:
        """Statements the plain databases underneath have run."""
        return sum(copy.stats.selects for copy in _copies(self.database))

    def page_bytes(self, user, hle_id: int, fetch=None):
        if fetch is not None:
            self.dm.fetch_page = functools.partial(fetch, self.dm)
        try:
            cookies = {} if user is None else {
                SESSION_COOKIE: self.dm.open_session(user, "hle").cookie}
            response = self.web.handle(
                HttpRequest("GET", "/hedc/hle", {"id": str(hle_id)}, cookies))
            return response.status, response.body
        finally:
            if fetch is not None:
                del self.dm.fetch_page

    def close(self) -> None:
        self.database.close()


def _either(call):
    """What a call comes to: its value, or that the entity was not found."""
    try:
        return call()
    except EntityNotFound:
        return "not found"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(events=_events)
def test_prepared_batches_equal_the_unprepared_ones_on_every_build(events, tmp_path_factory):
    """The page, an item's files and a catalogue page, for the owner,
    another user, an admin and an anonymous caller, with NULL rates and
    hidden or missing events: the same rows and page bytes prepared as
    unprepared, on every build.  A page whose tuple the gate does not
    find sends seven statements of which only the gate runs; the six
    after it come back ``[]``."""
    served = {}
    for build in BUILDS:
        stack = _Stack(build, events, tmp_path_factory.mktemp(build))
        dm, io = stack.dm, stack.dm.io
        batches = []
        send = io.execute_batch
        io.execute_batch = lambda statements: batches.append(send(statements)) or batches[-1]
        for user in stack.users:
            for hle_id in stack.hle_ids + [max(stack.hle_ids) + 1]:
                expected = _either(lambda: oracle_pages.fetch_page_unprepared(dm, user, hle_id))
                executed = stack.executed()
                assert _either(lambda: dm.fetch_page(user, hle_id)) == expected
                if expected == "not found":
                    gate = stack.executed() - executed
                    assert batches[-1] == [[]] * 7
                    executed = stack.executed()
                    _either(lambda: dm.semantic.get_hle(user, hle_id))
                    assert stack.executed() - executed == gate
                page = stack.page_bytes(user, hle_id)
                assert page == stack.page_bytes(
                    user, hle_id, oracle_pages.fetch_page_unprepared)
                who = user and user.login
                assert served.setdefault((who, hle_id), page) == page
                assert _either(lambda: dm.semantic.item_files(user, "hle", hle_id)) == \
                    _either(lambda: oracle_pages.item_files_unprepared(
                        dm, user, "hle", hle_id))
            for catalog_id in stack.catalogs + [max(stack.catalogs) + 1]:
                assert _either(lambda: dm.semantic.catalog_page(user, catalog_id)) == \
                    _either(lambda: oracle_pages.catalog_page_unprepared(
                        dm, user, catalog_id))
        stack.close()


def _page_template(first, *, gate: int = 0, bad: int = 1) -> list[Select]:
    """A page-shaped batch: the tuple by ``first``, three statements bound
    to it, of which statement ``bad`` references statement ``gate``."""
    statements = [Select("hle", where=Comparison("hle_id", "=", first))]
    statements += [Select("ana", where=Comparison("hle_id", "=", Ref(0, "hle_id")))
                   for _statement in range(3)]
    statements[bad] = Select("ana", where=Comparison("hle_id", "=", Ref(gate, "hle_id")))
    return statements


@pytest.fixture(scope="module")
def stacks(tmp_path_factory):
    built = {build: _Stack(build, [_event(1)], tmp_path_factory.mktemp(build))
             for build in BUILDS}
    yield built
    for stack in built.values():
        stack.close()


@settings(max_examples=30, deadline=None)
@given(bad=st.integers(0, 3), gate=st.integers(-2, 6))
def test_a_malformed_reference_is_refused_before_anything_runs(stacks, bad, gate):
    """A reference to the statement itself, to a later one or past
    either end: ``QueryError`` when the batch is prepared, and on every
    build when the same batch is sent unprepared, before any statement
    runs."""
    if 0 <= gate < bad:
        PreparedBatch(_page_template(Param(0), gate=gate, bad=bad)).bind((1,))
        return
    with pytest.raises(QueryError, match="references statement"):
        PreparedBatch(_page_template(Param(0), gate=gate, bad=bad))
    for stack in stacks.values():
        executed = stack.executed()
        with pytest.raises(QueryError, match="references statement"):
            stack.dm.io.execute_batch(_page_template(stack.hle_ids[0], gate=gate, bad=bad))
        assert stack.executed() == executed


def test_a_placeholder_outside_a_prepared_batch_is_refused(stacks):
    """A ``Param`` in a batch sent as a list has no value to stand for:
    ``QueryError`` before anything runs, not a statement matching nothing."""
    for stack in stacks.values():
        executed = stack.executed()
        with pytest.raises(QueryError, match="unbound Param"):
            stack.dm.io.default_database.execute_batch([
                Select("hle", where=Comparison("hle_id", "=", stack.hle_ids[0])),
                Select("ana", where=And([Comparison("hle_id", "=", Ref(0, "hle_id")),
                                         Comparison("owner_id", "=", Param(0))]))])
        assert stack.executed() == executed


_PLACEHOLDER_WHERE = {
    "=": lambda column: Comparison(column, "=", Param(0)),
    "BETWEEN": lambda column: Between(column, Param(0), Param(1)),
    "IN": lambda column: In(column, [Param(0), 2]),
}


@pytest.mark.parametrize("build", ["database", "sharded-4x2"])
@pytest.mark.parametrize("column", ["id", "t", "note"])
@pytest.mark.parametrize("op", sorted(_PLACEHOLDER_WHERE))
def test_a_placeholder_handed_to_execute_fails_typed(build, column, op):
    """A ``Param`` that reaches ``execute`` outside a prepared template has
    no value to stand for: ``QueryError`` where it is first used, on an
    empty table and a full one, by the key, the partition column and a
    column with no index, as for a ``Ref`` -- not a statement that
    matches nothing."""
    database = _database(build)
    database.create_table(TableSchema("m", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("t", ColumnType.REAL, nullable=False),
        Column("note", ColumnType.TEXT)],
        primary_key="id", indexes=[("t",)], placement=partitioned("t")))
    for rows in (0, 8):
        for key in range(rows):
            database.execute(Insert("m", {"id": key, "t": key * DAY / 2, "note": "n"}))
        with pytest.raises(QueryError, match="unbound Param"):
            database.execute(Select("m", where=_PLACEHOLDER_WHERE[op](column)))
    database.close()


def test_a_bound_batch_is_checked_and_replays(tmp_path):
    """``bind`` checks the request's values as literals; a batch that
    answered leaves each statement holding the WHERE it ran with, and
    one it did not run still holds its reference."""
    stack = _Stack("database", [_event(1, files=[("main", "data")])], tmp_path)
    database, (hle_id,) = stack.database, stack.hle_ids
    prepared = PreparedBatch(_page_template(Param(0)))
    for params in ((), (1, 2), (float("nan"),), (b"1",), ([1],)):
        with pytest.raises(QueryError):
            prepared.bind(params)
    batch = prepared.bind((hle_id,))
    results = database.execute_batch(batch)
    assert results[0][0]["hle_id"] == hle_id
    assert results == [database.execute(statement) for statement in batch]
    missing = prepared.bind((hle_id + 1,))
    assert database.execute_batch(missing) == [[], [], [], []]
    with pytest.raises(QueryError, match="unresolved"):
        database.execute(missing[1])
    stack.close()


# -- generated batch shapes ----------------------------------------------------

_M_TYPES = {"id": "int", "at": "int", "a": "real", "b": "text", "g": "int"}
_NUMERIC = ("id", "at", "a", "g")
_LITERALS = {
    "int": st.integers(-3, 43),
    "real": st.floats(-6.0, 6.0, allow_nan=False).map(lambda value: round(value, 1)),
    "text": st.sampled_from(["x", "xy", "y", "", "y'x"]),
}


def _m_database(build: str):
    """``m``: 40 rows partitioned on ``at`` over four shards of two copies
    (``sharded-4x2``) or on one ``Database``, NULLs in every column but
    the key and ``at``."""
    if build == "database":
        database = Database(name=build)
    else:
        database = ShardedDatabase((10, 20, 30), name=build, replicas_per_shard=2)
    database.create_table(TableSchema(
        "m",
        [Column("id", ColumnType.INTEGER, nullable=False),
         Column("at", ColumnType.INTEGER, nullable=False),
         Column("a", ColumnType.REAL), Column("b", ColumnType.TEXT),
         Column("g", ColumnType.INTEGER)],
        primary_key="id", indexes=[("at",), ("a",)], placement=partitioned("at")))
    for n in range(40):
        database.execute(Insert("m", {
            "id": n, "at": (7 * n) % 40,
            "a": None if n % 7 == 0 else (n % 13) - 5.5,
            "b": None if n % 5 == 0 else "xy"[n % 2] + "y" * (n % 3),
            "g": None if n % 4 == 0 else n % 6 - 1,
        }))
    return database


@pytest.fixture(scope="module")
def m_databases():
    built = [_m_database(build) for build in ("database", "sharded-4x2")]
    yield built
    for database in built:
        database.close()


@st.composite
def _batch_shapes(draw):
    """A batch of SELECTs on ``m`` whose literals are request values
    (``Param(i)``, ``values[i]``), literals, or references (scaled,
    shifted, NULL-defaulted, now and then to a statement not before
    theirs), in every node the binder walks: ``=``, ``!=``, ``<``, ...,
    BETWEEN, IN, LIKE, IS NULL, NOT and nested AND/OR."""
    n = draw(st.integers(1, 4))
    values: list = []

    def slot(column: str, k: int, refs: bool = True):
        kind = draw(st.sampled_from(("literal", "param", "ref") if refs
                                    else ("literal", "param")))
        if kind == "literal":
            return draw(st.none() | _LITERALS[_M_TYPES[column]])
        if kind == "param":
            values.append(draw(_LITERALS[_M_TYPES[column]]))
            return Param(len(values) - 1)
        target = draw(st.integers(0, k - 1)) if k and draw(st.integers(0, 9)) \
            else draw(st.integers(k, n))
        if column == "b":
            return Ref(target, "b", if_null=draw(st.sampled_from([None, "x"])))
        return Ref(target, draw(st.sampled_from(_NUMERIC)),
                   scale=draw(st.sampled_from([1.0, 2.0, -0.5])),
                   shift=draw(st.sampled_from([0.0, 3.0])),
                   if_null=draw(st.sampled_from([None, 4, float("nan")])))

    def node(k: int, depth: int):
        kind = draw(st.sampled_from(
            ("cmp", "between", "in", "like", "null")
            + (("not", "and", "or") if depth else ())))
        column = draw(st.sampled_from(sorted(_M_TYPES)))
        if kind == "cmp":
            return Comparison(column, draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="])),
                              slot(column, k))
        if kind == "between":
            return Between(column, slot(column, k), slot(column, k))
        if kind == "in":
            return In(column, [slot(column, k, refs=False)
                               for _value in range(draw(st.integers(1, 4)))])
        if kind == "like":
            return Like("b", draw(st.sampled_from(["x%", "%y", "_", "xy", "%'%"])))
        if kind == "null":
            return IsNull(column, negated=draw(st.booleans()))
        if kind == "not":
            return Not(node(k, depth - 1))
        operands = [node(k, depth - 1) for _operand in range(draw(st.integers(1, 3)))]
        return And(operands) if kind == "and" else Or(operands)

    statements = []
    for k in range(n):
        order_by = draw(st.lists(st.tuples(st.sampled_from(["a", "g", "b"]),
                                           st.sampled_from(["asc", "desc"])),
                                 max_size=2, unique_by=lambda item: item[0]))
        statements.append(Select(
            "m", where=node(k, 2) if draw(st.integers(0, 4)) else None,
            order_by=order_by + [("id", "asc")],
            limit=draw(st.none() | st.integers(1, 6))))
    return statements, values


def _written(node, values):
    """``node`` with each ``Param(i)`` written out as ``values[i]``."""
    def value(literal):
        return values[literal.index] if isinstance(literal, Param) else literal

    if isinstance(node, Comparison):
        return Comparison(node.column, node.op, value(node.value))
    if isinstance(node, Between):
        return Between(node.column, value(node.low), value(node.high))
    if isinstance(node, In):
        return In(node.column, [value(literal) for literal in node.values])
    if isinstance(node, (And, Or)):
        return type(node)([_written(operand, values) for operand in node.operands])
    if isinstance(node, Not):
        return Not(_written(node.operand, values))
    return node


def _answers(database, batch) -> object:
    """The rows ``batch()`` answers with, or the type of the error its
    building or running raised."""
    try:
        return [[dict(row) for row in rows] for rows in database.execute_batch(batch())]
    except Exception as exc:  # the two paths must fail alike, too
        return type(exc).__name__


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=_batch_shapes())
def test_generated_batches_bind_as_the_statements_written_out(m_databases, shape):
    """A generated batch bound by ``PreparedBatch.bind`` answers as the
    same statements with the values written in and sent as a list (the
    references found by ``Batch.of``), on a ``Database`` and on 4 x 2:
    the same rows, the ``[]`` of a statement whose referenced statement
    found none, and the same error for a reference that resolves to a
    non-finite value or names no earlier statement.  (A batch's LIKE
    pattern is a string literal; a ``LIKE ?`` bound to anything else is
    ``test_metadb_sql.py``'s ``test_like_pattern_must_be_a_string``.)"""
    statements, values = shape
    for database in m_databases:
        expected = _answers(database, lambda: [
            replace(statement, where=_written(statement.where, values))
            for statement in statements])
        assert _answers(database, lambda: PreparedBatch(statements).bind(values)) == expected


def _fingerprint(prepared: PreparedBatch) -> list:
    """What a prepared batch holds, down to the identity of each literal."""
    def walk(node):
        if isinstance(node, (And, Or)):
            return (type(node).__name__, id(node), [walk(operand) for operand in node.operands])
        if isinstance(node, Not):
            return ("not", id(node), walk(node.operand))
        if isinstance(node, Comparison):
            return ("cmp", node.column, node.op, id(node.value))
        if isinstance(node, Between):
            return ("between", node.column, id(node.low), id(node.high))
        return (type(node).__name__, id(node))
    held = [(id(statement), walk(statement.where)) for statement in prepared.statements]
    for parsed, *rest in prepared._parts:
        fields = {key: id(value) if key == "where" else
                  list(value) if isinstance(value, list) else value
                  for key, value in vars(parsed).items()}
        held.append((fields, [id(part) for part in rest]))
    return held


def test_eight_threads_share_one_prepared_page(tmp_path):
    """Eight threads, five hundred pages each, all bound from the one
    prepared page of the owner's scope, each thread on its own events:
    every page is its single-threaded render, and the prepared batch is
    as it was."""
    events = [_event(n % 4, files=[("main", "data")] if n % 3 == 0 else [],
                     analyses=[(True, False)] if n % 2 else [], no_rate=n % 5 == 0)
              for n in range(40)]
    stack = _Stack("database", events, tmp_path)
    alice = stack.users[0]
    expected = {hle_id: stack.page_bytes(alice, hle_id) for hle_id in stack.hle_ids}
    prepared = stack.dm.io.batches[("page", "owner")]
    before = _fingerprint(prepared)
    cookies = {SESSION_COOKIE: stack.dm.open_session(alice, "hle").cookie}
    wrong: list = []
    errors: list[BaseException] = []

    def worker(thread: int) -> None:
        mine = stack.hle_ids[thread::8]
        try:
            for page in range(500):
                hle_id = mine[page % len(mine)]
                response = stack.web.handle(
                    HttpRequest("GET", "/hedc/hle", {"id": str(hle_id)}, cookies))
                if (response.status, response.body) != expected[hle_id]:
                    wrong.append((thread, hle_id))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong
    assert stack.dm.io.batches[("page", "owner")] is prepared
    assert _fingerprint(prepared) == before
    stack.close()


# -- the plans a database keeps ------------------------------------------------

def _sweeps(n_rows: int) -> Database:
    """``hle``-shaped rows: a key, an indexed rate and an indexed time."""
    database = Database(name="plans")
    database.create_table(TableSchema(
        "events",
        [Column("event_id", ColumnType.INTEGER, nullable=False),
         Column("peak_rate", ColumnType.REAL), Column("start_time", ColumnType.REAL),
         Column("kind", ColumnType.TEXT)],
        primary_key="event_id", indexes=[("peak_rate",), ("start_time",)]))
    for n in range(n_rows):
        database.execute(Insert("events", {"event_id": n, "peak_rate": float(n),
                                           "start_time": 10.0 * n, "kind": "flare"}))
    return database


@pytest.fixture()
def planned(monkeypatch):
    """How many times the planner has run."""
    calls = [0]
    plan_select = database_module.plan_select

    def counted(table, select):
        calls[0] += 1
        return plan_select(table, select)
    monkeypatch.setattr(database_module, "plan_select", counted)
    return calls


def test_a_top_n_walks_the_ordered_index_at_every_threshold(planned):
    """``peak_rate >= ? ORDER BY peak_rate DESC LIMIT 5``: the walk down
    the rate index stops at the fifth row whatever the threshold, so the
    shape keeps the plan its first bind made."""
    database = _sweeps(2000)
    sweep = PreparedBatch([Select("events", where=Comparison("peak_rate", ">=", Param(0)),
                                  order_by=[("peak_rate", "desc")], limit=5)])
    for threshold in (0.0, 1990.0, 10.0, 1996.0):
        batch = sweep.bind((threshold,))
        (rows,) = database.execute_batch(batch)
        assert [row["event_id"] for row in rows] == \
            [n for n in range(1999, 1994, -1) if n >= threshold]
        plan = database.explain_plan(batch[0])
        assert (plan["access"], plan["index_column"], plan["ordered"],
                plan["limit_pushdown"], plan["cached_plan"]) == \
            ("range_scan", "peak_rate", True, True, True)
    assert planned[0] == 1


def test_a_top_n_whose_walk_competes_is_planned_per_bind(planned):
    """``start_time < ? ORDER BY peak_rate DESC LIMIT 5``: a narrow time
    range takes its range scan, a wide one the walk down the rate index,
    so the shape keeps no plan."""
    database = _sweeps(100)
    prepared = PreparedBatch([Select("events", where=Comparison("start_time", "<", Param(0)),
                                     order_by=[("peak_rate", "desc")], limit=5)])
    for bound, column in ((30.0, "start_time"), (1000.0, "peak_rate"), (30.0, "start_time")):
        batch = prepared.bind((bound,))
        (rows,) = database.execute_batch(batch)
        assert [row["event_id"] for row in rows] == \
            [n for n in range(99, -1, -1) if 10 * n < bound][:5]
        plan = database.explain_plan(batch[0])
        assert (plan["index_column"], plan["cached_plan"]) == (column, False)


@pytest.mark.parametrize("where, binds, kept", [
    (Comparison("event_id", "=", Param(0)), [(1,), (2,), (99,)], True),
    (Between("start_time", Param(0), Param(1)), [(0.0, 50.0), (100.0, 990.0), (5.0, 5.0)],
     True),
    (And([Comparison("kind", "=", Param(0)), Comparison("peak_rate", ">", Param(1))]),
     [("flare", 1.0), ("cme", 50.0), ("flare", 98.0)], True),
    (And([Comparison("peak_rate", ">", Param(0)), Comparison("start_time", "<", Param(1))]),
     [(1.0, 50.0), (90.0, 990.0), (10.0, 500.0)], False),
    (In("event_id", [Param(0), Param(1)]), [(1, 2), (3, 4), (5, 50)], False),
    (Comparison("kind", "=", Param(0)), [("flare",), ("cme",), ("flare",)], True),
], ids=["key", "one-range", "range-and-unindexed", "two-ranges", "in-list", "unindexed"])
def test_what_a_shape_may_keep(where, binds, kept, planned):
    """A key probe, the one index a shape offers, or none, is kept; two
    ranges that compete, or an IN-list whose keys are in the plan, are
    costed per bind.  Either way, the rows (and their order) are those of
    the statement planned afresh."""
    database = _sweeps(100)
    prepared = PreparedBatch([Select("events", where=where)])
    batches = [prepared.bind(params) for params in binds]
    answers = [database.execute_batch(batch)[0] for batch in batches]
    assert planned[0] == (1 if kept else len(binds))
    assert database.explain_plan(batches[0][0])["cached_plan"] is kept
    for batch, rows in zip(batches, answers):
        assert rows == database.execute(replace(batch[0]))     # no shape: planned afresh


def test_a_kept_plan_is_recosted_when_the_statistics_move(planned):
    """A key probe keeps its plan until ``max(1, rows/20)`` mutations
    refresh the table's statistics (5 here), and a table dropped and
    created again starts over."""
    database = _sweeps(100)
    probe = PreparedBatch([Select("events", where=Comparison("event_id", "=", Param(0)))])

    def read(event_id: int) -> list:
        return database.execute_batch(probe.bind((event_id,)))[0]

    assert read(1)[0]["event_id"] == 1 and planned[0] == 1
    for event_id in range(2, 20):
        assert read(event_id)[0]["event_id"] == event_id
    assert planned[0] == 1
    assert database.explain_plan(probe.bind((3,))[0])["cached_plan"] is True
    for mutation in range(5):
        database.execute(Update("events", {"kind": "cme"},
                                Comparison("event_id", "=", mutation)))
        assert read(50)[0]["kind"] == "flare"
        assert planned[0] == (1 if mutation < 4 else 2)
    assert database.explain_plan(probe.bind((3,))[0])["cached_plan"] is True
    schema = database.table("events").schema
    database.drop_table("events")
    database.create_table(schema)
    database.execute(Insert("events", {"event_id": 7, "peak_rate": 1.0,
                                       "start_time": 1.0, "kind": "new"}))
    assert database.explain_plan(probe.bind((7,))[0])["cached_plan"] is False
    calls = planned[0]
    assert read(7)[0]["kind"] == "new"
    assert planned[0] == calls + 1
    assert database.explain_plan(probe.bind((7,))[0])["cached_plan"] is True
