"""A batch of reads on the composed stack: routed once, one sub-batch per
shard, one copy per group, a scattered ORDER BY ... LIMIT asked for in
shares.

The retired statement-by-statement path (``tests/oracle_scatter.py``) is
the reference: same rows in the same order, same counters.  Then the
bug the batch closes (two statements of one batch answered from copies
at different positions of the log, or routed against two layouts), and
how a batch fails: by shard and by statement, never silently.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metadb import (
    Aggregate,
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    ForeignKey,
    In,
    Insert,
    Select,
    TableSchema,
    follows,
    partitioned,
)
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.resil import FaultInjector, InjectedFault, use_injector
from repro.shard import PartialResult, ShardedDatabase, ShardUnavailable
from repro.shard.merge import _OrderedMerge

from . import oracle_scatter

COUNT = [Aggregate("count", "*", "n")]
SPAN = 40       # ``at`` runs over [0, SPAN)


def _m_schema() -> TableSchema:
    return TableSchema(
        "m",
        [Column("id", ColumnType.INTEGER, nullable=False),
         Column("at", ColumnType.INTEGER, nullable=False),
         Column("a", ColumnType.REAL),
         Column("b", ColumnType.TEXT),
         Column("g", ColumnType.INTEGER)],
        primary_key="id",
        indexes=[("at",)],
        placement=partitioned("at"),
    )


def _child_schema() -> TableSchema:
    return TableSchema(
        "c",
        [Column("cid", ColumnType.INTEGER, nullable=False),
         Column("m_id", ColumnType.INTEGER, nullable=False)],
        primary_key="cid",
        indexes=[("m_id",)],
        foreign_keys=[ForeignKey("m_id", "m", "id")],
        placement=follows("m_id", "m", "id"),
    )


def _notes_schema() -> TableSchema:
    return TableSchema(
        "notes",
        [Column("note_id", ColumnType.INTEGER, nullable=False),
         Column("text", ColumnType.TEXT)],
        primary_key="note_id",
    )


def _boundaries(n_shards: int) -> tuple[int, ...]:
    return tuple(SPAN * cut // n_shards for cut in range(1, n_shards))


def _build(db, rows) -> None:
    for schema in (_m_schema(), _child_schema(), _notes_schema()):
        db.create_table(schema)
    db.execute(Insert("notes", {"note_id": 1, "text": "n"}))
    for row in rows:
        db.execute(Insert("m", dict(row)))


def _stack(n_shards: int, n_copies: int, rows, **kwargs) -> ShardedDatabase:
    sharded = ShardedDatabase(_boundaries(n_shards), name="b",
                              replicas_per_shard=n_copies,
                              obs=Observability(name="b"), **kwargs)
    _build(sharded, rows)
    return sharded


def _skewed(n: int = 40) -> list[dict]:
    """One row per ``at``, ``a`` rising with it: the top of an ORDER BY a
    DESC is all on the last shard, so its share falls short."""
    return [{"id": at, "at": at, "a": float(at), "b": "x", "g": at % 3}
            for at in range(n)]


def _shard_dbs(sharded: ShardedDatabase) -> list:
    return [sharded.shard_db(spec.shard_id) for spec in sharded.shard_map]


def _counters(sharded: ShardedDatabase) -> dict:
    dbs = _shard_dbs(sharded)
    return {
        "routes": dict(sharded.route_counts),
        "shard_reads": dict(sharded.reads_by_shard),
        "selects": sharded.stats.selects,
        "rows_read": sharded.stats.rows_read,
        "copy_reads": sum(sum(db.reads_by_copy.values()) for db in dbs
                          if isinstance(db, ReplicaGroup)),
        "shard_rows_read": sum(db.stats.rows_read for db in dbs),
    }


def _moved(before: dict, after: dict) -> dict:
    moved = {}
    for key, value in after.items():
        if isinstance(value, dict):
            moved[key] = {k: v - before[key].get(k, 0) for k, v in value.items()
                          if v != before[key].get(k, 0)}
        else:
            moved[key] = value - before[key]
    return moved


@contextmanager
def _counting_top_ups():
    """The shards asked for the rest of their share, as run indexes."""
    asked: list[int] = []
    merge = _OrderedMerge.__call__

    def counting(self, shard_results, ask_rest=None):
        def spy(index, rest):
            asked.append(index)
            return ask_rest(index, rest)
        return merge(self, shard_results, spy if ask_rest is not None else None)

    _OrderedMerge.__call__ = counting
    try:
        yield asked
    finally:
        _OrderedMerge.__call__ = merge


# -- the batched path against the retired one ---------------------------------

ROWS = st.lists(
    st.fixed_dictionaries({
        "at": st.integers(0, SPAN - 1),
        "a": st.sampled_from([None, -1.0, 0.0, 1.0, 2.0]),
        "b": st.sampled_from([None, "", "x", "y"]),
        "g": st.integers(0, 2),
    }), max_size=40,
).map(lambda rows: [
    # Inserted in ``at`` order: ties then fall the same way on one node
    # (input order) as across shards (shard order).
    {"id": index, **row}
    for index, row in enumerate(sorted(rows, key=lambda row: row["at"]))
])

ORDER = st.lists(
    st.tuples(st.sampled_from(["a", "b", "g", "at", "id"]),
              st.sampled_from(["asc", "desc"])),
    min_size=1, max_size=3)
SAME_WAY = st.sampled_from(["asc", "desc"]).flatmap(
    lambda way: st.lists(st.sampled_from(["a", "b", "g", "at"]),
                         min_size=1, max_size=3, unique=True)
    .map(lambda columns: [(column, way) for column in columns]))
WHERE = st.one_of(
    st.none(),
    st.tuples(st.integers(0, SPAN), st.integers(0, SPAN)).map(
        lambda pair: Between("at", min(pair), max(pair))),
    st.integers(0, 2).map(lambda g: Comparison("g", "=", g)),
    st.sampled_from([0.0, 1.0]).map(lambda a: Comparison("a", ">=", a)),
)
LIMIT = st.sampled_from([None, 0, 1, 3, 8, 20])
OFFSET = st.sampled_from([0, 0, 1, 5])
ORDERED = st.builds(
    lambda order_by, where, limit, offset, columns: Select(
        "m", columns=columns, where=where, order_by=order_by,
        limit=limit, offset=offset),
    st.one_of(ORDER, SAME_WAY), WHERE, LIMIT, OFFSET,
    st.sampled_from([None, ["id"], ["id", "a"]]))
OTHER = st.one_of(
    st.builds(lambda where, limit, offset: Select(
        "m", where=where, limit=limit, offset=offset), WHERE, LIMIT, OFFSET),
    st.builds(lambda where: Select("m", where=where, aggregates=[
        Aggregate("count", "*", "n"), Aggregate("avg", "a", "mean"),
        Aggregate("max", "b", "top")]), WHERE),
    st.builds(lambda where: Select("m", where=where, group_by=["g"],
                                   aggregates=COUNT), WHERE),
    st.integers(0, 45).map(
        lambda key: Select("m", where=Comparison("id", "=", key))),
    st.lists(st.integers(0, 45), max_size=4).map(
        lambda keys: Select("m", where=In("id", keys),
                            order_by=[("id", "desc")], limit=3)),
    st.just(Select("notes")),
)
BATCH = st.lists(st.one_of(ORDERED, ORDERED, OTHER), min_size=1, max_size=6)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS, batch=BATCH, n_shards=st.integers(1, 5),
       n_copies=st.integers(1, 2))
def test_batched_reads_equal_the_retired_path_and_one_node(
        rows, batch, n_shards, n_copies):
    plain = Database(name="plain")
    _build(plain, rows)
    sharded = _stack(n_shards, n_copies, rows)

    start = _counters(sharded)
    with _counting_top_ups() as top_ups:
        batched = sharded.execute_batch(batch)
    after_batch = _counters(sharded)
    with oracle_scatter.installed():
        retired = oracle_scatter.execute_batch(sharded, batch)
    moved, expected = _moved(start, after_batch), \
        _moved(after_batch, _counters(sharded))

    assert batched == retired
    assert batched == plain.execute_batch(batch)
    assert all(type(result) is list for result in batched)
    assert batched == [sharded.execute(select) for select in batch]

    # Same routes, same statements, same rows out; a top-up is one more
    # read of its shard (and of one of its copies), and nothing else is.
    for key in ("routes", "selects", "rows_read"):
        assert moved[key] == expected[key]
    extra = len(top_ups)
    assert sum(moved["shard_reads"].values()) == \
        sum(expected["shard_reads"].values()) + extra
    if all(select.table != "notes" for select in batch):
        # (A broadcast read is whichever shard's turn it is.)
        assert all(moved["shard_reads"].get(shard, 0) >= n
                   for shard, n in expected["shard_reads"].items())
    assert moved["copy_reads"] == expected["copy_reads"] + \
        (extra if n_copies > 1 else 0)
    # A share plus the rest of it is what the full push-down read.
    assert moved["shard_rows_read"] <= expected["shard_rows_read"]


def test_a_share_that_falls_short_is_topped_up_from_its_shard_only():
    sharded = _stack(4, 2, _skewed())
    select = Select("m", order_by=[("a", "desc")], limit=10)
    before = dict(sharded.reads_by_shard)
    with _counting_top_ups() as top_ups:
        rows = sharded.execute(select)
    assert [row["id"] for row in rows] == list(range(39, 29, -1))
    # 2 * ceil(10 / 4) = 6 rows from each.  The tenth row so far is 26,
    # of the third shard, whose share ended past it (24); the last shard's
    # ended before it (34), so it alone is asked for its other 4.
    assert top_ups == [3]
    moved = {shard: n - before.get(shard, 0)
             for shard, n in sharded.reads_by_shard.items()}
    assert moved == {0: 1, 1: 1, 2: 1, 3: 2}
    route = sharded.explain_plan(select)
    assert route["shard_route"]["kind"] == "scatter"
    # 12 more: the twelfth row so far is the third shard's last (24), a
    # tie with itself, and a tie tops up.
    with _counting_top_ups() as top_ups:
        rows = sharded.execute(Select("m", order_by=[("a", "desc")], limit=12))
    assert [row["id"] for row in rows] == list(range(39, 27, -1))
    assert top_ups == [2, 3]


def test_ties_with_the_last_row_kept_top_up_and_fall_in_shard_order():
    """Every row ties: shard order decides, so the first shards' rows
    win, and a shard whose share ended on the tie is asked for more."""
    rows = [{"id": at, "at": at, "a": 1.0, "b": None, "g": 0}
            for at in range(SPAN)]
    sharded = _stack(4, 1, rows)
    plain = Database(name="plain")
    _build(plain, rows)
    for way in ("asc", "desc"):
        select = Select("m", order_by=[("a", way), ("b", way)], limit=16,
                        offset=2)
        with _counting_top_ups() as top_ups:
            rows_out = sharded.execute(select)
        assert [row["id"] for row in rows_out] == list(range(2, 18))
        assert rows_out == plain.execute(select)
        assert top_ups == [0, 1, 2, 3]      # each share of 10 ended on the tie


def test_no_top_up_when_every_share_ends_past_the_kth_row():
    rows = [{"id": index, "at": at, "a": float(index % 10), "b": "x", "g": 0}
            for index, at in enumerate(range(SPAN))]
    sharded = _stack(4, 1, rows)
    select = Select("m", order_by=[("a", "asc")], limit=4)
    with _counting_top_ups() as top_ups:
        assert [row["a"] for row in sharded.execute(select)] == [0.0] * 4
    assert top_ups == []


# -- the bug: one batch, two states -------------------------------------------

def _lagging_pair(group: ReplicaGroup) -> None:
    """One committed insert the follower has not been shipped, inside
    the group's staleness contract: both copies may serve reads."""
    group.max_lag, group.auto_ship = 1, False


def test_a_group_answers_a_batch_from_one_copy():
    """``max_lag=1`` lets a follower one commit behind serve reads.  The
    list and the count of one batch used to rotate onto different
    copies: one row listed, a count of zero."""
    group = ReplicaGroup(name="g", n_replicas=1, max_lag=1, auto_ship=False)
    group.create_table(_m_schema())
    group.ship()
    group.execute(Insert("m", {"id": 7, "at": 7}))
    by_key = Comparison("id", "=", 7)
    pair = [Select("m", where=by_key), Select("m", where=by_key, aggregates=COUNT)]
    seen = set()
    for _ in range(4):
        listed, counted = group.execute_batch(pair)
        assert counted[0]["n"] == len(listed)
        seen.add(len(listed))
    assert seen == {0, 1}       # both copies served, each consistently
    assert set(group.reads_by_copy.values()) == {4}
    assert group.stats.selects == 8


def test_a_sharded_stack_answers_a_keyed_pair_from_one_copy():
    sharded = _stack(4, 2, _skewed(8))
    for group in _shard_dbs(sharded):
        _lagging_pair(group)
    sharded.execute(Insert("m", {"id": 77, "at": 35}))
    sharded.execute(Insert("c", {"cid": 1, "m_id": 77}))
    by_parent = Comparison("m_id", "=", 77)
    batch = [Select("m", where=Comparison("id", "=", 77)),
             Select("c", where=by_parent),
             Select("c", where=by_parent, aggregates=COUNT)]
    for _ in range(4):
        event, children, counted = sharded.execute_batch(batch)
        assert len(event) == len(children) == counted[0]["n"]


def test_a_split_between_two_statements_of_a_batch_shows_one_layout():
    sharded = _stack(4, 1, _skewed())
    route, seen = sharded._route, []

    def gated(topology, *args, **kwargs):
        seen.append(topology)
        decision = route(topology, *args, **kwargs)
        if len(seen) == 1:
            sharded.split(1, 15)        # cuts over before statement two
        return decision

    sharded._route = gated
    listed, counted = sharded.execute_batch(
        [Select("m", order_by=[("id", "asc")]), Select("m", aggregates=COUNT)])
    assert sharded.n_shards == 5
    assert seen[0] is seen[1] and seen[0] is not sharded._topology
    assert len(listed) == counted[0]["n"] == SPAN
    assert set(sharded.reads_by_shard) <= {0, 1, 2, 3}      # the old layout's


# -- how a batch fails ---------------------------------------------------------

def _open_breaker(sharded: ShardedDatabase, shard_id: int) -> None:
    breaker = sharded._breaker_for(shard_id)
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state.value == "open"


def test_an_open_breaker_degrades_the_statements_that_target_its_shard():
    sharded = _stack(4, 1, _skewed(), breaker_cooldown_s=3600.0)
    _open_breaker(sharded, 2)
    everything, healthy, counted, dead, broadcast = sharded.execute_batch([
        Select("m", order_by=[("a", "desc")], limit=30),
        Select("m", where=Comparison("at", "<", 10)),
        Select("m", aggregates=COUNT),
        Select("m", where=Between("at", 22, 25)),
        Select("notes"),
    ])
    for partial in (everything, counted, dead):
        assert isinstance(partial, PartialResult)
        assert [m["shard_id"] for m in partial.missing_shards] == [2]
    assert [row["id"] for row in everything] == \
        [*range(39, 29, -1), *range(19, -1, -1)]
    assert list(counted) == [{"n": 30}] and list(dead) == []
    assert type(healthy) is list and len(healthy) == 10
    assert type(broadcast) is list and len(broadcast) == 1
    assert sharded.degraded_count == 3
    assert 2 not in sharded.reads_by_shard

    strict = _stack(4, 1, _skewed(), degraded_reads=False,
                    breaker_cooldown_s=3600.0)
    _open_breaker(strict, 2)
    with pytest.raises(ShardUnavailable) as excinfo:
        strict.execute_batch([Select("m", where=Comparison("at", "<", 10)),
                              Select("m", aggregates=COUNT)])
    assert excinfo.value.shard_ids == (2,)


def test_the_shard_fault_point_fires_once_per_statement():
    sharded = _stack(4, 1, _skewed())
    injector = FaultInjector(seed=1)
    point = injector.inject("metadb.shard.3.statement", rate=0.0)
    with use_injector(injector):
        sharded.execute_batch([Select("m"), Select("m", aggregates=COUNT),
                               Select("m", where=Comparison("at", "<", 5))])
    assert point.evaluated == 2


def test_a_follower_failing_mid_batch_fails_the_sub_batch_over_once():
    group = ReplicaGroup(name="g", n_replicas=1)
    group.create_table(_m_schema())
    for row in _skewed(6):
        group.execute(Insert("m", dict(row)))
    follower = group.replicas[0]
    execute, calls = follower.db.execute, []

    def second_statement_fails(statement, tx=None):
        calls.append(statement)
        if len(calls) == 2:
            raise InjectedFault("follower lost mid-batch")
        return execute(statement, tx=tx)

    follower.db.execute = second_statement_fails
    batch = [Select("m", where=Comparison("id", "=", 1)),
             Select("m", aggregates=COUNT), Select("m", limit=2)]
    group.execute(batch[0])               # the rotation's next copy: the follower
    before = dict(group.reads_by_copy)
    one, counted, two = group.execute_batch(batch)
    assert (len(one), counted, len(two)) == (1, [{"n": 6}], 2)
    assert len(calls) == 2                # the follower never saw the third
    assert group.failovers == 1
    assert group.breakers[follower.name].snapshot()["window"].count(False) == 1
    assert group.reads_by_copy == {group.primary.name: before[group.primary.name] + 3,
                                   follower.name: before[follower.name]}


def test_a_top_up_that_fails_degrades_its_statement_only():
    sharded = _stack(4, 1, _skewed())
    last = sharded.shard_db(3)
    execute = last.execute

    def rest_fails(statement, tx=None):
        if statement.offset:
            raise InjectedFault("shard lost between share and rest")
        return execute(statement, tx)

    last.execute = rest_fails
    ordered, counted = sharded.execute_batch(
        [Select("m", order_by=[("a", "desc")], limit=10),
         Select("m", aggregates=COUNT)])
    assert isinstance(ordered, PartialResult)
    assert [m["shard_id"] for m in ordered.missing_shards] == [3]
    # The share it did send stays in the answer, the rest is what the
    # other shards had.
    assert [row["id"] for row in ordered] == [*range(39, 33, -1), *range(29, 25, -1)]
    assert type(counted) is list and counted == [{"n": SPAN}]
    assert sharded.breakers[3].snapshot()["window"].count(False) == 1


def test_the_io_layer_retries_a_batch_as_a_whole(tmp_path):
    from repro.dm import DataManager
    from repro.filestore import DiskArchive, StorageManager

    sharded = ShardedDatabase(_boundaries(4), name="io",
                              obs=Observability(name="io"))
    storage = StorageManager(scratch_dir=tmp_path / "scratch")
    storage.register(DiskArchive("main", tmp_path / "archive"))
    dm = DataManager(sharded, storage)
    batches, execute_batch = [], sharded.execute_batch

    def counting(statements, tx=None):
        batches.append(len(statements))
        return execute_batch(statements, tx=tx)

    sharded.execute_batch = counting
    injector = FaultInjector(seed=1)
    for shard_id in range(4):
        injector.inject(f"metadb.shard.{shard_id}.statement")
    # No shard answers, so the broadcast read raises and takes the batch
    # with it; the outage ends while the policy backs off.
    dm.io.read_retry._sleep = lambda _delay: injector.clear()
    with use_injector(injector):
        users, catalogs = dm.io.execute_batch(
            [Select("admin_users"), Select("catalogs", aggregates=COUNT)])
    assert batches == [2, 2]
    assert type(users) is list and catalogs == [{"n": 0}]
