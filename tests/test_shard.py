"""The sharded catalog: topology, routing, differential correctness,
degradation, online split, DM integration, and the scaling projection.

The load-bearing property is *transparency*: a ShardedDatabase must be
indistinguishable from a single Database through ``execute()`` — same
rows, same order, same aggregates — while EXPLAIN and the route counters
prove pruned queries really skipped the non-matching shards.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadb import (
    Aggregate,
    Between,
    Comparison,
    Database,
    Delete,
    In,
    Insert,
    IntegrityError,
    Join,
    Or,
    Select,
    TransactionError,
    Update,
    prepare,
)
from repro.metadb.storage import Table
from repro.resil import FaultInjector, use_injector
from repro.security import User
from repro.security.constraints import scoped_where
from repro.schema import install_all
from repro.shard import (
    PartialResult,
    ShardedDatabase,
    ShardError,
    ShardMap,
    ShardSpec,
    ShardUnavailable,
    route_keyed,
    route_partitioned,
)

DAY = 86_400.0
BOUNDS = (DAY, 2 * DAY, 3 * DAY)  # four observation-day shards


def _fresh_pair() -> tuple[Database, ShardedDatabase]:
    single = Database(name="single")
    install_all(single)
    sharded = ShardedDatabase(boundaries=BOUNDS, name="shardtest")
    install_all(sharded)
    return single, sharded


def _seed_users(*dbs) -> None:
    for db in dbs:
        db.execute(Insert("admin_users", {
            "user_id": 1, "login": "alice", "password_hash": "x",
        }))


def _event_rows(n: int, seed: int) -> list[dict]:
    """Deterministic events spread over four days; unique start_times so
    ORDER BY comparisons are tie-free, integer counts so sums are exact."""
    rng = random.Random(seed)
    times = rng.sample(range(0, int(4 * DAY)), n)
    rows = []
    for index, t in enumerate(times, start=1):
        rows.append({
            "hle_id": index,
            "item_id": f"hle:{index}",
            "owner_id": 1,
            "start_time": float(t),
            "end_time": float(t) + 60.0,
            "peak_rate": float(rng.randrange(1, 500)),
            "total_counts": rng.randrange(100, 10_000),
            "kind": rng.choice(["flare", "burst", "saa", None]),
            "created_at": 1000.0,
        })
    return rows


def _seed_events(dbs, n: int = 120, seed: int = 2003) -> list[dict]:
    rows = _event_rows(n, seed)
    for db in dbs:
        for row in rows:
            db.execute(Insert("hle", dict(row)))
    return rows


def _multiset(rows) -> list[str]:
    return sorted(repr(sorted(row.items(), key=lambda kv: kv[0])) for row in rows)


def _assert_same(single, sharded, select: Select, ordered: bool) -> None:
    expected = single.execute(select)
    actual = sharded.execute(select)
    assert not isinstance(actual, PartialResult)
    if ordered:
        assert list(actual) == list(expected), select
    else:
        assert _multiset(actual) == _multiset(expected), select


def _seed_family(dbs, events: list[dict], seed: int = 5) -> dict:
    """Children of every co-partitioned kind, on the same rows everywhere:
    ten analyses, one catalogue with eight members, four raw units with a
    view each.  Returns the keys the tests select by."""
    rng = random.Random(seed)
    ana_parents = [row["hle_id"] for row in rng.sample(events, 10)]
    members = [row["hle_id"] for row in rng.sample(events, 8)]
    units = [(f"unit:{index}", index * DAY + 100.0) for index in range(4)]
    for db in dbs:
        for index, hle_id in enumerate(ana_parents, start=1):
            db.execute(Insert("ana", {
                "ana_id": index, "item_id": f"ana:{index}", "hle_id": hle_id,
                "owner_id": 1, "algorithm": "histogram", "created_at": 1000.0,
            }))
        db.execute(Insert("catalogs", {
            "catalog_id": 1, "item_id": "cat:1", "owner_id": 1, "name": "c",
            "created_at": 1000.0,
        }))
        for index, hle_id in enumerate(members, start=1):
            db.execute(Insert("catalog_members", {
                "member_id": index, "catalog_id": 1, "hle_id": hle_id,
                "added_at": 1000.0,
            }))
        for index, (unit_id, start) in enumerate(units, start=1):
            db.execute(Insert("raw_units", {
                "unit_id": unit_id, "item_id": unit_id, "start_time": start,
                "end_time": start + 60.0, "n_photons": 10, "bytes_on_disk": 10,
                "loaded_at": 1000.0,
            }))
            db.execute(Insert("views", {
                "view_id": index, "item_id": f"view:{index}",
                "unit_id": unit_id, "signal": "counts", "domain_start": start,
                "domain_step": 1.0, "n_partitions": 1, "encoded_bytes": 1,
                "created_at": 1000.0,
            }))
    return {"ana_parents": ana_parents, "members": members,
            "units": [unit_id for unit_id, _start in units]}


def _holders(sharded: ShardedDatabase, table: str, column: str, value) -> list[int]:
    """Every shard whose own table holds ``column == value``."""
    return [
        spec.shard_id for spec in sharded.shard_map
        if sharded.shard_db(spec.shard_id).table(table).exists_value(column, value)
    ]


def _owner(sharded: ShardedDatabase, table: str, column: str, value) -> int:
    """The one shard whose own table holds ``column == value``."""
    owners = _holders(sharded, table, column, value)
    assert len(owners) == 1, (table, column, value, owners)
    return owners[0]


def _reads(sharded: ShardedDatabase, statement) -> tuple[dict[int, int], list]:
    """Shard-level reads one statement made, by shard, and its answer."""
    before = dict(sharded.reads_by_shard)
    rows = sharded.execute(statement)
    delta = {
        shard: count - before.get(shard, 0)
        for shard, count in sharded.reads_by_shard.items()
        if count != before.get(shard, 0)
    }
    return delta, rows


#: A logged-in scientist, for the visibility conjunct every page read carries.
SCIENTIST = User(1, "alice", "scientist", frozenset({"browse"}))


class TestShardMap:
    def test_boundaries_give_contiguous_open_ended_map(self):
        shard_map = ShardMap.from_boundaries(BOUNDS)
        assert len(shard_map) == 4
        assert shard_map.specs[0].low is None
        assert shard_map.specs[-1].high is None
        for left, right in zip(shard_map.specs, shard_map.specs[1:]):
            assert left.high == right.low

    def test_every_value_lands_on_exactly_one_shard(self):
        shard_map = ShardMap.from_boundaries(BOUNDS)
        for value in (-1e12, 0.0, DAY - 1, DAY, 2.5 * DAY, 3 * DAY, 1e12):
            owners = [spec for spec in shard_map if spec.covers(value)]
            assert len(owners) == 1
            assert owners[0] == shard_map.spec_for_value(value)

    def test_boundary_value_belongs_to_the_upper_shard(self):
        shard_map = ShardMap.from_boundaries(BOUNDS)
        assert shard_map.spec_for_value(DAY).shard_id == 1

    def test_range_and_value_lookup(self):
        shard_map = ShardMap.from_boundaries(BOUNDS)
        touched = shard_map.specs_for_range(DAY + 1, 2 * DAY - 1)
        assert [spec.shard_id for spec in touched] == [1]
        touched = shard_map.specs_for_range(None, DAY - 1)
        assert [spec.shard_id for spec in touched] == [0]
        touched = shard_map.specs_for_values([0.0, 3.5 * DAY])
        assert [spec.shard_id for spec in touched] == [0, 3]

    def test_invalid_maps_rejected(self):
        with pytest.raises(ShardError):
            ShardMap([])
        with pytest.raises(ShardError):
            ShardMap([ShardSpec(0, None, 10.0), ShardSpec(1, 20.0, None)])
        with pytest.raises(ShardError):
            ShardMap([ShardSpec(0, 0.0, 10.0), ShardSpec(1, 10.0, None)])

    def test_replace_models_a_split(self):
        shard_map = ShardMap.from_boundaries((DAY,))
        new_map = shard_map.replace(1, [
            ShardSpec(2, DAY, 2 * DAY), ShardSpec(3, 2 * DAY, None),
        ])
        assert [spec.shard_id for spec in new_map] == [0, 2, 3]
        assert len(shard_map) == 2  # the original is untouched


class TestRouting:
    shard_map = ShardMap.from_boundaries(BOUNDS)

    def test_equality_pins_one_shard(self):
        decision = route_partitioned(
            Comparison("start_time", "=", 2.5 * DAY), "start_time", self.shard_map
        )
        assert decision.kind == "pruned"
        assert decision.shard_ids == (2,)

    def test_in_list_straddling_a_boundary(self):
        decision = route_partitioned(
            In("start_time", [DAY - 1, DAY]), "start_time", self.shard_map
        )
        assert decision.kind == "pruned"
        assert decision.shard_ids == (0, 1)

    def test_open_ended_ranges_still_prune(self):
        decision = route_partitioned(
            Comparison("start_time", ">=", 2.5 * DAY), "start_time", self.shard_map
        )
        assert decision.kind == "pruned"
        assert decision.shard_ids == (2, 3)
        decision = route_partitioned(
            Comparison("start_time", "<", DAY), "start_time", self.shard_map
        )
        assert decision.shard_ids == (0,)

    def test_range_spanning_everything_is_scatter_not_pruned(self):
        decision = route_partitioned(
            Between("start_time", -DAY, 10 * DAY), "start_time", self.shard_map
        )
        assert decision.kind == "scatter"
        assert decision.shard_ids == (0, 1, 2, 3)

    def test_unrelated_and_disjunctive_predicates_scatter(self):
        for where in (
            None,
            Comparison("kind", "=", "flare"),
            Or([Comparison("start_time", "=", 1.0),
                Comparison("kind", "=", "flare")]),
        ):
            decision = route_partitioned(where, "start_time", self.shard_map)
            assert decision.kind == "scatter"

    def test_pruned_decisions_say_what_they_pruned_by(self):
        by_partition = route_partitioned(
            Comparison("start_time", "=", 0.0), "start_time", self.shard_map)
        assert by_partition.by == "partition"
        scatter = route_partitioned(None, "start_time", self.shard_map)
        assert scatter.by is None

    def _keyed(self, values, placement: dict, unreachable=()):
        """Route ``values`` over a fake placement (key -> shard id);
        returns the decision and every (shard, key) probe made."""
        probes = []

        def holds(spec, value):
            probes.append((spec.shard_id, value))
            return placement.get(value) == spec.shard_id

        decision = route_keyed(values, self.shard_map, holds, unreachable)
        return decision, probes

    def test_key_equality_pins_the_shard_that_holds_it(self):
        decision, probes = self._keyed([7], {7: 2})
        assert (decision.kind, decision.by) == ("pruned", "key")
        assert decision.shard_ids == (2,)
        assert probes == [(0, 7), (1, 7), (2, 7)]   # stops at the owner

    def test_key_in_list_resolves_each_value_to_its_owner(self):
        decision, _probes = self._keyed([7, 8, 9], {7: 3, 8: 0, 9: 3})
        assert decision.kind == "pruned"
        assert decision.shard_ids == (0, 3)          # map order, no duplicates

    def test_unknown_key_routes_nowhere(self):
        """The caller decides: a read or an insert takes the first shard
        for its single-node answer, an UPDATE or DELETE runs nowhere."""
        decision, probes = self._keyed([404], {})
        assert (decision.kind, decision.by) == ("pruned", "key")
        assert decision.shard_ids == ()
        assert len(probes) == 4                      # everyone was asked
        # An unknown value beside known ones adds no shard.
        decision, _probes = self._keyed([404, 7], {7: 2})
        assert decision.shard_ids == (2,)

    def test_in_list_stops_probing_once_every_shard_is_a_target(self):
        placement = {key: key % 4 for key in range(40)}
        decision, probes = self._keyed(list(range(40)), placement)
        assert decision.kind == "scatter"
        assert decision.shard_ids == (0, 1, 2, 3)
        assert {value for _shard, value in probes} == {0, 1, 2, 3}

    def test_unreachable_shard_is_never_probed_and_stays_a_target(self):
        # Found on a reachable shard: the unreachable one is not needed.
        decision, probes = self._keyed([7], {7: 0}, unreachable=[2])
        assert decision.shard_ids == (0,)
        # Found nowhere reachable: it may live on the unreachable shard.
        decision, more = self._keyed([7], {7: 2}, unreachable=[2])
        assert decision.shard_ids == (2,)
        decision, rest = self._keyed([404], {}, unreachable=[2])
        assert decision.shard_ids == (2,)
        assert all(shard != 2 for shard, _value in probes + more + rest)
        # An id that is not in the map at all (a breaker outliving a
        # split) changes nothing.
        decision, _probes = self._keyed([404], {}, unreachable=[99])
        assert decision.shard_ids == ()


class TestPruningThroughExecute:
    def test_explain_plan_reports_the_route(self):
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        events = _seed_events([sharded], n=40)
        keys = _seed_family([sharded], events)
        plan = sharded.explain_plan(
            Select("hle", where=Between("start_time", DAY + 1, DAY + 100))
        )
        assert plan["shard_route"] == {
            "kind": "pruned", "shards": [1], "n_shards": 4, "pruned": True,
            "by": "partition",
        }
        plan = sharded.explain_plan(Select("hle"))
        assert plan["shard_route"]["pruned"] is False
        assert plan["shard_route"]["shards"] == [0, 1, 2, 3]
        route = sharded.explain_plan(
            Select("hle", where=Comparison("start_time", "=", 0.0)))["shard_route"]
        assert (route["kind"], len(route["shards"]), route["n_shards"]) \
            == ("pruned", 1, 4)
        # Selected by key: the owner alone, and EXPLAIN says why.
        hle_id = events[0]["hle_id"]
        by_id = Select("hle", where=Comparison("hle_id", "=", hle_id))
        owner = _owner(sharded, "hle", "hle_id", hle_id)
        assert sharded.explain_plan(by_id)["shard_route"] == {
            "kind": "pruned", "shards": [owner], "n_shards": 4, "pruned": True,
            "by": "key",
        }
        parent = keys["ana_parents"][0]
        by_child_key = Select("ana", where=Comparison("hle_id", "=", parent))
        route = sharded.explain_plan(by_child_key)["shard_route"]
        assert (route["kind"], route["by"]) == ("pruned", "key")
        assert route["shards"] == [_owner(sharded, "hle", "hle_id", parent)]
        assert sharded.explain_plan(Select("hle"))["shard_route"]["by"] is None
        assert sharded.explain_plan(
            Select("admin_users"))["shard_route"]["by"] is None
        # The route EXPLAIN reports is the one execution takes: the same
        # shards answer the statement right after.
        some_ids = [row["hle_id"] for row in events[:3]]
        for select in (
            by_id, by_child_key, Select("hle"),
            Select("hle", where=In("hle_id", some_ids),
                   order_by=[("hle_id", "asc")]),
            Select("hle", where=Comparison("hle_id", "=", 404_404)),
            Select("hle", where=Between("start_time", DAY, 2.5 * DAY)),
            Select("views", where=Comparison("unit_id", "=", keys["units"][2])),
            Select("admin_users"),
        ):
            route = sharded.explain_plan(select)["shard_route"]
            touched, _rows = _reads(sharded, select)
            if route["kind"] == "broadcast":
                assert len(touched) == 1    # any one shard, round-robin
            else:
                assert touched == {shard: 1 for shard in route["shards"]}, select

    def test_key_selected_statements_read_only_the_owning_shard(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        events = _seed_events([single, sharded], n=40)
        keys = _seed_family([single, sharded], events)
        count = [Aggregate("count", "*", "n")]

        def check(select: Select, owners: set[int]) -> None:
            pruned = sharded.route_counts["pruned"]
            touched, rows = _reads(sharded, select)
            assert touched == {shard: 1 for shard in owners}, select
            assert not isinstance(rows, PartialResult)
            assert rows == single.execute(select), select
            assert sharded.route_counts["pruned"] == pruned + 1

        def hle_owner(hle_id: int) -> int:
            return _owner(sharded, "hle", "hle_id", hle_id)

        for row in events[:6]:
            hle_id = row["hle_id"]
            by_id = Comparison("hle_id", "=", hle_id)
            check(Select("hle", where=by_id), {hle_owner(hle_id)})
            check(Select("hle", where=scoped_where(SCIENTIST, by_id)),
                  {hle_owner(hle_id)})
        ids = [row["hle_id"] for row in events[:2]]
        in_list = In("hle_id", ids)
        owners = {hle_owner(hle_id) for hle_id in ids}
        assert len(owners) < 4
        check(Select("hle", where=in_list, order_by=[("hle_id", "desc")]), owners)
        check(Select("hle", where=scoped_where(SCIENTIST, in_list),
                     order_by=[("hle_id", "asc")], limit=1), owners)
        for parent in keys["ana_parents"][:4]:
            by_parent = Comparison("hle_id", "=", parent)
            check(Select("ana", where=by_parent), {hle_owner(parent)})
            check(Select("ana", where=scoped_where(SCIENTIST, by_parent),
                         order_by=[("ana_id", "asc")]), {hle_owner(parent)})
            check(Select("ana", where=by_parent, aggregates=count),
                  {hle_owner(parent)})
        for member in keys["members"][:4]:
            by_parent = Comparison("hle_id", "=", member)
            check(Select("catalog_members", where=by_parent, aggregates=count),
                  {hle_owner(member)})
            check(Select("catalog_members",
                         where=by_parent & Comparison("catalog_id", "=", 1)),
                  {hle_owner(member)})
        for unit_id in keys["units"]:
            by_unit = Comparison("unit_id", "=", unit_id)
            owner = _owner(sharded, "raw_units", "unit_id", unit_id)
            check(Select("views", where=by_unit), {owner})
            check(Select("views",
                         where=by_unit & Comparison("signal", "=", "counts")),
                  {owner})

    def test_unknown_key_reads_one_shard_and_keeps_the_single_node_answer(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        events = _seed_events([single, sharded], n=40)
        _seed_family([single, sharded], events)
        nobody = Comparison("hle_id", "=", 404_404)
        for select, expected in (
            (Select("hle", where=nobody), []),
            (Select("hle", where=scoped_where(SCIENTIST, nobody)), []),
            (Select("hle", where=nobody,
                    aggregates=[Aggregate("count", "*", "n")]), [{"n": 0}]),
            (Select("ana", where=nobody, order_by=[("ana_id", "asc")]), []),
            (Select("catalog_members", where=nobody,
                    aggregates=[Aggregate("count", "*", "n")]), [{"n": 0}]),
            (Select("views", where=Comparison("unit_id", "=", "unit:none")), []),
        ):
            touched, rows = _reads(sharded, select)
            assert touched == {0: 1}, select
            assert type(rows) is list and rows == expected
            assert rows == single.execute(select)
        # The insert of an orphan keeps its single-node error too.
        orphan = Insert("ana", {
            "ana_id": 99, "item_id": "ana:99", "hle_id": 404_404,
            "owner_id": 1, "algorithm": "histogram",
        })
        for db in (single, sharded):
            with pytest.raises(IntegrityError, match="foreign key"):
                db.execute(orphan)

    def test_one_shard_map_is_never_probed(self, monkeypatch):
        sharded = ShardedDatabase(name="one")
        install_all(sharded)
        _seed_users(sharded)
        events = _seed_events([sharded], n=10)
        keys = _seed_family([sharded], events)
        probes = []
        exists_value = Table.exists_value
        monkeypatch.setattr(
            Table, "exists_value",
            lambda table, column, value: probes.append((table.name, value))
            or exists_value(table, column, value))
        hle_id = keys["ana_parents"][0]
        assert len(sharded.execute(
            Select("hle", where=Comparison("hle_id", "=", hle_id)))) == 1
        assert sharded.execute(
            Select("hle", where=In("hle_id", [hle_id, 404_404]),
                   aggregates=[Aggregate("count", "*", "n")])) == [{"n": 1}]
        assert sharded.execute(
            Select("ana", where=Comparison("hle_id", "=", hle_id)))
        assert sharded.execute(
            Update("hle", {"kind": "seen"}, Comparison("hle_id", "=", hle_id))
        ) == 1
        # (The update's own foreign-key check asks admin_users; nobody
        # asked a key's table who holds it.)
        assert [probe for probe in probes if probe[0] != "admin_users"] == []
        assert sharded.route_counts == {"pruned": 0, "scatter": 3,
                                        "broadcast": 0}

    def test_pruned_read_skips_non_matching_shards(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        _seed_events([single, sharded], n=40)
        touched, rows = _reads(
            sharded, Select("hle", where=Comparison("start_time", "<", DAY)))
        assert rows  # day one has events
        assert set(touched) == {0}
        assert sharded.route_counts["pruned"] >= 1

    def test_broadcast_reads_touch_one_shard_round_robin(self):
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        for _ in range(8):
            assert len(sharded.execute(Select("admin_users"))) == 1
        assert sharded.route_counts["broadcast"] == 8
        # Round-robin spread the eight reads over the four shards.
        assert len(sharded.reads_by_shard) == 4

    def test_non_colocated_join_is_rejected(self):
        _single, sharded = _fresh_pair()
        with pytest.raises(ShardError, match="not co-located"):
            sharded.execute(Select(
                "hle", join=Join("raw_units", "source_unit", "unit_id"),
            ))

    def test_outer_join_from_a_broadcast_table_to_a_spread_one_is_rejected(self):
        """Every shard would add the archives none of *its* files name."""
        _single, sharded = _fresh_pair()
        files = Join("loc_files", "archive_id", "archive_id")
        assert sharded.execute(Select("loc_archives", join=files)) == []
        with pytest.raises(ShardError, match="left-outer"):
            sharded.execute(Select(
                "loc_archives",
                join=Join("loc_files", "archive_id", "archive_id", outer=True)))


class TestDifferential:
    """Randomized differential: the sharded answer must equal the
    single-node answer — rows, order, and aggregates."""

    def test_randomized_queries_match_single_node(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        rows = _seed_events([single, sharded], n=120, seed=2003)
        rng = random.Random(77)
        times = sorted(row["start_time"] for row in rows)

        for _round in range(25):
            low = rng.choice(times)
            high = low + rng.choice([100.0, DAY / 2, DAY, 2 * DAY])
            picks = rng.sample(times, 5)
            ordered_select = Select(
                "hle",
                where=Between("start_time", low, high),
                order_by=[("start_time", rng.choice(["asc", "desc"]))],
                limit=rng.choice([None, 3, 10]),
                offset=rng.choice([0, 2]),
            )
            _assert_same(single, sharded, ordered_select, ordered=True)
            _assert_same(
                single, sharded,
                Select("hle", where=In("start_time", picks)), ordered=False,
            )
            _assert_same(
                single, sharded,
                Select("hle", where=Comparison("start_time", ">=", low),
                       order_by=[("start_time", "asc")], limit=7),
                ordered=True,
            )
            _assert_same(
                single, sharded,
                Select("hle", where=Between("start_time", low, high),
                       aggregates=[
                           Aggregate("count", "*", "n"),
                           Aggregate("sum", "total_counts", "total"),
                           Aggregate("avg", "total_counts", "mean"),
                           Aggregate("min", "start_time", "first"),
                           Aggregate("max", "start_time", "last"),
                       ]),
                ordered=True,
            )
            # Selected by key: one owner answers as written (the
            # pass-through), several merge, an unknown id is nobody's.
            ids = rng.sample(range(1, len(rows) + 1), rng.choice([1, 1, 2, 5]))
            if rng.random() < 0.3:
                ids.append(404_404)
            by_key = (Comparison("hle_id", "=", ids[0]) if len(ids) == 1
                      else In("hle_id", ids))
            if rng.random() < 0.5:
                by_key = scoped_where(SCIENTIST, by_key)
            _assert_same(
                single, sharded,
                Select("hle", where=by_key,
                       columns=rng.choice([None, ["hle_id", "kind"],
                                           ["peak_rate"]]),
                       order_by=[(rng.choice(["hle_id", "peak_rate",
                                              "start_time"]),
                                  rng.choice(["asc", "desc"]))],
                       limit=rng.choice([None, 1, 3]),
                       offset=rng.choice([0, 1])),
                ordered=True,
            )
            _assert_same(single, sharded, Select("hle", where=by_key),
                         ordered=False)
            _assert_same(
                single, sharded,
                Select("hle", where=by_key,
                       aggregates=[
                           Aggregate("count", "*", "n"),
                           Aggregate("avg", "total_counts", "mean"),
                           Aggregate("max", "peak_rate", "top"),
                       ]),
                ordered=True,
            )
            _assert_same(
                single, sharded,
                Select("hle", where=by_key, group_by=["kind"],
                       aggregates=[Aggregate("count", "*", "n"),
                                   Aggregate("sum", "total_counts", "total")]),
                ordered=True,
            )

        # Projections, GROUP BY, and the full unfiltered scan.
        _assert_same(
            single, sharded,
            Select("hle", columns=["hle_id", "kind"],
                   order_by=[("hle_id", "asc")]),
            ordered=True,
        )
        _assert_same(
            single, sharded,
            Select("hle", group_by=["kind"],
                   aggregates=[Aggregate("count", "*", "n"),
                               Aggregate("avg", "peak_rate", "rate")]),
            ordered=True,
        )
        _assert_same(single, sharded, Select("hle"), ordered=False)

    def test_aggregates_over_empty_match_single_node(self):
        single, sharded = _fresh_pair()
        select = Select("hle", aggregates=[
            Aggregate("count", "*", "n"),
            Aggregate("sum", "total_counts", "total"),
            Aggregate("avg", "total_counts", "mean"),
        ])
        assert sharded.execute(select) == single.execute(select)

    def test_co_partitioned_children_and_joins_match(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        rows = _seed_events([single, sharded], n=30)
        rng = random.Random(5)
        for index, parent in enumerate(rng.sample(rows, 10), start=1):
            ana = {
                "ana_id": index, "item_id": f"ana:{index}",
                "hle_id": parent["hle_id"], "owner_id": 1,
                "algorithm": "histogram", "created_at": 1000.0,
            }
            single.execute(Insert("ana", dict(ana)))
            sharded.execute(Insert("ana", dict(ana)))
        # Children landed on their parent's shard: per-shard FK integrity
        # implies the join works shard-locally.
        _assert_same(
            single, sharded,
            Select("ana", join=Join("hle", "hle_id", "hle_id")),
            ordered=False,
        )
        _assert_same(
            single, sharded,
            Select("ana", order_by=[("ana_id", "asc")]), ordered=True,
        )
        # By parent key, through every clause: a parent with children, one
        # without, several at once and one that does not exist.
        parents = sorted({child["hle_id"]
                          for child in single.execute(Select("ana"))})
        childless = next(row["hle_id"] for row in rows
                         if row["hle_id"] not in parents)
        count = [Aggregate("count", "*", "n")]
        for by_parent in (
            Comparison("hle_id", "=", parents[0]),
            Comparison("hle_id", "=", childless),
            Comparison("hle_id", "=", 404_404),
            In("hle_id", parents[:3]),
            In("hle_id", [parents[-1], childless, 404_404]),
            scoped_where(SCIENTIST, Comparison("hle_id", "=", parents[1])),
            scoped_where(SCIENTIST, In("hle_id", parents)),
        ):
            for select in (
                Select("ana", where=by_parent, order_by=[("ana_id", "desc")]),
                Select("ana", where=by_parent, columns=["ana_id", "hle_id"],
                       order_by=[("ana_id", "asc")], limit=2, offset=1),
                Select("ana", where=by_parent, aggregates=count),
                Select("ana", where=by_parent, group_by=["hle_id"],
                       aggregates=count),
                Select("ana", where=by_parent,
                       join=Join("hle", "hle_id", "hle_id"),
                       order_by=[("ana_id", "asc")]),
                Select("ana", where=by_parent,
                       join=Join("hle", "hle_id", "hle_id"), aggregates=count),
                Select("hle", where=by_parent,
                       join=Join("ana", "hle_id", "hle_id"),
                       order_by=[("ana_id", "asc")]),
            ):
                _assert_same(single, sharded, select, ordered=True)
        for spec in sharded.shard_map:
            shard_db = sharded.shard_db(spec.shard_id)
            parents = {row["hle_id"] for row in shard_db.table("hle").rows()}
            for child in shard_db.table("ana").rows():
                assert child["hle_id"] in parents

    def test_updates_and_deletes_match_single_node(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        _seed_events([single, sharded], n=60)
        update = Update("hle", {"kind": "reclassified"},
                        where=Between("start_time", 0.0, 2 * DAY))
        assert sharded.execute(update) == single.execute(update)
        delete = Delete("hle", where=Comparison("peak_rate", "<", 100.0))
        assert sharded.execute(delete) == single.execute(delete)
        _assert_same(single, sharded, Select("hle"), ordered=False)
        # By key: each runs on the owner alone and counts as one node would.
        left = sorted(row["hle_id"] for row in single.execute(Select("hle")))
        writes_before = dict(sharded.writes_by_shard)
        for statement in (
            Update("hle", {"kind": "one"}, Comparison("hle_id", "=", left[0])),
            Update("hle", {"kind": "some"}, In("hle_id", left[1:6] + [404_404])),
            Update("hle", {"kind": "none"}, Comparison("hle_id", "=", 404_404)),
            Delete("hle", Comparison("hle_id", "=", left[0])),
            Delete("hle", Comparison("hle_id", "=", left[0])),   # gone already
            Delete("hle", In("hle_id", left[6:9])),
        ):
            assert sharded.execute(statement) == single.execute(statement), \
                statement
        assert sum(sharded.writes_by_shard.values()) \
            - sum(writes_before.values()) <= 1 + 4 + 1 + 1 + 1 + 3
        _assert_same(single, sharded, Select("hle"), ordered=False)
        # A by-key update inside the owner's range moves nothing ...
        keeper = single.execute(
            Select("hle", where=Comparison("hle_id", "=", left[10])))[0]
        nudge = Update("hle", {"start_time": keeper["start_time"] + 0.5},
                       Comparison("hle_id", "=", left[10]))
        assert sharded.execute(nudge) == single.execute(nudge) == 1
        _assert_same(single, sharded, Select("hle"), ordered=False)
        # ... and one that would leave it is still refused, rows untouched.
        far = keeper["start_time"] + 2 * DAY
        with pytest.raises(ShardError, match="split/rebalance"):
            sharded.execute(Update("hle", {"start_time": far % (4 * DAY)},
                                   Comparison("hle_id", "=", left[10])))
        _assert_same(single, sharded, Select("hle"), ordered=False)

    def test_co_partitioned_writes_by_parent_key_match_single_node(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        events = _seed_events([single, sharded], n=30)
        keys = _seed_family([single, sharded], events)
        parents = keys["ana_parents"]
        for statement in (
            Update("ana", {"status": "reviewed"},
                   Comparison("hle_id", "=", parents[0])),
            Update("ana", {"status": "batch"}, In("hle_id", parents[1:4])),
            Delete("ana", Comparison("hle_id", "=", parents[4])),
            Delete("catalog_members", In("hle_id", keys["members"][:3])),
            Delete("views", Comparison("unit_id", "=", keys["units"][0])),
            Update("ana", {"status": "nobody"},
                   Comparison("hle_id", "=", 404_404)),
        ):
            assert sharded.execute(statement) == single.execute(statement), \
                statement
        for table in ("ana", "catalog_members", "views"):
            _assert_same(single, sharded, Select(table), ordered=False)
        # Re-parenting: onto a parent of the same shard it is an update,
        # across shards it is refused.
        child = single.execute(Select("ana", limit=1))[0]
        home = _owner(sharded, "hle", "hle_id", child["hle_id"])
        same_shard = next(
            row["hle_id"] for row in events
            if row["hle_id"] != child["hle_id"]
            and _owner(sharded, "hle", "hle_id", row["hle_id"]) == home)
        elsewhere = next(
            row["hle_id"] for row in events
            if _owner(sharded, "hle", "hle_id", row["hle_id"]) != home)
        by_child = Comparison("ana_id", "=", child["ana_id"])
        move = Update("ana", {"hle_id": same_shard}, by_child)
        assert sharded.execute(move) == single.execute(move) == 1
        _assert_same(single, sharded, Select("ana"), ordered=False)
        with pytest.raises(ShardError, match="re-parent"):
            sharded.execute(Update("ana", {"hle_id": elsewhere}, by_child))
        _assert_same(single, sharded, Select("ana"), ordered=False)

    def test_update_may_not_move_rows_across_shards(self):
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        _seed_events([sharded], n=20)
        victim = sharded.execute(
            Select("hle", where=Comparison("start_time", "<", DAY), limit=1)
        )[0]
        with pytest.raises(ShardError, match="split/rebalance"):
            sharded.execute(Update(
                "hle", {"start_time": 3.5 * DAY},
                where=Comparison("hle_id", "=", victim["hle_id"]),
            ))

    def test_allocate_id_is_global_across_shards(self):
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        _seed_events([sharded], n=20)
        assert sharded.allocate_id("hle", "hle_id") == 21
        assert sharded.allocate_id("hle", "hle_id") == 22


class TestOrderedMergeAgainstOldKey:
    """The ordered scatter merge is one stable sort over the shard lists
    laid end to end; the ``heapq.merge`` under the old tuple key
    (``oracle_ordering``) is the reference: ties fall in shard order."""

    def test_merge_matches_heapq_merge_as_lists(self):
        import heapq

        from repro.shard.merge import prepare_scatter

        from .oracle_ordering import _order_key, ordered

        rng = random.Random(1818)
        for _round in range(200):
            order_by = [(rng.choice(["a", "b", "ghost"]), rng.choice(["asc", "desc"]))
                        for _ in range(rng.randint(1, 3))]
            select = Select("hle", columns=rng.choice([None, ["n"]]),
                            order_by=order_by,
                            limit=rng.choice([None, 0, 3, 50]),
                            offset=rng.choice([0, 2, 50]))
            shard_lists, n = [], 0
            for _shard in range(rng.randint(0, 4)):
                rows = []
                for _row in range(rng.randint(0, 12)):
                    rows.append({"n": n, "a": rng.choice([None, 0.0, -0.0, 1.0, -1.0]),
                                 "b": rng.choice([None, "x", "y", ""])})
                    n += 1
                shard_lists.append(ordered(rows, order_by))   # as a shard ships them
            stop = None if select.limit is None else select.offset + select.limit
            expected = list(heapq.merge(*shard_lists, key=_order_key(order_by)))
            expected = [dict(row) if select.columns is None else {"n": row["n"]}
                        for row in expected[select.offset:stop]]
            _shard_select, merge = prepare_scatter(select)
            assert merge(shard_lists) == expected


class TestDegradation:
    def _dead_shard(self, **kwargs):
        kwargs.setdefault("breaker_cooldown_s", 0.05)
        sharded = ShardedDatabase(boundaries=BOUNDS, name="deg", **kwargs)
        install_all(sharded)
        _seed_users(sharded)
        _seed_events([sharded], n=40)
        return sharded

    def test_dead_shard_degrades_only_its_time_range(self):
        sharded = self._dead_shard()
        total = len(sharded.execute(Select("hle")))
        injector = FaultInjector(seed=2003)
        injector.inject("metadb.shard.2.statement", rate=1.0)
        with use_injector(injector):
            rows = sharded.execute(Select("hle"))
            assert isinstance(rows, PartialResult)
            assert not rows.complete
            assert [m["shard_id"] for m in rows.missing_shards] == [2]
            assert rows.missing_shards[0]["low"] == 2 * DAY
            # A pruned read over a healthy range is untouched: a plain,
            # complete result.
            healthy = sharded.execute(
                Select("hle", where=Comparison("start_time", "<", DAY))
            )
            assert not isinstance(healthy, PartialResult)
            # The dead range itself: typed degraded result, zero rows.
            dead = sharded.execute(
                Select("hle", where=Between("start_time", 2 * DAY, 2.5 * DAY))
            )
            assert isinstance(dead, PartialResult) and len(dead) == 0
        assert sharded.degraded_count >= 2
        assert sharded.breakers[2].state.value == "open"
        # Fault cleared and the breaker cooled down: full service restores
        # without operator action, nothing lost.
        import time

        time.sleep(0.06)
        recovered = sharded.execute(Select("hle"))
        assert not isinstance(recovered, PartialResult)
        assert len(recovered) == total

    def test_key_selected_reads_over_a_dead_owner_stay_typed(self):
        sharded = self._dead_shard(breaker_cooldown_s=60.0)
        rows = sharded.execute(Select("hle"))
        on_0 = next(row for row in rows if row["start_time"] < DAY)
        on_2 = next(row for row in rows
                    if 2 * DAY <= row["start_time"] < 3 * DAY)
        sharded.execute(Insert("ana", {
            "ana_id": 1, "item_id": "ana:1", "hle_id": on_2["hle_id"],
            "owner_id": 1, "algorithm": "histogram",
        }))
        count = [Aggregate("count", "*", "n")]

        def by_id(hle_id, table="hle", **clauses):
            return Select(table, where=Comparison("hle_id", "=", hle_id),
                          **clauses)

        injector = FaultInjector(seed=2003)
        injector.inject("metadb.shard.2.statement", rate=1.0)
        with use_injector(injector):
            # While the breaker is still closed the probe finds the owner
            # and the owner fails: degraded by name from the first read.
            first = sharded.execute(by_id(on_2["hle_id"]))
            assert isinstance(first, PartialResult) and first == []
            while sharded.breakers[2].state.value != "open":
                sharded.execute(Select("hle"))
            rejected = sharded.obs.counter(
                "resil.breaker.rejections", breaker=sharded.breakers[2].name)
            rejections = rejected.value
            before = dict(sharded.reads_by_shard)

            healthy = sharded.execute(by_id(on_0["hle_id"]))
            assert type(healthy) is list and healthy == [on_0]
            # The open breaker was neither probed nor asked.
            assert rejected.value == rejections

            dead = sharded.execute(by_id(on_2["hle_id"]))
            assert isinstance(dead, PartialResult) and dead == []
            assert [m["shard_id"] for m in dead.missing_shards] == [2]

            unknown = sharded.execute(by_id(404_404))
            assert isinstance(unknown, PartialResult) and unknown == []
            assert [m["shard_id"] for m in unknown.missing_shards] == [2]

            for select in (by_id(on_2["hle_id"], aggregates=count),
                           by_id(on_2["hle_id"], "ana", aggregates=count)):
                counted = sharded.execute(select)
                assert isinstance(counted, PartialResult)
                assert list(counted) == [{"n": 0}]     # fetch_page indexes [0]
                assert [m["shard_id"] for m in counted.missing_shards] == [2]

            # An IN list: owners that answer do, the dead one is named.
            both = sharded.execute(Select(
                "hle", where=In("hle_id", [on_0["hle_id"], on_2["hle_id"]])))
            assert isinstance(both, PartialResult) and list(both) == [on_0]
            assert [m["shard_id"] for m in both.missing_shards] == [2]
            touched = {shard for shard, n in sharded.reads_by_shard.items()
                       if n != before.get(shard, 0)}
            assert touched == {0}
            assert sharded.explain_plan(by_id(404_404))["shard_route"][
                "shards"] == [2]
            # A write must name the one owner, so it probes every shard,
            # open breaker or not, and fails on the dead one as before.
            with pytest.raises(Exception):
                sharded.execute(Update("hle", {"kind": "x"},
                                       Comparison("hle_id", "=", on_2["hle_id"])))
            assert sharded.execute(Update(
                "hle", {"kind": "x"},
                Comparison("hle_id", "=", on_0["hle_id"]))) == 1
        strict = self._dead_shard(degraded_reads=False)
        victim = next(row for row in strict.execute(Select("hle"))
                      if 2 * DAY <= row["start_time"] < 3 * DAY)
        with use_injector(injector):
            with pytest.raises(ShardUnavailable) as excinfo:
                strict.execute(by_id(victim["hle_id"]))
            assert excinfo.value.shard_ids == (2,)

    def test_strict_mode_raises_instead_of_degrading(self):
        sharded = self._dead_shard(degraded_reads=False)
        injector = FaultInjector(seed=2003)
        injector.inject("metadb.shard.1.statement", rate=1.0)
        with use_injector(injector):
            with pytest.raises(ShardUnavailable) as excinfo:
                sharded.execute(Select("hle"))
            assert excinfo.value.shard_ids == (1,)

    def test_writes_never_degrade(self):
        sharded = self._dead_shard()
        total = len(sharded.execute(Select("hle")))
        injector = FaultInjector(seed=2003)
        injector.inject("metadb.shard.3.statement", rate=1.0)
        row = {
            "hle_id": 900, "item_id": "hle:900", "owner_id": 1,
            "start_time": 3.5 * DAY, "end_time": 3.5 * DAY + 1,
        }
        with use_injector(injector):
            with pytest.raises(Exception):
                sharded.execute(Insert("hle", dict(row)))
            # A write to a healthy shard still lands.
            row_ok = dict(row, hle_id=901, item_id="hle:901", start_time=10.0,
                          end_time=11.0)
            sharded.execute(Insert("hle", row_ok))
        assert len(sharded.execute(Select("hle"))) == total + 1

    def test_broadcast_reads_fail_over_to_healthy_shards(self):
        sharded = self._dead_shard()
        injector = FaultInjector(seed=2003)
        injector.inject("metadb.shard.0.statement", rate=1.0)
        injector.inject("metadb.shard.1.statement", rate=1.0)
        with use_injector(injector):
            for _ in range(6):
                assert len(sharded.execute(Select("admin_users"))) == 1


class TestOnlineSplit:
    def test_split_preserves_rows_and_ranges(self):
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        seeded = _seed_events([sharded], n=80)
        low_id, high_id = sharded.split(1, 1.5 * DAY)
        assert sharded.n_shards == 5
        assert [spec.shard_id for spec in sharded.shard_map] == \
            [0, low_id, high_id, 2, 3]
        rows = sharded.execute(Select("hle"))
        assert len(rows) == len(seeded)
        assert len({row["hle_id"] for row in rows}) == len(seeded)
        for spec in sharded.shard_map:
            for row in sharded.shard_db(spec.shard_id).table("hle").rows():
                assert spec.covers(row["start_time"]), spec.describe()
        assert sharded.splits == 1

    def test_key_selected_reads_follow_rows_through_a_split(self):
        single, sharded = _fresh_pair()
        _seed_users(single, sharded)
        events = _seed_events([single, sharded], n=80)
        keys = _seed_family([single, sharded], events)
        moved = [row for row in events if DAY <= row["start_time"] < 2 * DAY]
        assert any(row["start_time"] < 1.5 * DAY for row in moved)
        assert any(row["start_time"] >= 1.5 * DAY for row in moved)
        moved_parents = {row["hle_id"] for row in moved} \
            & set(keys["ana_parents"])
        assert moved_parents

        def check_all(owner_of) -> None:
            for row in moved:
                by_id = Comparison("hle_id", "=", row["hle_id"])
                touched, rows = _reads(sharded, Select("hle", where=by_id))
                assert rows == single.execute(Select("hle", where=by_id))
                assert [each["item_id"] for each in rows] == [row["item_id"]]
                assert touched == {owner_of(row): 1}
                if row["hle_id"] in moved_parents:
                    select = Select("ana", where=by_id,
                                    order_by=[("ana_id", "asc")])
                    touched, rows = _reads(sharded, select)
                    assert rows == single.execute(select) and rows
                    assert touched == {owner_of(row): 1}

        check_all(lambda row: 1)
        low_id, high_id = sharded.split(1, 1.5 * DAY)
        check_all(lambda row: low_id if row["start_time"] < 1.5 * DAY
                  else high_id)
        # Writes by key find the moved rows too.
        victim = moved[0]["hle_id"]
        update = Update("hle", {"kind": "moved"},
                        Comparison("hle_id", "=", victim))
        assert sharded.execute(update) == single.execute(update) == 1
        _assert_same(single, sharded, Select("hle"), ordered=False)

    def test_split_point_must_be_inside_the_range(self):
        _single, sharded = _fresh_pair()
        with pytest.raises(ShardError, match="outside"):
            sharded.split(1, 5 * DAY)

    def test_split_under_concurrent_reads_and_writes(self):
        """The acceptance bar: an online split with readers and writers in
        flight loses nothing and duplicates nothing, and no read ever
        fails or degrades."""
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        seeded = _seed_events([sharded], n=150)
        stop = threading.Event()
        errors: list[Exception] = []
        written = []

        def reader():
            try:
                while not stop.is_set():
                    rows = sharded.execute(Select("hle"))
                    assert not isinstance(rows, PartialResult)
                    ids = [row["hle_id"] for row in rows]
                    assert len(ids) == len(set(ids)), "duplicated rows"
                    assert len(ids) >= len(seeded), "lost rows"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        in_range = [row for row in seeded
                    if DAY <= row["start_time"] < 2 * DAY]

        def key_reader():
            """Rows of the splitting range, by id: before, during and
            after the cutover each one is exactly where the probe says."""
            rng = random.Random(17)
            try:
                while not stop.is_set():
                    row = rng.choice(in_range)
                    rows = sharded.execute(Select(
                        "hle", where=Comparison("hle_id", "=", row["hle_id"])))
                    assert not isinstance(rows, PartialResult)
                    assert [each["item_id"] for each in rows] == \
                        [row["item_id"]], "lost or duplicated by id"
                    some = rng.sample(seeded, 6)
                    rows = sharded.execute(Select(
                        "hle", where=In("hle_id",
                                        [each["hle_id"] for each in some]),
                        aggregates=[Aggregate("count", "*", "n")]))
                    assert not isinstance(rows, PartialResult)
                    assert rows == [{"n": 6}]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                for index in range(60):
                    if stop.is_set():
                        break
                    hle_id = 10_000 + index
                    sharded.execute(Insert("hle", {
                        "hle_id": hle_id, "item_id": f"hle:{hle_id}",
                        "owner_id": 1,
                        "start_time": DAY + index * 7.0,
                        "end_time": DAY + index * 7.0 + 1,
                    }))
                    written.append(hle_id)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads += [threading.Thread(target=key_reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        try:
            sharded.split(1, 1.5 * DAY)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        rows = sharded.execute(Select("hle"))
        expected = {row["hle_id"] for row in seeded} | set(written)
        assert {row["hle_id"] for row in rows} == expected
        per_shard = sum(
            len(sharded.shard_db(spec.shard_id).table("hle"))
            for spec in sharded.shard_map
        )
        assert per_shard == len(expected)

    def test_finishing_a_transaction_twice_cannot_wedge_a_split(self):
        """A second commit/rollback used to take the open-transaction
        count below zero, and the next split drained forever."""
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        _seed_events([sharded], n=40)
        endings = (sharded.commit, sharded.rollback)
        for first in endings:
            for second in endings:
                tx = sharded.begin()
                sharded.execute(
                    Update("hle", {"kind": "seen"},
                           Comparison("start_time", "<", DAY)), tx=tx)
                first(tx)
                with pytest.raises(TransactionError):
                    second(tx)
                with pytest.raises(TransactionError):
                    sharded.execute(Select("hle"), tx=tx)
                with pytest.raises(TransactionError):
                    sharded.execute(Delete("hle"), tx=tx)
                assert sharded._open_txs == 0
        assert len(sharded.execute(Select("hle"))) == 40
        done = []
        splitter = threading.Thread(
            target=lambda: done.append(sharded.split(1, 1.5 * DAY)),
            daemon=True)
        splitter.start()
        splitter.join(timeout=30)
        assert not splitter.is_alive(), "split is waiting on a phantom transaction"
        assert done and sharded.n_shards == 5

    def test_rebalance_splits_the_heaviest_shard(self):
        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        # Pile day two high so shard 1 is unambiguously the heaviest.
        rows = []
        for index in range(1, 61):
            rows.append({
                "hle_id": index, "item_id": f"hle:{index}", "owner_id": 1,
                "start_time": DAY + index * 60.0,
                "end_time": DAY + index * 60.0 + 1,
            })
        for row in rows:
            sharded.execute(Insert("hle", row))
        heavy_before = max(
            len(sharded.shard_db(spec.shard_id).table("hle"))
            for spec in sharded.shard_map
        )
        assert sharded.rebalance("hle") is not None
        heavy_after = max(
            len(sharded.shard_db(spec.shard_id).table("hle"))
            for spec in sharded.shard_map
        )
        assert heavy_after < heavy_before
        assert len(sharded.execute(Select("hle"))) == len(rows)

    def test_topology_is_flushed_to_disk_before_it_replaces_the_old_one(
            self, tmp_path):
        """The fsync goes through the journal's counted path, so the
        fault point sees it: when it fails the old file stays whole and
        the split says so."""
        from repro.obs import Observability

        obs = Observability(name="topo")
        sharded = ShardedDatabase(boundaries=BOUNDS, path=tmp_path / "db",
                                  name="topo", obs=obs)
        install_all(sharded)
        _seed_users(sharded)
        _seed_events([sharded], n=40)
        topology = tmp_path / "db" / "topology.json"
        before = topology.read_bytes()
        fsyncs = obs.registry.family_total("metadb.wal.fsyncs")
        sharded._persist_topology()
        assert obs.registry.family_total("metadb.wal.fsyncs") == fsyncs + 1
        assert topology.read_bytes() == before
        assert json.loads(before)["placement_version"] == 1

        injector = FaultInjector(seed=1)
        injector.inject("metadb.wal.fsync", error=OSError("no space"))
        persist = sharded._persist_topology

        def persist_on_a_full_disk():
            with use_injector(injector):
                persist()

        sharded._persist_topology = persist_on_a_full_disk
        with pytest.raises(OSError, match="no space"):
            sharded.split(1, 1.5 * DAY)
        assert topology.read_bytes() == before
        sharded.close()

    def test_topology_survives_reopen(self, tmp_path):
        sharded = ShardedDatabase(boundaries=(DAY,), path=tmp_path / "db",
                                  name="persist")
        install_all(sharded)
        _seed_users(sharded)
        _seed_events([sharded], n=20)
        sharded.split(1, 2 * DAY)
        total = len(sharded.execute(Select("hle")))
        sharded.checkpoint()
        sharded.close()

        reopened = ShardedDatabase(path=tmp_path / "db", name="persist")
        assert reopened.n_shards == 3
        assert [spec.high for spec in reopened.shard_map] == \
            [DAY, 2 * DAY, None]
        assert len(reopened.execute(Select("hle"))) == total


def _tuple_row(item_id: str, suffix: str = "") -> dict:
    return {"tuple_ref": f"tuple:{item_id}{suffix}", "item_id": item_id,
            "table_name": item_id.split(":")[0]}


def _file_row(file_id: int, item_id: str) -> dict:
    return {"file_id": file_id, "item_id": item_id, "archive_id": "main",
            "rel_path": f"{item_id}/{file_id}.pgm"}


def _assert_followers_with_their_owners(sharded: ShardedDatabase) -> None:
    """Every location row on exactly one shard, and on the shard of the
    event or analysis that carries its item."""
    for table, key in (("loc_tuples", "tuple_ref"), ("loc_files", "file_id")):
        for row in sharded.execute(Select(table)):
            held = _holders(sharded, table, key, row[key])
            assert len(held) == 1, (table, row, held)
            owner_table = row["item_id"].split(":")[0]
            if owner_table in ("hle", "ana"):
                assert held == _holders(
                    sharded, owner_table, "item_id", row["item_id"]), row


class TestFollowingTables:
    """Rows that follow their item (the location tables) and local logs."""

    def _seeded(self, **kwargs):
        single = Database(name="single")
        install_all(single)
        sharded = ShardedDatabase(boundaries=BOUNDS, name="follow", **kwargs)
        install_all(sharded)
        both = (single, sharded)
        _seed_users(*both)
        events = _seed_events(both, n=60)
        family = _seed_family(both, events)
        for db in both:
            db.execute(Insert("loc_archives", {
                "archive_id": "main", "root_path": "/archive"}))
        return single, sharded, events, family

    def test_a_row_is_placed_with_its_item_two_levels_deep(self):
        single, sharded, events, family = self._seeded()
        both = (single, sharded)
        for db in both:
            for row in events[:12]:
                db.execute(Insert("loc_tuples", _tuple_row(row["item_id"])))
            for ana_id in range(1, 11):      # loc_files -> ana -> hle
                db.execute(Insert("loc_files", _file_row(ana_id, f"ana:{ana_id}")))
            db.execute(Insert("loc_tuples", _tuple_row("cat:1")))
        for row in events[:12]:
            assert _holders(sharded, "loc_tuples", "item_id", row["item_id"]) \
                == [_owner(sharded, "hle", "hle_id", row["hle_id"])]
        for ana_id, parent in enumerate(family["ana_parents"], start=1):
            assert _holders(sharded, "loc_files", "item_id", f"ana:{ana_id}") \
                == [_owner(sharded, "hle", "hle_id", parent)]
        # Nobody owns a catalogue's item: the first shard keeps its row.
        assert _holders(sharded, "loc_tuples", "item_id", "cat:1") == [0]
        _assert_followers_with_their_owners(sharded)

        # Read by item, by IN list and unfiltered: each row once.
        item = events[3]["item_id"]
        owner = _owner(sharded, "hle", "hle_id", events[3]["hle_id"])
        by_item = Select("loc_tuples", where=Comparison("item_id", "=", item))
        touched, rows = _reads(sharded, by_item)
        assert rows == single.execute(by_item) and touched == {owner: 1}
        route = sharded.explain_plan(by_item)["shard_route"]
        assert (route["kind"], route["by"], route["shards"]) == (
            "pruned", "item", [owner])
        items = [row["item_id"] for row in events[:12:3]] + ["cat:1", "hle:none"]
        for select in (
            Select("loc_tuples", where=In("item_id", items),
                   order_by=[("tuple_ref", "asc")]),
            Select("loc_tuples", order_by=[("tuple_ref", "desc")], limit=5),
            Select("loc_tuples", aggregates=[Aggregate("count", "*", "n")]),
            Select("loc_files", where=Comparison("archive_id", "=", "main"),
                   order_by=[("file_id", "asc")]),
        ):
            _assert_same(single, sharded, select, ordered=True)
        assert len(sharded.execute(Select("loc_tuples"))) == 13
        assert sharded.explain_plan(Select("loc_tuples"))["shard_route"][
            "kind"] == "scatter"

        # An unknown item keeps the single-node answer from one shard.
        nobody = Select("loc_files", where=Comparison("item_id", "=", "hle:7"))
        touched, rows = _reads(sharded, nobody)
        assert rows == [] and touched == {0: 1}

    def test_rows_written_before_their_owner_are_still_reached(self):
        """The probe is of the table's own index and does not stop at the
        first holder: an item's rows may sit on two shards."""
        single, sharded, _events, _family = self._seeded()
        both = (single, sharded)
        late = {"hle_id": 900, "item_id": "hle:900", "owner_id": 1,
                "start_time": 3.5 * DAY, "end_time": 3.5 * DAY + 1,
                "created_at": 1000.0}
        for db in both:
            db.execute(Insert("loc_tuples", _tuple_row("hle:900")))
            db.execute(Insert("hle", dict(late)))
            db.execute(Insert("loc_tuples", _tuple_row("hle:900", "#2")))
        assert _holders(sharded, "loc_tuples", "item_id", "hle:900") == [0, 3]
        by_item = Select("loc_tuples", where=Comparison("item_id", "=", "hle:900"),
                         order_by=[("tuple_ref", "asc")])
        touched, rows = _reads(sharded, by_item)
        assert rows == single.execute(by_item) and len(rows) == 2
        assert touched == {0: 1, 3: 1}
        update = Update("loc_tuples", {"database_name": "moved"},
                        Comparison("item_id", "=", "hle:900"))
        assert sharded.execute(update) == single.execute(update) == 2
        delete = Delete("loc_tuples", In("item_id", ["hle:900", "hle:1"]))
        assert sharded.execute(delete) == single.execute(delete) == 2
        assert sharded.execute(by_item) == []

    def test_the_owner_is_asked_for_on_the_shard_last_written_first(self):
        """``insert_hle`` then ``register_tuple``: one probe finds it."""
        _single, sharded, _events, _family = self._seeded()
        probes = []
        for spec in sharded.shard_map:
            shard = sharded.shard_db(spec.shard_id)
            shard.holds = (lambda *args, inner=shard.holds, sid=spec.shard_id:
                           probes.append((sid, args[0])) or inner(*args))
        tx = sharded.begin()
        sharded.execute(Insert("hle", {
            "hle_id": 901, "item_id": "hle:901", "owner_id": 1,
            "start_time": 2.5 * DAY, "end_time": 2.5 * DAY + 1}), tx=tx)
        assert probes == []
        sharded.execute(Insert("loc_tuples", _tuple_row("hle:901")), tx=tx)
        sharded.commit(tx)
        assert {shard for shard, _table in probes} == {2}
        assert set(tx.parts) == {2}
        route = sharded._route(sharded._topology, "loc_tuples",
                               Comparison("item_id", "=", "hle:901"),
                               writing=True, placing=tx)
        assert (route.by, route.shard_ids) == ("owner", (2,))

    def test_update_of_an_item_column_across_shards_is_refused(self):
        _single, sharded, events, _family = self._seeded()
        here, there = events[0], next(
            row for row in events
            if _owner(sharded, "hle", "hle_id", row["hle_id"])
            != _owner(sharded, "hle", "hle_id", events[0]["hle_id"]))
        sharded.execute(Insert("loc_tuples", _tuple_row(here["item_id"])))
        where = Comparison("tuple_ref", "=", f"tuple:{here['item_id']}")
        with pytest.raises(ShardError, match="re-parent"):
            sharded.execute(Update(
                "loc_tuples", {"item_id": there["item_id"]}, where))
        # Onto an item of the same shard (or nobody's, from the first
        # shard) the row need not move.
        same = next(
            row for row in events[1:]
            if _owner(sharded, "hle", "hle_id", row["hle_id"])
            == _owner(sharded, "hle", "hle_id", here["hle_id"]))
        assert sharded.execute(Update(
            "loc_tuples", {"item_id": same["item_id"]}, where)) == 1
        _assert_followers_with_their_owners(sharded)

    def test_local_tables_write_one_shard_and_read_them_all(self):
        single, sharded, _events, _family = self._seeded()
        log = {"component": "test", "message": "m", "at": 1.0}
        for db in (single, sharded):
            db.execute(Insert("ops_log", {"log_id": 1, **log}))
        tx = sharded.begin()
        sharded.execute(Insert("hle", {
            "hle_id": 902, "item_id": "hle:902", "owner_id": 1,
            "start_time": 3.5 * DAY, "end_time": 3.5 * DAY + 1}), tx=tx)
        sharded.execute(Insert("ops_log", {"log_id": 2, **log}), tx=tx)
        assert set(tx.parts) == {3}      # the shard the transaction writes
        sharded.commit(tx)
        single.execute(Insert("ops_log", {"log_id": 2, **log}))
        assert _holders(sharded, "ops_log", "log_id", 1) == [0]
        assert _holders(sharded, "ops_log", "log_id", 2) == [3]
        for select in (
            Select("ops_log", order_by=[("log_id", "asc")]),
            Select("ops_log", aggregates=[Aggregate("count", "*", "n"),
                                          Aggregate("max", "log_id", "top")]),
        ):
            _assert_same(single, sharded, select, ordered=True)
        assert sharded.explain_plan(Select("ops_log"))["shard_route"][
            "kind"] == "scatter"
        assert sharded.execute(Delete("ops_log", Comparison("log_id", "=", 2))) == 1
        assert sharded.allocate_id("ops_log", "log_id") == 2

    def test_report_lists_every_placement_and_rows_held(self):
        _single, sharded, events, _family = self._seeded()
        for row in events[:8]:
            sharded.execute(Insert("loc_tuples", _tuple_row(row["item_id"])))
        report = sharded.shard_report()
        assert report["placement"]["hle"] == "partitioned(start_time)"
        assert report["placement"]["ana"] == "follows(hle_id -> hle.hle_id)"
        assert report["placement"]["loc_tuples"] == "follows_item(item_id)"
        assert report["placement"]["ops_log"] == "local"
        assert report["placement"]["loc_archives"] == "broadcast"
        assert set(report["routes"]) == {"pruned", "scatter", "broadcast"}
        assert sum(entry["rows"]["loc_tuples"] for entry in report["shards"]) == 8
        assert "loc_archives" not in report["shards"][0]["rows"]

    def test_split_and_rebalance_carry_following_rows(self):
        """Followers on both sides of the cut, inserts in flight: every
        row ends beside its owner, once, and every follower copy agrees."""
        _single, sharded, events, _family = self._seeded(replicas_per_shard=2)
        for index, row in enumerate(events):
            sharded.execute(Insert("loc_tuples", _tuple_row(row["item_id"])))
            sharded.execute(Insert("loc_files", _file_row(
                1000 + index, row["item_id"])))
        for ana_id in range(1, 11):
            sharded.execute(Insert("loc_files", _file_row(ana_id, f"ana:{ana_id}")))
        sharded.execute(Insert("loc_tuples", _tuple_row("cat:1")))
        stop = threading.Event()
        errors: list[Exception] = []
        written: list[int] = []

        def writer():
            try:
                for index in range(80):
                    if stop.is_set():
                        break
                    hle_id = 5_000 + index
                    tx = sharded.begin()
                    sharded.execute(Insert("hle", {
                        "hle_id": hle_id, "item_id": f"hle:{hle_id}",
                        "owner_id": 1, "start_time": index * 4_000.0,
                        "end_time": index * 4_000.0 + 1}), tx=tx)
                    sharded.execute(Insert(
                        "loc_tuples", _tuple_row(f"hle:{hle_id}")), tx=tx)
                    sharded.commit(tx)
                    written.append(hle_id)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            sharded.split(1, 1.5 * DAY)
            assert sharded.rebalance("hle") is not None
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive() and not errors
        assert len(sharded.shard_map) == 6
        n_events = len(events) + len(written)
        assert len(sharded.execute(Select("loc_tuples"))) == n_events + 1
        assert len(sharded.execute(Select("loc_files"))) == len(events) + 10
        _assert_followers_with_their_owners(sharded)
        first = sharded.shard_map.specs[0].shard_id
        assert _holders(sharded, "loc_tuples", "item_id", "cat:1") == [first]
        for spec in sharded.shard_map:
            group = sharded.shard_db(spec.shard_id)
            assert all(not ranges for ranges in group.verify().values())


class TestConcurrentRouting:
    def test_key_probes_never_lose_a_row_that_is_being_updated(self):
        """Readers by id race writers re-keying the same rows' index
        entries (an UPDATE removes and re-inserts them).  A probe that
        read the index outside the shard's statement lock lost about one
        read in 20 000 here; under it (``Database.holds``) every read
        finds its row."""
        import sys
        import time

        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        events = _seed_events([sharded], n=40)
        targets = [row["hle_id"] for row in events[:4]]
        stop = threading.Event()
        errors: list[Exception] = []
        reads = [0]

        def reader(hle_id: int):
            select = Select("hle", where=Comparison("hle_id", "=", hle_id))
            count = Select("hle", where=In("hle_id", targets),
                           aggregates=[Aggregate("count", "*", "n")])
            try:
                while not stop.is_set():
                    rows = sharded.execute(select)
                    assert [row["hle_id"] for row in rows] == [hle_id]
                    assert sharded.execute(count) == [{"n": len(targets)}]
                    reads[0] += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer(offset: int):
            try:
                turn = 0
                while not stop.is_set():
                    turn += 1
                    hle_id = targets[(turn + offset) % len(targets)]
                    assert sharded.execute(Update(
                        "hle", {"kind": f"k{turn}"},
                        Comparison("hle_id", "=", hle_id))) == 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(hle_id,))
                   for hle_id in targets]
        threads += [threading.Thread(target=writer, args=(offset,))
                    for offset in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:1]
        assert reads[0] > 0
        assert sharded._open_txs == 0 and sharded._autocommit_writes == 0


class TestPageRouting:
    def test_one_hle_page_scatters_once_and_reads_each_key_from_its_owner(
            self, tmp_path):
        """The count pin behind the composed benchmark: of the page's
        seven statements only the rate sweep has nothing to route by."""
        from repro.dm import DataManager
        from repro.filestore import DiskArchive, StorageManager
        from repro.obs import Observability

        sharded = ShardedDatabase(boundaries=BOUNDS, name="page",
                                  replicas_per_shard=2,
                                  obs=Observability(name="page"))
        storage = StorageManager(scratch_dir=tmp_path / "scratch")
        storage.register(DiskArchive("main", tmp_path / "archive"))
        dm = DataManager(sharded, storage)
        user = dm.users.create_user("alice", "pw", group="scientist")
        ids = [
            dm.semantic.insert_hle(user, {
                key: value for key, value in row.items()
                if key not in ("hle_id", "item_id", "owner_id")
            })
            for row in _event_rows(40, 2003)
        ]
        hle_id = ids[7]
        sharded.execute(Insert("ana", {
            "ana_id": 1, "item_id": "ana:1", "hle_id": hle_id,
            "owner_id": user.user_id, "algorithm": "histogram",
        }))
        owner = _owner(sharded, "hle", "hle_id", hle_id)

        # What each shard is handed, singly or as a sub-batch.
        received = {spec.shard_id: [] for spec in sharded.shard_map}
        for shard_id, log in received.items():
            group = sharded.shard_db(shard_id)

            def execute(statement, tx=None, log=log, inner=group.execute):
                log.append(statement)
                return inner(statement, tx=tx)

            def execute_batch(statements, tx=None, log=log,
                              inner=group.execute_batch):
                log.extend(statements)
                return inner(statements, tx=tx)

            group.execute, group.execute_batch = execute, execute_batch
        routes = dict(sharded.route_counts)
        page = dm.fetch_page(user, hle_id)
        assert page.hle["hle_id"] == hle_id and page.n_analyses == 1
        assert sum(sharded.route_counts.values()) == sum(routes.values()) + 7
        assert sharded.route_counts["scatter"] == routes["scatter"] + 1
        by_key = {shard_id: sum("hle_id" in statement.where.columns()
                                for statement in log)
                  for shard_id, log in received.items()}
        # hle, analyses, and the two counts: all from the owner.
        assert by_key == {shard_id: 4 if shard_id == owner else 0
                          for shard_id in received}
        sweep = {shard_id: sum("peak_rate" in statement.where.columns()
                               for statement in log)
                 for shard_id, log in received.items()}
        assert sweep == {0: 1, 1: 1, 2: 1, 3: 1}


# -- route rules: a shape's route worked out once ------------------------------

_ID = st.one_of(st.integers(0, 64), st.none(), st.just("7"), st.just(2.5))
_TIME = st.one_of(st.floats(-DAY, 5 * DAY, allow_nan=False), st.none(), st.just("x"))
_ITEM = st.one_of(st.sampled_from(["hle:1", "hle:2", "hle:9", "ana:1", "hle:999"]),
                  st.none(), st.just(9))

#: Prepared reads over the four tables a page routes by key, each with
#: what binds it: equalities, IN lists, ranges and rate sweeps, with NULL
#: and mistyped values among the keys.
_SHAPES = [
    ("SELECT * FROM hle WHERE hle_id = ? ORDER BY hle_id ASC", (_ID,)),
    ("SELECT * FROM hle WHERE hle_id IN (?, ?, ?) ORDER BY hle_id ASC",
     (_ID, _ID, _ID)),
    ("SELECT * FROM hle WHERE start_time BETWEEN ? AND ? ORDER BY start_time ASC",
     (_TIME, _TIME)),
    ("SELECT * FROM hle WHERE start_time >= ? AND hle_id = ? ORDER BY hle_id ASC",
     (_TIME, _ID)),
    ("SELECT * FROM hle WHERE hle_id = ? AND start_time = ?", (_ID, _TIME)),
    ("SELECT * FROM hle WHERE (start_time >= ? AND kind != ?) AND hle_id IN (?, ?) "
     "ORDER BY hle_id ASC", (_TIME, st.just("saa"), _ID, _ID)),
    ("SELECT * FROM hle WHERE peak_rate >= ? ORDER BY peak_rate DESC LIMIT 10",
     (st.one_of(st.floats(0, 620, allow_nan=False), st.none()),)),
    ("SELECT * FROM hle WHERE peak_rate BETWEEN ? AND ? ORDER BY peak_rate DESC "
     "LIMIT 40", (st.floats(0, 620, allow_nan=False), st.floats(0, 620, allow_nan=False))),
    ("SELECT * FROM hle WHERE item_id = ?", (_ITEM,)),
    ("SELECT * FROM ana WHERE hle_id = ? ORDER BY ana_id ASC", (_ID,)),
    ("SELECT count(*) AS n FROM ana WHERE hle_id = ?", (_ID,)),
    ("SELECT * FROM ana WHERE ana_id = ? ORDER BY ana_id ASC", (_ID,)),
    ("SELECT count(*) AS n FROM catalog_members WHERE hle_id = ?", (_ID,)),
    ("SELECT * FROM catalog_members WHERE hle_id IN (?, ?) ORDER BY member_id ASC",
     (_ID, _ID)),
    ("SELECT * FROM loc_files WHERE item_id = ? ORDER BY file_id ASC", (_ITEM,)),
    ("SELECT * FROM loc_files WHERE item_id IN (?, ?) ORDER BY file_id ASC",
     (_ITEM, _ITEM)),
]


@st.composite
def _shaped_reads(draw):
    text, params = draw(st.sampled_from(_SHAPES))
    return prepare(text).bind(tuple(draw(param) for param in params))


@pytest.fixture(scope="module")
def route_rule_pair():
    """One node and a 4 x 2 build holding the same rows: 60 events with
    unique start times and peak rates, their analyses, a catalogue, and
    files of a few events and one analysis."""
    single = Database(name="single")
    install_all(single)
    sharded = ShardedDatabase(boundaries=BOUNDS, name="rules", replicas_per_shard=2)
    install_all(sharded)
    both = (single, sharded)
    _seed_users(*both)
    rows = _event_rows(60, 2003)
    for index, row in enumerate(rows):
        row["peak_rate"] = float(index * 37 % 601)
    for db in both:
        for row in rows:
            db.execute(Insert("hle", dict(row)))
    _seed_family(both, rows)
    for db in both:
        db.execute(Insert("loc_archives", {"archive_id": "main", "root_path": "/a"}))
        for file_id, item_id in enumerate(["hle:1", "hle:1", "hle:2", "hle:9", "ana:1"]):
            db.execute(Insert("loc_files", _file_row(file_id, item_id)))
    return single, sharded


def _outcome(run, statement):
    try:
        rows = run(statement)
    except Exception as exc:        # both sides must fail the same way
        return type(exc).__name__
    return [dict(row) for row in rows] if isinstance(rows, list) else rows


class TestRouteRules:
    @settings(max_examples=200, deadline=None)
    @given(statements=st.lists(_shaped_reads(), min_size=1, max_size=6))
    def test_route_rules_agree_with_the_single_node(self, route_rule_pair, statements):
        """A shape's rule, kept from its first binding, routes every
        later one as a statement without a shape is routed: the same
        rows as one node, the same EXPLAIN route."""
        single, sharded = route_rule_pair
        for statement in statements:
            assert statement.shape is not None
            unshaped = replace(statement)
            assert unshaped.shape is None
            assert _outcome(sharded.execute, statement) == \
                _outcome(single.execute, statement), statement
            shaped_route = _outcome(
                lambda s: sharded.explain_plan(s)["shard_route"], statement)
            assert shaped_route == _outcome(
                lambda s: sharded.explain_plan(s)["shard_route"], unshaped), statement
        assert {statement.shape for statement in statements} <= set(sharded._by_shape)


class TestShardedHedc:
    def test_full_deployment_routes_through_the_shards(self, tmp_path):
        from repro.core import Hedc
        from repro.web import HttpRequest

        hedc = Hedc.create(tmp_path / "hedc",
                           shard_boundaries=(60.0, 120.0, 180.0))
        db = hedc.dm.io.default_database
        assert isinstance(db, ShardedDatabase)
        report = hedc.ingest_observation(duration_s=240.0, seed=13,
                                         unit_target_photons=200_000)
        assert report.n_events > 0
        hedc.register_user("alice", "pw")
        client = hedc.thin_client()
        client.login("alice", "pw")
        events = hedc.events()
        assert events
        page = client.browse_hle(events[0]["hle_id"])
        assert page.page_bytes > 0
        # Data really is spread over the time-range shards.
        populated = [
            spec.shard_id for spec in db.shard_map
            if len(db.shard_db(spec.shard_id).table("hle"))
        ]
        assert len(populated) > 1

        telemetry = hedc.telemetry_report()
        assert telemetry["shard"]["n_shards"] == 4
        assert telemetry["shard"]["routes"]["scatter"] >= 1
        import json as json_module

        metrics = hedc.web.handle(
            HttpRequest.get("/hedc/metrics?format=json"))
        assert metrics.status == 200
        assert json_module.loads(metrics.text)["shard"]["n_shards"] == 4
        debug = hedc.web.handle(HttpRequest.get("/hedc/debug"))
        assert debug.status == 200
        assert "shards (4" in debug.text

    def test_unsharded_deployment_reports_no_shard_section(self, populated_hedc):
        assert populated_hedc.telemetry_report()["shard"] is None


class TestScalingModel:
    def test_throughput_grows_with_shards(self):
        from repro.evalmodel import simulate_sharded_browsing

        results = [
            simulate_sharded_browsing(96, n_middle_tier=5, n_shards=n,
                                      duration_s=120.0)
            for n in (1, 4)
        ]
        assert results[1].throughput_rps > 1.5 * results[0].throughput_rps

    def test_projection_reaches_millions_of_users(self):
        from repro.evalmodel import project_scaling, scaling_series

        series = scaling_series()
        capacities = [p.capacity_rps for p in series]
        assert capacities == sorted(capacities)
        assert series[-1].users_supported > 1_000_000
        # Replication multiplies shard capacity linearly.
        replicated = project_scaling(256, replicas_per_shard=4)
        assert replicated.users_supported > 4_000_000

    def test_fully_pruned_workload_scales_linearly(self):
        from repro.evalmodel import project_scaling

        one = project_scaling(1, pruned_fraction=1.0)
        four = project_scaling(4, pruned_fraction=1.0)
        assert four.capacity_rps == pytest.approx(4 * one.capacity_rps)

    def test_measured_pruned_fraction_feeds_the_projection(self):
        """Close the loop: the route counters of a real sharded workload
        calibrate the analytic model."""
        from repro.evalmodel import project_scaling

        _single, sharded = _fresh_pair()
        _seed_users(sharded)
        rows = _seed_events([sharded], n=40)
        rng = random.Random(11)
        for _ in range(30):
            t = rng.choice(rows)["start_time"]
            sharded.execute(Select(
                "hle", where=Between("start_time", t - 100, t + 100)))
            sharded.execute(Select("hle", order_by=[("peak_rate", "desc")],
                                   limit=5))
        routed = sharded.route_counts
        data_reads = routed["pruned"] + routed["scatter"]
        fraction = routed["pruned"] / data_reads
        assert 0.0 < fraction < 1.0
        projection = project_scaling(16, pruned_fraction=fraction)
        assert projection.capacity_rps > \
            project_scaling(1, pruned_fraction=fraction).capacity_rps

    def test_scatter_gather_resumes_on_the_slowest_branch(self):
        from repro.simkit import FcfsServer, Simulator, scatter_gather, spawn

        sim = Simulator()
        servers = [FcfsServer(sim, name=f"s{i}") for i in range(3)]
        servers[2].request(0.5)  # pre-load one branch with queueing delay
        finished = {}

        def fan_out():
            yield scatter_gather(servers, 0.1)
            finished["at"] = sim.now

        spawn(sim, fan_out())
        sim.run(until=2.0)
        assert finished["at"] == pytest.approx(0.6)

    def test_config_placement_classes(self):
        from repro.schema import GENERIC_SCHEMAS, RHESSI_SCHEMAS
        from repro.shard.partition import joinable

        schemas = {schema.name: schema for schema in
                   (factory() for factory in GENERIC_SCHEMAS + RHESSI_SCHEMAS)}
        kinds = {name: schema.placement.kind for name, schema in schemas.items()}
        assert kinds["hle"] == "partitioned"
        assert kinds["ana"] == "follows"
        assert kinds["admin_users"] == "broadcast"
        assert kinds["loc_files"] == "follows_item"
        assert kinds["ops_log"] == "local"
        assert joinable(schemas["ana"], schemas["hle"])
        assert joinable(schemas["catalog_members"], schemas["catalogs"])
        assert joinable(schemas["ana"], schemas["catalog_members"])
        assert not joinable(schemas["hle"], schemas["raw_units"])
        assert not joinable(schemas["loc_files"], schemas["ana"])
