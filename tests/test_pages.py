"""The one-trip HLE page and the joined name construction against their
oracles (``tests/oracle_pages.py``: one query per trip with one archive
query per file row, and the two-trip page whose second batch the DM
bound to the tuple), on a plain ``Database``, a 4-shard
``ShardedDatabase`` and a 4 x 2 replicated one."""

from __future__ import annotations

import functools
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dm import DataManager, EntityNotFound, NameMappingError
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Comparison, Database, Delete, Insert, Select
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.resil.breaker import BreakerState
from repro.shard import ShardedDatabase, ShardUnavailable
from repro.web import HttpRequest, WebServer
from repro.web.servlets import SESSION_COOKIE

from . import oracle_pages

DAY = 86_400.0
BOUNDS = (DAY, 2 * DAY, 3 * DAY)
BUILDS = ("plain", "sharded", "replicated")
ARCHIVES = ("main", "tape")
ROLES = ("data", "image", "log")


ORACLES = (oracle_pages.fetch_page, oracle_pages.fetch_page_in_two_trips)


def _database(build: str, degraded_reads: bool = True):
    obs = Observability(name=build)
    if build == "plain":
        return Database(name=build, obs=obs)
    return ShardedDatabase(boundaries=BOUNDS, name=build, obs=obs,
                           degraded_reads=degraded_reads,
                           replicas_per_shard=2 if build == "replicated" else 1)


def _copies(database):
    """Every plain ``Database`` under ``database``: shards, followers."""
    if isinstance(database, ShardedDatabase):
        for spec in database.shard_map:
            yield from _copies(database.shard_db(spec.shard_id))
    elif isinstance(database, ReplicaGroup):
        yield database.primary
        for replica in database.replicas:
            yield replica.db
    else:
        yield database


def _lose_archive(database, archive_id: str) -> None:
    """Drop an archive row beneath the foreign key that refuses its
    DELETE while file rows name it, on every copy: a keyed DELETE with
    that key lifted for the statement."""
    for copy in _copies(database):
        files = copy.table("loc_files").schema
        kept, files.foreign_keys = files.foreign_keys, []
        try:
            copy.execute(Delete("loc_archives", Comparison("archive_id", "=", archive_id)))
        finally:
            files.foreign_keys = kept


#: One event: (day, public, owned by bob, file rows as (archive, role),
#: analyses as (public, owned by bob), catalogues it is filed in, a NULL
#: peak rate, an item id of its own rather than ``hle:<id>``).
_events = st.lists(
    st.tuples(
        st.integers(0, 3), st.booleans(), st.booleans(),
        st.lists(st.tuples(st.sampled_from(ARCHIVES), st.sampled_from(ROLES)),
                 max_size=3),
        st.lists(st.tuples(st.booleans(), st.booleans()), max_size=2),
        st.sets(st.integers(0, 1)),
        st.booleans(), st.booleans(),
    ),
    min_size=1, max_size=6,
)


def _event(day, public=True, bobs=False, files=(), analyses=(), filed=(),
           no_rate=False, own_item=False):
    return (day, public, bobs, list(files), list(analyses), set(filed),
            no_rate, own_item)


class _Stack:
    """One small catalogue loaded through a DataManager on ``build``."""

    def __init__(self, build: str, events, tmp_path, degraded_reads=True):
        self.database = _database(build, degraded_reads)
        storage = StorageManager(scratch_dir=tmp_path / "scratch")
        for archive_id in ARCHIVES:
            storage.register(DiskArchive(archive_id, tmp_path / archive_id))
        dm = self.dm = DataManager(self.database, storage, obs=self.database.obs)
        for archive_id in ARCHIVES:
            dm.io.names.ensure_archive(archive_id, f"/mnt/{archive_id}")
        alice = dm.users.create_user("alice", "pw", group="scientist")
        bob = dm.users.create_user("bob", "pw", group="scientist")
        self.users = (alice, bob, None)
        catalogs = [dm.semantic.create_catalog(alice, f"c{n}", public=True)
                    for n in range(2)]
        self.hle_ids, self.items, ana_id = [], [], 0
        for index, (day, public, bobs, files, analyses, filed, no_rate,
                    own_item) in enumerate(events):
            owner = bob if bobs else alice
            # Distinct times and rates: no ORDER BY ties between builds.
            hle_id = dm.semantic.insert_hle(owner, {
                "start_time": day * DAY + 100.0 * index, "end_time": day * DAY + 160.0,
                "peak_rate": None if no_rate else 40.0 + index, "public": public,
                "title": f"event {index}", "created_at": 1000.0,
                "item_id": f"flare-{index}" if own_item else None,
            })
            item = f"flare-{index}" if own_item else f"hle:{hle_id}"
            self.hle_ids.append(hle_id)
            self.items.append(item)
            for n, (archive_id, role) in enumerate(files):
                dm.io.names.register_file(
                    item, archive_id, f"hle/{hle_id}/{n}.bin",
                    role=role, checksum=f"sum-{hle_id}-{n}")
            for ana_public, ana_bobs in analyses:
                ana_id += 1
                dm.io.execute(Insert("ana", {
                    "ana_id": ana_id, "item_id": f"ana:{ana_id}", "hle_id": hle_id,
                    "owner_id": (bob if ana_bobs else alice).user_id,
                    "public": ana_public, "algorithm": "histogram",
                    "created_at": 1000.0,
                }))
            if public or not bobs:     # alice files what alice can see
                for n in filed:
                    dm.semantic.add_to_catalog(alice, catalogs[n], hle_id)
        self.web = WebServer(dm, obs=self.database.obs)

    def page_bytes(self, user, hle_id: int):
        cookies = {}
        if user is not None:
            cookies[SESSION_COOKIE] = self.dm.open_session(user, "hle").cookie
        response = self.web.handle(
            HttpRequest("GET", "/hedc/hle", {"id": str(hle_id)}, cookies))
        return response.status, response.body

    def oracle_page_bytes(self, oracle, user, hle_id: int):
        self.dm.fetch_page = functools.partial(oracle, self.dm)
        try:
            return self.page_bytes(user, hle_id)
        finally:
            del self.dm.fetch_page

    def executed(self) -> int:
        """Statements the database has answered so far."""
        return self.database.stats.selects


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(events=_events)
def test_page_and_names_equal_the_oracle_on_every_build(events, tmp_path_factory):
    """Rows and bytes equal to both oracles, with a NULL rate (the rate
    sweep then looks around 0.0), an item id of the event's own, no file
    rows; a hidden or missing event is one trip in which the database
    answers the gate and nothing else."""
    plain_bytes = {}
    for build in BUILDS:
        stack = _Stack(build, events, tmp_path_factory.mktemp(build))
        dm, io = stack.dm, stack.dm.io
        for user in stack.users:
            for hle_id in stack.hle_ids + [max(stack.hle_ids) + 1]:
                try:
                    expected = [oracle(dm, user, hle_id) for oracle in ORACLES]
                except EntityNotFound:
                    for oracle in ORACLES:
                        with pytest.raises(EntityNotFound):
                            oracle(dm, user, hle_id)
                    queries, trips = io.stats.queries, io.stats.round_trips
                    executed = stack.executed()
                    with pytest.raises(EntityNotFound):
                        dm.fetch_page(user, hle_id)
                    # Sent seven, one trip; the gate alone ran.
                    assert (io.stats.queries - queries,
                            io.stats.round_trips - trips) == (7, 1)
                    assert stack.executed() == executed + 1
                    assert stack.page_bytes(user, hle_id)[0] == 404
                    continue
                queries, trips = io.stats.queries, io.stats.round_trips
                page = dm.fetch_page(user, hle_id)
                assert (io.stats.queries - queries,
                        io.stats.round_trips - trips) == (7, 1)
                assert expected == [page, page]
                served = stack.page_bytes(user, hle_id)
                for oracle in ORACLES:
                    assert served == stack.oracle_page_bytes(oracle, user, hle_id)
                # And every build serves what the plain database does.
                who = user and user.login
                assert plain_bytes.setdefault((who, hle_id), served) == served
        for item in stack.items:
            for role in (None,) + ROLES:
                assert io.names.resolve_files(item, role) == \
                    oracle_pages.resolve_files(io, item, role)


def _outcome(fetch):
    """What a page fetch comes to: its rows and which of them are
    partial, or the typed failure."""
    try:
        page = fetch()
    except EntityNotFound:
        return ("404",)
    except ShardUnavailable as exc:
        return ("unavailable", exc.shard_ids)
    missing = [getattr(rows, "missing_shards", None)
               for rows in (page.analyses, page.similar, page.neighbours)]
    return ("partial" if any(missing) else "whole", page, missing)


@pytest.mark.parametrize("degraded_reads", [True, False],
                         ids=["degraded", "strict"])
@pytest.mark.parametrize("build", ["sharded", "replicated"])
def test_an_open_breaker_fails_the_page_as_it_failed_the_oracles(
        build, degraded_reads, tmp_path):
    """Events on every shard, shard 2's breaker open: an event there is
    a 404 (its tuple cannot be found) and the others' sweeps over shard
    2 come back partial, or fail typed without degraded reads, exactly
    as on both oracles."""
    events = [_event(day, files=[("main", "data")], analyses=[(True, False)],
                     no_rate=day == 1) for day in (0, 1, 2, 3, 2)]
    stack = _Stack(build, events, tmp_path, degraded_reads)
    breaker = stack.database._breaker_for(2)
    while breaker.state is not BreakerState.OPEN:
        breaker.record_failure()
    outcomes = set()
    for user in stack.users:
        for hle_id in stack.hle_ids:
            fetched = _outcome(lambda: stack.dm.fetch_page(user, hle_id))
            for oracle in ORACLES:
                assert _outcome(lambda: oracle(stack.dm, user, hle_id)) == fetched
            outcomes.add(fetched[:2] if fetched[0] == "unavailable" else fetched[0])
    assert outcomes == ({"404", "partial"} if degraded_reads
                        else {("unavailable", (2,))})


@pytest.mark.parametrize("build", BUILDS)
def test_file_row_of_a_lost_archive_fails_the_page(build, tmp_path):
    """An inner join would drop the row and serve a page without it."""
    events = [_event(1, files=[("main", "data"), ("tape", "image")]),
              _event(2, files=[("main", "data")])]
    stack = _Stack(build, events, tmp_path)
    dm, (alice, _bob, _anonymous) = stack.dm, stack.users
    broken, intact = stack.hle_ids
    _lose_archive(stack.database, "tape")
    with pytest.raises(NameMappingError, match="unknown archive 'tape'"):
        dm.fetch_page(alice, broken)
    with pytest.raises(NameMappingError, match="unknown archive 'tape'"):
        oracle_pages.fetch_page(dm, alice, broken)
    with pytest.raises(NameMappingError):
        dm.io.names.resolve_files(f"hle:{broken}")
    # The row that can be named still is, and other items are untouched.
    assert [name.full for name in
            dm.io.names.resolve_files(f"hle:{broken}", role="data")] == \
        [f"/mnt/main/hle/{broken}/0.bin"]
    assert len(dm.fetch_page(alice, intact).files) == 1


@pytest.mark.parametrize("build", BUILDS)
def test_search_lists_events_without_a_rate_last(build, tmp_path):
    """An unfiltered search lists every event ``ORDER BY peak_rate DESC``,
    the twelve without a rate after the four with one (NULLS LAST), where
    the ordered-index scan it runs on used to drop them."""
    events = [_event(index % 4, no_rate=index % 4 != 0) for index in range(16)]
    stack = _Stack(build, events, tmp_path)
    response = stack.web.handle(HttpRequest("GET", "/hedc/search", {}, {}))
    assert response.status == 200
    shown = [int(hle_id) for hle_id in re.findall(r"/hedc/hle\?id=(\d+)", response.text)]
    rated = stack.hle_ids[::4]
    assert shown[:4] == rated[::-1]
    assert sorted(shown[4:]) == sorted(set(stack.hle_ids) - set(rated))


def test_an_analysis_page_reads_the_one_shard_that_holds_it(tmp_path, monkeypatch):
    """``/hedc/ana?id=`` selects ``ana`` by its own key: the route probes
    the shards' key indexes and reads one replica group, where it read
    all four, and serves the bytes the plain database does."""
    events = [_event(day, analyses=[(True, False)]) for day in range(4)]
    served = {}
    for build in ("plain", "replicated"):
        stack = _Stack(build, events, tmp_path / build)
        alice = stack.users[0]
        cookies = {SESSION_COOKIE: stack.dm.open_session(alice, "hle").cookie}
        reads = []
        read = ReplicaGroup._read_with_failover
        monkeypatch.setattr(ReplicaGroup, "_read_with_failover",
                            lambda group, statements: reads.append(group.name)
                            or read(group, statements))
        for ana_id in range(1, 5):
            before = len(reads)
            response = stack.web.handle(
                HttpRequest("GET", "/hedc/ana", {"id": str(ana_id)}, cookies))
            assert response.status == 200
            served[build, ana_id] = response.body
            if build == "replicated":
                assert len(reads) == before + 1
                route = stack.database.explain_plan(
                    Select("ana", where=Comparison("ana_id", "=", ana_id)))
                assert route["shard_route"]["kind"] == "pruned"
                assert route["shard_route"]["by"] == "key"
                assert route["shard_route"]["shards"] == [ana_id - 1]
        monkeypatch.undo()
    assert all(served["replicated", ana_id] == served["plain", ana_id]
               for ana_id in range(1, 5))


def test_what_an_operator_sees_of_one_page(tmp_path):
    """One ``dm.batch`` span of seven statements under the request, one
    name construction per page, and no drift against the model's one
    trip (the only constant ``calibration_drift`` compares them with)."""
    from repro.obs import calibration_drift

    events = [_event(1, files=[("main", "data")], analyses=[(True, False)],
                     filed={0})]
    stack = _Stack("plain", events, tmp_path)
    obs, (hle_id,) = stack.database.obs, stack.hle_ids
    lookups = stack.dm.describe()["name_mapping"]["lookups"]
    stack.dm.io.stats.reset()
    obs.enable()
    for _page in range(3):
        assert stack.page_bytes(None, hle_id)[0] == 200
    obs.disable()
    assert stack.dm.describe()["name_mapping"]["lookups"] == lookups + 3
    assert "batched_pages" not in stack.dm.describe()
    batches = [span for root in obs.tracer.finished_spans()
               for span in root.walk() if span.name == "dm.batch"]
    assert [span.tags["statements"] for span in batches] == [7, 7, 7]
    drift = {entry["metric"]: entry for entry in calibration_drift(obs)}
    assert drift["dm_queries_per_page"]["measured"] == 7
    trips = drift["dm_round_trips_per_page"]
    assert (trips["predicted"], trips["measured"], trips["drifted"]) == (1.0, 1.0, False)


@pytest.mark.parametrize("build", ["plain", "replicated"])
def test_explain_splits_a_page_statement_into_index_cond_and_filter(build, tmp_path):
    """EXPLAIN of the page's two sweeps and of its key probe, on one node
    and on the 4 x 2 stack: the seek enforces the range, the probe the
    key, and the filter tests only what is left (the visibility check)."""
    from repro.dm.semantic import scoped_select
    from repro.metadb import Between
    from repro.security import scoped_where

    stack = _Stack(build, [_event(day) for day in range(4)], tmp_path)
    alice, hle_id = stack.users[0], stack.hle_ids[1]
    visibility = f"(public = TRUE OR owner_id = {alice.user_id})"
    sweeps = [
        (Select("hle", where=scoped_where(alice, Between("peak_rate", 10.0, 90.0)),
                order_by=[("peak_rate", "desc")], limit=40),
         "peak_rate BETWEEN 10.0 AND 90.0"),
        (Select("hle", where=scoped_where(alice, Between("start_time", 0.0, DAY)),
                order_by=[("start_time", "asc")], limit=40),
         f"start_time BETWEEN 0.0 AND {DAY!r}"),
    ]
    for select, seek in sweeps:
        plan = stack.database.explain_plan(select)
        assert (plan["access"], plan["index_cond"], plan["filter"]) == \
            ("range_scan", [seek], [visibility])
    probes = [(scoped_select(alice, "hle", hle_id), [visibility]),
              (scoped_select(None, "hle", hle_id), ["public = TRUE"]),
              (Select("hle", where=Comparison("hle_id", "=", hle_id)), [])]
    for select, residual in probes:
        plan = stack.database.explain_plan(select)
        assert (plan["access"], plan["index_cond"], plan["filter"]) == \
            ("pk_probe", [f"hle_id = {hle_id}"], residual)
