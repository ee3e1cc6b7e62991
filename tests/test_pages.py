"""The two-trip HLE page and the joined name construction against their
oracle (``tests/oracle_pages.py``: one query per trip, one archive query
per file row), on a plain ``Database``, a 4-shard ``ShardedDatabase``
and a 4 x 2 replicated one."""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dm import DataManager, EntityNotFound, NameMappingError
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Database, Insert
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.shard import ShardedDatabase
from repro.web import HttpRequest, WebServer
from repro.web.servlets import SESSION_COOKIE

from . import oracle_pages

DAY = 86_400.0
BOUNDS = (DAY, 2 * DAY, 3 * DAY)
BUILDS = ("plain", "sharded", "replicated")
ARCHIVES = ("main", "tape")
ROLES = ("data", "image", "log")


def _database(build: str):
    obs = Observability(name=build)
    if build == "plain":
        return Database(name=build, obs=obs)
    return ShardedDatabase(boundaries=BOUNDS, name=build, obs=obs,
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
    DELETE while file rows name it, on every copy."""
    for copy in _copies(database):
        archives = copy.table("loc_archives")
        archives.delete(archives.lookup_pk(archive_id))


#: One event: (day, public, owned by bob, file rows as (archive, role),
#: analyses as (public, owned by bob), catalogues it is filed in).
_events = st.lists(
    st.tuples(
        st.integers(0, 3), st.booleans(), st.booleans(),
        st.lists(st.tuples(st.sampled_from(ARCHIVES), st.sampled_from(ROLES)),
                 max_size=3),
        st.lists(st.tuples(st.booleans(), st.booleans()), max_size=2),
        st.sets(st.integers(0, 1)),
    ),
    min_size=1, max_size=6,
)


class _Stack:
    """One small catalogue loaded through a DataManager on ``build``."""

    def __init__(self, build: str, events, tmp_path):
        self.database = _database(build)
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
        self.hle_ids, ana_id = [], 0
        for index, (day, public, bobs, files, analyses, filed) in enumerate(events):
            owner = bob if bobs else alice
            # Distinct times and rates: no ORDER BY ties between builds.
            hle_id = dm.semantic.insert_hle(owner, {
                "start_time": day * DAY + 100.0 * index, "end_time": day * DAY + 160.0,
                "peak_rate": 40.0 + index, "public": public,
                "title": f"event {index}", "created_at": 1000.0,
            })
            self.hle_ids.append(hle_id)
            for n, (archive_id, role) in enumerate(files):
                dm.io.names.register_file(
                    f"hle:{hle_id}", archive_id, f"hle/{hle_id}/{n}.bin",
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

    def oracle_page_bytes(self, user, hle_id: int):
        self.dm.fetch_page = functools.partial(oracle_pages.fetch_page, self.dm)
        try:
            return self.page_bytes(user, hle_id)
        finally:
            del self.dm.fetch_page


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(events=_events)
def test_page_and_names_equal_the_oracle_on_every_build(events, tmp_path_factory):
    plain_bytes = {}
    for build in BUILDS:
        stack = _Stack(build, events, tmp_path_factory.mktemp(build))
        dm, io = stack.dm, stack.dm.io
        for user in stack.users:
            for hle_id in stack.hle_ids + [max(stack.hle_ids) + 1]:
                try:
                    expected = oracle_pages.fetch_page(dm, user, hle_id)
                except EntityNotFound:
                    trips = io.stats.round_trips
                    with pytest.raises(EntityNotFound):
                        dm.fetch_page(user, hle_id)
                    # Hidden or missing: the gate, and nothing after it.
                    assert io.stats.round_trips == trips + 1
                    assert stack.page_bytes(user, hle_id)[0] == 404
                    continue
                queries, trips = io.stats.queries, io.stats.round_trips
                page = dm.fetch_page(user, hle_id)
                assert (io.stats.queries - queries,
                        io.stats.round_trips - trips) == (7, 2)
                assert page.hle == expected.hle
                assert page.analyses == expected.analyses
                assert page.n_analyses == expected.n_analyses
                assert page.n_catalogs == expected.n_catalogs
                assert page.similar == expected.similar
                assert page.neighbours == expected.neighbours
                assert page.files == expected.files
                served = stack.page_bytes(user, hle_id)
                assert served == stack.oracle_page_bytes(user, hle_id)
                # And every build serves what the plain database does.
                who = user and user.login
                assert plain_bytes.setdefault((who, hle_id), served) == served
        for hle_id in stack.hle_ids:
            for role in (None,) + ROLES:
                assert io.names.resolve_files(f"hle:{hle_id}", role) == \
                    oracle_pages.resolve_files(io, f"hle:{hle_id}", role)


@pytest.mark.parametrize("build", BUILDS)
def test_file_row_of_a_lost_archive_fails_the_page(build, tmp_path):
    """An inner join would drop the row and serve a page without it."""
    events = [(1, True, False, [("main", "data"), ("tape", "image")], [], set()),
              (2, True, False, [("main", "data")], [], set())]
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


def test_what_an_operator_sees_of_one_page(tmp_path):
    """One ``dm.batch`` span of six statements under the request, one
    name construction per page, and no drift against the model's two
    trips (the only constant ``calibration_drift`` compares them with)."""
    from repro.obs import calibration_drift

    events = [(1, True, False, [("main", "data")], [(True, False)], {0})]
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
    assert [span.tags["statements"] for span in batches] == [6, 6, 6]
    drift = {entry["metric"]: entry for entry in calibration_drift(obs)}
    assert drift["dm_queries_per_page"]["measured"] == 7
    trips = drift["dm_round_trips_per_page"]
    assert (trips["predicted"], trips["measured"], trips["drifted"]) == (2.0, 2.0, False)
