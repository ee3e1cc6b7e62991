"""Composed-page guard: an HLE page's batch goes down the sharded,
replicated stack as a batch.

Counts on an on-disk 4 x 2 stack (four time shards, two copies each),
which repeat exactly, and one timing:

* one page is at most 5 ``ReplicaGroup`` read calls, where the
  statement-by-statement path made 10: the ``hle`` tuple, then one
  sub-batch to the shard that holds the event (its analyses, both
  counts, its files, its share of ``similar``, its neighbours) and one
  ``similar`` to each of the other three.  A top-up is one more.
* on average at most 8 ``holds`` probes a page, where there were ~19:
  the shard that held the last key is asked first, the three statements
  keyed by ``hle_id`` share one answer, and the files statement still
  asks every shard, because rows of an item may sit on several.
* the shards return at most ``2 * ceil(40 / 4) * 4 = 80`` rows for
  ``similar`` (``ORDER BY peak_rate DESC LIMIT 40``) where each shipped
  its own 40; a page whose shares fell short says so as a top-up.
* a warm page plans nothing: each copy keeps a plan per shape, the
  shards' parts of a scattered sweep under shapes of their own, where
  each sweep planned on every shard it reached, every page.
* a warm page routes by rule: it compiles no route rule and rewrites no
  scatter (``prepare_scatter``), each kept per statement shape.
* the shard tier's own Python is bounded: the calls a page makes inside
  ``ShardedDatabase.execute_batch`` and not under a shard database's
  ``execute`` or ``execute_batch`` (``sys.setprofile`` "call" events,
  generator resumes included, the merge's key calls too) were 580 a
  page when every statement's route was worked out anew and every group
  read looked its breakers up again, and 459 when a referencing
  statement's WHERE was rebuilt from builder closures; 453 now that
  every value enters through one walk.  The bound is 494.
* ``DataManager.fetch_page`` is at least 1.15x faster than on the
  retired path (``tests/oracle_scatter.py``) patched in.

Run from the repository root, so that ``tests`` is importable.
"""

from __future__ import annotations

import random
import sys

from conftest import min_per_call
from repro.dm import DataManager
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Database, Insert
from repro.metadb import database as database_module
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.shard import ShardedDatabase
from repro.shard import sharded as sharded_module
from tests import oracle_scatter

DAY = 86_400.0
N_EVENTS = 4000
MIN_PAGE_SPEEDUP = 1.15
MAX_WRAPPER_CALLS_PER_PAGE = 494


def _stack(tmp_path):
    """4 000 events over four days, peak rates log-uniform over three
    decades, every fourth event with an analysis."""
    obs = Observability(name="page")
    database = ShardedDatabase(
        boundaries=(DAY, 2 * DAY, 3 * DAY), path=tmp_path / "db",
        name="page", obs=obs, replicas_per_shard=2)
    storage = StorageManager(scratch_dir=tmp_path / "scratch")
    storage.register(DiskArchive("main", tmp_path / "archive"))
    dm = DataManager(database, storage, obs=obs)
    dm.io.names.ensure_archive("main", str(tmp_path / "archive"))
    user = dm.users.create_user("bench", "pw", group="scientist")
    rng = random.Random(2003)
    tx = database.begin()
    for index in range(N_EVENTS):
        hle_id = index + 1
        start = 4 * DAY * (index + rng.random() * 0.9) / N_EVENTS
        database.execute(Insert("hle", {
            "hle_id": hle_id, "item_id": f"hle:{hle_id}",
            "owner_id": user.user_id, "public": True, "kind": "flare",
            "title": f"flare {hle_id}", "start_time": start,
            "end_time": start + 60.0,
            "peak_rate": 10.0 ** rng.uniform(1.0, 4.0),
            "n_analyses": int(index % 4 == 0)}), tx=tx)
        database.execute(Insert("loc_tuples", {
            "tuple_ref": f"tuple:hle:{hle_id}", "item_id": f"hle:{hle_id}",
            "table_name": "hle"}), tx=tx)
        if index % 4 == 0:
            database.execute(Insert("ana", {
                "ana_id": hle_id, "item_id": f"ana:{hle_id}",
                "hle_id": hle_id, "owner_id": user.user_id, "public": True,
                "algorithm": "histogram"}), tx=tx)
    database.commit(tx)
    return database, dm, user


def _browsed(n_pages: int) -> list[int]:
    """Four of five browsed events are recent (the newest shard's)."""
    rng = random.Random(7)
    recent = N_EVENTS * 3 // 4
    return [rng.randint(recent + 1, N_EVENTS) if rng.random() < 0.8
            else rng.randint(1, recent) for _ in range(n_pages)]


class _GroupReads:
    """What reaches the replica groups while the block runs: read calls
    (a sub-batch is one), owner probes, plans made by the copies, and
    for ``similar`` the rows the groups returned and the top-up reads
    among the calls; and above them, the route rules compiled and the
    scatter rewrites made."""

    def __enter__(self):
        self.calls = self.probes = self.plans = self.similar_rows = self.top_ups = 0
        self.rules = self.scatters = 0
        self._saved = (ReplicaGroup._read_with_failover, ReplicaGroup.holds,
                       database_module.plan_select, ShardedDatabase._rule,
                       sharded_module.prepare_scatter)
        read, holds, plan_select, rule, prepare_scatter = self._saved

        def counted_read(group, statements):
            results = read(group, statements)
            self.calls += 1
            for statement, rows in zip(statements, results):
                if statement.limit is not None and statement.where is not None \
                        and "peak_rate" in statement.where.columns():
                    self.similar_rows += len(rows)
                    self.top_ups += bool(statement.offset)
            return results

        def counted_holds(group, table, column, value):
            self.probes += 1
            return holds(group, table, column, value)

        def counted_plan(table, select):
            self.plans += 1
            return plan_select(table, select)

        def counted_rule(*args):
            self.rules += 1
            return rule(*args)

        def counted_scatter(*args):
            self.scatters += 1
            return prepare_scatter(*args)

        ReplicaGroup._read_with_failover = counted_read
        ReplicaGroup.holds = counted_holds
        database_module.plan_select = counted_plan
        ShardedDatabase._rule = counted_rule
        sharded_module.prepare_scatter = counted_scatter
        return self

    def __exit__(self, *exc_info):
        (ReplicaGroup._read_with_failover, ReplicaGroup.holds,
         database_module.plan_select, ShardedDatabase._rule,
         sharded_module.prepare_scatter) = self._saved


def _wrapper_calls(dm, user, pages) -> float:
    """Python calls per page inside ``ShardedDatabase.execute_batch``,
    not counting those under a shard database's own ``execute`` or
    ``execute_batch``."""
    inner = {Database.execute.__code__, Database.execute_batch.__code__}
    real = ShardedDatabase.execute_batch
    calls = 0

    def counted(database, *args, **kwargs):
        depth = 0

        def profile(frame, event, _arg):
            nonlocal calls, depth
            if event == "call":
                if depth:
                    depth += 1
                elif frame.f_code in inner:
                    depth = 1
                else:
                    calls += 1
            elif event == "return" and depth:
                depth -= 1
        sys.setprofile(profile)
        try:
            return real(database, *args, **kwargs)
        finally:
            sys.setprofile(None)

    ShardedDatabase.execute_batch = counted
    try:
        for hle_id in pages:
            dm.fetch_page(user, hle_id)
    finally:
        ShardedDatabase.execute_batch = real
    return calls / len(pages)


def test_a_page_is_five_group_reads_and_its_scatter_asks_for_shares(tmp_path):
    database, dm, user = _stack(tmp_path)
    pages = _browsed(60)
    for _copy in range(2):      # each copy of each shard sees each shape
        for hle_id in pages:
            dm.fetch_page(user, hle_id)
    probes = top_ups = 0
    batched, shipped = {}, {}
    for hle_id in pages:
        with _GroupReads() as reads:
            page = batched[hle_id] = dm.fetch_page(user, hle_id)
        shipped[hle_id] = reads.similar_rows
        assert page.hle["hle_id"] == hle_id and len(page.similar) == 40
        assert reads.calls - reads.top_ups == 5
        assert reads.similar_rows <= 80 + 20 * reads.top_ups
        assert reads.top_ups or reads.similar_rows <= 80
        assert reads.plans == 0
        assert reads.rules == reads.scatters == 0
        probes += reads.probes
        top_ups += reads.top_ups
    assert probes / len(pages) <= 8
    assert top_ups <= len(pages) // 10      # the factor 2 keeps them rare

    # The same pages on the retired path: ten reads each, every shard
    # ships all it has of 40, and the rows are the same.
    with oracle_scatter.installed():
        for hle_id in pages[:10]:
            with _GroupReads() as reads:
                retired = dm.fetch_page(user, hle_id)
            assert reads.calls >= 10
            assert reads.similar_rows > 1.4 * shipped[hle_id]
            assert retired == batched[hle_id]
    database.close()


def test_the_shard_tier_makes_a_bounded_number_of_python_calls_a_page(tmp_path):
    database, dm, user = _stack(tmp_path)
    pages = _browsed(60)
    for _copy in range(2):
        for hle_id in pages:
            dm.fetch_page(user, hle_id)
    per_page = _wrapper_calls(dm, user, pages)
    database.close()
    print(f"\n{per_page:.1f} Python calls a page in the shard tier")
    assert per_page <= MAX_WRAPPER_CALLS_PER_PAGE, per_page


def test_the_page_batch_is_faster_than_statement_by_statement(tmp_path):
    database, dm, user = _stack(tmp_path)
    pages = _browsed(40)

    def browse():
        for hle_id in pages:
            dm.fetch_page(user, hle_id)

    with oracle_scatter.installed():
        retired = min_per_call(browse, calls=3)
    batched = min_per_call(browse, calls=3)
    database.close()
    assert retired / batched >= MIN_PAGE_SPEEDUP, (
        f"page batch {batched / len(pages) * 1e6:.0f} us, "
        f"statement by statement {retired / len(pages) * 1e6:.0f} us"
    )
