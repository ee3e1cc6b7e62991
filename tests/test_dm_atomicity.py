"""Every DM write service is one transaction: a failure on its last
statement reaches the caller and leaves every table it writes as it was.

Each service runs twice on inputs of the same shape.  The first run
counts the statements of its (first) transaction; the second makes the
last of them fail after it ran, through a patched ``IoLayer.execute``.
The two services that store a file before their transaction
(``ProcessLayer.load_raw_unit`` and ``RoutineLibrary.submit``) must also
remove it again.  Both runs go through a plain ``Database`` and a 4 x 2
``ShardedDatabase``.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import AnalysisProduct
from repro.dm import DataManager, IoLayer, PurgeRule
from repro.filestore import DiskArchive, StorageManager
from repro.metadb import Database, Select
from repro.pl import RoutineLibrary
from repro.rhessi import TelemetryGenerator, package_units, standard_day_plan
from repro.shard import ShardedDatabase

DAY = 86_400.0
ROUTINE = "function twice{k}, x\n  return, 2 * x\nend\n"


class Injected(Exception):
    """The failure a test makes a transaction's last statement raise."""


@pytest.fixture(scope="module")
def units(tmp_path_factory):
    plan = standard_day_plan(duration=60.0, seed=23, n_flares=1, n_bursts=0, n_saa=0)
    photons = TelemetryGenerator(plan, seed=23).generate()
    incoming = tmp_path_factory.mktemp("incoming")
    found = package_units(photons, incoming, unit_target_photons=len(photons) // 2 + 1)
    assert len(found) == 2
    return found


def _dm(build: str, tmp_path) -> DataManager:
    if build == "database":
        database = Database(name=build)
    else:
        database = ShardedDatabase((DAY, 2 * DAY, 3 * DAY), name=build,
                                   replicas_per_shard=2)
    storage = StorageManager(scratch_dir=tmp_path / "scratch")
    archive = DiskArchive("main", tmp_path / "main")
    storage.register(archive)
    dm = DataManager(database, storage)
    dm.io.names.ensure_archive("main", str(archive.root))
    return dm


def _hle(dm, user, k: int, with_file: bool = False) -> int:
    hle_id = dm.semantic.insert_hle(user, {"start_time": 1.5 * DAY * k + 100.0,
                                           "end_time": 1.5 * DAY * k + 160.0})
    if with_file:
        dm.io.names.register_file(f"hle:{hle_id}", "main", f"hle/{hle_id}.bin")
    return hle_id


def _analysis(dm, user, k: int) -> int:
    product = AnalysisProduct("histogram", {"n_bins": 8}, [b"P5 1 1 255\n\x00"], ["ran"])
    return dm.semantic.import_analysis(user, _hle(dm, user, k), product, {})


# Each case: the tables the service writes, and ``prepare(dm, user, units,
# k)`` -> (the call for input k, the file it stores before its
# transaction, or None).

def _insert_hle(dm, user, units, k):
    return lambda: _hle(dm, user, k), None


def _delete_hle(dm, user, units, k):
    hle_id = _hle(dm, user, k, with_file=True)
    return lambda: dm.semantic.delete_hle(user, hle_id), None


def _import_analysis(dm, user, units, k):
    return lambda: _analysis(dm, user, k), None


def _delete_analysis(dm, user, units, k):
    ana_id = _analysis(dm, user, k)
    return lambda: dm.semantic.delete_analysis(user, ana_id), None


def _add_to_catalog(dm, user, units, k):
    catalog_id = dm.semantic.create_catalog(user, f"catalog {k}")
    hle_id = _hle(dm, user, k)
    return lambda: dm.semantic.add_to_catalog(user, catalog_id, hle_id), None


def _load_raw_unit(dm, user, units, k):
    unit = units[k]
    return (lambda: dm.process.load_raw_unit(unit, "main", build_views=False),
            f"raw/{unit.unit_id}.fits.gz")


def _purge(dm, user, units, k):
    if k == 0:
        dm.maintenance.add_purge_rule(PurgeRule("old", max_age_s=1.0))
    _analysis(dm, user, k)
    return lambda: dm.maintenance.apply_purge_rules(now=time.time() + 60.0), None


def _submit(dm, user, units, k):
    routines = RoutineLibrary(dm)
    return (lambda: routines.submit(user, f"twice{k}", ROUTINE.format(k=k)),
            f"routines/twice{k}.pro")


CASES = {
    "insert_hle": (_insert_hle, ("hle", "loc_tuples")),
    "delete_hle": (_delete_hle, ("hle", "loc_tuples", "loc_files")),
    "import_analysis": (_import_analysis, ("ana", "loc_files", "hle")),
    "delete_analysis": (_delete_analysis, ("ana", "loc_files", "hle")),
    "add_to_catalog": (_add_to_catalog, ("catalog_members", "catalogs")),
    "load_raw_unit": (_load_raw_unit, ("raw_units", "loc_files", "loc_urls")),
    "purge": (_purge, ("ana", "loc_files")),
    "submit": (_submit, ("admin_config", "loc_files")),
}


def _snapshot(dm, tables) -> dict[str, list]:
    return {table: sorted(map(repr, (sorted(row.items()) for row in
                                     dm.io.default_database.execute(Select(table)))))
            for table in tables}


@pytest.mark.parametrize("build", ["database", "sharded-4x2"])
@pytest.mark.parametrize("service", sorted(CASES))
def test_a_write_failing_on_its_last_statement_changes_nothing(
        service, build, units, tmp_path, monkeypatch):
    prepare, tables = CASES[service]
    dm = _dm(build, tmp_path)
    user = dm.users.create_user("alice", "pw", group="scientist")
    execute, commit = IoLayer.execute, IoLayer.commit
    counted: list[int] = []      # statements per committed transaction
    seen = {"n": 0}

    def counting_execute(io, statement, tx=None):
        seen["n"] += tx is not None
        return execute(io, statement, tx=tx)

    def counting_commit(io, tx):
        counted.append(seen["n"])
        seen["n"] = 0
        commit(io, tx)

    call, _stored = prepare(dm, user, units, 0)
    before = _snapshot(dm, tables)
    monkeypatch.setattr(IoLayer, "execute", counting_execute)
    monkeypatch.setattr(IoLayer, "commit", counting_commit)
    call()
    monkeypatch.undo()
    assert counted and counted[0] >= 1
    assert _snapshot(dm, tables) != before
    last = counted[0]

    call, stored = prepare(dm, user, units, 1)
    before = _snapshot(dm, tables)

    def failing_execute(io, statement, tx=None):
        result = execute(io, statement, tx=tx)
        seen["n"] += tx is not None
        if tx is not None and seen["n"] == last:
            raise Injected(f"statement {last} of {service}'s transaction")
        return result

    seen["n"] = 0
    monkeypatch.setattr(IoLayer, "execute", failing_execute)
    with pytest.raises(Injected):
        call()
    monkeypatch.undo()
    assert _snapshot(dm, tables) == before
    if stored is not None:
        assert not dm.io.storage.archive("main").exists(stored)
    dm.io.default_database.close()


@pytest.mark.parametrize("service", ["load_raw_unit", "submit"])
def test_a_failed_commit_keeps_the_stored_file(service, units, tmp_path, monkeypatch):
    """Committed rows may point at the file (a shard that committed, or
    a commit that failed on its journal), so only a failing block
    removes it."""
    dm = _dm("database", tmp_path)
    user = dm.users.create_user("alice", "pw", group="scientist")
    call, stored = CASES[service][0](dm, user, units, 0)

    def failing_commit(io, tx):
        raise Injected("commit")

    monkeypatch.setattr(IoLayer, "commit", failing_commit)
    with pytest.raises(Injected):
        call()
    assert dm.io.storage.archive("main").exists(stored)
