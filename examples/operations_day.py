"""A day in the life of a HEDC operator.

Exercises the administrative machinery of §4.1 and the scaling knobs of
§7.3: predefined queries, operator reports, purge rules, orphan
scrubbing, archive reorganisation and database replication — the side of
the paper's "designing for a moving target" that users never see.

Run:  python examples/operations_day.py
"""

import tempfile
import time
from pathlib import Path

from repro import Hedc
from repro.dm import PurgeRule
from repro.filestore import DiskArchive
from repro.metadb import Comparison, Select, Update


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="hedc-ops-"))
    hedc = Hedc.create(workdir)
    hedc.ingest_observation(duration_s=600.0, seed=8)
    alice = hedc.register_user("alice", "pw")

    # Users generate some derived data overnight.
    for event in hedc.events()[:3]:
        hedc.analyze(alice, event["hle_id"], "histogram")
    hedc.analyze(alice, hedc.events()[0]["hle_id"], "lightcurve", publish=True)

    # 1. Morning reports (§4.1 operational section).
    print("repository totals:", hedc.dm.reports.repository_totals())
    print("usage summary:")
    for row in hedc.dm.reports.usage_summary():
        print(f"  {row['operation']:<22} n={row['n']:<4} avg={row['avg_ms']:.1f} ms")

    hedc.dm.process.sync_archive_status()
    print("archive status:")
    for status in hedc.dm.reports.archive_status():
        print(f"  {status['archive_id']:<8} online={status['online']} "
              f"bytes={status['bytes_stored']:,}")

    # 2. A predefined query for the help desk (§4.1 administrative).
    hedc.dm.queries.register(
        "strong-events",
        "SELECT hle_id, title, kind, peak_rate FROM hle "
        "WHERE peak_rate > 100 ORDER BY peak_rate DESC LIMIT 10",
        description="the events users ask about",
    )
    print("\npredefined query 'strong-events':")
    for row in hedc.dm.queries.run("strong-events"):
        print(f"  #{row['hle_id']} {row['kind']:<16} {row['peak_rate']:8.1f} c/s")

    # 3. Quota pressure: purge stale private analyses (§4.1 rules).
    hedc.dm.io.execute(Update(           # pretend a week has passed
        "ana", {"created_at": time.time() - 8 * 86_400},
        Comparison("public", "=", False),
    ))
    hedc.dm.maintenance.add_purge_rule(PurgeRule("week-old", max_age_s=7 * 86_400))
    for report in hedc.dm.maintenance.apply_purge_rules():
        print(f"\npurge rule {report.rule!r}: {report.analyses_deleted} analyses, "
              f"{report.bytes_reclaimed:,} bytes reclaimed")
    print("published analyses survive:",
          len(hedc.dm.io.execute(Select("ana", where=Comparison("public", "=", True)))))

    # 4. New disk arrives: reorganise storage at run time (§4.3).
    shelf = DiskArchive("shelf", workdir / "shelf")
    hedc.dm.io.storage.register(shelf)
    hedc.dm.io.names.register_archive("shelf", str(shelf.root))
    moved = hedc.dm.process.relocate_archive("main", "shelf")
    print(f"\nrelocated {moved} files main -> shelf; "
          f"orphans scrubbed: {hedc.dm.maintenance.scrub_orphan_files('shelf')}")
    # Users never noticed:
    request = hedc.analyze(alice, hedc.events()[0]["hle_id"], "histogram")
    print(f"post-move analysis: {request.phase.value}")

    # 5. Read load keeps growing: replicate the database (§7.3).
    from repro.repl import ReplicaGroup

    replicated = ReplicaGroup(hedc.dm.io.default_database, n_replicas=2)
    for _query in range(90):
        replicated.execute(Select("hle", limit=5))
    print(f"\nreplicated reads by copy: {replicated.reads_by_copy}")
    divergent = {name: ranges for name, ranges in replicated.verify().items()
                 if ranges}
    print(f"divergent ranges per follower: {divergent}")


if __name__ == "__main__":
    main()
