"""The program's surface, asserted on its own source.

Every function and class defined under ``src/repro`` (at any depth, so
methods count) is either used by the program itself or is an entry point
on purpose.  A name is *used* when it appears anywhere in ``src/repro``
other than its own ``def``/``class``: as a name, an attribute, an import
or a string (a route table, ``__all__``, ``getattr``).  Dunder methods
are the language's to call.  What is left is the API that only tests,
examples, benchmarks and users call; it is listed in :data:`API`, so an
entry point that only a test uses has to be added here on purpose, and
a listed name that the program starts to use, or that is deleted, has
to leave the list.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: Entry points nothing under ``src/repro`` calls: the paper's operations
#: (ingest, analyse, share, relocate, purge, replicate), the evaluation's
#: models and printers, operator and client calls, and the few accessors
#: tests read state through.
API = {
    "add_comment", "add_dm_node", "add_history", "add_peer", "add_purge_rule",
    "add_server", "analyses_for_hle", "apply_purge_rules", "archive_status",
    "attach_database", "band_profile", "band_series", "browse_hle",
    "cache_view", "cached_view", "catalog_array", "catalog_events",
    "coefficient_count", "collapsed", "comments", "configure", "deactivate",
    "decode_density", "delete_analysis", "delete_hle", "drain",
    "enable_canary", "enable_synoptic", "encode_density", "fetch_unit",
    "generate_catalog", "history", "idle_count", "ingest_observation",
    "inject", "interrupt", "invoke_async", "is_staged", "kill_replica",
    "lineage_for", "lognormal", "mirror_hles", "mode_bin", "move_file",
    "n_archives", "n_copies", "normal", "offered_for", "peak_position",
    "progressive_lightcurve", "prune_expired", "publish_calibration",
    "publish_hle", "recalibrate_unit", "record_checksum", "register_user",
    "rejoin_replica", "remove_server", "repair", "repository_totals",
    "resolve_tuple", "resolve_urls", "route_table", "schedule_at",
    "scrub_orphan_files", "select_detector", "shard_db", "spectrum",
    "stop_all", "store_file", "submit_routine", "sync_archive_status",
    "synoptic_context", "thin_client", "to_jsonl", "top_users",
    "total_records", "unstage", "upload_analysis", "usage_summary", "verify",
    "verify_recorded", "wrap", "write_bundle",
}


def _unused_definitions() -> dict[str, list[str]]:
    """Name -> the modules defining it, for every definition whose name
    ``src/repro`` never mentions elsewhere."""
    defined: dict[str, list[str]] = {}
    mentioned: Counter = Counter()
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(
                    path.relative_to(ROOT).as_posix())
            elif isinstance(node, ast.Name):
                mentioned[node.id] += 1
            elif isinstance(node, ast.Attribute):
                mentioned[node.attr] += 1
            elif isinstance(node, ast.alias):
                mentioned[node.name.rsplit(".", 1)[-1]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned[node.value] += 1
    return {name: modules for name, modules in defined.items()
            if not mentioned[name]
            and not (name.startswith("__") and name.endswith("__"))}


def test_every_entry_point_only_tests_call_is_listed():
    unused = _unused_definitions()
    unlisted = {name: unused[name] for name in set(unused) - API}
    assert unlisted == {}, "used by nothing in src: delete it, or add it to API"


def test_every_listed_name_is_still_an_entry_point():
    assert API - set(_unused_definitions()) == set(), \
        "now used by the program or gone: take it off API"
