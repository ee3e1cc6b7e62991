"""The program's surface, asserted on its own source.

Every function and class defined under ``src/repro`` (at any depth, so
methods count) is either used by the program itself or is an entry point
on purpose.  A name is *used* when it appears anywhere in ``src/repro``
other than its own ``def``/``class``: as a name, an attribute, an import
or a string (a route table, ``getattr``).  A package ``__init__`` that
imports a name and lists it in ``__all__`` only hands it on: that is
not a use.  Dunder methods are the language's to call.  What is left is the API that only tests,
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
    "add_server", "analyses_for_hle", "apply_purge_rules",
    "approximation_speedup", "archive_status",
    "band_profile", "band_series", "browse_hle", "cache_view", "cached_view", "catalog_array",
    "catalog_events", "check_can_read", "clean_iterations",
    "coefficient_count", "collapsed", "comments", "configure",
    "ConnectionPool", "deactivate", "decode_density", "delete_analysis",
    "delete_hle", "enable_canary", "enable_synoptic",
    "encode_density", "fetch_unit", "figure4_series", "figure5_series",
    "forward2d", "generate_catalog", "history", "idle_count", "in_flight",
    "ingest_observation", "inject", "interrupt", "inverse2d", "invoke_async",
    "is_staged", "kill_replica", "lineage_for", "lognormal", "mirror_hles",
    "mode_bin", "move_file", "n_archives", "n_copies",
    "normal", "nulls", "offered_for", "parse_pgm", "peak_position", "print_figure4",
    "print_figure5", "print_table1", "progressive_lightcurve", "prune_expired",
    "publish_calibration", "publish_hle", "quiet_periods", "recalibrate_unit",
    "reconstruction_error", "record_checksum", "register_user",
    "rejoin_replica", "RemoteArchive", "remove_server", "repair",
    "replica_efficiency", "repository_totals", "resolve_tuple", "resolve_urls",
    "scaling_series",
    "schedule_at", "scrub_orphan_files", "select_detector", "shard_db",
    "spec_for_value", "spectrum", "stop_all", "store_file", "submit_routine",
    "sync_archive_status", "synoptic_context", "table1_histogram",
    "table1_imaging", "thin_client", "to_jsonl", "top_users", "total_records",
    "trace_profile", "unstage", "upload_analysis", "usage_summary",
    "use_injector", "verify", "verify_file", "verify_recorded",
    "write_bundle",
}


#: Evaluation printers and series nothing calls: the digests in
#: EXPERIMENTS.md were made with them.
UNCALLED_PRINTERS = {
    "admission_ab", "figure5_sharded_series", "print_scaling_projection",
    "print_serving", "print_sharded_figure5", "worker_scaling_series",
}
API |= UNCALLED_PRINTERS


def _re_exports(tree: ast.Module) -> set[int]:
    """The nodes of a package ``__init__`` that only hand names on: its
    imports and the strings of its ``__all__``."""
    nodes: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            nodes.update(map(id, node.names))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            nodes.update(map(id, ast.walk(node.value)))
    return nodes


def _unused_definitions() -> dict[str, list[str]]:
    """Name -> the modules defining it, for every definition whose name
    ``src/repro`` never mentions elsewhere."""
    defined: dict[str, list[str]] = {}
    mentioned: Counter = Counter()
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text())
        skipped = _re_exports(tree) if path.name == "__init__.py" else set()
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
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
