"""One report tree: every operator surface is a selection of
``Observability.describe()``.

Four ``Hedc`` builds (plain, sharded, replicated, composed) are logged
into, browsed and, where there is a replica, have one killed.  Then the
payload of ``telemetry_report()`` and of the three operator servlets is
held to the key sets they had before the tree existed, and every section
a surface shows is held to the same-named section of one
``obs.describe()`` taken just before.  The rest checks the tree's own
rules: weak membership of caches and breakers, ``serving``/``dm``/``data``
owned by the web tier built last and by no DM a server does not front,
sections built only when named, and one replica report per shard per
read.
"""

import gc
import json

import pytest

from repro.cache import Cache
from repro.core import Hedc
from repro.dm import DataManager
from repro.obs import Observability
from repro.resil import CircuitBreaker
from repro.web import HttpRequest, WebServer

BUILDS = {
    "plain": {},
    "sharded": {"shard_boundaries": (1000.0,)},
    "replicated": {"replicas_per_shard": 2},
    "composed": {"shard_boundaries": (1000.0,), "replicas_per_shard": 2},
}

#: Top-level keys of each surface at the commit before the tree (PR 14),
#: less ``pools``: the DM's never-used connection pools are gone.
TELEMETRY_KEYS = {
    "node", "tracing_enabled", "db", "shard", "replication", "sessions",
    "name_mapping", "caches", "resilience", "diagnostics", "runtime", "io",
    "metrics",
}
METRICS_KEYS = {
    "metrics", "traces", "caches", "resilience", "shard", "replication",
    "serving", "runtime",
}
DEBUG_KEYS = {
    "usage", "events", "slow_ops", "slow_thresholds", "exemplars", "profiler",
    "resilience", "shard", "replication", "serving",
}
DASHBOARD_KEYS = {
    "status", "health", "slos", "active_alerts", "collector", "runtime",
    "timelines",
}


def build_hedc(tmp_path, name: str) -> Hedc:
    hedc = Hedc.create(tmp_path / name, **BUILDS[name])
    user = hedc.register_user("alice", "pw", group="scientist")
    for index in range(6):
        hedc.dm.semantic.insert_hle(user, {
            "public": True, "kind": "flare", "title": f"flare {index}",
            "start_time": 400.0 * index, "end_time": 400.0 * index + 60.0,
            "peak_rate": 50.0 + 5 * index, "goes_class": "C1.0",
        })
    client = hedc.thin_client()
    assert client.login("alice", "pw")
    for hle_id in (1, 2, 5, 1):
        assert client.get(f"/hedc/hle?id={hle_id}").status == 200
    assert client.get("/hedc/catalogs").status == 200
    database = hedc.dm.io.default_database
    if name == "replicated":
        database.kill_replica("hedc-r1")
    elif name == "composed":
        database.shard_db(1).kill_replica("hedc-s1-r1")
    hedc.obs.collector.sample_once(now=1.0)
    hedc.obs.collector.sample_once(now=2.0)
    return hedc


@pytest.fixture(params=list(BUILDS))
def hedc(request, tmp_path):
    return build_hedc(tmp_path, request.param)


def as_json(value):
    """What a servlet's ``json.dumps`` makes of a section."""
    return json.loads(json.dumps(value, default=repr))


def servlet_json(hedc: Hedc, path: str) -> dict:
    response = hedc.web.handle(HttpRequest.get(path))
    assert response.status == 200, response.text
    return json.loads(response.body)


def steady(metrics: dict) -> dict:
    """A metric snapshot without the process gauges every read of the
    ``runtime`` section refreshes."""
    return {name: series for name, series in metrics.items()
            if not name.startswith("process.")}


class TestSurfacesRenderTheTree:
    def test_every_surface_keeps_its_keys(self, hedc):
        assert set(hedc.telemetry_report()) == TELEMETRY_KEYS
        assert set(servlet_json(hedc, "/hedc/metrics?format=json")) == METRICS_KEYS
        assert set(servlet_json(hedc, "/hedc/debug?format=json")) == DEBUG_KEYS
        assert set(servlet_json(hedc, "/hedc/dashboard?format=json")) == DASHBOARD_KEYS

    def test_telemetry_report_is_a_selection_of_sections(self, hedc):
        tree = hedc.obs.describe()
        report = hedc.telemetry_report()
        for key in ("node", "db", "sessions", "name_mapping", "io"):
            assert report[key] == tree["dm"][key]
        assert report["shard"] == tree["data"]["shard"]
        assert report["replication"] == tree["data"]["replication"]
        for key in ("caches", "resilience", "diagnostics"):
            assert report[key] == tree[key]
        assert steady(report["metrics"]) == steady(tree["metrics"])
        assert set(report["runtime"]) == set(tree["runtime"])
        assert report["tracing_enabled"] is hedc.obs.enabled

    def test_metrics_servlet_is_a_selection_of_sections(self, hedc):
        tree = as_json(hedc.obs.describe())
        body = servlet_json(hedc, "/hedc/metrics?format=json")
        for key in ("traces", "caches", "resilience", "serving"):
            assert body[key] == tree[key]
        assert body["shard"] == tree["data"]["shard"]
        assert body["replication"] == tree["data"]["replication"]
        assert steady(body["metrics"]) == steady(tree["metrics"])
        assert set(body["runtime"]) == set(tree["runtime"])

    def test_debug_servlet_is_a_selection_of_sections(self, hedc):
        tree = as_json(hedc.obs.describe())
        body = servlet_json(hedc, "/hedc/debug?format=json")
        for key in ("usage", "events", "slow_ops", "slow_thresholds",
                    "exemplars", "profiler", "resilience", "serving"):
            assert body[key] == tree[key]
        assert body["shard"] == tree["data"]["shard"]
        assert body["replication"] == tree["data"]["replication"]
        assert body["usage"]["page_characteristics"]["dm_queries"] == (
            tree["dm"]["io"]["queries"])

    def test_dashboard_servlet_is_a_selection_of_sections(self, hedc):
        tree = as_json(hedc.obs.describe())
        body = servlet_json(hedc, "/hedc/dashboard?format=json")
        assert body["health"] == tree["health"]
        assert body["status"] == tree["health"]["status"]
        assert body["slos"] == tree["slos"]["slos"]
        assert body["active_alerts"] == tree["slos"]["active_alerts"]
        assert body["collector"] == tree["collector"]
        assert set(body["runtime"]) == set(tree["runtime"])

    def test_health_reads_the_killed_replica_off_the_tree(self, hedc):
        report = hedc.obs.health.report()
        assert report == hedc.obs.describe("health")["health"]
        causes = report["subsystems"]["metadb"]["causes"]
        replicated = hedc.obs.describe("data")["data"]["replication"] is not None
        assert bool(causes) == replicated
        assert all("dead" in cause for cause in causes)


class TestTreeRules:
    def test_unknown_section_is_an_error(self):
        with pytest.raises(KeyError):
            Observability().describe("no-such-section")

    def test_dropped_cache_and_breaker_leave_the_tree(self):
        obs = Observability()
        cache = Cache("tree.cache", obs=obs)
        breaker = CircuitBreaker("tree.breaker", obs=obs)
        tree = obs.describe("caches", "breakers", "resilience")
        assert set(tree["caches"]) == {"tree.cache"}
        assert set(tree["breakers"]) == {"tree.breaker"}
        assert tree["resilience"]["breakers"] == tree["breakers"]
        del cache, breaker
        gc.collect()
        tree = obs.describe("caches", "breakers", "resilience")
        assert tree["caches"] == {} and tree["breakers"] == {}
        assert tree["resilience"]["breakers"] == {}

    def test_caches_sharing_a_name_merge_by_summing(self):
        obs = Observability()
        first = Cache("tree.shared", obs=obs)
        second = Cache("tree.shared", obs=obs)
        first.put("a", 1)
        first.get("a")
        second.get("missing")
        shared = obs.describe("caches")["caches"]["tree.shared"]
        assert (shared["hits"], shared["misses"], shared["puts"]) == (1, 1, 1)
        assert shared["hit_ratio"] == pytest.approx(0.5)

    def test_second_dm_and_server_on_a_live_hub_replace_their_sections(self, tmp_path):
        hedc = build_hedc(tmp_path, "plain")

        class Forwarder:
            """A database proxy in the style of the bench's recorders:
            everything but the counted ``describe`` goes through
            ``__getattr__``."""

            def __init__(self, inner):
                self._inner = inner
                self.described = 0

            def describe(self):
                self.described += 1
                return dict(self._inner.describe(), kind="forwarded")

            def __getattr__(self, name):
                return getattr(self._inner, name)

        proxy = Forwarder(hedc.dm.io.default_database)
        second = DataManager(proxy, hedc.dm.io.storage, node_name="dm-second",
                             install_schema=False, obs=hedc.obs)
        web = WebServer(second, name="web-second", obs=hedc.obs,
                        scheduler="pool", n_workers=2)
        try:
            assert proxy.described == 0      # construction never describes
            tree = hedc.obs.describe("dm", "data", "serving")
            assert proxy.described == 1
            assert tree["dm"]["node"] == "dm-second"
            assert tree["data"]["kind"] == "forwarded"
            assert tree["serving"]["scheduler"] == "pool"
        finally:
            web.shutdown()

    def test_hedc_add_dm_node_keeps_describing_the_fronted_node(self, tmp_path):
        hedc = build_hedc(tmp_path, "plain")
        queries = hedc.obs.describe("dm")["dm"]["io"]["queries"]
        extra = hedc.add_dm_node()
        node = hedc.obs.describe("dm")["dm"]
        assert node["node"] == "dm0" and node["io"]["queries"] == queries
        # ... while each node's own report is about itself.
        report = extra.telemetry_report()
        assert report["node"] == "dm1" and report["io"]["queries"] == 0
        assert hedc.telemetry_report()["node"] == "dm0"

    def test_clone_streamcorder_on_the_server_hub_moves_no_panel(self, tmp_path):
        from repro.streamcorder import StreamCorder

        hedc = build_hedc(tmp_path, "replicated")
        before = as_json(hedc.obs.describe("dm", "data", "health"))
        assert before["health"]["subsystems"]["metadb"]["causes"] == [
            "replica hedc-r1 (group) dead"]
        corder = StreamCorder(hedc.dm, hedc.dm.import_user, tmp_path / "laptop",
                              cache_strategy="clone")
        assert corder.obs is hedc.obs and corder.local_dm.node_name == "sc"
        assert as_json(hedc.obs.describe("dm", "data", "health")) == before
        report = hedc.telemetry_report()
        assert report["node"] == "dm0"
        assert report["replication"] == before["data"]["replication"]
        body = servlet_json(hedc, "/hedc/debug?format=json")
        assert body["replication"] == before["data"]["replication"]
        assert body["usage"]["page_characteristics"]["dm_queries"] == (
            hedc.dm.io.stats.queries)
        # The clone still answers for itself when asked directly.
        assert corder.local_dm.telemetry_report()["node"] == "sc"
        assert corder.local_dm.telemetry_report()["replication"] is None

    def test_server_on_another_hub_describes_the_node_it_fronts(self, tmp_path):
        hedc = build_hedc(tmp_path, "sharded")
        hub = Observability(name="panel")
        assert hub.describe("dm", "data", "serving") == {
            "dm": None, "data": None, "serving": None}
        web = WebServer(hedc.dm, name="web-panel", obs=hub)
        for path in ("/hedc/metrics?format=json", "/hedc/debug?format=json",
                     "/hedc/dashboard?format=json"):
            response = web.handle(HttpRequest.get(path))
            assert response.status == 200, response.text
        body = json.loads(web.handle(
            HttpRequest.get("/hedc/metrics?format=json")).body)
        assert body["shard"]["n_shards"] == 2
        assert hub.describe("dm")["dm"]["node"] == "dm0"

    def test_a_section_is_built_only_when_named(self, tmp_path, monkeypatch):
        hedc = build_hedc(tmp_path, "plain")
        calls = {"metrics": 0, "usage": 0}
        snapshot = hedc.obs.registry.snapshot

        def counting_snapshot():
            calls["metrics"] += 1
            return snapshot()

        def counting_usage(obs):
            calls["usage"] += 1
            return {}

        monkeypatch.setattr(hedc.obs.registry, "snapshot", counting_snapshot)
        monkeypatch.setattr("repro.obs.hub.usage_report", counting_usage)
        tree = hedc.obs.describe("data", "serving")
        assert list(tree) == ["data", "serving"]
        hedc.obs.health.report()
        assert calls == {"metrics": 0, "usage": 0}
        hedc.obs.describe("metrics", "usage")
        assert calls == {"metrics": 1, "usage": 1}

    def test_health_asks_each_shard_for_its_replicas_once(self, tmp_path):
        hedc = build_hedc(tmp_path, "composed")
        database = hedc.dm.io.default_database
        calls: dict[int, int] = {}

        def counted(shard_id, report):
            def repl_report():
                calls[shard_id] = calls.get(shard_id, 0) + 1
                return report()
            return repl_report

        for shard_id in (0, 1):
            group = database.shard_db(shard_id)
            group.repl_report = counted(shard_id, group.repl_report)
        report = hedc.obs.health.report()
        assert calls == {0: 1, 1: 1}
        assert report["subsystems"]["metadb"]["causes"] == [
            "replica hedc-s1-r1 (shard 1) dead"]
        tree = database.describe()
        assert tree["replication"]["per_shard"][1] is (
            tree["shard"]["shards"][1]["replicas"])
