"""The web servlets (paper §6.1).

Each servlet builds one response page from templates and DM queries.  The
HLE display page issues the paper's seven DM queries — tuple fetch, its
analyses, two count queries, a similar-event range query, file-reference
resolution and a recent-events range query (two of which sweep an ordered
index) — and wraps everything in header/footer templates.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Optional

import numpy as np

from ..analysis import render_pgm
from ..dm import UnknownQuery
from ..metadb import And, Comparison, QueryError, Select, parse as parse_sql
from ..obs import resolve as resolve_obs, sparkline, to_line_protocol
from ..security import AuthError, User, scoped_where
from .http import HttpRequest, HttpResponse
from .pages import build_registry

SESSION_COOKIE = "hedc_session"
#: What a row of the search page's result table reads (``SEARCH_PAGE``).
_RESULT_COLUMNS = frozenset(("hle_id", "title", "kind", "peak_rate"))


def _logo() -> bytes:
    gradient = np.outer(np.arange(16), np.arange(32)).astype(float)
    return render_pgm(gradient)


class Servlets:
    """All servlet handlers, sharing the DM and template registry."""

    def __init__(self, dm, frontend=None, obs=None):
        self.dm = dm
        self.frontend = frontend
        self.obs = obs if obs is not None else resolve_obs(getattr(dm, "obs", None))
        self.registry = build_registry()
        self._static = {"logo.pgm": _logo(), "nav.pgm": _logo()}

    # -- session helpers -----------------------------------------------------

    def _user_for(self, request: HttpRequest) -> Optional[User]:
        cookie = request.cookies.get(SESSION_COOKIE)
        if cookie is None:
            return None
        session = self.dm.sessions.by_cookie(cookie)
        return session.user if session is not None else None

    def _base_context(self, request: HttpRequest, title: str) -> dict[str, Any]:
        return {"title": title, "user": self._user_for(request)}

    # -- conditional GETs ----------------------------------------------------

    def _revalidate(self, request: HttpRequest, etag: str) -> Optional[HttpResponse]:
        """304 when the client's ``If-None-Match`` matches ``etag`` —
        derived products are immutable, so their checksums are strong
        validators and the payload read/transfer is skipped entirely."""
        if request.headers.get("If-None-Match") == etag:
            self.obs.count("web.not_modified", route=request.path)
            return HttpResponse.not_modified(etag)
        return None

    # -- static ------------------------------------------------------------------

    def static(self, request: HttpRequest) -> HttpResponse:
        name = request.path.rsplit("/", 1)[-1]
        payload = self._static.get(name)
        if payload is None:
            return HttpResponse.error(404, f"no static file {name}")
        return HttpResponse.image(payload)

    # -- login ---------------------------------------------------------------------

    def login(self, request: HttpRequest) -> HttpResponse:
        context = self._base_context(request, "login")
        context["error"] = ""
        if request.method == "POST":
            try:
                user = self.dm.authenticate(
                    request.params.get("login", ""), request.params.get("password", "")
                )
            except AuthError as exc:
                context["error"] = str(exc)
                return HttpResponse.html(self.registry.render("login_page", context))
            session = self.dm.open_session(user, "hle", client_ip=request.client_ip)
            response = HttpResponse.redirect("/hedc/catalogs")
            response.set_cookies[SESSION_COOKIE] = session.cookie
            return response
        return HttpResponse.html(self.registry.render("login_page", context))

    # -- catalogs ----------------------------------------------------------------------

    def catalogs(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        context = self._base_context(request, "catalogs")
        context["catalogs"] = self.dm.semantic.list_catalogs(user)
        return HttpResponse.html(self.registry.render("catalog_list", context))

    def catalog(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        try:
            catalog_id = int(request.params.get("id", ""))
        except ValueError:
            return HttpResponse.error(400, "missing catalog id")
        catalog, hles = self.dm.semantic.catalog_page(user, catalog_id)
        context = self._base_context(request, f"catalog {catalog['name']}")
        context.update({"catalog": catalog, "hles": hles})
        return HttpResponse.html(self.registry.render("catalog_page", context))

    # -- HLE page: the seven-query response of §7.2 ---------------------------------------

    def hle(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        try:
            hle_id = int(request.params.get("id", ""))
        except ValueError:
            return HttpResponse.error(400, "missing hle id")
        # The seven logical queries of §7.2, fetched through the DM's
        # page multi-get in two round trips.
        page = self.dm.fetch_page(user, hle_id)
        hle = page.hle
        context = self._base_context(request, hle["title"] or f"HLE {hle_id}")
        context.update(
            {
                "hle": hle,
                "n_analyses": page.n_analyses,
                "n_catalogs": page.n_catalogs,
                "n_similar": len(page.similar),
                "data_files": [
                    {"item_id": hle["item_id"], "path": name.path}
                    for name in page.files
                ],
            }
        )
        parts = [self.registry.render("hle_header", context)]
        for ana in page.analyses:
            ana_context = dict(context)
            ana_context["ana"] = ana
            ana_context["ana_images"] = [
                f"/hedc/image?item=ana:{ana['ana_id']}&index={index}"
                for index in range(ana.get("n_images") or 0)
            ]
            parts.append(self.registry.render("analysis", ana_context))
        parts.append(self.registry.render("footer", context))
        return HttpResponse.html("".join(parts))

    # -- analysis detail -------------------------------------------------------------------

    def ana(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        try:
            ana_id = int(request.params.get("id", ""))
        except ValueError:
            return HttpResponse.error(400, "missing ana id")
        ana = self.dm.semantic.get_analysis(user, ana_id)
        context = self._base_context(request, f"analysis {ana_id}")
        context["ana"] = ana
        context["images"] = [
            f"/hedc/image?item=ana:{ana_id}&index={index}"
            for index in range(ana.get("n_images") or 0)
        ]
        html = self.registry.render("ana_page", context)
        etag = '"' + hashlib.sha256(html.encode("utf-8")).hexdigest()[:24] + '"'
        cached = self._revalidate(request, etag)
        if cached is not None:
            return cached
        response = HttpResponse.html(html)
        response.headers["ETag"] = etag
        return response

    # -- files of an item: images and downloads -------------------------------------------------

    #: Item-id prefix -> the semantic-layer read that scopes it to a user.
    _ITEM_GATES = {"ana": "get_analysis", "hle": "get_hle", "cat": "get_catalog"}

    def _gate_item(self, user: Optional[User], item_id: str) -> Optional[HttpResponse]:
        """The visibility gate in front of an item's files: one scoped
        read through the semantic layer, chosen by the id's prefix.  A
        hidden item raises :class:`~repro.dm.EntityNotFound` exactly like
        a missing one (404); an id that does not parse is a 400.  Ids of
        other kinds (raw units, routines) have no owner to check."""
        prefix, _, key = item_id.partition(":")
        gate = self._ITEM_GATES.get(prefix)
        if gate is None:
            return None
        try:
            entity_id = int(key)
        except ValueError:
            return HttpResponse.error(400, f"bad {prefix} item id")
        getattr(self.dm.semantic, gate)(user, entity_id)
        return None

    def image(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        item_id = request.params.get("item", "")
        try:
            index = int(request.params.get("index", "0"))
        except ValueError:
            index = 0
        refused = self._gate_item(user, item_id)
        if refused is not None:
            return refused
        names = self.dm.io.names.resolve_files(item_id, role="image")
        if not 0 <= index < len(names):
            return HttpResponse.error(404, f"no image {index} for {item_id}")
        etag = f'"{names[index].checksum}"' if names[index].checksum else None
        if etag is not None:
            cached = self._revalidate(request, etag)
            if cached is not None:
                return cached
        payload = self.dm.io.read_item(names[index])
        response = HttpResponse.image(payload)
        if etag is not None:
            response.headers["ETag"] = etag
        return response

    def download(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        if user is None or not user.has_right("download"):
            return HttpResponse.error(403, "download requires an account with the right")
        item_id = request.params.get("item", "")
        refused = self._gate_item(user, item_id)
        if refused is not None:
            return refused
        names = self.dm.io.names.resolve_files(item_id)
        wanted = request.params.get("path")
        for name in names:
            if wanted is None or name.path == wanted:
                etag = f'"{name.checksum}"' if name.checksum else None
                if etag is not None:
                    cached = self._revalidate(request, etag)
                    if cached is not None:
                        return cached
                payload = self.dm.io.read_item(name)
                response = HttpResponse(
                    body=payload, content_type="application/octet-stream"
                )
                if etag is not None:
                    response.headers["ETag"] = etag
                return response
        return HttpResponse.error(404, f"no file for {item_id}")

    # -- search: visual params, predefined queries, or user SQL ----------------------------------

    def search(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        context = self._base_context(request, "search")
        context["sql_allowed"] = user is not None and user.has_right("analyze")
        results: list[dict] = []
        sql = request.params.get("sql")
        preset = request.params.get("preset")
        if preset:
            # A predefined query (§4.1) — visibility applies inside.
            try:
                results = self.dm.queries.run(preset, user)
            except UnknownQuery:
                return HttpResponse.error(400, "unknown preset")
        elif sql and context["sql_allowed"]:
            try:
                results = self._run_user_sql(user, sql)
            except QueryError as exc:
                return HttpResponse.error(400, f"bad SQL: {exc}")
            except AuthError as exc:
                return HttpResponse.error(403, str(exc))
        else:
            conjuncts = []
            kind = request.params.get("kind")
            if kind:
                conjuncts.append(Comparison("kind", "=", kind))
            min_rate = request.params.get("min_rate")
            if min_rate:
                try:
                    rate = float(min_rate)
                except ValueError:
                    rate = math.nan
                if not math.isfinite(rate):
                    return HttpResponse.error(400, "min_rate must be a finite number")
                conjuncts.append(Comparison("peak_rate", ">=", rate))
            where = And(conjuncts) if conjuncts else None
            results = self.dm.semantic.find_hles(
                user, where=where, order_by=[("peak_rate", "desc")], limit=100
            )
        # A stored or user SELECT may name another table or project other
        # columns than the result table reads.
        if (preset or sql) and results and not _RESULT_COLUMNS <= results[0].keys():
            return HttpResponse.error(
                400, "the result table shows " + ", ".join(sorted(_RESULT_COLUMNS))
                + ": select them")
        context["results"] = results
        return HttpResponse.html(self.registry.render("search_page", context))

    def _run_user_sql(self, user: User, sql: str) -> list[dict]:
        """Advanced users may run their own SQL (paper §1) — restricted to
        SELECT over the domain tables, with visibility enforced."""
        # The dialect has no JOIN, and must not gain one while this is the
        # guard: a merged row would carry the joined table's columns, and
        # ``scoped_where`` scopes only the table the statement names.
        statement = parse_sql(sql)
        if not isinstance(statement, Select):
            raise AuthError("only SELECT statements are allowed")
        if statement.table not in ("hle", "ana", "catalogs"):
            raise AuthError(f"SQL over table {statement.table!r} is not allowed")
        statement.where = scoped_where(user, statement.where)
        return self.dm.io.execute(statement)

    # -- analyze (submit a PL request) ------------------------------------------------------------

    def analyze(self, request: HttpRequest) -> HttpResponse:
        user = self._user_for(request)
        if user is None or not user.has_right("analyze"):
            return HttpResponse.error(403, "analysis requires an account with the right")
        if self.frontend is None:
            return HttpResponse.error(503, "no processing logic attached")
        try:
            hle_id = int(request.params.get("hle", ""))
        except ValueError:
            return HttpResponse.error(400, "missing hle id")
        algorithm = request.params.get("algorithm", "lightcurve")
        from ..pl import AnalysisRequest, ParameterError, UnknownRequestType

        try:
            strategy = self.frontend.strategy_for(algorithm)
            parameters = strategy.parse(request.params)
        except UnknownRequestType:
            return HttpResponse.error(400, "unknown algorithm")
        except ParameterError as exc:
            return HttpResponse.error(400, str(exc))
        analysis_request = AnalysisRequest(user, hle_id, algorithm, parameters)
        self.frontend.run(analysis_request)
        if analysis_request.ana_id is None:
            return HttpResponse.error(500, f"analysis failed: {analysis_request.error}")
        return HttpResponse.redirect(f"/hedc/ana?id={analysis_request.ana_id}")

    # -- telemetry: three renderings of the hub's report tree -------------------------------------

    def _panel(self, *sections: str) -> dict[str, Any]:
        """The named sections of ``obs.describe()``, the data tier's
        ``shard``/``replication`` lifted to the top level in its place:
        that is where every panel shows them."""
        body: dict[str, Any] = {}
        for name, section in self.obs.describe(*sections).items():
            if name == "data":
                body["shard"] = section["shard"]
                body["replication"] = section["replication"]
            else:
                body[name] = section
        return body

    def metrics(self, request: HttpRequest) -> HttpResponse:
        """Serve the obs registry: line protocol by default, JSON with
        ``?format=json`` (which also includes recent trace trees)."""
        if request.params.get("format") == "json":
            body = self._panel("metrics", "traces", "caches", "resilience",
                               "data", "serving", "runtime")
            return HttpResponse(
                body=json.dumps(body, indent=2).encode("utf-8"),
                content_type="application/json",
            )
        text = to_line_protocol(self.obs.registry)
        return HttpResponse(body=text.encode("utf-8"), content_type="text/plain")

    # -- deep diagnostics (events, slow ops, usage analytics, profiler) ---------------------------

    def debug(self, request: HttpRequest) -> HttpResponse:
        """The deep-diagnostics panel: structured events, slow ops with
        their attached detail, histogram exemplars, live usage analytics
        diffed against the evalmodel calibration, profiler state and
        resilience machinery — JSON with ``?format=json``, text else."""
        body = self._panel("usage", "events", "slow_ops", "slow_thresholds",
                           "exemplars", "profiler", "resilience", "data",
                           "serving")
        if request.params.get("format") == "json":
            return HttpResponse(
                body=json.dumps(body, indent=2, default=repr).encode("utf-8"),
                content_type="application/json",
            )
        lines = ["HEDC deep diagnostics", "====================", ""]
        lines.append("request mix:")
        for route, row in body["usage"]["request_mix"].items():
            lines.append(
                f"  {route:<20} {row['requests']:>6}  share={row['share']:.2f}"
                f"  p50={row['p50_s'] * 1000:.1f}ms p95={row['p95_s'] * 1000:.1f}ms"
            )
        drift = body["usage"]["calibration_drift"]
        if drift:
            lines.append("calibration drift:")
            for entry in drift:
                flag = " DRIFTED" if entry["drifted"] else ""
                lines.append(
                    f"  {entry['metric']:<24} predicted={entry['predicted']:.4g}"
                    f" measured={entry['measured']:.4g}{flag}"
                )
        lines.append(f"events ({len(body['events'])} shown):")
        for event in body["events"][-20:]:
            lines.append(
                f"  #{event['seq']} [{event['severity']}]"
                f" {event['component']}.{event['kind']}: {event['message']}"
            )
        lines.append(f"slow ops ({len(body['slow_ops'])} shown):")
        for op in body["slow_ops"][-20:]:
            lines.append(
                f"  {op['name']} {op['duration_s'] * 1000:.1f}ms"
                f" (threshold {op['threshold_s'] * 1000:.1f}ms)"
            )
        lines.append(
            f"profiler: {'running' if body['profiler']['running'] else 'stopped'},"
            f" {body['profiler']['samples']} samples"
        )
        lines.append("breakers:")
        for name, snap in body["resilience"]["breakers"].items():
            lines.append(f"  {name}: {snap['state']} trips={snap['trips']}")
        shard = body["shard"]
        if shard is not None:
            lines.append(f"shards ({shard['n_shards']}, splits={shard['splits']},"
                         f" degraded reads={shard['degraded_reads']}):")
            for entry in shard["shards"]:
                low = "-inf" if entry["low"] is None else f"{entry['low']:g}"
                high = "+inf" if entry["high"] is None else f"{entry['high']:g}"
                lines.append(
                    f"  shard {entry['shard_id']} [{low}, {high}):"
                    f" rows={entry['total_rows']} breaker={entry['breaker']}"
                    f" reads={entry['reads']} writes={entry['writes']}"
                )
                for copy in (entry.get("replicas") or {}).get("replicas", []):
                    lines.append(self._replica_line(copy, indent="    "))
        serving = body["serving"]
        if serving is not None:
            lines.append(
                f"serving: scheduler={serving['scheduler']}"
                f" workers={serving['n_workers']}"
            )
            queue = serving.get("queue")
            if queue:
                depth = sum(queue["depth"].values())
                shed = sum(queue["shed"].values())
                expired = sum(queue["expired"].values())
                lines.append(
                    f"  admission: depth={depth}/{queue['max_queue_depth']}"
                    f" shed={shed} expired={expired}"
                    f" retry_after={queue['retry_after_s']:.1f}s"
                )
                for cls, n in queue["admitted"].items():
                    lines.append(
                        f"    {cls:<9} admitted={n}"
                        f" shed={queue['shed'][cls]}"
                        f" wait_p95={queue['wait_p95_s'][cls] * 1000:.1f}ms"
                    )
            for route, caps in serving["routes"].items():
                lines.append(
                    f"  route {route}: {caps['in_use']}/{caps['limit']} in use"
                )
        repl = body["replication"]
        if repl is not None:
            if "per_shard" in repl:
                lines.append(
                    f"replication: {repl['replicas_per_shard']} copies/shard,"
                    f" max_lag={repl['max_lag']} (per-shard detail above)"
                )
            else:
                lines.append(
                    f"replication (head_lsn={repl['head_lsn']},"
                    f" max_lag={repl['max_lag']}, failovers={repl['failovers']},"
                    f" rejoins={repl['rejoins']}, repairs={repl['repairs']}):"
                )
                for copy in repl["replicas"]:
                    lines.append(self._replica_line(copy, indent="  "))
        return HttpResponse(
            body=("\n".join(lines) + "\n").encode("utf-8"),
            content_type="text/plain",
        )

    # -- the live dashboard (PR-10): health, alerts, burn, sparklines -----------------------------

    #: Series drawn as sparklines: (title, metric family, field, style).
    #: ``rate`` plots per-sample increments of a counter family;
    #: ``value`` plots the gauge itself.
    _DASHBOARD_SERIES = (
        ("req/s", "web.requests", "value", "rate"),
        ("shed/s", "web.shed", "value", "rate"),
        ("rss MB", "process.rss_bytes", "value", "mb"),
        ("threads", "process.threads", "value", "value"),
        ("canary ok", "obs.canary.ok", "value", "value"),
    )

    def _dashboard_timeline(self, name: str, field: str, style: str,
                            window_s: float = 300.0) -> list[float]:
        """One plottable timeline, summed across a family's label sets."""
        store = self.obs.collector.store
        merged: dict[float, float] = {}
        for labels in store.label_sets(name):
            for t, value in store.series(name, field=field, window_s=window_s,
                                         **labels):
                merged[t] = merged.get(t, 0.0) + float(value)
        points = [value for _t, value in sorted(merged.items())]
        if style == "rate":
            return [max(0.0, b - a) for a, b in zip(points, points[1:])]
        if style == "mb":
            return [value / (1024 * 1024) for value in points]
        return points

    def dashboard(self, request: HttpRequest) -> HttpResponse:
        """The operator's landing page: health rollup with attributed
        causes, active burn-rate alerts, per-SLO error-budget state and
        sparkline timelines — text by default, ``?format=json`` for
        machines (and for ``benchmarks/capture_dashboard.py``)."""
        tree = self.obs.describe("health", "slos", "collector")
        health, slo_report = tree["health"], tree["slos"]
        collector = tree["collector"]
        timelines = {
            title: self._dashboard_timeline(name, field, style)
            for title, name, field, style in self._DASHBOARD_SERIES
        }
        if request.params.get("format") == "json":
            body = {
                "status": health["status"],
                "health": health,
                "slos": slo_report["slos"],
                "active_alerts": slo_report["active_alerts"],
                "collector": collector,
                "runtime": self.obs.describe("runtime")["runtime"],
                "timelines": timelines,
            }
            return HttpResponse(
                body=json.dumps(body, indent=2).encode("utf-8"),
                content_type="application/json",
            )
        lines = [
            f"HEDC dashboard — status: {health['status'].upper()}",
            "=" * 40,
            f"collector: {'running' if collector['running'] else 'stopped'},"
            f" {collector['samples']} samples,"
            f" {collector['series']} series retained",
            "",
            "health:",
        ]
        for name, sub in health["subsystems"].items():
            lines.append(f"  {name:<12} {sub['status']}")
            for cause in sub["causes"]:
                lines.append(f"    - {cause}")
        alerts = slo_report["active_alerts"]
        lines.append("")
        lines.append(f"alerts ({len(alerts)} active):")
        for alert in alerts:
            burn = alert["burn"]
            burn_text = f"{burn:.1f}x" if burn is not None else "no data"
            lines.append(
                f"  {alert['slo']} [{alert['window']}] FIRING"
                f" burn={burn_text} cause={alert['cause'] or '(none)'}"
            )
        lines.append("")
        lines.append("slos:")
        for name, entry in slo_report["slos"].items():
            fast = entry["alerts"]["fast"]["burn"]
            slow = entry["alerts"]["slow"]["burn"]
            budget = entry["budget_used_fraction"]

            def _x(value):
                return f"{value:.2f}x" if value is not None else "-"

            lines.append(
                f"  {name:<24} objective={entry['objective']:.3f}"
                f" fast={_x(fast)} slow={_x(slow)} budget_burn={_x(budget)}"
            )
        lines.append("")
        lines.append("timelines (last 5m):")
        for title, values in timelines.items():
            lines.append(f"  {title:<10} {sparkline(values, width=48)}")
        return HttpResponse(
            body=("\n".join(lines) + "\n").encode("utf-8"),
            content_type="text/plain",
        )

    @staticmethod
    def _replica_line(copy: dict[str, Any], indent: str) -> str:
        repaired = (copy.get("last_repair") or {}).get("ranges_repaired")
        repair_note = f" last_repair={repaired} range(s)" if repaired else ""
        return (
            f"{indent}replica {copy['name']}: {copy['state']}"
            f" lag={copy['lag']} breaker={copy['breaker']}"
            f" reads={copy['reads']}{repair_note}"
        )
