"""Per-subsystem health rollup and the synthetic canary probe.

The dashboard's first line answers the only question an on-call operator
actually has: *is the archive healthy, and if not, why?*  The rollup
folds in what the system already knows about itself — breaker window
states, replica copy states and lag, shard ``PartialResult`` ranges,
admission-queue depth and shed rate, WAL recoveries — into one
``green``/``degraded``/``red`` verdict per subsystem, each with
**attributed causes** ("metadb shard 1 down (breaker open)"), never a
bare color.  The same causes feed the SLO alerts: when a burn-rate alert
fires, :meth:`HealthMonitor.attributed_cause` names the most-suspect
subsystem in the alert event.

The :class:`CanaryProbe` closes the telemetry blind spot the paper's
operators knew well: an idle archive and a dead archive serve the same
zero requests.  A tiny periodic request through web→DM→metadb keeps one
heartbeat series alive, so "no traffic" and "down" stop looking alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hub import Observability

GREEN, DEGRADED, RED = "green", "degraded", "red"
_RANK = {GREEN: 0, DEGRADED: 1, RED: 2}

#: Admission-queue fill fraction at which serving turns degraded.
QUEUE_PRESSURE_FRACTION = 0.8
#: Queued requests per worker beyond which the backlog itself is a
#: cause, even in a deep queue far from its capacity limit.
QUEUE_BACKLOG_PER_WORKER = 4
#: Replica lag (entries) beyond which a copy is called out even while
#: the group still reports it ``in_sync``/``lagging``.
REPLICA_LAG_ATTENTION = 8


def _worst(a: str, b: str) -> str:
    return a if _RANK[a] >= _RANK[b] else b


class Subsystem:
    """Accumulates one subsystem's verdict and its reasons."""

    def __init__(self, name: str):
        self.name = name
        self.status = GREEN
        self.causes: list[str] = []
        self.detail: dict[str, Any] = {}

    def flag(self, status: str, cause: str) -> None:
        self.status = _worst(self.status, status)
        self.causes.append(cause)

    def to_dict(self) -> dict[str, Any]:
        body: dict[str, Any] = {"status": self.status, "causes": list(self.causes)}
        if self.detail:
            body["detail"] = self.detail
        return body


class HealthMonitor:
    """Rolls subsystem reports up into one attributed verdict.

    Everything it judges comes from the hub's report tree
    (:meth:`~repro.obs.hub.Observability.describe`): the ``data``,
    ``serving`` and ``breakers`` sections the tiers contribute, so the
    obs package never imports the tiers it observes.
    """

    def __init__(self, obs: "Observability"):
        self.obs = obs

    def _section(self, name: str) -> Any:
        """One section of the tree; a section that fails to build reads
        as absent, so a broken tier never breaks the rollup."""
        try:
            return self.obs.describe(name)[name]
        except Exception:
            return None

    # -- subsystem checks ------------------------------------------------------

    def _check_resilience(self) -> Subsystem:
        sub = Subsystem("resilience")
        breakers = self._section("breakers") or {}
        open_names = []
        for name, snap in breakers.items():
            if snap["state"] == "open":
                open_names.append(name)
                sub.flag(DEGRADED, f"breaker {name} open")
            elif snap["state"] == "half_open":
                sub.flag(DEGRADED, f"breaker {name} half-open (probing)")
        sub.detail = {"breakers": len(breakers), "open": open_names}
        return sub

    def _check_metadb(self) -> Subsystem:
        sub = Subsystem("metadb")
        data = self._section("data") or {}
        shard = data.get("shard")
        repl = data.get("replication")
        if shard is not None:
            down = []
            for entry in shard.get("shards", []):
                shard_id = entry.get("shard_id")
                if entry.get("breaker") == "open":
                    down.append(shard_id)
                    low, high = entry.get("low"), entry.get("high")
                    span = (f"[{'-inf' if low is None else low}, "
                            f"{'+inf' if high is None else high})")
                    sub.flag(RED, f"metadb shard {shard_id} down "
                                  f"(breaker open, range {span})")
                self._check_replicas(sub, (entry.get("replicas") or {}),
                                     where=f"shard {shard_id}")
            degraded_reads = shard.get("degraded_reads", 0)
            if degraded_reads and down:
                sub.flag(DEGRADED,
                         f"{degraded_reads} reads served as PartialResult")
            sub.detail = {"n_shards": shard.get("n_shards"),
                          "shards_down": down,
                          "degraded_reads": degraded_reads}
        if repl is not None and "replicas" in repl:
            self._check_replicas(sub, repl, where="group")
        return sub

    def _check_replicas(self, sub: Subsystem, repl: dict[str, Any],
                        where: str) -> None:
        for copy in repl.get("replicas", []):
            state = copy.get("state")
            name = copy.get("name")
            if state == "dead":
                sub.flag(DEGRADED, f"replica {name} ({where}) dead")
            elif state == "rejoining":
                sub.flag(DEGRADED, f"replica {name} ({where}) rejoining")
            elif copy.get("lag", 0) >= REPLICA_LAG_ATTENTION:
                sub.flag(DEGRADED,
                         f"replica {name} ({where}) lagging "
                         f"{copy['lag']} entries")

    def _check_serving(self, store=None, now: Optional[float] = None) -> Subsystem:
        sub = Subsystem("serving")
        serving = self._section("serving")
        if serving is None:
            return sub
        queue = serving.get("queue")
        if queue:
            depth = sum(queue.get("depth", {}).values())
            capacity = queue.get("max_queue_depth", 0)
            sub.detail["queue_depth"] = depth
            sub.detail["max_queue_depth"] = capacity
            if capacity and depth >= capacity * QUEUE_PRESSURE_FRACTION:
                sub.flag(DEGRADED,
                         f"admission queue at {depth}/{capacity}")
            else:
                workers = serving.get("n_workers") or 1
                backlog_at = max(8, QUEUE_BACKLOG_PER_WORKER * workers)
                if depth >= backlog_at:
                    sub.flag(DEGRADED,
                             f"admission backlog: {depth} requests queued "
                             f"for {workers} workers")
            if store is not None:
                shed = store.family_delta("web.shed", 60.0, now=now)
                if shed and shed > 0:
                    sub.flag(DEGRADED,
                             f"shed {int(shed)} requests in the last 60s")
                    sub.detail["shed_60s"] = int(shed)
        for route, caps in (serving.get("routes") or {}).items():
            if caps.get("limit") and caps.get("in_use", 0) >= caps["limit"]:
                sub.flag(DEGRADED, f"route {route} bulkhead saturated "
                                   f"({caps['in_use']}/{caps['limit']})")
        return sub

    def _check_wal(self) -> Subsystem:
        sub = Subsystem("wal")
        torn = len(self.obs.events.find("wal.torn_tail"))
        recovered = len(self.obs.events.find("wal.recovered"))
        sub.detail = {"torn_tails": torn, "recoveries": recovered}
        if torn:
            sub.flag(DEGRADED, f"{torn} torn WAL tail(s) truncated on recovery")
        handles = self.obs.registry.value("process.open_wal_handles")
        if handles:
            sub.detail["open_handles"] = int(handles)
        return sub

    def _check_canary(self) -> Subsystem:
        sub = Subsystem("canary")
        registry = self.obs.registry
        probes = registry.family_total("obs.canary.probes")
        if not probes:
            sub.detail = {"probes": 0, "enabled": False}
            return sub
        failures = registry.family_total("obs.canary.failures")
        ok = registry.value("obs.canary.ok")
        sub.detail = {"probes": int(probes), "failures": int(failures),
                      "enabled": True}
        if not ok:
            sub.flag(RED, "canary probe failing — web→DM→metadb path down")
        return sub

    # -- rollup ----------------------------------------------------------------

    def report(self, store=None, now: Optional[float] = None) -> dict[str, Any]:
        """The full rollup: overall status, per-subsystem verdicts, and
        the flat ordered cause list (red causes first)."""
        subsystems = [
            self._check_canary(),
            self._check_metadb(),
            self._check_serving(store=store, now=now),
            self._check_resilience(),
            self._check_wal(),
        ]
        overall = GREEN
        ranked: list[tuple[int, str]] = []
        for sub in subsystems:
            overall = _worst(overall, sub.status)
            for cause in sub.causes:
                ranked.append((-_RANK[sub.status], f"{sub.name}: {cause}"))
        return {
            "status": overall,
            "subsystems": {sub.name: sub.to_dict() for sub in subsystems},
            "causes": [cause for _rank, cause
                       in sorted(ranked, key=lambda r: r[0])],
        }

    def attributed_cause(self, slo=None, window: str = "") -> str:
        """The most-suspect cause for a firing alert (worst-first); used
        as the :class:`~repro.obs.slo.SloManager` ``cause_resolver``."""
        causes = self.report()["causes"]
        if causes:
            return causes[0]
        return "no attributed cause (all subsystems green)"


class CanaryProbe:
    """A synthetic heartbeat request through web→DM→metadb.

    Registered as a collector sampler; fires at most once per
    ``interval_s`` of collector time.  Uses the server's non-blocking
    ``submit()`` with a bounded wait so a saturated worker pool can never
    wedge the collector thread — a probe that cannot get a worker within
    ``timeout_s`` *is* a failed probe.
    """

    def __init__(self, server, path: str = "/hedc/catalogs",
                 interval_s: float = 5.0, timeout_s: float = 2.0):
        self.server = server
        self.obs = server.obs
        self.path = path
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.last_probe_at: Optional[float] = None
        self.last_error: str = ""

    def __call__(self, now: float) -> None:
        if (self.last_probe_at is not None
                and now - self.last_probe_at < self.interval_s):
            return
        self.last_probe_at = now
        self.probe()

    def probe(self) -> bool:
        from ..web.http import HttpRequest, HttpResponse

        obs = self.obs
        obs.count("obs.canary.probes")
        try:
            with obs.timed("obs.canary.latency_s") as timer:
                task = self.server.submit(HttpRequest.get(self.path))
                response = task.result(self.timeout_s)
                if response is None:
                    task.resolve(HttpResponse.error(
                        504, "canary timed out waiting for a worker"))
                    response = task.response
            ok = response.status < 500
            self.last_error = "" if ok else f"status {response.status}"
        except Exception as exc:
            ok = False
            self.last_error = f"{type(exc).__name__}: {exc}"
            timer = None
        if ok:
            obs.set_gauge("obs.canary.ok", 1)
        else:
            obs.set_gauge("obs.canary.ok", 0)
            obs.count("obs.canary.failures")
            obs.event("warn", "obs", "canary.failed",
                      f"canary {self.path} failed: {self.last_error}",
                      path=self.path, error=self.last_error)
        return ok
