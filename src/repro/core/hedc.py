"""The HEDC repository facade: all three tiers wired together.

:class:`Hedc` is the public entry point a downstream user adopts: it
assembles the resource tier (metadata database + file archives), the
application-logic tier (DM + PL) and the presentation tier (web server),
and offers the high-level operations of paper §2.2 — ingest telemetry,
browse, analyze, share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..dm import DataManager, DmRouter
from ..filestore import DiskArchive, StorageManager
from ..metadb import Comparison, Database, DatabaseApi, Select
from ..obs import Observability
from ..pl import (
    AnalysisRequest,
    Frontend,
    GlobalDirectory,
    IdlServerManager,
    Phase,
    RoutineLibrary,
    UserRoutineStrategy,
)
from ..rhessi import (
    ObservationPlan,
    TelemetryGenerator,
    package_units,
    standard_day_plan,
)
from ..security import User
from ..synoptic import SynopticSearch, standard_archive_set
from ..viz import CatalogArray
from ..web import ThinClient, WebServer


@dataclass
class IngestReport:
    """Outcome of one telemetry ingest."""

    n_photons: int
    n_units: int
    n_events: int
    hle_ids: list[int] = field(default_factory=list)
    view_bytes: int = 0


class Hedc:
    """A complete HEDC deployment.

    >>> hedc = Hedc.create(tmp_path)           # doctest: +SKIP
    >>> hedc.ingest_observation(duration_s=600)
    >>> hedc.catalog_events()
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        n_idl_servers: int = 1,
        persistent: bool = False,
        obs: Optional[Observability] = None,
        shard_boundaries: Optional[Sequence[float]] = None,
        replicas_per_shard: int = 1,
    ):
        self.data_dir = Path(data_dir)
        # A private hub per deployment: every tier below shares it, so
        # one browse yields one span tree and one instrument panel.
        self.obs = obs if obs is not None else Observability(name="hedc")
        if shard_boundaries is not None:
            # Partition the catalog by observation time: the DM stack
            # above is unchanged, statements route through the shard
            # router transparently.  ``replicas_per_shard > 1`` nests a
            # log-shipped replica group inside every shard for read HA.
            from ..shard import ShardedDatabase

            database: DatabaseApi = ShardedDatabase(
                boundaries=shard_boundaries,
                path=self.data_dir / "db" if persistent else None,
                name="hedc",
                obs=self.obs,
                replicas_per_shard=replicas_per_shard,
            )
        elif replicas_per_shard > 1:
            # Unsharded but replicated: one standalone replica group.
            from ..repl import ReplicaGroup

            database = ReplicaGroup(
                path=self.data_dir / "db" if persistent else None,
                name="hedc",
                n_replicas=replicas_per_shard - 1,
                obs=self.obs,
            )
        else:
            database = Database(
                self.data_dir / "db" if persistent else None, name="hedc",
                obs=self.obs,
            )
        storage = StorageManager(scratch_dir=self.data_dir / "scratch")
        main = DiskArchive("main", self.data_dir / "archive")
        storage.register(main)
        self.dm = DataManager(database, storage, node_name="dm0", obs=self.obs)
        self.dm.io.names.ensure_archive("main", str(main.root))
        self.directory = GlobalDirectory()
        self.routines = RoutineLibrary(self.dm)
        self.idl = IdlServerManager("server", n_servers=n_idl_servers,
                                    directory=self.directory,
                                    routine_library=self.routines,
                                    obs=self.obs)
        self.idl.start_all()
        self.frontend = Frontend(self.dm, self.idl, directory=self.directory,
                                 obs=self.obs)
        self.frontend.register_strategy(UserRoutineStrategy(self.idl))
        self.web = WebServer(self.dm, frontend=self.frontend, obs=self.obs)
        self.router = DmRouter()
        self.router.add_node(self.dm)
        self.synoptic: Optional[SynopticSearch] = None
        self.standard_catalog_id = self._ensure_catalog(
            "standard", "events found at data load"
        )
        self.extended_catalog_id = self._ensure_catalog(
            "extended", "derived data products and user analyses"
        )

    def _ensure_catalog(self, name: str, description: str) -> int:
        """Reuse the system catalog when reopening a persistent repository."""
        existing = self.dm.io.execute(
            Select("catalogs", where=Comparison("name", "=", name))
        )
        for row in existing:
            if row["owner_id"] == self.dm.import_user.user_id:
                return row["catalog_id"]
        return self.dm.semantic.create_catalog(
            self.dm.import_user, name, description=description, public=True
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, data_dir: Union[str, Path], **kwargs: Any) -> "Hedc":
        return cls(data_dir, **kwargs)

    # -- user management ---------------------------------------------------------

    def register_user(self, login: str, password: str, group: str = "scientist") -> User:
        return self.dm.users.create_user(login, password, group=group)

    def login(self, login: str, password: str) -> User:
        return self.dm.authenticate(login, password)

    # -- ingest -------------------------------------------------------------------

    def ingest_observation(
        self,
        plan: Optional[ObservationPlan] = None,
        duration_s: float = 600.0,
        seed: int = 7,
        unit_target_photons: int = 100_000,
    ) -> IngestReport:
        """Generate (or accept) telemetry and run the full load pipeline."""
        if plan is None:
            plan = standard_day_plan(duration=duration_s, seed=seed)
        photons = TelemetryGenerator(plan, seed=seed).generate()
        # A unique downlink prefix keeps unit ids distinct even when two
        # observation windows cover the same mission-time range.
        from ..metadb import Aggregate

        existing = self.dm.io.execute(
            Select("raw_units", aggregates=[Aggregate("count", "*", "n")])
        )[0]["n"]
        units = package_units(
            photons, self.data_dir / "incoming",
            unit_target_photons=unit_target_photons,
            prefix=f"hsi{existing:04d}",
        )
        report = IngestReport(n_photons=len(photons), n_units=len(units), n_events=0)
        for unit in units:
            load = self.dm.process.load_raw_unit(
                unit, "main", standard_catalog_id=self.standard_catalog_id
            )
            report.n_events += load.n_events
            report.hle_ids.extend(load.hle_ids)
            report.view_bytes += load.view_bytes
        return report

    # -- browse & search --------------------------------------------------------------

    def events(self, user: Optional[User] = None, kind: Optional[str] = None,
               limit: Optional[int] = None) -> list[dict]:
        where = Comparison("kind", "=", kind) if kind else None
        return self.dm.semantic.find_hles(
            user, where=where, order_by=[("start_time", "asc")], limit=limit
        )

    def catalog_events(self, catalog: str = "standard",
                       user: Optional[User] = None) -> list[dict]:
        catalog_id = (
            self.standard_catalog_id if catalog == "standard" else self.extended_catalog_id
        )
        return self.dm.semantic.catalog_hles(user, catalog_id)

    def catalog_array(self, dimensions: Sequence[str],
                      user: Optional[User] = None) -> CatalogArray:
        """The §6.3 multi-dimensional view over the visible events."""
        return CatalogArray(self.dm.semantic.find_hles(user), dimensions)

    # -- analysis ----------------------------------------------------------------------

    def analyze(
        self,
        user: User,
        hle_id: int,
        algorithm: str,
        parameters: Optional[dict[str, Any]] = None,
        estimate: bool = False,
        publish: bool = False,
    ) -> AnalysisRequest:
        """Run one analysis through the PL's four phases."""
        request = AnalysisRequest(user, hle_id, algorithm, dict(parameters or {}))
        self.frontend.run(request, estimate=estimate)
        if publish and request.phase is Phase.COMMITTED:
            self.dm.semantic.publish_analysis(user, request.ana_id)
            if not self._in_extended(hle_id):
                self.dm.semantic.add_to_catalog(
                    self.dm.import_user, self.extended_catalog_id, hle_id
                )
        return request

    def _in_extended(self, hle_id: int) -> bool:
        members = self.dm.semantic.catalog_hles(self.dm.import_user,
                                                self.extended_catalog_id)
        return any(member["hle_id"] == hle_id for member in members)

    # -- user-submitted routines (§3.3) --------------------------------------------------

    def submit_routine(self, user: User, name: str, source: str,
                       description: str = "", publish: bool = False):
        """Submit (and optionally publish + hot-load) an analysis routine."""
        routine = self.routines.submit(user, name, source, description=description)
        if publish:
            self.routines.publish(user, name)
            self.idl.broadcast_source(source)
        return routine

    # -- web client --------------------------------------------------------------------

    def thin_client(self, client_ip: str = "127.0.0.1") -> ThinClient:
        return ThinClient(self.web, client_ip=client_ip)

    # -- synoptic ----------------------------------------------------------------------

    def enable_synoptic(self, mission_end_s: float = 86_400.0) -> SynopticSearch:
        self.synoptic = standard_archive_set(mission_end=mission_end_s)
        return self.synoptic

    def synoptic_context(self, hle_id: int, margin_s: float = 600.0):
        """Context-dependent remote search around an event (§6.4)."""
        if self.synoptic is None:
            raise RuntimeError("call enable_synoptic() first")
        hle = self.dm.semantic.get_hle(None, hle_id)
        return self.synoptic.search(hle["start_time"] - margin_s,
                                    hle["end_time"] + margin_s)

    # -- scaling -----------------------------------------------------------------------

    def add_dm_node(self) -> DataManager:
        """Replicate the application logic onto another node (§7.3), all
        nodes sharing the resource tier."""
        node = DataManager(
            self.dm.io.default_database,
            self.dm.io.storage,
            node_name=f"dm{self.router.n_nodes}",
            install_schema=False,
            obs=self.obs,
        )
        self.router.add_node(node)
        return node

    def stats(self) -> dict:
        return {
            "dm": self.dm.stats(),
            "frontend": self.frontend.stats(),
            "idl": self.idl.stats(),
            "web": {
                "requests": self.web.requests_served,
                "bytes": self.web.bytes_sent,
            },
        }

    def telemetry_report(self) -> dict:
        """The obs instrument panel for this deployment (see
        :meth:`repro.dm.DataManager.telemetry_report`)."""
        return self.dm.telemetry_report()
