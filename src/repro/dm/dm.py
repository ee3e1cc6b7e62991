"""The Data Management component facade.

One :class:`DataManager` is one DM node (paper §2.3): it binds the I/O,
semantic and process layers over a database and a storage manager, owns
the session cache, and authenticates callers.  Several DataManagers can
share one database through a :class:`~repro.dm.redirect.DmRouter` — the
configuration the scalability experiment of §7.3 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..filestore import DiskArchive, StorageManager
from ..metadb import (
    Aggregate, Between, Comparison, Database, DatabaseApi, Select,
)
from ..obs import Observability
from ..schema import install_all
from ..security import User, UserManager, scoped_where
from .io_layer import IoLayer
from .naming import ResolvedName
from .maintenance import MaintenanceService
from .process import ProcessLayer
from .reports import PredefinedQueries, Reports
from .semantic import SemanticLayer
from .sessions import SessionCache


@dataclass
class HlePage:
    """Everything the §7.2 HLE detail page renders, fetched as one unit."""

    hle: dict[str, Any]
    analyses: list[dict[str, Any]]
    n_analyses: int
    n_catalogs: int
    similar: list[dict[str, Any]]
    neighbours: list[dict[str, Any]]
    files: list[ResolvedName] = field(default_factory=list)


class DataManager:
    """One DM node."""

    def __init__(
        self,
        database: DatabaseApi,
        storage: StorageManager,
        node_name: str = "dm0",
        install_schema: bool = True,
        obs: Optional[Observability] = None,
    ):
        self.node_name = node_name
        self.obs = obs if obs is not None else database.obs
        if install_schema:
            install_all(database)
        self.io = IoLayer(database, storage, obs=self.obs)
        self.users = UserManager(database)
        self.import_user = self.users.ensure_import_user()
        self.semantic = SemanticLayer(self.io)
        self.process = ProcessLayer(self.io, self.semantic, self.import_user)
        self.sessions = SessionCache(obs=self.obs)
        self.queries = PredefinedQueries(self.io)
        self.reports = Reports(self.io)
        self.maintenance = MaintenanceService(self.io, self.semantic)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def standalone(
        cls,
        data_dir: Union[str, Path],
        node_name: str = "dm0",
        persistent: bool = False,
        obs: Optional[Observability] = None,
    ) -> "DataManager":
        """A self-contained node: one disk archive, fresh database.

        This is also how the StreamCorder builds its local clone (§6.2) —
        "every installation of the StreamCorder is, in fact, a clone of
        the HEDC server".
        """
        data_dir = Path(data_dir)
        database = Database(data_dir / "db" if persistent else None, name=node_name,
                            obs=obs)
        storage = StorageManager(scratch_dir=data_dir / "scratch")
        archive = DiskArchive("main", data_dir / "archive")
        storage.register(archive)
        dm = cls(database, storage, node_name=node_name, obs=obs)
        dm.io.names.ensure_archive("main", str(archive.root))
        return dm

    # -- authentication -------------------------------------------------------

    def authenticate(self, login: str, password: str) -> User:
        return self.users.authenticate(login, password)

    def open_session(self, user: User, kind: str, client_ip: str = "127.0.0.1",
                     cookie: Optional[str] = None):
        return self.sessions.get_or_create(user, kind, client_ip, cookie)

    # -- page multi-get -------------------------------------------------------

    def fetch_page(self, user: Optional[User], hle_id: int) -> HlePage:
        """Fetch the §7.2 HLE detail page's seven logical queries in two
        round trips: the HLE tuple itself (PK probe, also the visibility
        gate), then one batch of everything that tuple determines (its
        analyses, both counts, its file entries joined to their archives,
        and the two secondary-index sweeps around its rate and time).
        ``tests/oracle_pages.py`` keeps the one-query-per-trip sequence
        this is compared against: identical rows, identical page bytes.
        """
        # Round trip 1: the HLE tuple.
        hle = self.semantic.get_hle(user, hle_id)
        rate = hle.get("peak_rate") or 0.0
        by_hle = Comparison("hle_id", "=", hle_id)
        count = [Aggregate("count", "*", "n")]
        # Round trip 2: the six statements it determines.
        analyses, n_ana_rows, n_cat_rows, file_rows, similar, neighbours = \
            self.io.execute_batch([
                Select("ana", where=scoped_where(user, by_hle),
                       order_by=[("ana_id", "asc")]),
                Select("ana", where=by_hle, aggregates=count),
                Select("catalog_members", where=by_hle, aggregates=count),
                self.io.names.files_statement(hle["item_id"]),
                Select(
                    "hle",
                    where=scoped_where(
                        user, Between("peak_rate", rate * 0.5, rate * 1.5)),
                    order_by=[("peak_rate", "desc")], limit=40,
                ),
                Select(
                    "hle",
                    where=scoped_where(
                        user,
                        Between("start_time", hle["start_time"] - 3600,
                                hle["start_time"] + 3600)),
                    order_by=[("start_time", "asc")], limit=40,
                ),
            ])
        files = self.io.names.resolve_from_rows(hle["item_id"], file_rows)
        return HlePage(hle, analyses, n_ana_rows[0]["n"], n_cat_rows[0]["n"],
                       similar, neighbours, files)

    # -- statistics --------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "node": self.node_name,
            "io": self.io.stats.snapshot(),
            "db": self.io.default_database.stats.snapshot(),
            "sessions": {
                "size": self.sessions.size,
                "hits": self.sessions.hits,
                "misses": self.sessions.misses,
            },
        }

    def describe(self) -> dict:
        """This node's ``dm`` section of the report tree: the DM's own
        counters plus the highlights it keeps about its database."""
        registry = self.obs.registry
        database = self.io.default_database
        latency = registry.get("metadb.query_s", db=database.name, op="select")
        if latency is None or not latency.count:
            quantiles = {"count": 0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0}
        else:
            quantiles = {
                "count": latency.count,
                "p50_s": latency.quantile(0.50),
                "p95_s": latency.quantile(0.95),
                "p99_s": latency.quantile(0.99),
            }
        return {
            "node": self.node_name,
            "db": {
                "queries": database.stats.queries,
                "latency": quantiles,
                "wal_fsyncs": registry.value("metadb.wal.fsyncs"),
            },
            "sessions": {
                "size": self.sessions.size,
                "hit_ratio": self.sessions.hit_ratio,
                "creations": self.sessions.creations,
            },
            "name_mapping": {
                "lookups": registry.family_total("dm.name_mapping.lookups"),
            },
            "io": self.io.stats.snapshot(),
            # Raw units kept unpacked on the scratch disk (load_photons).
            "unpacked": {
                **{
                    what: registry.value(f"dm.process.unpacked.{what}")
                    for what in ("hits", "inflations", "evictions", "fallbacks")
                },
                "bytes": self.io.storage.unpacked_bytes,
            },
        }

    def describe_data(self) -> dict:
        """This node's ``data`` section: its database's
        :meth:`~repro.metadb.DatabaseApi.describe`, looked up when read,
        so a database proxy need not describe itself to be wrapped."""
        return self.io.default_database.describe()

    def telemetry_report(self) -> dict:
        """The admin's instrument panel: this node describing itself and
        its database, plus the hub-wide sections of the report tree
        (:meth:`repro.obs.Observability.describe`) and the full metric
        snapshot."""
        node, data = self.describe(), self.describe_data()
        tree = self.obs.describe("caches", "resilience", "diagnostics",
                                 "runtime", "metrics")
        return {
            "node": node["node"],
            "tracing_enabled": self.obs.enabled,
            "db": node["db"],
            "shard": data["shard"],
            "replication": data["replication"],
            "sessions": node["sessions"],
            "name_mapping": node["name_mapping"],
            "caches": tree["caches"],
            "resilience": tree["resilience"],
            "diagnostics": tree["diagnostics"],
            "runtime": tree["runtime"],
            "io": node["io"],
            "metrics": tree["metrics"],
        }
