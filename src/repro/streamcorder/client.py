"""The StreamCorder fat client (paper §6.2).

"A fat Java client offering the same functionality as the HEDC
Web-interface, plus additional features": job and resource management,
request queues, local analysis, two caching strategies, progressive
analysis over wavelet views, and — because every installation is a server
clone — peer-to-peer request forwarding (§10: "requests may also be sent
to peer clients").
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..cache import SingleFlight
from ..dm import DataManager
from ..metadb import Comparison, Select
from ..obs import Observability, resolve as resolve_obs
from ..rhessi import PhotonList
from ..security import User
from .cache import LocalCloneCache, StaticPathCache
from .cordlets import CordletRegistry


@dataclass
class Job:
    """A queued local-processing job."""

    job_id: int
    cordlet: str
    context: dict[str, Any]
    result: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)


class StreamCorder:
    """A fat client bound to a server DM.

    ``cache_strategy`` selects version 1 ("static") or version 2
    ("clone"); the clone strategy builds a full local DataManager whose
    schema equals the server's.
    """

    def __init__(
        self,
        server_dm: DataManager,
        user: User,
        workdir: Union[str, Path],
        cache_strategy: str = "static",
        obs: Optional[Observability] = None,
    ):
        if cache_strategy not in ("static", "clone"):
            raise ValueError("cache_strategy must be 'static' or 'clone'")
        self.server = server_dm
        self.user = user
        self.obs = obs if obs is not None else resolve_obs(
            getattr(server_dm, "obs", None))
        self.workdir = Path(workdir)
        self.cache_strategy = cache_strategy
        self.static_cache = StaticPathCache(self.workdir / "cache", obs=self.obs)
        self.local_dm: Optional[DataManager] = None
        self.clone_cache: Optional[LocalCloneCache] = None
        if cache_strategy == "clone":
            self.local_dm = DataManager.standalone(
                self.workdir / "clone", node_name="sc", obs=self.obs)
            self.clone_cache = LocalCloneCache(self.local_dm, obs=self.obs)
        self.cordlets = CordletRegistry().load_defaults()
        self._jobs: "queue.Queue[Job]" = queue.Queue()
        self._job_counter = 0
        self._peers: list["StreamCorder"] = []
        #: Concurrent fetches of the same item download once (§6.2 jobs
        #: frequently share input units).
        self._fetch_flight = SingleFlight(obs=self.obs)
        self.downloads = 0
        self.bytes_downloaded = 0
        # One background job at a time: the client is one user's desktop.
        threading.Thread(target=self._job_loop, name="sc-job-0", daemon=True).start()

    # -- data access with caching -----------------------------------------------

    def fetch_unit(self, unit_id: str) -> PhotonList:
        """Photon data of a raw unit, served from cache when possible."""
        item_id = f"unit:{unit_id}"
        payload = self._cached(item_id)
        if payload is None:
            def _fetch() -> bytes:
                fetched = self._download(item_id)
                self._place(item_id, f"units/{unit_id}.fits.gz", fetched)
                return fetched

            payload, leader = self._fetch_flight.do(item_id, _fetch)
            if not leader:
                self.obs.count("streamcorder.downloads_coalesced")
        import gzip

        from ..fits import FitsFile

        raw = gzip.decompress(payload) if payload[:2] == b"\x1f\x8b" else payload
        return PhotonList.from_fits(FitsFile.from_bytes(raw))

    def fetch_view_prefix(self, unit_id: str, detail_levels: int) -> tuple[bytes, int]:
        """A progressive prefix of the unit's wavelet view (partition 0).

        Returns (payload, full_bytes) so callers can report the saving.
        """
        view = self.server.process.get_view(unit_id)
        partition = view.partitions[0]
        payload = partition.stream.prefix(detail_levels)
        self._record_download(len(payload), source="view")
        return payload, partition.stream.total_bytes

    def _record_download(self, n_bytes: int, source: str) -> None:
        self.downloads += 1
        self.bytes_downloaded += n_bytes
        self.obs.count("streamcorder.downloads", source=source)
        self.obs.count("streamcorder.bytes_downloaded", n_bytes, source=source)

    def _cached(self, item_id: str) -> Optional[bytes]:
        if self.cache_strategy == "clone":
            return self.clone_cache.get(item_id)
        return self.static_cache.get("data", item_id)

    def _place(self, item_id: str, rel_path: str, payload: bytes) -> None:
        if self.cache_strategy == "clone":
            self.clone_cache.put(item_id, rel_path, payload)
        else:
            self.static_cache.put("data", item_id, payload)

    def _download(self, item_id: str) -> bytes:
        """Fetch from the server (or a peer that has the data cached)."""
        for peer in self._peers:
            peer_payload = peer._cached(item_id)
            if peer_payload is not None:
                self._record_download(len(peer_payload), source="peer")
                return peer_payload
        names = self.server.io.names.resolve_files(item_id, role="data")
        if not names:
            raise KeyError(f"server has no data for {item_id!r}")
        payload = self.server.io.read_item(names[0])
        self._record_download(len(payload), source="server")
        return payload

    # -- peer-to-peer --------------------------------------------------------------

    def add_peer(self, peer: "StreamCorder") -> None:
        self._peers.append(peer)

    # -- job management ----------------------------------------------------------------

    def submit_job(self, cordlet_name: str, context: dict[str, Any]) -> Job:
        cordlet = self.cordlets.get(cordlet_name)
        if cordlet is None:
            raise KeyError(f"no cordlet named {cordlet_name!r}")
        self._job_counter += 1
        job = Job(self._job_counter, cordlet_name, context)
        self._jobs.put(job)
        return job

    def run_job(self, cordlet_name: str, context: dict[str, Any]) -> dict[str, Any]:
        """Synchronous convenience wrapper."""
        job = self.submit_job(cordlet_name, context)
        job.done.wait(timeout=60.0)
        if job.error is not None:
            raise RuntimeError(job.error)
        if job.result is None:
            raise TimeoutError(f"job {job.job_id} did not finish")
        return job.result

    def _job_loop(self) -> None:
        while True:
            job = self._jobs.get()
            try:
                cordlet = self.cordlets.get(job.cordlet)
                job.result = cordlet.run(job.context)
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                job.done.set()
                self._jobs.task_done()

    # -- progressive analysis (§6.3) ------------------------------------------------------

    def progressive_lightcurve(self, unit_id: str, detail_levels: int) -> dict[str, Any]:
        """Approximate count-rate series from a view prefix, decoded
        locally — the interactive-exploration path."""
        payload, full_bytes = self.fetch_view_prefix(unit_id, detail_levels)
        result = self.run_job("progressive_view", {"payload": payload})
        result["bytes_saved"] = full_bytes - len(payload)
        result["reduction_factor"] = full_bytes / max(len(payload), 1)
        return result

    # -- uploading derived data (§4.1) ---------------------------------------------------------

    def upload_analysis(
        self,
        hle_id: int,
        cordlet_name: str,
        context: dict[str, Any],
        parameters: Optional[dict[str, Any]] = None,
        publish: bool = False,
    ) -> int:
        """Run a cordlet locally and import the result into the server.

        This is the paper's "users who upload derived data produced with
        the StreamCorder" path: the product (parameters, log, images)
        goes through the server DM's transactional analysis import, so
        uploaded data is indistinguishable from server-side analyses.
        Requires the ``upload`` right.
        """
        result = self.run_job(cordlet_name, context)
        from ..analysis import AnalysisProduct

        product = AnalysisProduct(
            f"streamcorder:{cordlet_name}", dict(parameters or {})
        )
        if "image" in result:
            product.add_image(result["image"])
        summary = {
            key: value
            for key, value in result.items()
            if isinstance(value, (int, float, str, bool))
        }
        product.summary = summary
        product.log(f"produced offline by StreamCorder cordlet {cordlet_name!r}")
        ana_id = self.server.semantic.import_analysis(
            self.user, hle_id, product, {"executed_on": "streamcorder"}
        )
        if publish:
            self.server.semantic.publish_analysis(self.user, ana_id)
        return ana_id

    # -- offline mirroring -------------------------------------------------------------------

    def mirror_hles(self, where=None, limit: Optional[int] = None) -> int:
        """Clone-cache only: copy visible HLE tuples into the local DBMS
        so offline work uses the identical schema (§6.2)."""
        if self.local_dm is None:
            raise RuntimeError("mirroring requires the clone cache strategy")
        hles = self.server.semantic.find_hles(self.user, where=where, limit=limit)
        mirrored = 0
        for hle in hles:
            existing = self.local_dm.io.execute(
                Select("hle", where=Comparison("hle_id", "=", hle["hle_id"]))
            )
            if existing:
                continue
            row = dict(hle)
            row["owner_id"] = self.local_dm.import_user.user_id
            from ..metadb import Insert

            self.local_dm.io.execute(Insert("hle", row))
            mirrored += 1
        if mirrored:
            self.obs.count("streamcorder.hles_mirrored", mirrored)
        return mirrored
