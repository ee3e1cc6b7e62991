"""The abstract request model and its four phases (paper §5.1).

Every analysis follows the same workflow:

* **Estimation** — optional; "determines the feasibility and availability
  of resources ... a simple predictor informs the user about the duration
  of the subsequent execution phase.  The result of this phase is an
  execution plan.  This phase returns immediately."
* **Execution** — the actual processing (sync or async).
* **Delivery** — results are made available.
* **Commit** — results are written back into HEDC through the DM.

"Phases must be executed in order, and not all phases are mandatory.
Requests can be canceled at any time and induce the cleanup for the
current phase."  Request types are implemented as *strategies* — one
method per phase — so incorporating a new processing environment means
writing a new strategy, not touching the frontend.

DM-interaction accounting: each analysis touches the data management
subsystem 3 times for queries (HLE lookup, redundancy check, data-file
name resolution) and 2 times for edits (analysis import, usage record) —
the per-analysis figures of the paper's Tables 2 and 3.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from ..analysis import SERVER_SPEED_FACTOR, AnalysisProduct, CostModel
from ..analysis.routine_table import ROUTINES, Parameter, Routine
from ..analysis.routine_table import ParameterError as ParameterError  # what parse() raises
from ..metadb import Insert
from ..rhessi import PhotonList
from ..security import User
from .manager import IdlServerManager


class RequestCancelled(Exception):
    """Raised inside phase execution when the request was cancelled."""


class RequestFailed(Exception):
    """A phase failed irrecoverably."""


class Phase(enum.Enum):
    CREATED = "created"
    ESTIMATED = "estimated"
    EXECUTED = "executed"
    DELIVERED = "delivered"
    COMMITTED = "committed"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass(frozen=True)
class ExecutionPlan:
    """The estimation phase's output."""

    algorithm: str
    node: str
    input_mb: float
    predicted_seconds: float
    feasible: bool = True
    reason: str = ""


_request_ids = itertools.count(1)


@dataclass
class AnalysisRequest:
    """One request travelling through the four phases."""

    user: User
    hle_id: int
    algorithm: str
    parameters: dict[str, Any] = field(default_factory=dict)
    priority: int = 5              # lower = more urgent
    request_id: str = field(default_factory=lambda: f"req-{next(_request_ids):06d}")
    phase: Phase = Phase.CREATED
    plan: Optional[ExecutionPlan] = None
    hle_row: Optional[dict] = None
    #: The strategy's declared parameters as it ran them: given values
    #: checked and typed, defaults filled in.
    arguments: dict[str, Any] = field(default_factory=dict, init=False)
    raw_result: Any = None
    product: Optional[AnalysisProduct] = None
    ana_id: Optional[int] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.monotonic)
    completed_at: Optional[float] = None
    _cancelled: bool = field(default=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def cancel(self) -> None:
        with self._lock:
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def check_cancelled(self) -> None:
        if self.cancelled:
            raise RequestCancelled(self.request_id)

    @property
    def sojourn_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class StrategyContext:
    """What a strategy needs: the DM, an IDL manager, and counters."""

    def __init__(self, dm, idl_manager: IdlServerManager, node_name: str = "server"):
        self.dm = dm
        self.idl = idl_manager
        self.node_name = node_name
        self.queries = 0
        self.edits = 0

    # -- counted DM interactions -------------------------------------------

    def fetch_hle(self, user: User, hle_id: int) -> dict:
        self.queries += 1
        return self.dm.semantic.get_hle(user, hle_id)

    def check_existing(self, user: User, hle_id: int, algorithm: str) -> Optional[dict]:
        self.queries += 1
        return self.dm.semantic.find_existing_analysis(user, hle_id, algorithm)

    def load_photons_for(self, hle: dict) -> PhotonList:
        """Photons of the HLE's window, via dynamic name resolution."""
        self.queries += 1
        unit_id = hle.get("source_unit")
        if unit_id:
            photons = self.dm.process.load_photons(unit_id)
        else:
            units = self.dm.process.units_covering(hle["start_time"], hle["end_time"])
            if not units:
                raise RequestFailed(f"no raw data covers HLE {hle['hle_id']}")
            parts = [self.dm.process.load_photons(unit["unit_id"]) for unit in units]
            photons = parts[0]
            for part in parts[1:]:
                photons = photons.concat(part)
        photons = photons.select_time(hle["start_time"], hle["end_time"])
        low = hle.get("energy_low_kev")
        high = hle.get("energy_high_kev")
        if low is not None and high is not None:
            photons = photons.select_energy(low, high)
        return photons

    def commit_product(self, user: User, hle_id: int, product: AnalysisProduct,
                       fields: dict) -> int:
        self.edits += 1
        return self.dm.semantic.import_analysis(user, hle_id, product, fields)

    def record_usage(self, user: User, operation: str, target: str,
                     duration_ms: float) -> None:
        self.edits += 1
        usage_id = self.dm.io.database_for("ops_usage").allocate_id(
            "ops_usage", "usage_id"
        )
        self.dm.io.execute(
            Insert(
                "ops_usage",
                {
                    "usage_id": usage_id,
                    "user_id": user.user_id,
                    "operation": operation,
                    "target": target,
                    "duration_ms": duration_ms,
                },
            )
        )


class AnalysisStrategy:
    """Base strategy: one method per phase, plus cleanup."""

    algorithm = "abstract"

    #: The parameters a request may carry: what ``/hedc/analyze`` parses,
    #: what the execution phase runs with, where the degrade caps live.
    parameters: tuple[Parameter, ...] = ()

    #: The estimation phase's predictor; a strategy without one cannot
    #: be estimated.
    cost: Optional[CostModel] = None

    #: Requests predicted to run longer than this are declared infeasible
    #: at estimation time (the §5.1 feasibility check); interactive users
    #: should use an approximated view instead (§6.3).
    max_predicted_seconds: float = 3600.0

    def parse(self, given: Mapping[str, Any]) -> dict[str, Any]:
        """The declared parameters among ``given`` (URL text or Python
        values), checked and typed; raises :class:`ParameterError`."""
        values = {}
        for parameter in self.parameters:
            if parameter.name in given:
                values[parameter.name] = parameter.check(given[parameter.name])
        return values

    def resolve(self, given: Mapping[str, Any], hle: dict) -> dict[str, Any]:
        """Every declared parameter: :meth:`parse` plus the defaults."""
        values = self.parse(given)
        for parameter in self.parameters:
            values.setdefault(parameter.name, parameter.default_for(hle))
        return values

    def estimate(self, request: AnalysisRequest, context: StrategyContext) -> ExecutionPlan:
        if self.cost is None:
            raise RequestFailed(f"no cost model for algorithm {self.algorithm!r}")
        hle = context.fetch_hle(request.user, request.hle_id)
        # Rough input size: photon records are 14 bytes (8 time + 4 energy
        # + 2 detector).
        n_photons = hle.get("total_counts") or 10_000
        input_mb = n_photons * 14 / 1e6
        predicted = self.cost.predict(input_mb, speed_factor=SERVER_SPEED_FACTOR)
        feasible = True
        reason = ""
        if context.idl.n_available == 0 and context.idl.n_servers == 0:
            feasible = False
            reason = "no IDL servers configured on this node"
        elif predicted > self.max_predicted_seconds:
            feasible = False
            reason = (
                f"predicted {predicted:.0f}s exceeds the {self.max_predicted_seconds:.0f}s "
                "ceiling; run on an approximated view (§6.3)"
            )
        return ExecutionPlan(
            algorithm=self.algorithm,
            node=context.node_name,
            input_mb=input_mb,
            predicted_seconds=predicted,
            feasible=feasible,
            reason=reason,
        )

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> Any:
        raise NotImplementedError

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        raise NotImplementedError

    def commit(self, request: AnalysisRequest, context: StrategyContext) -> int:
        hle = request.hle_row or context.fetch_hle(request.user, request.hle_id)
        fields = self.commit_fields(request, hle)
        ana_id = context.commit_product(request.user, request.hle_id, request.product, fields)
        elapsed_ms = (time.monotonic() - request.submitted_at) * 1000.0
        context.record_usage(request.user, f"analysis:{self.algorithm}",
                             f"hle:{request.hle_id}", elapsed_ms)
        return ana_id

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict:
        return {
            "start_time": hle["start_time"],
            "end_time": hle["end_time"],
            "energy_low_kev": hle.get("energy_low_kev"),
            "energy_high_kev": hle.get("energy_high_kev"),
            "executed_on": request.plan.node if request.plan else "server",
            "request_id": request.request_id,
            "calibration_version": hle.get("calibration_version", 1),
            "committed_at": time.time(),
        }

    def cleanup(self, request: AnalysisRequest, context: StrategyContext) -> None:
        """Cancellation cleanup for the current phase (default: drop
        intermediate results)."""
        request.raw_result = None
        request.product = None


def idl_literal(value: Any) -> str:
    """IDL source for one checked parameter value."""
    return f"'{value}'" if isinstance(value, str) else repr(value)


class RoutineStrategy(AnalysisStrategy):
    """The strategy of one row of the analysis routine table: the row
    says what is called and what becomes of the result, this class how a
    request travels through the phases."""

    def __init__(self, routine: Routine):
        self.routine = routine
        self.algorithm = routine.name
        self.label = routine.label or routine.name
        self.parameters = routine.parameters
        self.cost = routine.cost

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> np.ndarray:
        routine = self.routine
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        request.arguments = self.resolve(request.parameters, hle)
        photons = context.load_photons_for(hle)
        existing = context.check_existing(request.user, request.hle_id, self.algorithm)
        if (routine.reuse_hint and existing is not None
                and not request.parameters.get("force", False)):
            request.parameters["reused_ana_id"] = existing["ana_id"]
        arguments = routine.bound + tuple(
            idl_literal(request.arguments[parameter.name])
            for parameter in routine.parameters
        )
        result = context.idl.invoke(
            f"result = {routine.function}({', '.join(arguments)})\nresult",
            photons=photons,
        )
        if not result.ok:
            raise RequestFailed(f"{self.label} failed: {result.error}")
        request.parameters["n_photons_used"] = len(photons)
        return np.asarray(result.value, dtype=float)

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        routine, result = self.routine, request.raw_result
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        product.add_image(routine.render(result))
        product.summary = routine.summary(result)
        product.log(f"{self.label} {request.request_id}: {routine.describe(result)}")
        return product

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict:
        fields = super().commit_fields(request, hle)
        fields.update(self.routine.fields(request.raw_result, request.arguments))
        fields["n_photons_used"] = request.parameters.get("n_photons_used")
        return fields


DEFAULT_STRATEGIES = {routine.name: RoutineStrategy(routine) for routine in ROUTINES}
