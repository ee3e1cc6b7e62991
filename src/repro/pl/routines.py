"""User-submitted analysis routines (§3.3).

"There is also the possibility for users to submit analysis routines
that can be included into the system and made available to other users."

A submitted routine is IDL source defining one function.  The library
validates it (it must parse, define exactly the declared function, and
pass a smoke execution in a sandboxed interpreter with a tight step
budget), stores the source through the DM (file + metadata, like any
derived data), and — once published — every IDL server loads it at
start/restart, so the new routine becomes part of the system without
halting anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis import HISTOGRAM, AnalysisProduct, render_series_pgm
from ..analysis.routine_table import ParameterError
from ..idl import IdlResourceError, IdlRuntimeError, IdlSyntaxError, Interpreter
from ..idl.ast_nodes import ProcedureDef
from ..idl.parser import parse as parse_idl
from ..metadb import Aggregate, Comparison, Insert, Select, Update
from ..security import User, check_right
from .requests import AnalysisStrategy, RequestFailed

#: What the IDL lexer takes as a name.
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9$]*")

#: Step budget for validation runs: user code must terminate quickly on
#: the smoke input or it is rejected outright.
_VALIDATION_BUDGET = 200_000


class RoutineRejected(Exception):
    """Submitted source failed validation."""


@dataclass(frozen=True)
class Routine:
    name: str
    owner_id: int
    source: str
    description: str
    public: bool


class RoutineLibrary:
    """Stores, validates and serves user-submitted IDL routines."""

    def __init__(self, dm):
        self.dm = dm

    # -- validation -------------------------------------------------------------

    @staticmethod
    def validate(name: str, source: str) -> None:
        """Reject source that does not safely define function ``name``."""
        try:
            nodes = parse_idl(source)
        except IdlSyntaxError as exc:
            raise RoutineRejected(f"does not parse: {exc}") from exc
        definitions = [node for node in nodes if isinstance(node, ProcedureDef)]
        if len(definitions) != len(nodes):
            raise RoutineRejected("only PRO/FUNCTION definitions are allowed")
        functions = [node for node in definitions if node.is_function]
        if [node.name for node in functions] != [name.lower()]:
            raise RoutineRejected(
                f"source must define exactly one function named {name!r}"
            )
        # Smoke execution on a small array with a tight step budget.
        sandbox = Interpreter(step_budget=_VALIDATION_BUDGET)
        sandbox.run(source)
        arity = len(functions[0].params)
        smoke_args = [np.arange(16, dtype=float)] + [1.0] * (arity - 1)
        try:
            sandbox.call(name, *smoke_args[:arity])
        except IdlResourceError as exc:
            raise RoutineRejected(f"routine does not terminate quickly: {exc}") from exc
        except IdlRuntimeError as exc:
            raise RoutineRejected(f"routine fails on smoke input: {exc}") from exc

    # -- submission --------------------------------------------------------------

    def submit(self, user: User, name: str, source: str,
               description: str = "") -> Routine:
        """Validate and store a routine (requires the upload right)."""
        check_right(user, "upload")
        name = name.lower()
        if self._find_row(name) is not None:
            raise RoutineRejected(f"a routine named {name!r} already exists")
        self.validate(name, source)
        item_id = f"routine:{name}"
        stored = self.dm.io.store_payload(f"routines/{name}.pro", source.encode())
        tx = self.dm.io.begin()
        try:
            rows = self.dm.io.execute(
                Select("admin_config", aggregates=[Aggregate("max", "config_id", "m")]),
            )
            self.dm.io.execute(
                Insert(
                    "admin_config",
                    {
                        "config_id": (rows[0]["m"] or 0) + 1,
                        "section": "routine",
                        "key": name,
                        "value": f"{user.user_id}:0",  # owner:public flag
                        "description": description,
                    },
                ),
                tx=tx,
            )
            self.dm.io.names.register_file(
                item_id, stored.archive_id, stored.rel_path, role="data",
                size_bytes=stored.size, checksum=stored.checksum, tx=tx,
            )
        except Exception:
            self.dm.io.rollback(tx)
            self.dm.io.storage.archive(stored.archive_id).remove(stored.rel_path)
            raise
        self.dm.io.commit(tx)
        return Routine(name, user.user_id, source, description, public=False)

    def publish(self, user: User, name: str) -> None:
        """Make a routine available to every user (and every server)."""
        row = self._find_row(name)
        if row is None:
            raise KeyError(f"no routine named {name!r}")
        owner_id = int(row["value"].split(":", 1)[0])
        if not (user.is_admin or user.user_id == owner_id):
            from ..security import ConstraintViolation

            raise ConstraintViolation("only the owner may publish a routine")
        self.dm.io.execute(
            Update(
                "admin_config",
                {"value": f"{owner_id}:1"},
                (Comparison("section", "=", "routine") & Comparison("key", "=", name)),
            )
        )

    # -- lookup ---------------------------------------------------------------------

    def _find_row(self, name: str) -> Optional[dict]:
        rows = self.dm.io.execute(
            Select(
                "admin_config",
                where=(Comparison("section", "=", "routine")
                       & Comparison("key", "=", name.lower())),
            )
        )
        return rows[0] if rows else None

    def get(self, name: str) -> Routine:
        row = self._find_row(name)
        if row is None:
            raise KeyError(f"no routine named {name!r}")
        owner_raw, public_raw = row["value"].split(":", 1)
        names = self.dm.io.names.resolve_files(f"routine:{row['key']}")
        source = self.dm.io.read_item(names[0]).decode()
        return Routine(
            row["key"], int(owner_raw), source, row["description"] or "",
            public=public_raw == "1",
        )

    def published(self) -> list[Routine]:
        rows = self.dm.io.execute(
            Select("admin_config", where=Comparison("section", "=", "routine"))
        )
        return [
            self.get(row["key"])
            for row in rows
            if row["value"].endswith(":1")
        ]

    # -- server integration ------------------------------------------------------------

    def load_into(self, interpreter: Interpreter) -> int:
        """Load every published routine into an interpreter session."""
        count = 0
        for routine in self.published():
            interpreter.run(routine.source)
            count += 1
        return count


class UserRoutineStrategy(AnalysisStrategy):
    """Runs a published user routine over an event's photons.

    A thin strategy (§5.1) so user-submitted routines slot into the same
    four-phase request model as the built-in analyses: the request's
    ``routine`` parameter names the function; it is applied to the bound
    photon energies (the most common submitted-analysis shape).
    """

    algorithm = "user_routine"
    #: Unknown code over one photon column: priced like the histogram,
    #: the built-in of that shape.
    cost = HISTOGRAM

    def __init__(self, idl):
        #: The :class:`IdlServerManager` whose sessions run the routines.
        self.idl = idl

    def parse(self, given):
        """``routine`` names code, not a value: it must be an IDL
        identifier, since it is written into the source that runs, and
        a function the servers' sessions define (shipped with them, or
        published and loaded)."""
        name = given.get("routine")
        if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
            raise ParameterError("parameter 'routine' must be the name of a routine")
        if not self.idl.defines_function(name):
            raise ParameterError(
                f"parameter 'routine' names no routine the servers have: {name.lower()!r}"
            )
        return {"routine": name.lower()}

    def execute(self, request, context):
        routine_name = self.parse(request.parameters)["routine"]
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        photons = context.load_photons_for(hle)
        context.check_existing(request.user, request.hle_id, self.algorithm)
        source = f"result = {routine_name}(ph_energies)\nresult"
        outcome = context.idl.invoke(source, photons=photons)
        if not outcome.ok:
            raise RequestFailed(f"user routine failed: {outcome.error}")
        request.parameters["n_photons_used"] = len(photons)
        return outcome.value

    def deliver(self, request, context):
        value = request.raw_result
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        series = np.atleast_1d(np.asarray(value, dtype=float))
        product.add_image(render_series_pgm(np.abs(series) + 1e-12))
        product.summary = {"routine": request.parameters.get("routine"),
                           "n_values": int(series.size)}
        product.log(f"user routine {request.parameters.get('routine')!r}")
        return product

    def commit_fields(self, request, hle):
        fields = super().commit_fields(request, hle)
        fields["notes"] = f"user routine: {request.parameters.get('routine')}"
        fields["n_photons_used"] = request.parameters.get("n_photons_used")
        return fields
