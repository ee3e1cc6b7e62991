"""Wrapper-tax probe: what a shard router over one shard and a replica
group of one cost on the statements the browse pages really issue.

Run at the end of ``browse_plain``.  It captures 500 SELECTs by sending
more of the run's request stream through a recording proxy, then replays
them against three databases holding the same rows: the bare
``Database``, a ``ShardedDatabase`` with no boundaries and a
``ReplicaGroup`` with no followers.  The tax of a wrapper is the median,
over the statements, of its time over the bare time for that statement;
the probe reports the median of five interleaved repeats (ROADMAP item 2
wants both within 10 % of bare).
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from repro.dm import DataManager
from repro.metadb import Select
from repro.obs import Observability
from repro.repl import ReplicaGroup
from repro.shard import ShardedDatabase
from repro.web import WebServer

import deploy
from metrics import quantile

N_STATEMENTS = 500
N_REPEATS = 5


class Recorder:
    """A database proxy that keeps the SELECTs passing through it."""

    def __init__(self, inner):
        self._inner = inner
        self.selects: list[Select] = []

    def execute(self, statement, tx=None):
        if isinstance(statement, Select):
            self.selects.append(statement)
        return self._inner.execute(statement, tx=tx)

    def execute_batch(self, statements, tx=None):
        self.selects.extend(statements)
        return self._inner.execute_batch(statements, tx=tx)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def capture(dep: deploy.Deployment, stream, n_statements: int) -> list[Select]:
    """Statements of the run's own request stream, as the data tier
    receives them (after the DM's SQL round trip)."""
    recorder = Recorder(dep.database)
    dm = DataManager(recorder, dep.dm.io.storage, node_name="dm-probe",
                     install_schema=False, obs=dep.obs)
    web = WebServer(dm, obs=dep.obs, name="web-probe")
    cookies = deploy.login(web)
    recorder.selects.clear()
    while len(recorder.selects) < n_statements:
        op = stream.next()
        web.handle(deploy.HttpRequest.get(op.path, cookies, deploy.CLIENT_IP))
    return recorder.selects[:n_statements]


def run(dep: deploy.Deployment, catalogue, stream, workdir: Path) -> dict[str, float]:
    statements = capture(dep, stream, N_STATEMENTS)
    bare = dep.database
    obs = Observability(name="probe_tax")
    sharded = ShardedDatabase(boundaries=(), name="x1", obs=obs)
    deploy.seeded_data_manager(sharded, workdir, obs, catalogue,
                               deploy.no_tick)
    # The group wraps the very tables the run used: no copy, no drift.
    group = ReplicaGroup(primary=bare, n_replicas=0, obs=obs)
    targets = {"bare": bare, "shard": sharded, "repl": group}
    for target in targets.values():          # build columnar segments, warm up
        for statement in statements:
            target.execute(statement)
    ratios: dict[str, list[float]] = {"shard": [], "repl": []}
    for _ in range(N_REPEATS):
        elapsed: dict[str, list[float]] = {name: [] for name in targets}
        for statement in statements:
            for name, target in targets.items():
                t0 = perf_counter()
                target.execute(statement)
                elapsed[name].append(perf_counter() - t0)
        for name in ratios:
            per_statement = sorted(wrapped / plain for wrapped, plain
                                   in zip(elapsed[name], elapsed["bare"]))
            ratios[name].append(quantile(per_statement, 0.5))
    return {
        "shard.x1_tax_ratio": quantile(sorted(ratios["shard"]), 0.5),
        "repl.x1_tax_ratio": quantile(sorted(ratios["repl"]), 0.5),
    }
