"""Capture a live operator dashboard from a small loaded deployment.

CI runs this in the bench job and uploads the output as an artifact, so
every build carries a browsable example of what the PR-10 observability
stack produces against real traffic:

* ``DASHBOARD_capture.json`` — the ``/hedc/dashboard?format=json`` body
  (health rollup with attributed causes, per-SLO burn rates and error
  budgets, any active alerts, collector state, process runtime gauges,
  sparkline timelines), plus the text rendering inline for humans.

The run drives a short closed-loop warm-up, then a 2x-capacity open-loop
overload blip with a pinch of seeded statement chaos — enough traffic
that the burn-rate math, the canary and the health rollup all have
something real to say.

Usage: ``PYTHONPATH=src python benchmarks/capture_dashboard.py``
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.obs import Observability  # noqa: E402
from repro.resil import FaultInjector, use_injector  # noqa: E402
from tests.serving import build_stack, closed_loop, open_loop  # noqa: E402


def main() -> int:
    obs = Observability(name="dashboard-capture")
    workdir = Path(tempfile.mkdtemp(prefix="hedc-dashboard-"))
    stack = build_stack(workdir, n_hles=24, rtt_s=0.004, obs=obs,
                        scheduler="pool", n_workers=4, max_queue_depth=64)
    collector = obs.collector
    try:
        stack.web.enable_canary(interval_s=1.0)
        # The real periodic collector: calibration-seeded SLOs installed,
        # registry sampled into the ring-buffer tiers 10x/s.
        collector.start(interval_s=0.1)

        # Warm-up at natural speed, then a 2x-capacity overload blip with
        # a short seeded burst of statement faults riding along.
        capacity = closed_loop(stack, n_clients=8, duration_s=1.0)
        injector = FaultInjector(seed=17, obs=obs)
        injector.inject("metadb.statement", rate=0.02, times=5)
        with use_injector(injector):
            overload = open_loop(stack, rate_rps=2.0 * capacity,
                                 duration_s=1.5)

        response = stack.web.handle(
            stack.request("/hedc/dashboard?format=json"))
        assert response.status == 200, response.text
        body = json.loads(response.text)
        text = stack.web.handle(stack.request("/hedc/dashboard"))
        assert text.status == 200
        body["text_rendering"] = text.text.splitlines()
        body["load"] = {"capacity_rps": round(capacity, 1),
                        "overload": overload}
    finally:
        collector.stop()
        stack.shutdown()

    out_path = ROOT / "DASHBOARD_capture.json"
    out_path.write_text(json.dumps(body, indent=2), encoding="utf-8")

    n_series = body["collector"]["series"]
    n_alerts = len(body["active_alerts"])
    print(f"wrote {out_path} (status {body['status']}, "
          f"{len(body['slos'])} SLOs, {n_alerts} active alerts, "
          f"{n_series} retained series, "
          f"capacity {body['load']['capacity_rps']} rps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
