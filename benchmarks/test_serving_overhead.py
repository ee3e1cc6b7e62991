"""Overhead guard: the serving tier must stay out of the sync hot path.

PR-8 routed every request through the scheduler machinery — a
:class:`~repro.web.ScheduledRequest` handle, route classification, the
executor indirection, write-once resolution, and per-resolution
accounting.  In ``scheduler="sync"`` mode (the default, preserving the
old inline semantics) all of that is pure wiring, so its budget is <5%
of one hot ``/hedc/hle`` page.

A direct wall-clock A/B of ``handle()`` before/after is impossible (the
old path is gone), so the guard measures the two quantities that make up
the ratio separately, each the stable way:

* the per-call cost of one hot page through the full ``handle()`` path
  (min-of-repeats — min converges to the quiet-window time);
* the per-call cost of the full serving wrapper, independent of the
  servlet, measured as the delta between ``handle()`` on a trivial
  route and the bare trivial servlet in tight loops.  This *over*-counts
  the scheduler's share (the delta also includes the span and metric
  accounting that predate PR-8), making the guard conservative.

The assertion is ``wrapper_cost / page_cost < 5%``.
"""

from __future__ import annotations

import pytest

from conftest import min_per_call
from repro.web import HttpResponse, build_serving_stack

PAGE_CALLS = 50
NOOP_CALLS = 5_000
MAX_OVERHEAD = 0.05

_NOOP_BODY = HttpResponse.html("ok")


def _noop(request):
    return _NOOP_BODY


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    built = build_serving_stack(tmp_path_factory.mktemp("serving-bench"),
                                n_hles=16, rtt_s=0.0)
    built.web.router.add("/noop", _noop)
    yield built
    built.shutdown()


def test_sync_scheduler_overhead_under_five_percent(stack):
    page_request = stack.request(f"/hedc/hle?id={stack.hle_ids[0]}")
    page_s = min_per_call(stack.web.handle, page_request, calls=PAGE_CALLS)

    noop_request = stack.request("/noop")
    bare_s = min_per_call(_noop, noop_request, calls=NOOP_CALLS)
    handled_s = min_per_call(stack.web.handle, noop_request, calls=NOOP_CALLS)
    wrapper_s = handled_s - bare_s

    overhead = wrapper_s / page_s
    print(f"\npage {page_s * 1e6:.1f}us/call  wrapper {wrapper_s * 1e6:.2f}us/call  "
          f"overhead {overhead * 100:+.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD


def test_sync_handle_returns_the_servlet_response(stack):
    """The wrapped path serves the same page, not a degraded one."""
    request = stack.request(f"/hedc/hle?id={stack.hle_ids[0]}")
    direct = stack.web.router.dispatch(request)
    handled = stack.web.handle(request)
    assert handled.status == 200
    assert handled.body == direct.body
