"""Calibration constants for the testbed performance models.

Every constant is anchored to a number stated in the paper's evaluation
(§7-§8); derivations are given inline.  The models aim to reproduce the
*shape* of the published figures and tables — who wins, by what factor,
where saturation sets in — not the absolute values of the 2003 hardware.
"""

from __future__ import annotations

# -- browsing testbed (§7, Figures 4 and 5) -----------------------------------

#: "the underlying database ... supports a maximum throughput of around
#: 120 HEDC request[s] per second" — 120 queries/s at the DBMS.
DB_QUERIES_PER_SECOND = 120.0

#: "On average, a request generates seven DM queries."
QUERIES_PER_REQUEST = 7

#: With the batched page fetch the seven logical queries of an HLE page
#: ride in two DM<->DBMS round trips: the primary-key probe, then one
#: batch of the six statements that tuple determines.
PAGE_ROUND_TRIPS_BATCHED = 2

#: DB service time for one web request's worth of queries.
DB_SERVICE_PER_REQUEST_S = QUERIES_PER_REQUEST / DB_QUERIES_PER_SECOND

#: Middle-tier CPU demand per request grows with the number of clients
#: connected to the node (session scanning, connection handling — "the
#: drop in performance is caused by the increased processing load of the
#: application logic", §7.3).  Modelled as
#:     s(n) = CPU_BASE_S + CPU_PER_CLIENT_S * n.
#: Anchors: X(16 clients) ~ 16.5 req/s (DB-bound peak, Figure 4 left edge)
#: gives s(16) ~ 1/16.5 = 0.0606 s; X(96) ~ 3 req/s gives s(96) = 0.333 s.
#: Solving: per-client 0.0034 s, base 0.006 s.
CPU_BASE_S = 0.006
CPU_PER_CLIENT_S = 0.0034

#: Page payloads (§7.2): "The average response size is 12 KB for the
#: response HTML page and 35 KB for the embedded dynamic images."
HTML_RESPONSE_KB = 12.0
IMAGE_RESPONSE_KB = 35.0

#: Tuples parsed per request (§7.2).
TUPLES_PER_REQUEST = 80

# -- service-level objectives (PR-10 observability) ----------------------------
#
# Availability and latency objectives per admission priority class,
# seeded from the §7 measurements: the DB service time for one request
# (DB_SERVICE_PER_REQUEST_S ~ 58 ms) is the floor any latency promise
# must clear.  Interactive analysis tolerates more latency but demands
# the most nines (a failed analyze loses work); browse is the bread-and-
# butter interactive path; bulk downloads are throughput-oriented and
# shed first under pressure, so their promises are the loosest.

#: Availability objective (non-5xx fraction) per priority class.
SLO_AVAILABILITY = {
    "analysis": 0.999,
    "browse": 0.99,
    "bulk": 0.95,
}

#: Fraction of requests that must finish under the class threshold.
SLO_LATENCY_OBJECTIVE = 0.95

#: Latency thresholds per class, as multiples of the §7.2 DB service
#: time per request: analysis pages fan out across tiers (8x), a browse
#: page is a handful of batched round trips (4x), bulk moves big
#: payloads (20x).
SLO_LATENCY_S = {
    "analysis": 8 * DB_SERVICE_PER_REQUEST_S,
    "browse": 4 * DB_SERVICE_PER_REQUEST_S,
    "bulk": 20 * DB_SERVICE_PER_REQUEST_S,
}

# -- processing testbed (§8, Tables 1-3) ----------------------------------------

#: Table 2: 100 imaging requests over 50 MB in 50 files, 2-3 files each.
IMAGING_REQUESTS = 100
IMAGING_INPUT_MB_PER_REQUEST = 0.8   # "an input data set of 800 KB"
IMAGING_OUTPUT_MB_TOTAL = 5.5
IMAGING_QUERIES_PER_REQUEST = 3
IMAGING_EDITS_PER_REQUEST = 2

#: "the computation of an image takes about 20 s ... on the processing
#: client, and 60 s on the server" (per-analysis single-thread work).
IMAGING_WORK_CLIENT_S = 20.0
IMAGING_WORK_SERVER_S = 60.0

#: Table 3: 150 histogram requests, 1/3 file (~333 KB) each.
HISTOGRAM_REQUESTS = 150
HISTOGRAM_INPUT_MB_PER_REQUEST = 1.0 / 3.0
HISTOGRAM_OUTPUT_MB_TOTAL = 1.2
HISTOGRAM_QUERIES_PER_REQUEST = 3
HISTOGRAM_EDITS_PER_REQUEST = 2

#: "The net computation of a histogram takes about 2-3 s per 300 KB input
#: data on the processing client and 5-7 s on the server."
HISTOGRAM_WORK_CLIENT_S = 2.8
HISTOGRAM_WORK_SERVER_S = 6.2

#: "The HTTP bandwidth between client and server is 2 MB/s" — paid only
#: by processing clients on non-cached input.
HTTP_BANDWIDTH_MB_S = 2.0

#: Central scheduling + fault-tolerant service protocol cost per job
#: (§8.4: "in scenarios with parallel computations of analyses shorter
#: than 5 s, the central scheduling ... becomes critical: jobs are not
#: scheduled timely to available resources").  One dispatcher serializes
#: job handoffs.
DISPATCH_OVERHEAD_S = 2.0

#: Per-job DM interaction cost (3 queries + 2 edits, §8.4: "the duration
#: of query and edit operations is almost constant and equal in all
#: scenarios").
DM_INTERACTION_S = 0.35

#: "no more than 20 requests are in the system at any given time".
PROCESSING_WINDOW = 20

#: The test server is a 2-CPU SPARC; the client a 1-CPU Linux PC.
SERVER_CORES = 2
CLIENT_CORES = 1
