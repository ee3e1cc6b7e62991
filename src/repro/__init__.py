"""repro — a full reproduction of HEDC, the RHESSI Experimental Data
Center ("Scientific Data Repositories: Designing for a Moving Target",
SIGMOD 2003).

Quick start::

    from repro import Hedc
    hedc = Hedc.create("./hedc-data")
    hedc.ingest_observation(duration_s=600)
    user = hedc.register_user("alice", "secret")
    events = hedc.events()
    result = hedc.analyze(user, events[0]["hle_id"], "imaging")

Subpackages: ``core`` (facade), ``dm``/``pl`` (application logic tier),
``metadb``/``filestore``/``schema`` (resource tier), ``web``/
``streamcorder`` (presentation tier), ``rhessi``/``fits``/``analysis``/
``idl``/``wavelets``/``viz``/``synoptic`` (domain substrates),
``simkit``/``evalmodel`` (models of the paper's two testbeds: browsing,
Figures 4-5, and processing, Tables 1-3).
"""

from .core import Hedc, IngestReport

__version__ = "1.0.0"

__all__ = ["Hedc", "IngestReport", "__version__"]
