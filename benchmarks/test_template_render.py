"""Render guard: templates run as generated code, compiled once per process.

``repro.web.templates`` turns each template into the source of one Python
function and compiles it once; a listing row is local reads plus one
f-string.  Before, closures cost a getter, an ``emit`` and an escape call
per value, and before them a tree interpreter re-read every expression on
every render and copied the context for every row.  That interpreter is
kept as the differential oracle (``tests/oracle_templates.py``), so the
guard needs no recorded numbers: on the two list pages the browse mix
spends its template time in — 100 search results, 100 catalogue members —
on the catalogue list, and on the HLE page's header and analysis
templates, the generated engine must return the interpreter's bytes and
take at most a fifth of its time (min-of-repeats per render).  The floor
may rise, never fall.

``repro.web.pages`` compiles its nine templates when it is imported, so
building a registry for a server compiles nothing.

Run from the repository root, so that ``tests`` is importable.
"""

from __future__ import annotations

import builtins

import pytest

from conftest import min_per_call
from repro.web import pages
from tests import oracle_templates as oracle

N_ROWS = 100
MIN_SPEEDUP = 5.0


class _User:
    login = "bench"
    group = "scientist"


def _rows() -> list[dict]:
    return [{"hle_id": n, "title": f"flare <{n}> & co", "kind": "flare",
             "start_time": 1234.5678 * n, "peak_rate": 3.14159 * n, "n_analyses": n % 4}
            for n in range(N_ROWS)]


_HLE = {"hle_id": 7, "title": "flare <7> & co", "kind": "flare", "start_time": 8641.9746,
        "end_time": 8702.5, "peak_rate": 21.99113, "mean_energy_kev": 17.25,
        "significance": 6.5}
_PAGE = {"title": "HLE 7", "user": _User(), "hle": _HLE, "n_analyses": 2, "n_catalogs": 1,
         "n_similar": 4, "data_files": [{"item_id": "hle:7", "path": "raw/unit_0007.fits"}]}

CONTEXTS = {
    "search_page": {"title": "search", "user": _User(), "sql_allowed": True,
                    "results": _rows()},
    "catalog_page": {"title": "catalog standard", "user": None,
                     "catalog": {"name": "standard"}, "hles": _rows()},
    "catalog_list": {"title": "catalogs", "user": _User(), "catalogs": [
        {"catalog_id": n, "name": f"catalog {n}", "n_members": 40 * n,
         "description": "events <selected> & kept"} for n in range(4)]},
    "hle_header": _PAGE,
    "analysis": {**_PAGE, "ana": {"ana_id": 11, "algorithm": "histogram", "status": "done",
                                  "executed_on": "idl-0", "n_photons_used": 120000},
                 "ana_images": ["/hedc/image?item=ana:11&index=0"]},
}


@pytest.fixture(scope="module")
def engines():
    return pages.build_registry(), oracle.interpreted_pages()


@pytest.mark.parametrize("page", sorted(CONTEXTS))
def test_compiled_page_is_the_interpreters_bytes_at_a_fifth_of_its_time(engines, page):
    compiled, interpreted = engines
    context = CONTEXTS[page]
    assert (compiled.render(page, context).encode("utf-8")
            == interpreted.render(page, context).encode("utf-8"))
    calls = 50 if page in ("search_page", "catalog_page") else 2000
    compiled_s = min_per_call(compiled.render, page, context, calls=calls)
    interpreted_s = min_per_call(interpreted.render, page, context, calls=max(calls // 4, 20))
    speedup = interpreted_s / compiled_s
    print(f"\n{page}: compiled {compiled_s * 1e6:.1f}us  interpreted "
          f"{interpreted_s * 1e6:.1f}us  speedup {speedup:.2f}x  (floor {MIN_SPEEDUP:.0f}x)")
    assert speedup >= MIN_SPEEDUP


def test_building_a_registry_compiles_nothing(monkeypatch):
    compiled = []

    def counting(*args, **kwargs):
        compiled.append(args[0])
        return compile_(*args, **kwargs)

    compile_ = builtins.compile
    monkeypatch.setattr(builtins, "compile", counting)
    registry = pages.build_registry()
    assert all(name in registry for name in oracle.PAGE_NAMES)
    assert compiled == []
