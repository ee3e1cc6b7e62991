"""Render guard: templates compiled at registration stay compiled.

``repro.web.templates`` compiles each template into closures once, when
it is registered; before, a tree interpreter re-read every expression on
every render and copied the context for every row.  That interpreter is
kept as the differential oracle (``tests/oracle_templates.py``), so the
guard needs no recorded numbers: on the two list pages the browse mix
spends its template time in — 100 search results, 100 catalogue members
— the compiled engine must return the interpreter's bytes and take at
most half its time (min-of-repeats per render; 4.5x when it was written).
Run from the repository root, so that ``tests`` is importable.
"""

from __future__ import annotations

import pytest

from conftest import min_per_call
from repro.web import pages
from tests import oracle_templates as oracle

N_ROWS = 100
MIN_SPEEDUP = 2.0


class _User:
    login = "bench"
    group = "scientist"


def _rows() -> list[dict]:
    return [{"hle_id": n, "title": f"flare <{n}> & co", "kind": "flare",
             "start_time": 1234.5678 * n, "peak_rate": 3.14159 * n, "n_analyses": n % 4}
            for n in range(N_ROWS)]


CONTEXTS = {
    "search_page": {"title": "search", "user": _User(), "sql_allowed": True,
                    "results": _rows()},
    "catalog_page": {"title": "catalog standard", "user": None,
                     "catalog": {"name": "standard"}, "hles": _rows()},
}


@pytest.fixture(scope="module")
def engines():
    return pages.build_registry(), oracle.interpreted_pages()


@pytest.mark.parametrize("page", sorted(CONTEXTS))
def test_compiled_page_is_the_interpreters_bytes_at_half_its_time(engines, page):
    compiled, interpreted = engines
    context = CONTEXTS[page]
    assert (compiled.render(page, context).encode("utf-8")
            == interpreted.render(page, context).encode("utf-8"))
    compiled_s = min_per_call(compiled.render, page, context, calls=50)
    interpreted_s = min_per_call(interpreted.render, page, context, calls=20)
    speedup = interpreted_s / compiled_s
    print(f"\n{page}: compiled {compiled_s * 1e3:.3f}ms  interpreted "
          f"{interpreted_s * 1e3:.3f}ms  speedup {speedup:.2f}x  (floor {MIN_SPEEDUP:.0f}x)")
    assert speedup >= MIN_SPEEDUP
