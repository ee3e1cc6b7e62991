"""Every name ``bench/trace.py`` patches still resolves.

The traced benchmark times each layer by wrapping callables it finds by
name (``PATCH_TABLE``).  A rename in ``src/`` would otherwise surface
only when that benchmark runs; here it fails tier-1, naming the entry.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PATH = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _patch_table() -> dict[str, list[tuple[str, str]]]:
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_TABLE


ENTRIES = [(span, module, dotted)
           for span, targets in _patch_table().items()
           for module, dotted in targets]


@pytest.mark.parametrize("span, module, dotted", ENTRIES,
                         ids=[f"{span}:{module}.{dotted}" for span, module, dotted in ENTRIES])
def test_every_patched_name_resolves(span, module, dotted):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        assert hasattr(owner, part), f"{span}: {module} has no {part!r}"
        owner = getattr(owner, part)
    if attr == "*":
        public = [key for key, value in vars(owner).items()
                  if callable(value) and not key.startswith("_")]
        assert public, f"{span}: {module}.{dotted} wraps nothing"
    else:
        assert callable(getattr(owner, attr, None)), f"{span}: {module}.{dotted} is gone"
