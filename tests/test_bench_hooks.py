"""The benchmark's tracer wraps functions by name; every name must exist.

`a1bench/spans.py` lists, per `a1embed` module, the functions it times
(WRAPPED) and counts (COUNTED).  A refactor that deletes or renames one of
them fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "a1bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("a1bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _hooks():
    spans = _spans()
    return [(module, name)
            for table in (spans.WRAPPED, spans.COUNTED)
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("module, name", _hooks())
def test_every_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"a1embed.{module}"), name))
