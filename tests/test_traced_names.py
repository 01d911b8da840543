"""Every name the benchmark's tracer wraps still resolves in ``vlac``.

``benchmark/tracing.py`` looks its spans up by module attribute or by
``Class.method``, so a deleted or renamed name would otherwise surface
only in a traced benchmark run.  The file is read here, never changed.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
NAMES = sorted({row[:2] for row in (*_tracing.FUNCTION_SPANS, *_tracing.VERIFIER_SPANS)})


def test_spans_are_found():
    assert NAMES


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}:{a}" for m, a in NAMES])
def test_traced_name_resolves(module, attr):
    target = reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)
