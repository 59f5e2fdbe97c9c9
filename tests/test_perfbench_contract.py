"""perfbench/tracing.py wraps drlp functions and methods by name.

A renamed or moved name would only surface as an AttributeError in a
traced benchmark run, so every entry of the tracer's tables is checked
against its home module here.  The tracer file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("home, name", [(home, name) for home, names in tracing.FUNCTIONS.values()
                                        for name in names])
def test_traced_function_exists(home, name):
    assert callable(getattr(importlib.import_module(home), name))


@pytest.mark.parametrize("layer, home, cls, method", tracing.METHODS + tracing.COUNTED)
def test_traced_method_exists(layer, home, cls, method):
    assert callable(vars(getattr(importlib.import_module(home), cls))[method])

