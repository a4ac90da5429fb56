"""The benchmark's span tracer wraps names that exist in the package.

``perfbench/tracer.py`` rebinds the functions and methods it lists at run
time, and its counters read fields of what some of them return; a name
deleted or renamed in ``ltvobs`` would otherwise surface only when the
benchmark runs.  The tracer uses only the standard library, so it is
loaded here straight from its file.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# one small real call per counted function, keyed like the tracer's COUNTS:
# (args, kwargs, the count its result should give)
_T = np.linspace(0.0, 0.5, 51)
COUNTED_CALLS = {
    "hosm.run_bank": (
        (np.column_stack([np.sin(_T), _T * _T]),),
        {"nu": 3, "l_est": [1.1, 2.2], "h": 0.01},
        51 * 2,
    ),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    assert tracer.FUNCTIONS
    for mod_name, attr in tracer.FUNCTIONS:
        module = importlib.import_module(f"ltvobs.{mod_name}")
        assert callable(getattr(module, attr, None)), f"ltvobs.{mod_name}.{attr}"


def test_traced_methods_resolve(tracer):
    assert tracer.METHODS
    for mod_name, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"ltvobs.{mod_name}"), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"ltvobs.{mod_name}.{cls_name}.{attr}"


def test_counts_read_real_results(tracer):
    assert set(tracer.COUNTS) == set(COUNTED_CALLS)
    for name, count in tracer.COUNTS.items():
        mod_name, attr = name.split(".")
        fn = getattr(importlib.import_module(f"ltvobs.{mod_name}"), attr)
        args, kwargs, expected = COUNTED_CALLS[name]
        assert count(fn(*args, **kwargs)) == expected, name
