"""The names perfbench traces by string still exist in fdsic.

perfbench/tracing.py wraps the functions its LAYER_FUNCTIONS table names and
reads TuneResult fields; a rename or a deletion in src would otherwise only
show when the benchmark runs. The table is read with ast, so the benchmark
itself is not imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from fdsic.rfstage import TuneResult

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS assignment in {TRACING}")


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _layer_functions().items()
                                          for n in names])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"fdsic.{module}"), name, None))


def test_tune_result_fields_read_by_the_tracer():
    fields = {f.name for f in dataclasses.fields(TuneResult)}
    assert {"iterations", "detector_readings", "converged"} <= fields
