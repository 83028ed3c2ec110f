"""The benchmark's tracer (perfbench/tracing.py) rebinds functions by name;
every name it lists must exist in the package, or a traced run breaks. It
also reads the evaluator's value count from its first four arguments."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, attr) for layer, attrs in tracing.TRACED.items()
            for attr in attrs]


@pytest.mark.parametrize("layer, attr", traced_names())
def test_traced_name_resolves(layer, attr):
    module = importlib.import_module(f"mdlbackbone.{layer}")
    if "." in attr:
        # the tracer wraps the method where the class itself defines it
        cls_name, meth = attr.split(".")
        raw = vars(getattr(module, cls_name))[meth]
        assert callable(getattr(raw, "__func__", raw))  # a classmethod too
    else:
        assert callable(getattr(module, attr))


def test_evaluator_value_count_parameters():
    # the tracer counts objectives.dl_global_micro_arr's values as the
    # broadcast size of its first four positional arguments
    from mdlbackbone.objectives import dl_global_micro_arr

    params = list(inspect.signature(dl_global_micro_arr).parameters)
    assert params[:4] == ["E", "W", "E_b", "W_b"]
