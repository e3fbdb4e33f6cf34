"""Every function the benchmark's tracer wraps must exist under its name.

`perfbench/tracing.py` lists its targets as (module, attribute) strings and
resolves them only when a traced run starts.  A rename in the package then
crashes the benchmark instead of failing here.  The file is read, never
edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in _targets()])
def test_trace_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the method on the class that defines it
        assert callable(vars(getattr(module, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(module, attr, None)), attr
