"""The benchmark's tracer patches lnfold functions by name: each (module,
attribute) it lists must be defined in that module's (or class's) own
namespace, because ``Tracer._patch`` reads ``owner.__dict__[attr]``. A
rename or a dropped import in lnfold would otherwise only show up as a
KeyError when ``lnbench/run.py --trace 1`` installs the tracer."""

import importlib
import importlib.util
import os
import sys

import pytest

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "lnbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("lnbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _name in tracing.SPANS}))
def test_span_target_is_patchable(module, attr):
    owner = importlib.import_module(f"lnfold.{module}")
    assert callable(owner.__dict__.get(attr)), f"lnfold.{module}.{attr}"


@pytest.mark.parametrize("module, cls, attr",
                         sorted({(m, c or "", a) for m, c, a, _counters in tracing.COUNTS}))
def test_count_target_is_patchable(module, cls, attr):
    owner = importlib.import_module(f"lnfold.{module}")
    if cls:
        owner = owner.__dict__[cls]
    assert callable(owner.__dict__.get(attr)), f"lnfold.{module}.{cls}.{attr}"
