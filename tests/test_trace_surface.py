"""The functions perfbench/tracing.py wraps must exist in the package.

The tracer replaces them by name, so a rename or deletion in the package
would otherwise surface only when `perfbench/run.py --trace 1` fails.
"""

import importlib
import importlib.util
from pathlib import Path

from stingray.ffield import FieldSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    assert tracing.LAYERS
    for modname, attr, _prefix in tracing.LAYERS:
        obj = importlib.import_module("stingray." + modname)
        for part in attr.split("."):
            assert hasattr(obj, part), "stingray.%s.%s" % (modname, attr)
            obj = getattr(obj, part)
        assert callable(obj), "stingray.%s.%s" % (modname, attr)


def test_every_traced_scalar_resolves():
    tracing = _load_tracing()
    for meth in tracing.SCALAR:
        assert callable(getattr(FieldSpec, meth, None)), meth
