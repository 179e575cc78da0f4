"""The functions perfbench/tracing.py wraps must exist in the package.

The tracer replaces them by name, so a rename or deletion in the package
would otherwise surface only when `perfbench/run.py --trace 1` fails.
The package's memos are lru_caches, whose cache_info() reports hits,
misses and size.
"""

import importlib
import importlib.util
from pathlib import Path

from stingray import _intmath, ffield, fpoly, ppd
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


def test_every_memo_is_an_lru_cache():
    cap = _intmath.CACHE_CAP
    memos = {fpoly.factor_cached: cap, fpoly._root_order: cap,
             fpoly.lanes: cap,
             ppd._factor_phi: cap, FieldSpec.q1_factors: cap,
             FieldSpec.generator_enc: cap, ffield._embedding_root: cap,
             ffield._field: None}
    for memo, maxsize in memos.items():
        assert memo.cache_info().maxsize == maxsize, memo
    # one interned instance whatever the modulus is given as
    F8 = ffield.make_field(2, 3)
    assert ffield.make_field(2, 3, list(F8.modulus)) is F8
    assert ffield.make_field(2, 3, tuple(F8.modulus)) is F8
    assert ffield.make_field(2, 3, [c + 2 for c in F8.modulus]) is F8
