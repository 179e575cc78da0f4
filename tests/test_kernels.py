"""Backend parity: the numba kernels and the pure-numpy fallbacks must
produce identical results, and the environment flag must select the
fallback."""

import os
import subprocess
import sys

import numpy as np
import pytest

from stingray import _kernels
from stingray._intmath import SplitMix64
from stingray.ffield import make_field

needs_numba = pytest.mark.skipif(not _kernels._NUMBA_OK,
                                 reason="numba unavailable")

CTXS = [make_field(2).ctx, make_field(251).ctx,
        make_field(2, 3).ctx, make_field(3, 2).ctx]


def _random_arrays(ctx, rng, d, count):
    out = []
    for _ in range(count):
        out.append(np.array([[rng.randrange(ctx.q) for _ in range(d)]
                             for _ in range(d)], dtype=np.int64))
    return out


@needs_numba
def test_matmul_parity():
    rng = SplitMix64(10)
    for ctx in CTXS:
        for d in (1, 2, 5, 17):
            a, b = _random_arrays(ctx, rng, d, 2)
            old = _kernels.set_backend("numpy")
            try:
                want = _kernels.matmul(ctx, a, b)
                _kernels.set_backend("numba")
                got = _kernels.matmul(ctx, a, b)
            finally:
                _kernels.set_backend(old)
            assert np.array_equal(want, got)


@needs_numba
def test_rref_parity():
    rng = SplitMix64(11)
    for ctx in CTXS:
        for d in (1, 3, 8):
            (m,) = _random_arrays(ctx, rng, d, 1)
            old = _kernels.set_backend("numpy")
            try:
                r1, p1, k1 = _kernels.rref(ctx, m, None)
                _kernels.set_backend("numba")
                r2, p2, k2 = _kernels.rref(ctx, m, None)
            finally:
                _kernels.set_backend(old)
            assert np.array_equal(r1, r2)
            assert list(p1) == list(p2)
            assert k1 == k2


@needs_numba
def test_charpoly_parity():
    rng = SplitMix64(12)
    for ctx in CTXS:
        for d in (1, 2, 6):
            (m,) = _random_arrays(ctx, rng, d, 1)
            old = _kernels.set_backend("numpy")
            try:
                want = _kernels.charpoly(ctx, m)
                _kernels.set_backend("numba")
                got = _kernels.charpoly(ctx, m)
            finally:
                _kernels.set_backend(old)
            assert list(want) == list(got)


def test_set_backend_validation():
    with pytest.raises(ValueError):
        _kernels.set_backend("cuda")
    old = _kernels.set_backend("numpy")
    assert _kernels.backend() == "numpy"
    _kernels.set_backend(old)


def test_env_flag_selects_numpy_backend():
    code = ("from stingray import _kernels; "
            "print(_kernels.backend())")
    # the child must import the same package as this process
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, STINGRAY_KERNELS="numpy", PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


def test_numpy_backend_full_stack():
    # the whole library must work on the fallback path
    old = _kernels.set_backend("numpy")
    try:
        from stingray import classify, fmatrix
        g = classify.construct_stingray(3, 8, r=5)
        cls = classify.classify_element(g, 4)
        assert cls.tag == classify.STINGRAY and cls.e == 4
        assert fmatrix.matrix_order(g) == 5
    finally:
        _kernels.set_backend(old)
