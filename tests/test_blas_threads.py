"""Importing cosmix leaves numpy's OpenBLAS at one thread whatever the
import order, unless the caller set ``OPENBLAS_NUM_THREADS`` itself."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the lookup cosmix makes: numpy's extension module, which links OpenBLAS
LOOKUP = """
import ctypes
import numpy
core = getattr(numpy, "_core", None) or numpy.core
blas = ctypes.CDLL(core._multiarray_umath.__file__)
"""
SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
           "openblas_set_num_threads")
GETTERS = [name.replace("_set_", "_get_") for name in SETTERS]

IMPORTS = {"numpy first": "import numpy\nimport cosmix\n",
           "cosmix first": "import cosmix\nimport numpy\n",
           "numpy alone": "import numpy\n"}


def _has_setter():
    scope = {}
    exec(LOOKUP, scope)
    return any(hasattr(scope["blas"], name) for name in SETTERS)


pytestmark = pytest.mark.skipif(not _has_setter(),
                                reason="numpy's BLAS has no OpenBLAS thread setter")


def blas_threads(order, **settings):
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.update(settings)
    code = (IMPORTS[order] + LOOKUP
            + f"print(next(getattr(blas, n) for n in {GETTERS!r} if hasattr(blas, n))())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.parametrize("order", ["numpy first", "cosmix first"])
def test_one_thread_whatever_the_import_order(order):
    assert blas_threads(order) == 1


def test_explicit_count_wins():
    # OpenBLAS caps the count at the CPUs it may use; cosmix must not lower it
    alone = blas_threads("numpy alone", OPENBLAS_NUM_THREADS="2")
    for order in ("numpy first", "cosmix first"):
        assert blas_threads(order, OPENBLAS_NUM_THREADS="2") == alone
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    if cpus >= 2:
        assert alone == 2
