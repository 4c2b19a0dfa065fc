"""The OpenBLAS kernel set numpy runs on, for digests of BLAS results.

OpenBLAS picks its kernels when it loads, from what the CPU reports,
and kernels with and without FMA round a dot product differently. So a
digest of values that pass through a BLAS call (the ridge regression's
``Xb.T @ Xb`` and solve) holds for one kernel set; a test records one
digest per kernel set and compares against the one loaded here.
"""
import ctypes
import glob
import os

import numpy as np


def blas_core() -> str:
    """The name OpenBLAS gives its loaded kernel set (``"SkylakeX"``,
    ``"Haswell"``, ...), or ``"unknown"`` where numpy ships no OpenBLAS
    that reports one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libopenblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def by_blas_core(**digests: str) -> str:
    """The digest recorded for the loaded kernel set; where none is, a
    string that names the kernel set, so the comparison fails with it."""
    core = blas_core()
    return digests.get(core, f"no digest recorded for OpenBLAS core {core}")
