"""The OpenBLAS kernel set numpy runs on, for digests of BLAS results.

OpenBLAS picks its kernels when it loads, from what the CPU reports,
and kernels with and without FMA round a dot product differently. So a
digest of values that pass through a BLAS call (the ridge regression's
``Xb.T @ Xb`` and solve) holds for one kernel set; a test records one
digest per kernel set and compares against the one loaded here.
"""
from repro.experiments.tables import blas_core


def by_blas_core(**digests: str) -> str:
    """The digest recorded for the loaded kernel set; where none is, a
    string that names the kernel set, so the comparison fails with it."""
    core = blas_core()
    return digests.get(core, f"no digest recorded for OpenBLAS core {core}")
