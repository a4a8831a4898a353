"""The run's environment, recorded so that a noisy run shows as noisy."""

from __future__ import annotations

import multiprocessing
import os
import platform
from typing import Any, Dict, Sequence


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:            # not on Linux
        return os.cpu_count() or 1


def environment(blas_vars: Sequence[str]) -> Dict[str, Any]:
    """nproc, versions, start method, BLAS cap and the load before."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "loadavg_before": list(os.getloadavg()),
    }

