"""Shared test settings.

The BLAS runs on one thread unless the caller's environment says otherwise,
as in ``bench/run.py``: batch EDMD's numbers depend on the thread count, so
a pinned count makes the suite's numbers the same on every machine. The
variables are set here, before numpy loads, because OpenBLAS reads them
only when it starts.

Property tests run under one ``hypothesis`` profile: a fixed example
sequence (``derandomize``) and no per-example deadline, so a run is
deterministic and does not fail on a slow or loaded machine, and a bounded
example count keeps the suite's time stable.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("koopseed", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("koopseed")
