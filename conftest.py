"""Test-session set-up shared by `tests/` and `perfbench/`.

BLAS runs on one thread unless the environment says otherwise. On a small
shared host a multi-threaded OpenBLAS spends most of a 4096-row product
waiting on its own threads. The variables must be set before anything
imports numpy, and pytest reads this file, at the repository root, before
it imports any test module.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
