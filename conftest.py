"""Test-session set-up shared by `tests/` and `perfbench/`.

BLAS runs on one thread unless the environment says otherwise. On a small
shared host a multi-threaded OpenBLAS spends most of a 4096-row product
waiting on its own threads. The variables must be set before anything
imports numpy, and pytest reads this file, at the repository root, before
it imports any test module.

When a `@given` test fails, hypothesis imports its patch writer, which
imports libcst, whose import of `mypy_extensions.TypedDict` raises a
DeprecationWarning. `pyproject.toml` turns that warning into an error, and
inside hypothesis's failure report the error ended the whole session with
INTERNALERROR. So the patch writer is imported here once, with that warning
ignored; a failing property test then fails alone.
"""

import os
import warnings

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst hypothesis writes no patch
        pass
