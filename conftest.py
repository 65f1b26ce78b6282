"""Test-session set-up, run by pytest before any test module imports numpy.

With one OpenBLAS thread and two usable CPUs, ``pipeline.train`` runs each
step of a training with weak data on two threads, and
``pipeline.predict_frames`` a large batch as two row blocks (README,
"Threads").  The acceptance suite's weak trainings spend most of tier-1
on the first.  Results are bit-identical either way; a value already set
in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
