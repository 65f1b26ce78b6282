"""Test-session set-up, run by pytest before any test module imports numpy.

With one OpenBLAS thread and two usable CPUs, ``nn.pair`` gives its two
calls two threads, the caller and the process's one worker thread: so
``pipeline.train`` runs each step on two threads (with weak data the
step's two halves side by side, and with or without it the pose
network's Adam update as two element ranges), and
``pipeline.predict_frames`` a large batch as two row blocks (README,
"Threads").  The acceptance suite's trainings spend most of tier-1 on the
first.  A test that needs one schedule or the other forces it with the
``schedule`` fixture of ``tests/conftest.py``.  The schedule does not
change the bits; the numpy and OpenBLAS build, the BLAS thread count and
the batch size can: at two OpenBLAS threads, predictions for 41 to 43
samples at width 1024 differed in the last bits from one thread's
(README, "Threads").  A value already set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
