"""Pin BLAS to one thread before any test module imports numpy.

Threaded BLAS calls on the 2^16-amplitude states of the l=8, n=8 swap
test can stall for milliseconds per product when another process holds a
CPU, enough to push criterion 01 past its 30 s wall-clock gate.  An
explicit setting in the environment still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
