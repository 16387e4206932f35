"""Pin BLAS to one thread before any test module imports numpy.

The OpenBLAS that numpy links can start up to 64 threads, and a threaded
call stalls for milliseconds whenever another process holds a CPU.  No
deposit builds a state wider than 2 qubits any more, but the flat
reference simulator still multiplies states of up to 2^16 amplitudes,
and the suite shares its CPUs with whatever else runs; one thread keeps
its timings, criterion 01's 30 s wall-clock gate among them, steady.
An explicit setting in the environment still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
