"""Speed reference: a fixed block of work timed in a process of its own.

    python3 perfbench/speedref.py

Reads one line per request on stdin and answers each with one line: the
median time in seconds of BLOCKS runs of `block()`.  It imports numpy but
no qcheque code, and it never shares a heap with the benchmark's
workload, so neither a change to the package nor the state a workload
leaves behind can move its figures; only the machine's speed can.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy

BLOCKS = 5
_GATE = numpy.array([[0, 1], [1, 0]], dtype=complex)
_FREDKIN = numpy.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]
_WIDE = numpy.ones((8, 2**11), dtype=complex)
_WIDE_OUT = numpy.empty_like(_WIDE)


def block() -> float:
    """Seconds for the kinds of work a trial does: an interpreter loop,
    small tensor contractions and one product over a 14-qubit state."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    psi = numpy.ones(2**8, dtype=complex).reshape((2,) * 8)
    for i in range(20):
        psi = numpy.tensordot(_GATE, psi, axes=([1], [i % 8]))
    numpy.matmul(_FREDKIN, _WIDE, out=_WIDE_OUT)
    return time.perf_counter() - start


def main() -> int:
    block()
    for _ in sys.stdin:
        times = sorted(block() for _ in range(BLOCKS))
        sys.stdout.write(f"{times[BLOCKS // 2]!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
