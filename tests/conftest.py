"""Pin BLAS to one thread before any test module imports numpy, and name
the numpy and BLAS builds in the session header.

The OpenBLAS that numpy links can start up to 64 threads, and a threaded
call stalls for milliseconds whenever another process holds a CPU.  No
deposit builds a state wider than 2 qubits any more, but the flat
reference simulator still multiplies states of up to 2^16 amplitudes,
and the suite shares its CPUs with whatever else runs; one thread keeps
its timings, criterion 01's 30 s wall-clock gate among them, steady.
An explicit setting in the environment still wins.

The session header says which kernels timed the run (with -q, which
hides the header, the summary ends with it): the numpy version, the BLAS
name and version, and the core that a DYNAMIC_ARCH OpenBLAS picked for
this CPU, which decides, among other things, whether its complex gemm is
the AVX-512 kernel.
"""

import ctypes
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def _openblas_core() -> str | None:
    """The core name a loaded OpenBLAS reports, or None.  The library is
    found among the process's mappings, so this reads only on Linux."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(library, f"{prefix}_get_corename{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_char_p
                    return getter().decode()
    return None


def pytest_report_header(config):
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        line = f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}"
        try:
            core = _openblas_core()
        except OSError:
            core = None
        return line + (f", openblas core {core}" if core else "")
    except Exception as exc:  # the header must never fail the session
        return f"numpy/blas: unknown ({type(exc).__name__}: {exc})"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not terminalreporter.showheader:  # -q hides the header; say it at the end
        terminalreporter.write_line(pytest_report_header(config))
