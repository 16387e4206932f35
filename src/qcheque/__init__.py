"""Entanglement-backed cheques on a small statevector simulator.

The pieces, bottom to top: `sim` holds the simulator, `bits` and `stats`
the classical plumbing, `qowf` the hash-to-state preparation, `swaptest`
and `teleport` the two quantum subroutines, `signatures` the one-time
signatures, `protocol` the bank, and `adversary` the attack harness.
`cli` wires everything to a command line (installed as ``qcheque``).
"""

from .adversary import run_attack, run_honest
from .protocol import Bank, SchemeParams

__version__ = "0.1.0"

__all__ = ["__version__", "Bank", "SchemeParams", "run_attack", "run_honest"]
