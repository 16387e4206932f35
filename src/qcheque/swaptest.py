"""Destructive equality testing of quantum registers via the swap test.

One ancilla prepared in |+> controls a cascade of Fredkin gates, one per
aligned qubit pair, then is measured in the X basis (realised as H plus a
Z-basis read-out).  Outcome 0 counts as a pass.  Identical pure inputs
always pass; states with inner product d pass with probability (1+d^2)/2;
for mixed marginals the rate is (1 + Tr(rho_a rho_b))/2.  A pass says
"probably equal", never "certainly equal".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import HADAMARD, Owner, World

__all__ = ["SwapOutcome", "swap_test"]

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class SwapOutcome:
    """Result of one swap test: the raw ancilla bit and the verdict."""

    ancilla_bit: int
    passed: bool


def swap_test(world: World, register_a, register_b) -> SwapOutcome:
    """Compare two equal-length registers with a single shared ancilla.

    The inputs are consumed in the sense that they end up entangled with
    each other; only when the test passes on identical pure inputs is the
    joint state left exactly as it was.  The ancilla, a bank qubit, is
    retired.
    """
    register_a = list(register_a)
    register_b = list(register_b)
    if len(register_a) != len(register_b):
        raise ValueError("registers differ in length")
    if not register_a:
        raise ValueError("registers must not be empty")
    all_handles = register_a + register_b
    if len(set(all_handles)) != len(all_handles):
        raise ValueError("registers overlap or repeat a handle")
    for q in all_handles:
        world.group_of(q)

    ancilla = world.allocate(Owner.BANK, _PLUS)
    for qa, qb in zip(register_a, register_b):
        world.apply_cswap(ancilla, qa, qb)
    world.apply_gate(HADAMARD, [ancilla])
    bit = world.measure_computational(ancilla)
    world.discard(ancilla)
    return SwapOutcome(ancilla_bit=bit, passed=(bit == 0))
