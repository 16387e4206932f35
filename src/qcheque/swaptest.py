"""Destructive equality testing of quantum registers via the swap test.

The swap test is a two-outcome projective measurement.  With S the
operator that exchanges register a with register b, the pass outcome
projects the joint state onto (I+S)/2, its symmetric part, and the fail
outcome onto (I-S)/2.  It is the measurement that the textbook circuit
(an ancilla in |+> controlling one Fredkin gate per aligned qubit pair,
then read out in the X basis) performs, simulated by
:meth:`qcheque.sim.World.measure_swap` without the ancilla.  Identical
pure inputs always pass; states with inner product d pass with
probability (1+d^2)/2; for mixed marginals the rate is
(1 + Tr(rho_a rho_b))/2.  A pass says "probably equal", never
"certainly equal".  `swap_test` returns that one bit: True on a pass.

The simulator draws the bit from per-block overlaps, so registers of
unentangled qubits are decided pair by pair in closed form, with no
product state at all, and it builds the post-measurement state only if
one of the registers' qubits is used again.
"""

from __future__ import annotations

from .sim import World

__all__ = ["swap_test"]


def swap_test(world: World, register_a, register_b) -> bool:
    """Compare two equal-length registers, sequences of distinct live
    qubits; True on a pass, the one bit the test yields.

    The inputs are consumed in the sense that they end up entangled with
    each other, in one group whose state is built when one of its qubits
    is next used; only when the test passes on identical pure inputs is
    the joint state left exactly as it was.  Registers that differ in
    length, are empty, overlap or name a retired qubit raise
    ``ValueError``, as does a joint group over ``MAX_GROUP_QUBITS``.
    """
    return world.measure_swap(register_a, register_b)
