"""Splitting a qubit across an entangled triple, and putting it back.

Account generation shares three-qubit GHZ states (|000> + |111>)/sqrt(2)
between the issuer (two qubits) and the bank (one).  To encode, the
issuer Bell-measures the payload qubit together with her first triple
qubit and applies a Pauli correction to her second, which then travels
with the cheque.  The payload is now spread over the (cheque, bank) pair
and neither side can read it alone:

* PSI outcomes leave the pair in  a|00> + b|11>,
* PHI outcomes leave the pair in  a|01> + b|10>,

both up to global phase, where (a, b) are the payload amplitudes.  The
bank's marginal is diagonal either way, so the cheque-side holder learns
nothing and no local action on the cheque qubit can signal to the bank.

Recovery measures the bank qubit in the X basis and applies Z to the
cheque qubit on a minus outcome.  That restores the payload exactly for
every one of the eight outcome combinations; the encode table below and
this recovery rule are cross-checked against the branch algebra in the
test suite.

Each step returns its one classical output: `encode_qubit` the Bell
outcome, `recover_qubit` the X outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import (
    BellOutcome,
    HadamardOutcome,
    ID2,
    Owner,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QubitHandle,
    World,
)

__all__ = [
    "GhzTriple",
    "GHZ_AMPLITUDES",
    "ENCODE_CORRECTIONS",
    "prepare_ghz",
    "encode_qubit",
    "recover_qubit",
]

GHZ_AMPLITUDES = np.zeros(8, dtype=complex)
GHZ_AMPLITUDES[0] = GHZ_AMPLITUDES[7] = 1.0 / np.sqrt(2.0)

# Pauli applied to the cheque-side qubit for each Bell outcome at encode
# time.  Derived from the four projection branches of payload (x) GHZ.
ENCODE_CORRECTIONS: dict[BellOutcome, tuple[str, np.ndarray]] = {
    BellOutcome.PSI_PLUS: ("I", ID2),
    BellOutcome.PSI_MINUS: ("Z", PAULI_Z),
    BellOutcome.PHI_PLUS: ("X", PAULI_X),
    BellOutcome.PHI_MINUS: ("Y", PAULI_Y),
}


@dataclass
class GhzTriple:
    """One shared GHZ resource: two issuer-held qubits and a bank qubit.

    `issuer_qubit` is consumed by the encode-time Bell measurement,
    `cheque_qubit` travels with the signed cheque, `bank_qubit` stays in
    the bank's vault.  A triple encodes at most once, and it has encoded
    exactly when its issuer qubit is no longer in the world.
    """

    index: int
    issuer_qubit: QubitHandle
    cheque_qubit: QubitHandle
    bank_qubit: QubitHandle


def prepare_ghz(world: World, index: int) -> GhzTriple:
    """Allocate a fresh GHZ triple: two issuer qubits and one vault qubit."""
    issuer_a, issuer_b, bank = world.allocate_group(
        [Owner.ALICE, Owner.ALICE, Owner.BANK], GHZ_AMPLITUDES
    )
    return GhzTriple(index=index, issuer_qubit=issuer_a, cheque_qubit=issuer_b, bank_qubit=bank)


def encode_qubit(world: World, payload: QubitHandle, triple: GhzTriple) -> BellOutcome:
    """Bell-measure (payload, issuer_qubit) and correct the cheque qubit.

    Consumes the payload and the triple's first qubit; afterwards the
    payload amplitudes live jointly on (cheque_qubit, bank_qubit) in the
    branch-dependent form documented in the module docstring.  Returns
    the Bell outcome; the correction applied is
    ``ENCODE_CORRECTIONS[outcome]``.
    """
    if triple.issuer_qubit not in world:
        raise ValueError(f"triple {triple.index} has already encoded a qubit")
    outcome = world.measure_bell(payload, triple.issuer_qubit)
    world.apply_gate(ENCODE_CORRECTIONS[outcome][1], [triple.cheque_qubit])
    return outcome


def recover_qubit(world: World, bank_qubit: QubitHandle, cheque_qubit: QubitHandle) -> HadamardOutcome:
    """Collapse the bank side and restore the payload onto the cheque qubit.

    The bank qubit is measured in the X basis and left behind as a
    factored-out |+> or |->; the caller decides when to discard it.  On a
    minus outcome the cheque qubit picks up a Z correction.  Afterwards
    the cheque qubit holds the original payload up to global phase.
    Returns the X outcome, the one classical bit recovery yields.
    """
    outcome = world.measure_hadamard(bank_qubit)
    if outcome is HadamardOutcome.MINUS:
        world.apply_gate(PAULI_Z, [cheque_qubit])
    return outcome
