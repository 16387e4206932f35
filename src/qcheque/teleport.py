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
test suite.  `recover_register` recovers a whole vault in one simulator
call, `World.measure_hadamard_register`: pair by pair, in vault order, it
measures a vault qubit, applies the Z and retires the vault qubit,
drawing two uniforms per pair (the measurement's, then the retirement's)
in one draw up front.

Each step returns its classical output: `encode_qubit` the Bell outcome,
`recover_register` the X outcome of every pair.
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
    "recover_register",
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


def recover_register(world: World, vault, cheque_qubits) -> list[HadamardOutcome]:
    """Collapse each vault qubit and restore its payload onto the cheque
    qubit at the same place.

    Each vault qubit is measured in the X basis and retired; on a minus
    outcome its cheque qubit picks up a Z correction before the next
    vault qubit is measured.  Afterwards each cheque qubit holds its
    original payload up to global phase.  Returns the X outcomes in vault
    order, the classical bits recovery yields.

    Unknown, retired or repeated handles and registers of unequal length
    raise ``ValueError`` before anything is drawn.  A zero branch (a
    corrupt state) at pair i raises ``RuntimeError`` after every uniform
    is drawn, with the pairs before i recovered and retired and pair i
    and those after it live and untouched.
    """
    return world.measure_hadamard_register(vault, cheque_qubits, PAULI_Z)


def recover_qubit(world: World, bank_qubit: QubitHandle, cheque_qubit: QubitHandle) -> HadamardOutcome:
    """`recover_register` of one pair; the bank qubit is retired.  No
    package path calls it: it is the name perfbench's tracer looks up."""
    return recover_register(world, [bank_qubit], [cheque_qubit])[0]
