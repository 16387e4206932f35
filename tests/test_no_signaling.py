"""No-signaling at every deposit, as an exact identity.

The scheme claims security against any no-signaling adversary, and the
statement holds trial by trial: whatever an adversary does to the qubits
it holds, each vault qubit's marginal when the deposit starts its
recovery equals its marginal right after signing (Popescu and Rohrlich,
*Quantum nonlocality as an axiom*, Found. Phys. 24, 379 (1994)).

A wrapper on `adversary.sign_cheque` reads every vault qubit's marginal
with `reduced_density` once the cheque is signed, and holds it to its
closed form, which extends criterion 05 to every strategy: with (a, b)
the amount state the triple carries, diag(|a|^2, |b|^2) after a PSI
encode outcome and diag(|b|^2, |a|^2) after a PHI one.  A wrapper on
`protocol.recover_register` reads it again just before the deposit's
recovery, from the group's unsettled amplitudes.  Unsettled matters: a
discard is a Z measurement, deferred, and forge-key-guess discards the
cheque's qubits, which on each branch collapses the vault qubit to |0>
or |1>.  Only the average over outcomes is unchanged, and that is what
the unsettled amplitudes hold.  Neither reading draws or settles, so a
wrapped run reports what an unwrapped one does.
"""

import numpy as np
import pytest

from qcheque import adversary, protocol
from qcheque.adversary import STRATEGIES, run_attack, run_honest
from qcheque.protocol import SchemeParams
from qcheque.qowf import amount_register_amplitudes
from qcheque.sim import BellOutcome

_PSI = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)


def _unsettled_marginal(world, q) -> np.ndarray:
    """The density matrix of qubit q from its group's amplitudes as they
    stand, pending discards still in the group."""
    group = world._index[q]
    assert group.projection is None
    psi = np.moveaxis(group.amps.reshape((2,) * group.n_qubits), group.qubits.index(q), 0).reshape(2, -1)
    return psi @ psi.conj().T


def _closed_form(amplitudes, outcome) -> np.ndarray:
    a, b = (abs(x) ** 2 for x in amplitudes)
    return np.diag([a, b] if outcome in _PSI else [b, a])


def record_vault_marginals(monkeypatch):
    """Two lists that grow from now on: per signing, the largest distance
    of a vault qubit's marginal from its closed form; per deposit
    recovery, each vault qubit's marginal after signing and before
    recovery."""
    closed_form, recoveries, signed, encoded = [], [], {}, []
    sign_cheque, encode_qubit = adversary.sign_cheque, protocol.encode_qubit
    recover_register = protocol.recover_register

    def encoding(world, payload, triple):
        encoded.append(encode_qubit(world, payload, triple))
        return encoded[-1]

    def signing(world, book, amount):
        encoded.clear()
        cheque = sign_cheque(world, book, amount)
        signed.clear()
        signed.update((t.bank_qubit, world.reduced_density([t.bank_qubit])) for t in book.triples)
        payloads = amount_register_amplitudes(cheque.nonce, amount, len(book.triples))
        closed_form.append(max(np.max(np.abs(signed[t.bank_qubit] - _closed_form(amps, outcome)))
                               for t, amps, outcome in zip(book.triples, payloads, encoded, strict=True)))
        return cheque

    def recovering(world, vault, cheque_qubits):
        recoveries.append([(signed[q], _unsettled_marginal(world, q)) for q in vault])
        return recover_register(world, vault, cheque_qubits)

    monkeypatch.setattr(adversary, "sign_cheque", signing)
    monkeypatch.setattr(protocol, "encode_qubit", encoding)
    monkeypatch.setattr(protocol, "recover_register", recovering)
    return closed_form, recoveries


def _run(strategy, params, trials, seed):
    if strategy == "honest":
        return run_honest(params, trials, seed)
    return run_attack(strategy, params, trials, seed)


@pytest.mark.parametrize("l, n", [(2, 2), (4, 3)])
@pytest.mark.parametrize("strategy", ["honest", *STRATEGIES])
def test_vault_marginals_at_recovery_equal_those_after_signing(monkeypatch, strategy, l, n):
    params = SchemeParams(ghz_triples=l, auth_qubits=n, key_bits=64, serial_bits=64)
    trials, seed = 100, 4
    plain = _run(strategy, params, trials, seed)
    closed_form, recoveries = record_vault_marginals(monkeypatch)
    wrapped = _run(strategy, params, trials, seed)
    assert len(closed_form) == trials and max(closed_form) < 1e-9
    # one recovery a trial: a replayed or genuine second deposit is
    # refused by the ledger before it reaches the vault
    assert len(recoveries) == trials
    worst = max(np.max(np.abs(after - before)) for vault in recoveries for before, after in vault)
    assert worst < 1e-9
    assert wrapped.to_json() == plain.to_json()
