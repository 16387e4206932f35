"""Every swap test of a deposit holds its exact pass probability.

A wrapper around `protocol.swap_test` reads both registers before each
test, one qubit at a time with `reduced_density`, and computes the pass
probability p = (1 + prod_i Tr(rho_ai rho_bi)) / 2.  That product form
holds when every qubit of the two registers sits in a group of its own
among them, which the wrapper asserts.  Each deposit's list of p is held
to 1e-9 against the strategy's closed form:

- an honest deposit passes every test with certainty;
- a cloned cheque's forged deposit passes each amount test with 11/12
  and the authentication test with (1 + (5/6)^n) / 2 (Buzek and Hillery,
  PRA 54, 1844 (1996)); the genuine second deposit is refused by the
  ledger and runs no swap test;
- a replayed cheque's first deposit is honest, and the ledger refuses
  the second;
- a cheque whose amount field lies passes amount test i with
  (1 + |<g_i|g'_i>|^2) / 2, where g_i and g'_i are the amount states of
  the signed and the claimed amount, and the authentication test with
  (1 + prod_j |<a_j|a'_j>|^2) / 2 over the two amounts' registers;
- a cheque whose amount qubits were each flipped by X passes amount
  test i with (1 + |<g_i|X|g_i>|^2) / 2 and the authentication test
  with certainty;
- a cheque forged under a guessed key passes amount test i with
  certainty when recovery i measured + and with (1 + |<g_i|Z|g_i>|^2) / 2
  when it measured -, and the authentication test with
  (1 + prod_j |<guess_j|key_j>|^2) / 2.

The rates the harness reports only show a change in p of about 0.04 at
the acceptance suite's trial counts; this shows one of 1e-9.  Reading
the registers must not change the run: its report equals an unwrapped
run's.
"""

import itertools
import math

import numpy as np
import pytest

from qcheque import adversary, protocol
from qcheque.adversary import _ID_BITS, _LIE, AMOUNT_UNITS, run_attack, run_honest
from qcheque.protocol import Bank, SchemeParams, encode_amount
from qcheque.qowf import amount_state_amplitudes, auth_state_amplitudes
from qcheque.sim import PAULI_X, PAULI_Z


def record_pass_probabilities(monkeypatch):
    """Two lists that grow by one entry per deposit from now on: a list of
    the exact pass probability of each swap test the deposit runs, and
    the deposit's (bank, cheque)."""
    deposits, submitted = [], []
    swap_test, verify_cheque = protocol.swap_test, Bank.verify_cheque

    def reading(world, register_a, register_b):
        qubits = list(register_a) + list(register_b)
        assert len({id(world.group_of(q)) for q in qubits}) == len(qubits)
        overlap = 1.0
        for a, b in zip(register_a, register_b):
            rho_a, rho_b = world.reduced_density([a]), world.reduced_density([b])
            overlap *= float(np.real(np.trace(rho_a @ rho_b)))
        deposits[-1].append(0.5 * (1.0 + overlap))
        return swap_test(world, register_a, register_b)

    def depositing(bank, world, cheque):
        deposits.append([])
        submitted.append((bank, cheque))
        return verify_cheque(bank, world, cheque)

    monkeypatch.setattr(protocol, "swap_test", reading)
    monkeypatch.setattr(Bank, "verify_cheque", depositing)
    return deposits, submitted


def _params(l, n):
    return SchemeParams(ghz_triples=l, auth_qubits=n, key_bits=64, serial_bits=64)


def _assert_deposits(deposits, want):
    assert len(deposits) == len(want)
    for got, expected in zip(deposits, want):
        assert len(got) == len(expected)
        assert np.max(np.abs(np.array(got) - expected), initial=0.0) < 1e-9


@pytest.mark.parametrize("seed", [4, 29])
@pytest.mark.parametrize("l, n", [(2, 2), (8, 3), (2, 6)])
def test_clone_swap_tests_hold_their_exact_probability(monkeypatch, l, n, seed):
    trials = 100
    plain = run_attack("clone-double-spend", _params(l, n), trials, seed)
    deposits, _ = record_pass_probabilities(monkeypatch)
    wrapped = run_attack("clone-double-spend", _params(l, n), trials, seed)
    forged = [11.0 / 12.0] * l + [0.5 * (1.0 + (5.0 / 6.0) ** n)]
    _assert_deposits(deposits, [forged, []] * trials)
    assert wrapped.to_json() == plain.to_json()


@pytest.mark.parametrize("seed", [4, 29])
@pytest.mark.parametrize("l, n", [(2, 2), (8, 8)])
def test_honest_swap_tests_always_pass(monkeypatch, l, n, seed):
    trials = 100
    plain = run_honest(_params(l, n), trials, seed)
    deposits, _ = record_pass_probabilities(monkeypatch)
    wrapped = run_honest(_params(l, n), trials, seed)
    _assert_deposits(deposits, [[1.0] * (l + 1)] * trials)
    assert wrapped.to_json() == plain.to_json()


def _amount_states(nonce, amount, l):
    return [np.array(amount_state_amplitudes(nonce, amount, i)) for i in range(1, l + 1)]


def _auth_states(key, nonce, amount, n):
    return [np.array(pair) for pair in auth_state_amplitudes(key, _ID_BITS, nonce, amount, n)]


def _pass(*pairs):
    """(1 + prod |<a|b>|^2) / 2 over pairs of single-qubit states."""
    return 0.5 * (1.0 + math.prod(abs(np.vdot(a, b)) ** 2 for a, b in pairs))


# Each takes one trial's bank, the cheques deposited there and the key the
# adversary guessed, and gives each deposit's list of p.
def _replay(bank, cheques, l, n, guess):
    return [[1.0] * (l + 1), []]


def _tamper_amount(bank, cheques, l, n, guess):
    (cheque,) = cheques
    key, signed = bank._records[str(cheque.serial)].shared_key, encode_amount(AMOUNT_UNITS)
    amounts = zip(_amount_states(cheque.nonce, signed, l), _amount_states(cheque.nonce, _LIE, l))
    auth = zip(_auth_states(key, cheque.nonce, signed, n), _auth_states(key, cheque.nonce, _LIE, n))
    return [[_pass(pair) for pair in amounts] + [_pass(*auth)]]


def _local_tamper(bank, cheques, l, n, guess):
    (cheque,) = cheques
    return [[_pass((g, PAULI_X @ g)) for g in _amount_states(cheque.nonce, cheque.amount, l)] + [1.0]]


def _forge_key_guess(bank, cheques, l, n, guess):
    (cheque,) = cheques
    key = bank._records[str(cheque.serial)].shared_key
    outcomes = [m.payload["outcome"] for m in bank.transcript if m.payload_type == "recovery-outcome"]
    amounts = [1.0 if outcome == "+" else _pass((g, PAULI_Z @ g))
               for outcome, g in zip(outcomes, _amount_states(cheque.nonce, _LIE, l), strict=True)]
    auth = zip(_auth_states(guess, cheque.nonce, _LIE, n), _auth_states(key, cheque.nonce, _LIE, n))
    return [amounts + [_pass(*auth)]]


_EXPECTED = {"replay": _replay, "tamper-amount": _tamper_amount,
             "local-tamper": _local_tamper, "forge-key-guess": _forge_key_guess}


@pytest.mark.parametrize("seed", [4, 29])
@pytest.mark.parametrize("l, n", [(2, 2), (4, 3)])
@pytest.mark.parametrize("strategy", sorted(_EXPECTED))
def test_other_swap_tests_hold_their_exact_probability(monkeypatch, strategy, l, n, seed):
    # each deposit's list of p is worked out after the run, from its
    # trial's bank and cheques and, for a forged cheque, the guessed key
    trials = 100
    plain = run_attack(strategy, _params(l, n), trials, seed)
    deposits, submitted = record_pass_probabilities(monkeypatch)
    guesses = []
    prepare_auth_state = adversary.prepare_auth_state

    def guessing(world, key, *args, **kwargs):
        guesses.append(key)
        return prepare_auth_state(world, key, *args, **kwargs)

    monkeypatch.setattr(adversary, "prepare_auth_state", guessing)
    wrapped = run_attack(strategy, _params(l, n), trials, seed)
    # one fresh bank per trial
    runs = [(bank, [cheque for _, cheque in group])
            for bank, group in itertools.groupby(submitted, key=lambda deposit: deposit[0])]
    assert len(runs) == trials
    assert len(guesses) == (trials if strategy == "forge-key-guess" else 0)
    want = [p for (bank, cheques), guess in itertools.zip_longest(runs, guesses)
            for p in _EXPECTED[strategy](bank, cheques, l, n, guess)]
    _assert_deposits(deposits, want)
    assert wrapped.to_json() == plain.to_json()
