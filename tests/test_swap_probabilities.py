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
  ledger and runs no swap test.

The rates the harness reports only show a change in p of about 0.04 at
the acceptance suite's trial counts; this shows one of 1e-9.  Reading
the registers must not change the run: its report equals an unwrapped
run's.
"""

import numpy as np
import pytest

from qcheque import protocol
from qcheque.adversary import run_attack, run_honest
from qcheque.protocol import Bank, SchemeParams


def record_pass_probabilities(monkeypatch):
    """A list that grows by one list per deposit from now on, holding the
    exact pass probability of each swap test the deposit runs."""
    deposits = []
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
        return verify_cheque(bank, world, cheque)

    monkeypatch.setattr(protocol, "swap_test", reading)
    monkeypatch.setattr(Bank, "verify_cheque", depositing)
    return deposits


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
    deposits = record_pass_probabilities(monkeypatch)
    wrapped = run_attack("clone-double-spend", _params(l, n), trials, seed)
    forged = [11.0 / 12.0] * l + [0.5 * (1.0 + (5.0 / 6.0) ** n)]
    _assert_deposits(deposits, [forged, []] * trials)
    assert wrapped.to_json() == plain.to_json()


@pytest.mark.parametrize("seed", [4, 29])
@pytest.mark.parametrize("l, n", [(2, 2), (8, 8)])
def test_honest_swap_tests_always_pass(monkeypatch, l, n, seed):
    trials = 100
    plain = run_honest(_params(l, n), trials, seed)
    deposits = record_pass_probabilities(monkeypatch)
    wrapped = run_honest(_params(l, n), trials, seed)
    _assert_deposits(deposits, [[1.0] * (l + 1)] * trials)
    assert wrapped.to_json() == plain.to_json()
