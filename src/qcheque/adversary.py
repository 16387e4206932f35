"""Adversary harness: strategies that try to beat the cheque scheme.

Each strategy, like the honest baseline, plays one trial; a single loop
runs it over `trials` independent protocol sessions, one freshly seeded
world per trial, so a (strategy, params, trials, seed) tuple pins down
every sample drawn.  Alongside the empirical success rate each run
reports an analytic prediction and its standard error, computed without
peeking at the sampled verdicts.  The acceptance tests hold the two
columns to four standard deviations of each other.

Every cheque is signed for AMOUNT_UNITS; the strategies that lie about
the amount claim TAMPERED_UNITS instead.

The strategies:

replay
    Deposit an honestly signed cheque, then submit the very same cheque
    again.  The ledger refuses the second deposit deterministically.
clone-double-spend
    Universally clone every cheque register, deposit the counterfeit
    first, then try the genuine original.  Predicted in closed form from
    the cloner's depolarising channel, with no sampling.
tamper-amount
    Forward the genuine registers untouched but lie about the classical
    amount field.  Predicted from the overlap between the states the two
    amounts derive to.
forge-key-guess
    Fabricate a cheque from a genuine cheque's classical fields without
    knowing the shared key, guessing it uniformly instead.  The run also
    counts how often the guess happened to be exactly right.
local-tamper
    Flip every amount qubit with an X gate while the cheque is in
    transit, leaving all classical fields honest.

A note on the cloner: both output qubits of `clone_qubit` reduce to
(2/3) rho + (1/6) I for input rho, the optimal input-independent copy.
It is one fixed state of two work qubits and one permutation of the
basis of the input and those two qubits: one allocation and one gate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .bits import BitString
from .protocol import (
    Bank,
    QuantumCheque,
    SchemeParams,
    encode_amount,
    sign_cheque,
)
from .qowf import (
    amount_register_amplitudes,
    auth_state_amplitudes,
    prepare_amount_register,
    prepare_auth_state,
)
from .sim import MAX_GROUP_QUBITS, PAULI_X, Owner, QubitHandle, World
from .stats import binomial_sigma, sigma_of_mean, wilson_interval

__all__ = [
    "ACCOUNT_ID",
    "AMOUNT_UNITS",
    "TAMPERED_UNITS",
    "STRATEGIES",
    "CloneResult",
    "AttackStats",
    "clone_qubit",
    "local_tamper",
    "run_honest",
    "run_attack",
]

ACCOUNT_ID = "alice"
_ID_BITS = BitString.from_text(ACCOUNT_ID)
AMOUNT_UNITS = 42
TAMPERED_UNITS = 43
_LIE = encode_amount(TAMPERED_UNITS)

STRATEGIES = (
    "replay",
    "clone-double-spend",
    "tamper-amount",
    "forge-key-guess",
    "local-tamper",
)

# The cloner's blank state (2|00> + |01> + |11>) / sqrt(6) of the work
# pair (copy, machine), and the permutation of the basis of (q, copy,
# machine) that sends |abc> to |a^b^c, a^b, a^c>.
_BLANK = np.array([2.0, 1.0, 0.0, 1.0], dtype=complex) / math.sqrt(6.0)
_COPY = np.eye(8, dtype=complex)[:, [0, 5, 6, 3, 7, 2, 1, 4]]


@dataclass(frozen=True)
class CloneResult:
    """The two qubits a cloning run adds to the world.

    `copy` and the cloned qubit itself are interchangeable clones;
    `machine` is the work qubit that stays entangled with both and should
    be accounted for (or discarded) by the caller.
    """

    copy: QubitHandle
    machine: QubitHandle


def clone_qubit(world: World, q: QubitHandle) -> CloneResult:
    """Run the optimal universal cloner on a qubit the adversary holds.

    The copy and the machine qubit are allocated together in `_BLANK`,
    then `_COPY` acts on (q, copy, machine).  `_BLANK` is what the
    preparation stage of the Buzek-Braunstein-Hillery-Bruss network
    (PRA 56, 3446 (1997)), three y rotations and two CNOTs, makes from
    |00>; `_COPY` is its copying stage, CNOT(q, copy), CNOT(q, machine),
    CNOT(copy, q) and CNOT(machine, q), as one 8x8 permutation.
    """
    if q.owner is Owner.BANK:
        raise ValueError("vault qubits are in bank custody, not the adversary's")
    copy, machine = world.allocate_group([Owner.ADVERSARY, Owner.ADVERSARY], _BLANK)
    world.apply_gate(_COPY, [q, copy, machine])
    return CloneResult(copy=copy, machine=machine)


def local_tamper(world: World, cheque: QuantumCheque) -> None:
    """Flip every amount register of a cheque with an X gate.
    Authentication qubits are never touched."""
    for q in cheque.amount_qubits:
        world.apply_gate(PAULI_X, [q])


@dataclass(frozen=True)
class AttackStats:
    """Outcome summary of one experiment run."""

    strategy: str
    trials: int
    successes: int
    failure_histogram: dict
    empirical_rate: float
    wilson_low: float
    wilson_high: float
    analytic_rate: float
    analytic_sigma: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "trials": self.trials,
            "successes": self.successes,
            "failure_histogram": dict(sorted(self.failure_histogram.items())),
            "empirical_rate": self.empirical_rate,
            "wilson_95": [self.wilson_low, self.wilson_high],
            "analytic_rate": self.analytic_rate,
            "analytic_sigma": self.analytic_sigma,
            "extras": self.extras,
        }


def _acceptance_probability(policy, amount_pass_probs, auth_pass_prob):
    """Chance the policy accepts, given independent per-test pass rates.

    The number of passing amount tests is Poisson binomial, folded here
    by direct convolution; the weight of every pass count the policy's
    own `decide` accepts is summed.  The authentication test must pass.
    """
    dist = [1.0]
    for p in amount_pass_probs:
        grown = [0.0] * (len(dist) + 1)
        for k, w in enumerate(dist):
            grown[k] += w * (1.0 - p)
            grown[k + 1] += w * p
        dist = grown
    count = len(amount_pass_probs)
    accepted = sum(w for k, w in enumerate(dist)
                   if policy.decide([True] * k + [False] * (count - k)))
    return accepted * auth_pass_prob


def _swap_pass(held, want) -> float:
    """Swap-test pass chance (1 + d^2) / 2 of two product registers.

    Both registers are given as per-qubit amplitude pairs, and
    d = |<want|held>| is the product of the per-qubit overlaps.
    """
    d = 1.0
    for h, w in zip(held, want):
        d *= abs(np.vdot(np.array(w), np.array(h)))
    return 0.5 * (1.0 + d * d)


def _fresh_session(seed, params):
    world = World(seed=seed)
    bank = Bank()
    book, record = bank.gen_account(world, ACCOUNT_ID, params)
    cheque = sign_cheque(world, book, encode_amount(AMOUNT_UNITS))
    return world, bank, record, cheque


def _drive(strategy, params, trials, seed, play, extras, oracle=None):
    """Play `trials` fresh sessions through one strategy and summarise them.

    `play(world, bank, record, cheque)` acts out one trial on a freshly
    signed cheque.  It returns the deposit whose verdict counts, that
    trial's predicted acceptance rate, and counters that are summed into
    `extras`.  The per-trial rates are averaged, with `sigma_of_mean` as
    their error, unless `oracle` fixes one rate for the whole run.  Every
    run's extras also record the signed `amount_units`.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    successes, failures, counts, predicted = 0, Counter(), Counter(), []
    for t in range(trials):
        result, rate, counters = play(*_fresh_session([seed, t], params))
        if result.accepted:
            successes += 1
        else:
            failures[result.reason.value] += 1
        predicted.append(rate)
        counts.update(counters)
    if oracle is None:
        rate, sigma = float(np.mean(predicted)), sigma_of_mean(predicted)
    else:
        rate, sigma = oracle, binomial_sigma(oracle, trials)
    low, high = wilson_interval(successes, trials)
    return AttackStats(
        strategy=strategy,
        trials=trials,
        successes=successes,
        failure_histogram=dict(failures),
        empirical_rate=successes / trials,
        wilson_low=low,
        wilson_high=high,
        analytic_rate=rate,
        analytic_sigma=sigma,
        extras={"amount_units": AMOUNT_UNITS, **extras, **counts},
    )


def run_honest(params: SchemeParams, trials: int, seed: int) -> AttackStats:
    """Completeness baseline: sign honestly, deposit once, count accepts."""

    def play(world, bank, record, cheque):
        return bank.verify_cheque(world, cheque), 1.0, {}

    return _drive("honest", params, trials, seed, play, {})


def run_attack(strategy: str, params: SchemeParams, trials: int, seed: int) -> AttackStats:
    """Run one adversary strategy for `trials` independent sessions."""
    extras, oracle = {}, None
    if strategy == "replay":
        play = _trial_replay
    elif strategy == "clone-double-spend":
        amount_probs, auth_prob = _clone_pass_probabilities(params)
        oracle = _acceptance_probability(params.policy, amount_probs, auth_prob)
        extras.update(per_register_amount_pass=amount_probs, auth_register_pass=auth_prob)
        play = _trial_clone_double_spend
    elif strategy == "tamper-amount":
        extras["tampered_units"] = TAMPERED_UNITS
        play = _trial_tamper_amount
    elif strategy == "forge-key-guess":
        extras["tampered_units"] = TAMPERED_UNITS
        play = _trial_forge_key_guess
    elif strategy == "local-tamper":
        play = _trial_local_tamper
    else:
        raise ValueError(f"unknown strategy {strategy!r}; pick from: {', '.join(STRATEGIES)}")
    return _drive(strategy, params, trials, seed, play, extras, oracle)


# ----------------------------------------------------------------------
# one trial of each strategy
# ----------------------------------------------------------------------


def _trial_replay(world, bank, record, cheque):
    first = bank.verify_cheque(world, cheque)
    second = bank.verify_cheque(world, cheque)
    return second, 0.0, {"first_deposit_accepts": first.accepted}


def _trial_clone_double_spend(world, bank, record, cheque):
    forged = replace(
        cheque,
        amount_qubits=tuple(clone_qubit(world, q).copy for q in cheque.amount_qubits),
        auth_qubits=tuple(clone_qubit(world, q).copy for q in cheque.auth_qubits),
    )
    first = bank.verify_cheque(world, forged)
    second = bank.verify_cheque(world, cheque)
    return first, None, {"original_second_accepts": second.accepted}


def _trial_tamper_amount(world, bank, record, cheque):
    result = bank.verify_cheque(world, replace(cheque, amount=_LIE))
    params = record.params
    signed = amount_register_amplitudes(cheque.nonce, cheque.amount, params.ghz_triples)
    claimed = amount_register_amplitudes(cheque.nonce, _LIE, params.ghz_triples)
    amount_probs = [_swap_pass([s], [c]) for s, c in zip(signed, claimed)]
    auth_prob = _swap_pass(
        auth_state_amplitudes(record.shared_key, _ID_BITS, cheque.nonce, cheque.amount,
                              params.auth_qubits),
        auth_state_amplitudes(record.shared_key, _ID_BITS, cheque.nonce, _LIE,
                              params.auth_qubits),
    )
    return result, _acceptance_probability(params.policy, amount_probs, auth_prob), {}


def _trial_forge_key_guess(world, bank, record, cheque):
    params = record.params
    # the malicious payee keeps the classical fields, junks the qubits
    for q in cheque.amount_qubits + cheque.auth_qubits:
        world.discard(q)
    guess = BitString.random(world.rng, params.key_bits)
    nonce = BitString.random(world.rng, params.key_bits)
    forged = replace(
        cheque,
        nonce=nonce,
        amount=_LIE,
        amount_qubits=tuple(
            prepare_amount_register(world, nonce, _LIE, params.ghz_triples, owner=Owner.ADVERSARY)
        ),
        auth_qubits=tuple(
            prepare_auth_state(
                world, guess, _ID_BITS, nonce, _LIE,
                params.auth_qubits, owner=Owner.ADVERSARY,
            )
        ),
    )
    result = bank.verify_cheque(world, forged)

    # Recovery applies I or Z to the fabricated state with chance 1/2
    # each, so a register passes with 1/2 + (1 + |<g|Z|g>|^2) / 4.
    amount_probs = []
    for a0, a1 in amount_register_amplitudes(nonce, _LIE, params.ghz_triples):
        dz = abs(abs(a0) ** 2 - abs(a1) ** 2)
        amount_probs.append(0.5 + 0.25 * (1.0 + dz * dz))
    auth_prob = _swap_pass(
        auth_state_amplitudes(guess, _ID_BITS, nonce, _LIE, params.auth_qubits),
        auth_state_amplitudes(record.shared_key, _ID_BITS, nonce, _LIE, params.auth_qubits),
    )
    rate = _acceptance_probability(params.policy, amount_probs, auth_prob)
    return result, rate, {"key_guess_hits": guess == record.shared_key}


def _trial_local_tamper(world, bank, record, cheque):
    local_tamper(world, cheque)
    result = bank.verify_cheque(world, cheque)
    # an X slipped in before recovery comes out as exactly X|g>, so
    # the test passes with (1 + |<g|X|g>|^2) / 2
    amount_probs = []
    for a0, a1 in amount_register_amplitudes(cheque.nonce, cheque.amount, record.params.ghz_triples):
        amount_probs.append(_swap_pass([(a1, a0)], [(a0, a1)]))
    return result, _acceptance_probability(record.params.policy, amount_probs, 1.0), {}


# ----------------------------------------------------------------------
# the clone oracle
# ----------------------------------------------------------------------


def _clone_pass_probabilities(params):
    """Exact per-register pass probabilities for a fully cloned cheque.

    A clone carries (2/3) rho + (1/6) I, a depolarising channel that
    commutes with the bank's recovery (an X measurement of the vault
    qubit, then a conditional Z on the clone).  So every recovered clone
    keeps fidelity 5/6 with its target, whatever the state: an amount
    register passes its swap test with (1 + 5/6) / 2 = 11/12, and the n
    independent clones of the authentication register pass together with
    (1 + (5/6)^n) / 2 (Buzek and Hillery, PRA 54, 1844 (1996)).  Raises
    first when a trial's authentication swap test would not fit in one
    group.
    """
    joint = 4 * params.auth_qubits
    if joint > MAX_GROUP_QUBITS:
        raise ValueError(
            f"the swap test over a cloned authentication register entangles "
            f"{joint} qubits (4 per register qubit), above the {MAX_GROUP_QUBITS}-qubit "
            f"group ceiling; use auth_qubits <= {MAX_GROUP_QUBITS // 4}"
        )
    return [11.0 / 12.0] * params.ghz_triples, 0.5 * (1.0 + (5.0 / 6.0) ** params.auth_qubits)
