"""Cloning machinery and the attack harness.

The statistical checks here run a few hundred trials each so the whole
file stays fast; the acceptance suite re-runs the same strategies at
full trial counts.
"""

import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import call_counts, product_widths, state_of

from qcheque.adversary import (
    _BLANK,
    _COPY,
    ACCOUNT_ID,
    AMOUNT_UNITS,
    STRATEGIES,
    CloneResult,
    _acceptance_probability,
    _clone_pass_probabilities,
    _fresh_session,
    _trial_clone_double_spend,
    clone_qubit,
    local_tamper,
    run_attack,
    run_honest,
)
from qcheque.bits import BitString
from qcheque.protocol import AcceptancePolicy, Bank, RejectReason, SchemeParams, encode_amount, sign_cheque
from qcheque.qowf import amount_register_amplitudes, auth_state_amplitudes
from qcheque.sim import HADAMARD, Owner, World, haar_random_qubit
from qcheque.stats import within_sigma

SMALL = SchemeParams(ghz_triples=2, auth_qubits=2, key_bits=64, serial_bits=64)
FORGE = SchemeParams(ghz_triples=2, auth_qubits=2, key_bits=8, serial_bits=64)

# sha256 of json.dumps(stats.to_json(), sort_keys=True) for 15 trials at
# seed 7.  Recorded before the strategies shared one trial loop, so any
# change to a drawn sample, a verdict, a predicted rate or an extra shows.
# clone-double-spend was re-pinned when its oracle became closed-form:
# only its predicted rates moved, in the last digit.  honest and
# forge-key-guess were re-pinned when their extras dropped the two
# counts that repeat other fields (ledger_spent_count, key_bits).
PINNED_DIGESTS = {
    "honest": "cfb4cc9022f49dfc82697c2708a0cb72139126a23b0a5945643bc82101f6e17a",
    "replay": "34da0df7a3273b063749caa5127a0dcfc22d30549735e3b1f22fc3134639c8d8",
    "clone-double-spend": "70e09ebecb477be202c484ea5754abbf3418b06b31c17230dfb98ffdbdb8e1bd",
    "tamper-amount": "a8365b9b870ec89d9573acd162c9fd97cea330a7d4f340a70237e9d31e200ac7",
    "forge-key-guess": "f3f484f138f1f1e1ec3a6fcaf05d1ddc59536bb32a825755d695f6197d988723",
    "local-tamper": "d78db6dfb1f4d1700f8c8db7d994ab91ae1e0b9c31fb0345865cc15a7444be52",
}

# sha256 of json.dumps(world.to_json(), sort_keys=True) after trial 0 of
# clone-double-spend, by seed and deposit: the trial as played, or one
# deposit of the cloned registers under a zeroed signature, which is
# refused while the vault is still live.  A cloned register leaves groups
# with discards pending, and `to_json` settles them in discard order with
# the uniforms drawn at discard time, so any change to the order in which
# a deposit's exit discards what it destroys moves these digests.
PINNED_CLONE_WORLDS = {
    (3, "trial"): "986328be9457ac464122c175a36498ec7a33f553e7d6485146c0d06ebc5c37be",
    (4, "trial"): "ebdadf66d4b8b39d3f542df0f488faae7c6bcafa8372942a21133f63d929aa99",
    (3, "bad signature"): "f681528a7753bd9ce5e57d40352fa0ecaa642033f3bbfbb38cff69d8a1bdf9b1",
    (4, "bad signature"): "45bf569ed7a03a462d06f68a551a7e157975e2672506dce75bfa4d764f496f05",
}


# ---------------------------------------------------------------- cloner


def test_clone_shrinks_by_two_thirds():
    # both clones must carry 2/3 |psi><psi| + 1/6 I, whatever the input
    world = World(seed=5)
    rng = np.random.default_rng(40)
    identity = np.eye(2) / 2.0
    for _ in range(20):
        amps = haar_random_qubit(rng)
        q = world.allocate(Owner.ADVERSARY, amps)
        result = clone_qubit(world, q)
        pure = np.outer(amps, amps.conj())
        want = 2.0 / 3.0 * pure + 1.0 / 3.0 * identity
        for clone in (q, result.copy):
            got = world.reduced_density([clone])
            assert np.max(np.abs(got - want)) < 1e-9
        for handle in (q, result.copy, result.machine):
            world.discard(handle)


def test_clone_machine_stays_entangled():
    world = World(seed=6)
    q = world.allocate(Owner.ADVERSARY, [0.6, 0.8])
    result = clone_qubit(world, q)
    rho = world.reduced_density([result.machine])
    purity = np.trace(rho @ rho).real
    assert purity < 1.0 - 1e-6


def test_clone_refuses_vault_qubits():
    world = World(seed=7)
    q = world.allocate(Owner.BANK)
    with pytest.raises(ValueError):
        clone_qubit(world, q)


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _ry(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


# The cloner as its gate network (Buzek, Braunstein, Hillery and Bruss,
# PRA 56, 3446 (1997)): five gates prepare two fresh work qubits, then
# four CNOTs copy the input onto them.


def network_preparation(world):
    copy = world.allocate(Owner.ADVERSARY)
    machine = world.allocate(Owner.ADVERSARY)
    world.apply_gate(_ry(math.acos(1.0 / math.sqrt(5.0))), [copy])
    world.apply_gate(_CNOT, [copy, machine])
    world.apply_gate(_ry(math.acos(math.sqrt(5.0) / 3.0)), [machine])
    world.apply_gate(_CNOT, [machine, copy])
    world.apply_gate(_ry(math.acos(2.0 / math.sqrt(5.0))), [copy])
    return copy, machine


def network_clone(world, q):
    copy, machine = network_preparation(world)
    world.apply_gate(_CNOT, [q, copy])
    world.apply_gate(_CNOT, [q, machine])
    world.apply_gate(_CNOT, [copy, q])
    world.apply_gate(_CNOT, [machine, q])
    return CloneResult(copy=copy, machine=machine)


def test_blank_state_is_the_network_preparation():
    world = World(seed=0)
    copy, machine = network_preparation(world)
    group = world.group_of(copy)
    assert group.qubits == [copy, machine]
    assert np.max(np.abs(group.amps - _BLANK)) < 1e-15


def test_copy_permutation_is_the_four_cnots():
    # each CNOT as an 8x8 matrix on (q, copy, machine), first qubit most significant
    def cnot(control, target):
        out = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            j = i ^ (1 << (2 - target)) if i >> (2 - control) & 1 else i
            out[j, i] = 1
        return out

    network = cnot(2, 0) @ cnot(1, 0) @ cnot(0, 2) @ cnot(0, 1)
    assert np.array_equal(_COPY, network)


def _random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


# Where the cloned qubit sits: the owners of its group, and its position
CLONE_LAYOUTS = {
    "alone": ([Owner.ADVERSARY], 0),
    "with a vault partner": ([Owner.ADVERSARY, Owner.BANK], 0),
    "middle of three": ([Owner.ALICE, Owner.ADVERSARY, Owner.ALICE], 1),
}


@pytest.mark.parametrize("layout", CLONE_LAYOUTS)
def test_clone_matches_the_gate_network(layout):
    owners, position = CLONE_LAYOUTS[layout]
    rng = np.random.default_rng(41)
    worlds = World(seed=9), World(seed=9)
    for _ in range(20):
        amps = _random_state(rng, len(owners))
        results = []
        for world, clone in zip(worlds, (clone_qubit, network_clone)):
            bystander = world.allocate(Owner.ALICE)
            group = world.allocate_group(owners, amps)
            results.append(clone(world, group[position]))
            world.discard(bystander)
        assert results[0] == results[1]
        fast, slow = ([(g.qubits, g.amps) for g in w._groups] for w in worlds)
        assert [qubits for qubits, _ in fast] == [qubits for qubits, _ in slow]
        for (_, a), (_, b) in zip(fast, slow):
            assert np.max(np.abs(a - b)) < 1e-15
        assert worlds[0].rng.bit_generator.state == worlds[1].rng.bit_generator.state


def test_clone_work_is_pinned(monkeypatch):
    # a cheque's amount qubit shares a 2-qubit group with its vault
    # partner; cloning it allocates the work pair as one group and merges
    # the two groups in its one gate: one 4-qubit product of 2-qubit leaves
    world = World(seed=3)
    book, record = Bank().gen_account(world, ACCOUNT_ID, SMALL)
    cheque = sign_cheque(world, book, encode_amount(AMOUNT_UNITS))
    q, vault = cheque.amount_qubits[0], record.bank_qubits[0]
    assert world.group_of(q).qubits == [q, vault]
    products = product_widths(monkeypatch)
    calls = call_counts(world, "allocate_group", "apply_gate", "_merge")
    result = clone_qubit(world, q)
    assert calls == {"allocate_group": 1, "apply_gate": 1, "_merge": 1}
    assert products == [2, 2, 4]
    assert world.group_of(q).qubits == [q, vault, result.copy, result.machine]


# ---------------------------------------------------------------- tamper op


def test_local_tamper_flips_every_amount_register():
    # each amount qubit is still entangled with its vault partner, so
    # compare the joint pair states; X on the cheque side is X (x) I
    world = World(seed=8)
    bank = Bank()
    book, record = bank.gen_account(world, "alice", SMALL)
    cheque = sign_cheque(world, book, encode_amount(5))
    pairs = list(zip(cheque.amount_qubits, record.bank_qubits))
    before = [state_of(world, list(pair)) for pair in pairs]
    auth_before = state_of(world, list(cheque.auth_qubits))
    local_tamper(world, cheque)
    x_on_first = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    assert len(pairs) == SMALL.ghz_triples
    for pair, old in zip(pairs, before):
        assert np.allclose(state_of(world, list(pair)), x_on_first @ old)
    assert np.allclose(state_of(world, list(cheque.auth_qubits)), auth_before)


# ---------------------------------------------------------------- harness


def test_unknown_strategy_raises():
    with pytest.raises(ValueError):
        run_attack("side-channel", SMALL, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_attack("replay", SMALL, trials=0, seed=0)


def test_honest_runs_always_accept():
    stats = run_honest(SMALL, trials=50, seed=100)
    assert stats.successes == 50
    assert stats.empirical_rate == 1.0
    assert stats.analytic_rate == 1.0


def test_replay_never_succeeds():
    stats = run_attack("replay", SMALL, trials=50, seed=101)
    assert stats.successes == 0
    assert stats.extras["first_deposit_accepts"] == 50
    assert stats.failure_histogram == {"double-spend": 50}
    assert stats.analytic_rate == 0.0


def test_clone_double_spend_matches_analytics():
    stats = run_attack("clone-double-spend", SMALL, trials=400, seed=102)
    assert within_sigma(stats.empirical_rate, stats.analytic_rate, stats.analytic_sigma)
    assert stats.extras["original_second_accepts"] == 0
    assert 0.0 < stats.extras["auth_register_pass"] < 1.0
    assert len(stats.extras["per_register_amount_pass"]) == SMALL.ghz_triples
    for p in stats.extras["per_register_amount_pass"]:
        assert abs(p - 11.0 / 12.0) < 1e-9


def test_clone_respects_group_ceiling():
    # The cloned authentication swap test entangles 4 qubits per register
    # qubit: 28 at auth_qubits=7 is refused, 24 at 6 fits the ceiling.
    too_big = SchemeParams(ghz_triples=2, auth_qubits=7, key_bits=64, serial_bits=64)
    with pytest.raises(ValueError, match="28 qubits"):
        run_attack("clone-double-spend", too_big, trials=1, seed=0)
    # Only the closed-form oracle runs here, so no 24-qubit group is built.
    at_ceiling = SchemeParams(ghz_triples=2, auth_qubits=6, key_bits=64, serial_bits=64)
    amount_probs, auth_prob = _clone_pass_probabilities(at_ceiling)
    assert amount_probs == pytest.approx([11.0 / 12.0] * 2, abs=1e-9)
    assert auth_prob == pytest.approx(0.5 * (1.0 + (5.0 / 6.0) ** 6), abs=1e-9)


_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _simulated_clone_pass_probabilities(params):
    """The clone oracle read off the simulator rather than from algebra.

    One session clones every register of a signed cheque and applies the
    recovery step in deferred form: Hadamard on the vault qubit, a
    controlled-Z onto the clone, and a partial trace instead of a
    measurement.  The reduced density matrix that falls out is the
    outcome-averaged recovered state, so each swap-test pass chance
    (1 + <target|rho|target>) / 2 needs no sampling.
    """
    world = World(seed=0)
    book, record = Bank().gen_account(world, ACCOUNT_ID, params)
    cheque = sign_cheque(world, book, encode_amount(AMOUNT_UNITS))

    amount_probs = []
    targets = amount_register_amplitudes(cheque.nonce, cheque.amount, params.ghz_triples)
    for q, vault, pair in zip(cheque.amount_qubits, record.bank_qubits, targets, strict=True):
        clone = clone_qubit(world, q).copy
        world.apply_gate(HADAMARD, [vault])
        world.apply_gate(_CZ, [vault, clone])
        rho = world.reduced_density([clone])
        target = np.array(pair)
        amount_probs.append(0.5 * (1.0 + float(np.real(np.vdot(target, rho @ target)))))

    pairs = auth_state_amplitudes(record.shared_key, BitString.from_text(ACCOUNT_ID),
                                  cheque.nonce, cheque.amount, params.auth_qubits)
    fidelity = 1.0
    for q, pair in zip(cheque.auth_qubits, pairs):
        rho = world.reduced_density([clone_qubit(world, q).copy])
        target = np.array(pair)
        fidelity *= float(np.real(np.vdot(target, rho @ target)))
    return amount_probs, 0.5 * (1.0 + fidelity)


@pytest.mark.parametrize("ghz_triples, auth_qubits", [(1, 1), (2, 2), (8, 3), (2, 6)])
def test_closed_form_clone_oracle_matches_the_simulator(ghz_triples, auth_qubits):
    params = SchemeParams(ghz_triples=ghz_triples, auth_qubits=auth_qubits,
                          key_bits=64, serial_bits=64)
    amount_probs, auth_prob = _clone_pass_probabilities(params)
    want_amount, want_auth = _simulated_clone_pass_probabilities(params)
    assert len(amount_probs) == ghz_triples
    assert np.max(np.abs(np.array(amount_probs) - want_amount)) < 1e-12
    assert abs(auth_prob - want_auth) < 1e-12


# kappa2 just above 3/5 is where a rounded copy of the threshold rule
# would accept 3 of 5 passing amount tests; `decide` needs 4.
@pytest.mark.parametrize(
    "policy",
    [AcceptancePolicy("strict")]
    + [AcceptancePolicy("threshold", k) for k in (0.6000000000001, 0.75, 0.91, 1.0)],
    ids=lambda policy: f"{policy.mode}-{policy.kappa2}",
)
def test_acceptance_fold_matches_enumeration(policy):
    rng = np.random.default_rng(12)
    auth = 0.8
    for count in range(1, 9):
        probs = [float(p) for p in rng.uniform(0.05, 0.95, size=count)]
        want = 0.0
        for pattern in itertools.product((True, False), repeat=count):
            if policy.decide(list(pattern)):
                weight = 1.0
                for passed, p in zip(pattern, probs):
                    weight *= p if passed else 1.0 - p
                want += weight
        got = _acceptance_probability(policy, probs, auth)
        assert abs(got - want * auth) < 1e-12, count


def test_tamper_amount_matches_analytics():
    stats = run_attack("tamper-amount", SMALL, trials=400, seed=103)
    assert within_sigma(stats.empirical_rate, stats.analytic_rate, stats.analytic_sigma)
    assert 0.0 < stats.analytic_rate < 1.0


def test_forge_key_guess_reports_oracle_rate():
    stats = run_attack("forge-key-guess", FORGE, trials=400, seed=104)
    assert within_sigma(stats.empirical_rate, stats.analytic_rate, stats.analytic_sigma)
    assert stats.extras["key_guess_hits"] >= 0


def test_local_tamper_attack_matches_analytics():
    stats = run_attack("local-tamper", SMALL, trials=400, seed=105)
    assert within_sigma(stats.empirical_rate, stats.analytic_rate, stats.analytic_sigma)
    assert stats.extras["amount_units"] == 42


def test_strategy_list_is_exhaustive():
    for strategy in STRATEGIES:
        params = FORGE if strategy == "forge-key-guess" else SMALL
        stats = run_attack(strategy, params, trials=3, seed=1)
        assert stats.trials == 3
        assert 0 <= stats.successes <= 3


def test_runs_are_deterministic():
    a = run_attack("tamper-amount", SMALL, trials=30, seed=200)
    b = run_attack("tamper-amount", SMALL, trials=30, seed=200)
    assert a.to_json() == b.to_json()
    c = run_attack("tamper-amount", SMALL, trials=30, seed=201)
    assert c.to_json() != a.to_json()


@pytest.mark.parametrize("strategy", sorted(PINNED_DIGESTS))
def test_fixed_seed_stats_are_pinned(strategy):
    if strategy == "honest":
        stats = run_honest(SMALL, trials=15, seed=7)
    else:
        params = FORGE if strategy == "forge-key-guess" else SMALL
        stats = run_attack(strategy, params, trials=15, seed=7)
    doc = json.dumps(stats.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_DIGESTS[strategy]


@pytest.mark.parametrize("seed, deposit", sorted(PINNED_CLONE_WORLDS))
def test_clone_world_after_a_deposit_is_pinned(seed, deposit):
    world, bank, record, cheque = _fresh_session([seed, 0], SMALL)
    if deposit == "trial":
        _trial_clone_double_spend(world, bank, record, cheque)
    else:
        forged = replace(
            cheque,
            signature=bytes(len(cheque.signature)),
            amount_qubits=tuple(clone_qubit(world, q).copy for q in cheque.amount_qubits),
            auth_qubits=tuple(clone_qubit(world, q).copy for q in cheque.auth_qubits),
        )
        assert bank.verify_cheque(world, forged).reason is RejectReason.BAD_SIGNATURE
    doc = json.dumps(world.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_CLONE_WORLDS[seed, deposit]
