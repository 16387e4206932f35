import numpy as np
import pytest
from helpers import haar_random_unitary, state_of

from qcheque.sim import (
    BellOutcome,
    HadamardOutcome,
    Owner,
    World,
    haar_random_qubit,
)
from qcheque.stats import binomial_sigma, within_sigma
from qcheque.teleport import (
    ENCODE_CORRECTIONS,
    GHZ_AMPLITUDES,
    encode_qubit,
    prepare_ghz,
    recover_qubit,
)

ALPHA, BETA = 0.6, 0.8

# joint (cheque, bank) state after encoding a|0> + b|1>, by outcome family
PSI_FORM = np.array([ALPHA, 0.0, 0.0, BETA], dtype=complex)
PHI_FORM = np.array([0.0, ALPHA, BETA, 0.0], dtype=complex)


def overlap_mod(a, b) -> float:
    return abs(np.vdot(np.asarray(a).reshape(-1), np.asarray(b).reshape(-1)))


def encode_fixed_payload(seed: int):
    """One encode of the fixed (0.6, 0.8) payload; returns the pieces."""
    world = World(seed=seed)
    triple = prepare_ghz(world, 1)
    payload = world.allocate(Owner.ALICE, (ALPHA, BETA))
    outcome = encode_qubit(world, payload, triple)
    return world, triple, outcome


def collect_by_outcome(want_outcomes, seed0=0):
    """Rejection-sample encodes until every wanted outcome is seen once."""
    found = {}
    seed = seed0
    while len(found) < len(want_outcomes):
        world, triple, outcome = encode_fixed_payload(seed)
        if outcome in want_outcomes and outcome not in found:
            found[outcome] = (world, triple)
        seed += 1
        assert seed - seed0 < 500, "outcome sampling should not take this long"
    return found


def test_ghz_amplitudes_and_custody():
    world = World(seed=1)
    triple = prepare_ghz(world, 3)
    got = state_of(world, [triple.issuer_qubit, triple.cheque_qubit, triple.bank_qubit])
    assert overlap_mod(got, GHZ_AMPLITUDES) == pytest.approx(1.0, abs=1e-12)
    assert triple.issuer_qubit.owner is Owner.ALICE
    assert triple.cheque_qubit.owner is Owner.ALICE
    assert triple.bank_qubit.owner is Owner.BANK
    assert triple.index == 3 and triple.issuer_qubit in world


def test_encode_consumes_payload_and_issuer_qubit():
    world, triple, outcome = encode_fixed_payload(2)
    assert triple.issuer_qubit not in world
    assert triple.cheque_qubit in world and triple.bank_qubit in world
    assert isinstance(outcome, BellOutcome)


def test_triple_cannot_encode_twice():
    world, triple, _ = encode_fixed_payload(3)
    extra = world.allocate(Owner.ALICE, (ALPHA, BETA))
    with pytest.raises(ValueError):
        encode_qubit(world, extra, triple)


def test_bell_outcomes_uniform_over_encodes():
    counts = {o: 0 for o in BellOutcome}
    trials = 4_000
    world = World(seed=4)
    for i in range(trials):
        triple = prepare_ghz(world, i)
        payload = world.allocate(Owner.ALICE, haar_random_qubit(world.rng))
        counts[encode_qubit(world, payload, triple)] += 1
        world.discard(triple.cheque_qubit)
        world.discard(triple.bank_qubit)
    sigma = binomial_sigma(0.25, trials)
    for outcome, n in counts.items():
        assert within_sigma(n / trials, 0.25, sigma), (outcome, n)


def test_joint_state_by_outcome_family():
    """After correction the pair holds a|00>+b|11> for PSI outcomes and
    a|01>+b|10> for PHI outcomes, up to global phase."""
    found = collect_by_outcome(set(BellOutcome))
    for outcome, (world, triple) in found.items():
        got = state_of(world, [triple.cheque_qubit, triple.bank_qubit])
        family = PSI_FORM if outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS) else PHI_FORM
        assert overlap_mod(got, family) == pytest.approx(1.0, abs=1e-9), outcome


def test_bank_marginal_by_outcome_family():
    """The vault qubit's density matrix is diag(|a|^2, |b|^2) after PSI
    outcomes and diag(|b|^2, |a|^2) after PHI outcomes, never anything
    else; the issuer's minus signs are invisible to the bank."""
    found = collect_by_outcome(set(BellOutcome))
    psi_marginal = np.diag([ALPHA**2, BETA**2])
    phi_marginal = np.diag([BETA**2, ALPHA**2])
    for outcome, (world, triple) in found.items():
        rho = world.reduced_density([triple.bank_qubit])
        want = psi_marginal if outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS) else phi_marginal
        assert np.max(np.abs(rho - want)) < 1e-9, outcome


def test_recovery_restores_payload_for_all_eight_combinations():
    seen = set()
    seed = 100
    while len(seen) < 8 and seed < 600:
        world, triple, encoded = encode_fixed_payload(seed)
        recovered = recover_qubit(world, triple.bank_qubit, triple.cheque_qubit)
        seen.add((encoded, recovered))
        fidelity = overlap_mod(state_of(world, [triple.cheque_qubit]), [ALPHA, BETA])
        assert fidelity == pytest.approx(1.0, abs=1e-10), (encoded, recovered)
        seed += 1
    assert len(seen) == 8, f"only saw {sorted((a.value, b.value) for a, b in seen)}"


def test_recovery_fidelity_for_haar_payloads():
    world = World(seed=7)
    for i in range(100):
        amps = haar_random_qubit(world.rng)
        triple = prepare_ghz(world, i)
        payload = world.allocate(Owner.ALICE, amps)
        encode_qubit(world, payload, triple)
        recover_qubit(world, triple.bank_qubit, triple.cheque_qubit)
        assert overlap_mod(state_of(world, [triple.cheque_qubit]), amps) >= 1.0 - 1e-10
        world.discard(triple.cheque_qubit)
        world.discard(triple.bank_qubit)


def test_recovery_leaves_bank_qubit_factored_out():
    world, triple, _ = encode_fixed_payload(8)
    outcome = recover_qubit(world, triple.bank_qubit, triple.cheque_qubit)
    assert world.group_of(triple.bank_qubit).n_qubits == 1
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    want = plus if outcome is HadamardOutcome.PLUS else minus
    assert overlap_mod(state_of(world, [triple.bank_qubit]), want) == pytest.approx(1.0)


def test_correction_table_structure():
    assert ENCODE_CORRECTIONS[BellOutcome.PSI_PLUS][0] == "I"
    assert ENCODE_CORRECTIONS[BellOutcome.PSI_MINUS][0] == "Z"
    assert ENCODE_CORRECTIONS[BellOutcome.PHI_PLUS][0] == "X"
    assert ENCODE_CORRECTIONS[BellOutcome.PHI_MINUS][0] == "Y"


def test_cheque_side_unitaries_cannot_signal_the_bank():
    """Whatever the holder does to the travelling qubit, the vault
    qubit's reduced density matrix stays put."""
    rng = np.random.default_rng(55)
    for seed in range(10):
        world, triple, _ = encode_fixed_payload(900 + seed)
        before = world.reduced_density([triple.bank_qubit])
        world.apply_gate(haar_random_unitary(rng), [triple.cheque_qubit])
        after = world.reduced_density([triple.bank_qubit])
        assert np.max(np.abs(after - before)) < 1e-9
