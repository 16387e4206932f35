import numpy as np
import pytest
from helpers import SWAP_LAYOUTS, swap_layout

from qcheque.sim import HADAMARD, Owner, World, haar_random_qubit
from qcheque.stats import binomial_sigma, within_sigma
from qcheque.swaptest import swap_test


def test_identical_pure_states_always_pass():
    world = World(seed=1)
    for _ in range(200):
        amps = haar_random_qubit(world.rng)
        a = world.allocate(Owner.ALICE, amps)
        b = world.allocate(Owner.BANK, amps)
        assert swap_test(world, [a], [b])
        world.discard(a)
        world.discard(b)


def test_orthogonal_states_pass_half_the_time():
    world = World(seed=2)
    trials = 10_000
    passes = 0
    for _ in range(trials):
        a = world.allocate(Owner.ALICE, (1.0, 0.0))
        b = world.allocate(Owner.ALICE, (0.0, 1.0))
        passes += swap_test(world, [a], [b])
        world.discard(a)
        world.discard(b)
    assert within_sigma(passes / trials, 0.5, binomial_sigma(0.5, trials))


def test_pass_rate_tracks_overlap():
    # overlap 0.6 between (1,0) and (0.6, 0.8): expect (1 + 0.36) / 2
    world = World(seed=3)
    trials = 8_000
    passes = 0
    for _ in range(trials):
        a = world.allocate(Owner.ALICE, (1.0, 0.0))
        b = world.allocate(Owner.ALICE, (0.6, 0.8))
        passes += swap_test(world, [a], [b])
        world.discard(a)
        world.discard(b)
    assert within_sigma(passes / trials, 0.68, binomial_sigma(0.68, trials))


def test_multi_qubit_registers_compare_joint_overlap():
    """Product registers with per-qubit overlaps d1, d2 pass with
    (1 + (d1*d2)^2) / 2: one test compares the joint states."""
    world = World(seed=4)
    trials = 8_000
    passes = 0
    d = 0.6 * 0.96  # <(1,0)|(.6,.8)> = 0.6 and <(.6,.8)|(.8,.6)> = 0.96
    for _ in range(trials):
        a = world.allocate_register(Owner.ALICE, [(1.0, 0.0), (0.6, 0.8)])
        b = world.allocate_register(Owner.BANK, [(0.6, 0.8), (0.8, 0.6)])
        passes += swap_test(world, a, b)
        for q in a + b:
            world.discard(q)
    want = 0.5 * (1 + d * d)
    assert within_sigma(passes / trials, want, binomial_sigma(want, trials))


def test_passing_identical_inputs_leaves_them_usable():
    world = World(seed=5)
    amps = haar_random_qubit(world.rng)
    a = world.allocate(Owner.ALICE, amps)
    b = world.allocate(Owner.BANK, amps)
    assert swap_test(world, [a], [b]) is True
    assert a in world and b in world
    world.check_partition()
    # a second test on the same pair still passes
    assert swap_test(world, [a], [b])


def test_register_validation():
    world = World(seed=6)
    a = world.allocate(Owner.ALICE)
    b = world.allocate(Owner.ALICE)
    with pytest.raises(ValueError):
        swap_test(world, [a], [a, b])
    with pytest.raises(ValueError):
        swap_test(world, [], [])
    with pytest.raises(ValueError):
        swap_test(world, [a], [a])
    world.discard(b)
    with pytest.raises(ValueError):
        swap_test(world, [a], [b])


def test_mixed_state_pass_rate_uses_density_overlap():
    """Against a maximally mixed partner the rate drops to
    (1 + Tr(rho sigma)) / 2 = (1 + 1/2) / 2 for any pure sigma."""
    world = World(seed=10)
    trials = 8_000
    passes = 0
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    half = 1 / np.sqrt(2)
    for _ in range(trials):
        # half of a Bell pair is the maximally mixed single-qubit state
        a, partner = world.allocate_group([Owner.ALICE] * 2, [half, 0, 0, half])
        b = world.allocate(Owner.BANK, (0.6, 0.8))
        passes += swap_test(world, [a], [b])
        for q in (a, partner, b):
            world.discard(q)
    assert within_sigma(passes / trials, 0.75, binomial_sigma(0.75, trials))


def _spread_registers(seed, width):
    """Two width-qubit registers spread over random entangled groups of one
    to three qubits that also hold three spectators, plus a twin made by
    snapshot."""
    rng = np.random.default_rng(seed)
    world = World(seed=seed)
    qubits = []
    left = 2 * width + 3
    while left:
        k = int(rng.integers(1, min(3, left) + 1))
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        qubits += world.allocate_group([Owner.ALICE] * k, amps / np.linalg.norm(amps))
        left -= k
    qubits = [qubits[i] for i in rng.permutation(len(qubits))]
    return world, World.from_json(world.to_json()), qubits[:width], qubits[width:2 * width]


def _fredkin_swap_test(world, register_a, register_b):
    """The ancilla circuit that `World.measure_swap` replaces."""
    ancilla = world.allocate(Owner.BANK, np.array([1.0, 1.0]) / np.sqrt(2.0))
    for qa, qb in zip(register_a, register_b):
        world.apply_cswap(ancilla, qa, qb)
    world.apply_gate(HADAMARD, [ancilla])
    bit = world.measure_computational(ancilla)
    world.discard(ancilla)
    return bit == 0


def _groups_by_qids(world):
    """Every group's amplitude tensor, axes in ascending qubit id, keyed
    by the group's qubit ids."""
    groups = {}
    for g in world.to_json()["groups"]:
        qids = [qid for qid, _ in g["qubits"]]
        amps = np.array([complex(re, im) for re, im in g["amplitudes"]])
        groups[frozenset(qids)] = amps.reshape((2,) * len(qids)).transpose(np.argsort(qids))
    return groups


def _matches_fredkin_circuit(world, twin, a, b) -> bool:
    """Run the swap test on `world` and the circuit on its twin; assert
    that the verdicts, the PRNG streams and the states agree, taking the
    world's snapshot while its projection is still pending.  Returns the
    verdict."""
    passed = swap_test(world, a, b)
    assert passed == _fredkin_swap_test(twin, a, b)
    assert world.rng.bit_generator.state == twin.rng.bit_generator.state
    assert world._index[a[0]].projection is not None  # settled by the snapshot below
    mine, theirs = _groups_by_qids(world), _groups_by_qids(twin)
    assert mine.keys() == theirs.keys()
    for qids, amps in mine.items():
        assert np.max(np.abs(amps - theirs[qids])) < 1e-12
    world.check_partition()
    return passed


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_projective_swap_test_matches_fredkin_circuit(width):
    verdicts = set()
    for seed in range(20):
        world, twin, a, b = _spread_registers(seed, width)
        verdicts.add(_matches_fredkin_circuit(world, twin, a, b))
    assert verdicts == {True, False}


@pytest.mark.parametrize("layout", list(SWAP_LAYOUTS))
def test_swap_test_matches_fredkin_circuit_by_layout(layout):
    verdicts = set()
    for seed in range(20):
        world = World(seed=seed)
        a, b = swap_layout(world, np.random.default_rng(seed), layout)
        twin = World.from_json(world.to_json())
        verdicts.add(_matches_fredkin_circuit(world, twin, a, b))
    assert verdicts == {True, False}
