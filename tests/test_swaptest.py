import numpy as np
import pytest

from qcheque.sim import Owner, World, haar_random_qubit
from qcheque.stats import binomial_sigma, within_sigma
from qcheque.swaptest import swap_test


def test_identical_pure_states_always_pass():
    world = World(seed=1)
    for _ in range(200):
        amps = haar_random_qubit(world.rng)
        a = world.allocate(Owner.ALICE, amps)
        b = world.allocate(Owner.BANK, amps)
        assert swap_test(world, [a], [b]).passed
        world.discard(a)
        world.discard(b)


def test_orthogonal_states_pass_half_the_time():
    world = World(seed=2)
    trials = 10_000
    passes = 0
    for _ in range(trials):
        a = world.allocate(Owner.ALICE, (1.0, 0.0))
        b = world.allocate(Owner.ALICE, (0.0, 1.0))
        passes += swap_test(world, [a], [b]).passed
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
        passes += swap_test(world, [a], [b]).passed
        world.discard(a)
        world.discard(b)
    assert within_sigma(passes / trials, 0.68, binomial_sigma(0.68, trials))


def test_multi_qubit_registers_compare_joint_overlap():
    """Product registers with per-qubit overlaps d1, d2 pass with
    (1 + (d1*d2)^2) / 2; one shared ancilla drives both Fredkins."""
    world = World(seed=4)
    trials = 8_000
    passes = 0
    d = 0.6 * 0.96  # <(1,0)|(.6,.8)> = 0.6 and <(.6,.8)|(.8,.6)> = 0.96
    for _ in range(trials):
        a = world.allocate_register(Owner.ALICE, [(1.0, 0.0), (0.6, 0.8)])
        b = world.allocate_register(Owner.BANK, [(0.6, 0.8), (0.8, 0.6)])
        passes += swap_test(world, a, b).passed
        for q in a + b:
            world.discard(q)
    want = 0.5 * (1 + d * d)
    assert within_sigma(passes / trials, want, binomial_sigma(want, trials))


def test_passing_identical_inputs_leaves_them_usable():
    world = World(seed=5)
    amps = haar_random_qubit(world.rng)
    a = world.allocate(Owner.ALICE, amps)
    b = world.allocate(Owner.BANK, amps)
    outcome = swap_test(world, [a], [b])
    assert outcome.passed and outcome.ancilla_bit == 0
    assert a in world and b in world
    world.check_partition()
    # a second test on the same pair still passes
    assert swap_test(world, [a], [b]).passed


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
        passes += swap_test(world, [a], [b]).passed
        for q in (a, partner, b):
            world.discard(q)
    assert within_sigma(passes / trials, 0.75, binomial_sigma(0.75, trials))
