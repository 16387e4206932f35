import functools
import itertools
import json
import statistics
import threading
import time

import numpy as np
import pytest
from helpers import (
    SWAP_LAYOUTS,
    collapse_widths,
    handles,
    haar_random_unitary,
    product_widths,
    state_of,
    swap_layout,
)

from qcheque import sim
from qcheque.sim import (
    _BELL_BASIS,
    _X_BASIS,
    _Z_BASIS,
    BELL_STATES,
    FREDKIN,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    BellOutcome,
    HadamardOutcome,
    Owner,
    QubitHandle,
    World,
    _check_state_vector,
    _check_unitary,
    _validated_gate,
    haar_random_qubit,
)
from qcheque.stats import binomial_sigma, within_sigma

SQRT2 = np.sqrt(2.0)


def overlap_mod(a, b) -> float:
    return abs(np.vdot(np.asarray(a).reshape(-1), np.asarray(b).reshape(-1)))


# ----------------------------------------------------------------------
# allocation and the group partition
# ----------------------------------------------------------------------


def test_allocate_defaults_to_zero_state():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    assert world.measure_computational(q) == 0


def test_allocate_rejects_badly_normalized_amplitudes():
    world = World(seed=0)
    with pytest.raises(ValueError):
        world.allocate(Owner.ALICE, (0.5, 0.5))


def test_allocate_accepts_and_cleans_tiny_norm_error():
    world = World(seed=0)
    eps = 1e-12
    q = world.allocate(Owner.ALICE, (1.0 + eps, 0.0))
    assert world.group_of(q).norm() == pytest.approx(1.0, abs=1e-15)


def test_handles_are_unique_and_owned():
    world = World(seed=0)
    a = world.allocate(Owner.ALICE)
    b = world.allocate(Owner.BANK)
    assert a != b
    assert a.owner is Owner.ALICE and b.owner is Owner.BANK


def test_allocate_group_big_endian_order():
    # first listed qubit is the most significant bit: amps[1] is |0 1>
    world = World(seed=0)
    a, b = world.allocate_group([Owner.ALICE, Owner.ALICE], [0, 1, 0, 0])
    assert world.measure_computational(a) == 0
    assert world.measure_computational(b) == 1


def test_allocate_group_rejects_wrong_length():
    world = World(seed=0)
    with pytest.raises(ValueError):
        world.allocate_group([Owner.ALICE, Owner.ALICE], [1, 0, 0])


def test_partition_invariant_after_mixed_workload():
    world = World(seed=3)
    qs = [world.allocate(Owner.ALICE) for _ in range(4)]
    world.apply_gate(HADAMARD, [qs[0]])
    world.apply_gate(_cnot(), [qs[0], qs[1]])
    world.apply_cswap(qs[2], qs[0], qs[3])
    world.measure_computational(qs[2])
    world.discard(qs[3])
    world.check_partition()


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------


def _cnot():
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def test_pauli_x_flips():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    world.apply_gate(PAULI_X, [q])
    assert world.measure_computational(q) == 1


def test_hadamard_makes_equal_superposition():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    world.apply_gate(HADAMARD, [q])
    assert overlap_mod(state_of(world, [q]), [1 / SQRT2, 1 / SQRT2]) == pytest.approx(1.0)


def test_double_z_is_identity():
    world = World(seed=5)
    amps = haar_random_qubit(world.rng)
    q = world.allocate(Owner.ALICE, amps)
    world.apply_gate(PAULI_Z, [q])
    world.apply_gate(PAULI_Z, [q])
    assert overlap_mod(state_of(world, [q]), amps) == pytest.approx(1.0, abs=1e-12)


def test_non_unitary_matrix_rejected():
    # on every call: a refusal is never memoised
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    _validated_gate.cache_clear()
    for bad in (np.array([[1, 0], [0, 2]], dtype=complex), np.full((2, 2), np.nan)):
        for _ in range(2):
            with pytest.raises(ValueError, match="not unitary"):
                world.apply_gate(bad, [q])
    assert _validated_gate.cache_info().currsize == 0


def test_gate_mutated_after_use_is_checked_again():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    gate = PAULI_X.copy()
    world.apply_gate(gate, [q])
    gate[1, 1] = 2.0  # the caller's array, changed in place
    with pytest.raises(ValueError, match="not unitary"):
        world.apply_gate(gate, [q])
    assert world.measure_computational(q) == 1


def test_checked_gate_is_a_read_only_private_copy():
    gate = HADAMARD.copy()
    checked = _check_unitary(gate)
    assert not np.shares_memory(checked, gate)
    with pytest.raises(ValueError):
        checked[0, 0] = 0.0
    with pytest.raises(ValueError):
        checked.flags.writeable = True
    assert _check_unitary(gate) is checked
    assert np.array_equal(checked, HADAMARD)


def test_unitarity_memo_is_bounded():
    rng = np.random.default_rng(5)
    limit = _validated_gate.cache_info().maxsize
    for _ in range(limit + 10):
        _check_unitary(haar_random_unitary(rng, 2))
    assert _validated_gate.cache_info().currsize == limit


def test_gate_on_retired_handle_rejected():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    world.discard(q)
    with pytest.raises(ValueError):
        world.apply_gate(PAULI_X, [q])


def test_two_qubit_gate_merges_groups_and_entangles():
    world = World(seed=1)
    a = world.allocate(Owner.ALICE)
    b = world.allocate(Owner.ALICE)
    assert world.group_of(a) is not world.group_of(b)
    world.apply_gate(HADAMARD, [a])
    world.apply_gate(_cnot(), [a, b])
    assert world.group_of(a) is world.group_of(b)
    rho = world.reduced_density([a])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_gate_against_dense_contraction_oracle():
    """A 2-qubit unitary applied at scrambled positions must agree with
    an explicitly built 8x8 operator acting on the full vector."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        gate = haar_random_unitary(rng, 4)

        world = World(seed=2)
        qs = world.allocate_group([Owner.ALICE] * 3, amps)
        world.apply_gate(gate, [qs[2], qs[0]])  # targets deliberately out of order

        # dense oracle: permute axes (2,0) to the front, apply, permute back
        t = amps.reshape(2, 2, 2).transpose(2, 0, 1).reshape(4, 2)
        t = (gate @ t).reshape(2, 2, 2).transpose(1, 2, 0)
        assert overlap_mod(state_of(world, qs), t) == pytest.approx(1.0, abs=1e-12)


def test_group_ceiling_enforced_on_merge():
    world = World(seed=0, max_group_qubits=3)
    qs = [world.allocate(Owner.ALICE) for _ in range(4)]
    world.apply_gate(_cnot(), [qs[0], qs[1]])
    world.apply_gate(_cnot(), [qs[2], qs[3]])
    with pytest.raises(ValueError):
        world.apply_gate(_cnot(), [qs[1], qs[2]])


def test_refused_swap_test_leaves_world_unchanged():
    rng = np.random.default_rng(5)
    world = World(seed=5, max_group_qubits=4)
    qs = [world.allocate(Owner.ALICE, haar_random_qubit(rng)) for _ in range(6)]
    before = world.to_json()
    with pytest.raises(ValueError, match="6-qubit group"):
        world.measure_swap(qs[:3], qs[3:])
    assert world.to_json() == before


def test_refused_cswap_leaves_world_unchanged():
    rng = np.random.default_rng(6)
    world = World(seed=6, max_group_qubits=2)
    qs = [world.allocate(Owner.ALICE, haar_random_qubit(rng)) for _ in range(3)]
    before = world.to_json()
    with pytest.raises(ValueError, match="3-qubit group"):
        world.apply_cswap(*qs)
    assert world.to_json() == before


def test_refused_reduced_density_leaves_world_unchanged():
    rng = np.random.default_rng(8)
    world = World(seed=8, max_group_qubits=4)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    a = world.allocate_group([Owner.ALICE] * 3, amps / np.linalg.norm(amps))
    b = world.allocate_group([Owner.PAYEE] * 2, [0.5, 0.5, 0.5, -0.5])
    before = world.to_json()
    with pytest.raises(ValueError, match="5-qubit group"):
        world.reduced_density([a[0], b[0]])
    assert world.to_json() == before


def test_cswap_control_off_and_on():
    world = World(seed=0)
    c = world.allocate(Owner.BANK)
    a = world.allocate(Owner.ALICE)
    b = world.allocate(Owner.ALICE, (0.0, 1.0))
    world.apply_cswap(c, a, b)  # control |0>: nothing moves
    assert world.measure_computational(a) == 0
    assert world.measure_computational(b) == 1

    world.apply_gate(PAULI_X, [c])
    world.apply_cswap(c, a, b)  # control |1>: swap
    assert world.measure_computational(a) == 1
    assert world.measure_computational(b) == 0


def test_cswap_rejects_duplicate_handles():
    world = World(seed=0)
    c = world.allocate(Owner.BANK)
    a = world.allocate(Owner.ALICE)
    with pytest.raises(ValueError):
        world.apply_cswap(c, a, a)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def test_measurement_statistics_match_born_rule():
    world = World(seed=42)
    ones = 0
    trials = 10_000
    for _ in range(trials):
        q = world.allocate(Owner.ALICE, (0.6, 0.8))
        ones += world.measure_computational(q)
        world.discard(q)
    assert within_sigma(ones / trials, 0.64, binomial_sigma(0.64, trials))


def test_measurement_collapses_partner():
    world = World(seed=9)
    for _ in range(20):
        a, b = world.allocate_group([Owner.ALICE] * 2, [1 / SQRT2, 0, 0, 1 / SQRT2])
        assert world.measure_computational(a) == world.measure_computational(b)


def test_measured_qubit_splits_into_singleton():
    world = World(seed=9)
    a, b = world.allocate_group([Owner.ALICE] * 2, [1 / SQRT2, 0, 0, 1 / SQRT2])
    world.measure_computational(a)
    assert world.group_of(a).n_qubits == 1
    assert world.group_of(b).n_qubits == 1
    world.check_partition()


def test_measurement_is_repeatable():
    world = World(seed=10)
    q = world.allocate(Owner.ALICE, (1 / SQRT2, 1 / SQRT2))
    first = world.measure_computational(q)
    for _ in range(5):
        assert world.measure_computational(q) == first


def test_hadamard_basis_measurement():
    world = World(seed=12)
    q = world.allocate(Owner.ALICE, (1 / SQRT2, 1 / SQRT2))
    assert world.measure_hadamard(q) is HadamardOutcome.PLUS
    # and the post-state is still |+>
    assert overlap_mod(state_of(world, [q]), [1 / SQRT2, 1 / SQRT2]) == pytest.approx(1.0)

    plusses = 0
    trials = 10_000
    for _ in range(trials):
        p = world.allocate(Owner.ALICE)
        plusses += world.measure_hadamard(p) is HadamardOutcome.PLUS
        world.discard(p)
    assert within_sigma(plusses / trials, 0.5, binomial_sigma(0.5, trials))


def _twin_worlds(seed):
    """A world holding one random 3-qubit group, and a copy made by snapshot."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    world = World(seed=seed)
    qs = world.allocate_group([Owner.ALICE] * 3, amps / np.linalg.norm(amps))
    return world, World.from_json(world.to_json()), qs


def assert_same_world(world, twin):
    """The twin's live qubits, grouped and ordered alike, with amplitudes
    within 1e-12, and both PRNGs at the same position."""
    assert handles(world) == [q for q in handles(twin) if q in world]
    for q in handles(world):
        mine, theirs = world.group_of(q), twin.group_of(q)
        assert mine.qubits == theirs.qubits
        assert np.max(np.abs(mine.amps - theirs.amps)) < 1e-12
    assert world.rng.bit_generator.state == twin.rng.bit_generator.state


def assert_one_draw(world, seed):
    """A measurement consumes exactly one uniform from the world's PRNG."""
    reference = np.random.default_rng(seed)
    reference.random()
    assert world.rng.bit_generator.state == reference.bit_generator.state


def test_hadamard_measurement_matches_gate_sandwich():
    # the X-basis kernel against the H, Z-measure, H circuit as the oracle
    for seed in range(20):
        for pos in range(3):
            world, twin, qs = _twin_worlds(seed)
            got = world.measure_hadamard(qs[pos])
            twin.apply_gate(HADAMARD, [qs[pos]])
            bit = twin.measure_computational(qs[pos])
            twin.apply_gate(HADAMARD, [qs[pos]])
            assert got is (HadamardOutcome.PLUS if bit == 0 else HadamardOutcome.MINUS)
            assert_same_world(world, twin)
            assert_one_draw(world, seed)


def test_discard_matches_measure_then_drop():
    for seed in range(20):
        for pos in range(3):
            world, twin, qs = _twin_worlds(seed)
            world.discard(qs[pos])
            twin.measure_computational(qs[pos])
            assert qs[pos] not in world
            assert_same_world(world, twin)
            assert_one_draw(world, seed)
            world.check_partition()


@pytest.mark.parametrize("measure", ["measure_computational", "measure_hadamard", "measure_bell",
                                     "discard", "measure_swap"])
def test_zero_branch_is_refused(measure):
    world = World(seed=0)
    a, b, c = world.allocate_group([Owner.ALICE] * 3, [1, 0, 0, 0, 0, 0, 0, 0])
    group = world.group_of(a)
    group.amps = np.zeros(8, dtype=complex)  # a corrupt state
    targets = {"measure_bell": [a, b], "measure_swap": [[a], [b]]}.get(measure, [a])
    if measure == "discard":
        # the collapse is deferred, so the refusal comes when the group
        # is next used, and the discard stays queued
        world.discard(a)
        with pytest.raises(RuntimeError, match="zero branch"):
            world.group_of(c)
        assert [q for q, _ in group.pending] == [a]
    else:
        with pytest.raises(RuntimeError, match="zero branch"):
            getattr(world, measure)(*targets)
        assert world.group_of(c) is group
    # refused before anything is written: a scale by 1/0 would leave NaNs
    assert group.qubits == [a, b, c]
    assert np.array_equal(group.amps, np.zeros(8))


def test_bell_measurement_needs_distinct_qubits():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    with pytest.raises(ValueError, match="distinct"):
        world.measure_bell(q, q)


def test_bell_state_table_algebra():
    """Pin the labelling: PSI states live on |00>, |11>; PHI on |01>, |10>."""
    assert np.allclose(BELL_STATES[BellOutcome.PSI_PLUS].reshape(-1), [1, 0, 0, 1] / SQRT2)
    assert np.allclose(BELL_STATES[BellOutcome.PSI_MINUS].reshape(-1), [1, 0, 0, -1] / SQRT2)
    assert np.allclose(BELL_STATES[BellOutcome.PHI_PLUS].reshape(-1), [0, 1, 1, 0] / SQRT2)
    assert np.allclose(BELL_STATES[BellOutcome.PHI_MINUS].reshape(-1), [0, 1, -1, 0] / SQRT2)


def test_bell_measurement_on_basis_states_picks_matching_family():
    world = World(seed=21)
    for _ in range(25):
        a = world.allocate(Owner.ALICE)
        b = world.allocate(Owner.ALICE)
        outcome = world.measure_bell(a, b)  # |00> overlaps only the PSI pair
        assert outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)
    for _ in range(25):
        a = world.allocate(Owner.ALICE)
        b = world.allocate(Owner.ALICE, (0.0, 1.0))
        outcome = world.measure_bell(a, b)  # |01> overlaps only the PHI pair
        assert outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)


def test_bell_measurement_retires_both_handles():
    world = World(seed=22)
    a = world.allocate(Owner.ALICE)
    b = world.allocate(Owner.ALICE)
    world.measure_bell(a, b)
    assert a not in world and b not in world
    world.check_partition()


def test_bell_measurement_collapses_spectator():
    # measuring two legs of a GHZ triple leaves the third in a pure state
    world = World(seed=23)
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / SQRT2
    a, b, c = world.allocate_group([Owner.ALICE] * 3, amps)
    world.measure_bell(a, b)
    assert world.group_of(c).n_qubits == 1
    world.check_partition()


def test_discard_retires_handle():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE)
    world.discard(q)
    assert q not in world
    with pytest.raises(ValueError):
        world.measure_computational(q)


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------


def test_reduced_density_of_pure_qubit():
    world = World(seed=30)
    amps = haar_random_qubit(world.rng)
    q = world.allocate(Owner.ALICE, amps)
    assert np.allclose(world.reduced_density([q]), np.outer(amps, amps.conj()), atol=1e-12)


def test_reduced_density_axis_order():
    world = World(seed=31)
    a, b = world.allocate_group([Owner.ALICE] * 2, [0, 1, 0, 0])  # |01>
    rho_ab = world.reduced_density([a, b])
    rho_ba = world.reduced_density([b, a])
    assert rho_ab[1, 1] == pytest.approx(1.0)  # |01><01| in (a, b) order
    assert rho_ba[2, 2] == pytest.approx(1.0)  # |10><10| in (b, a) order


def test_reduced_density_against_einsum_oracle():
    rng = np.random.default_rng(33)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    world = World(seed=3)
    qs = world.allocate_group([Owner.ALICE] * 3, amps)
    got = world.reduced_density([qs[0], qs[2]])
    t = amps.reshape(2, 2, 2)
    want = np.einsum("abc,dbe->acde", t, t.conj()).reshape(4, 4)
    assert np.allclose(got, want, atol=1e-12)


def test_state_of_entangled_subset_rejected():
    world = World(seed=34)
    a, b = world.allocate_group([Owner.ALICE] * 2, [1 / SQRT2, 0, 0, 1 / SQRT2])
    with pytest.raises(ValueError):
        state_of(world, [a])


def test_state_of_spans_product_groups():
    world = World(seed=35)
    a = world.allocate(Owner.ALICE, (0.6, 0.8))
    b = world.allocate(Owner.ALICE, (0.0, 1.0))
    got = state_of(world, [a, b])
    want = np.kron([0.6, 0.8], [0.0, 1.0])
    assert overlap_mod(got, want) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# snapshots: copies, prng continuity, validation
# ----------------------------------------------------------------------


def test_copy_is_independent():
    world = World(seed=40)
    q = world.allocate(Owner.ALICE, (0.6, 0.8))
    twin = World.from_json(world.to_json())
    world.apply_gate(PAULI_X, [q])
    assert overlap_mod(state_of(twin, [q]), [0.6, 0.8]) == pytest.approx(1.0)
    assert overlap_mod(state_of(world, [q]), [0.8, 0.6]) == pytest.approx(1.0)


def test_copy_replays_identical_randomness():
    world = World(seed=41)
    qs = [world.allocate(Owner.ALICE, (1 / SQRT2, 1 / SQRT2)) for _ in range(12)]
    twin = World.from_json(world.to_json())
    assert [world.measure_computational(q) for q in qs] == [
        twin.measure_computational(q) for q in qs
    ]


def test_snapshot_round_trip_preserves_everything():
    world = World(seed=50)
    a = world.allocate(Owner.ALICE)
    b = world.allocate(Owner.BANK)
    world.apply_gate(HADAMARD, [a])
    world.apply_gate(_cnot(), [a, b])

    doc = world.to_json()
    text = json.dumps(doc, sort_keys=True)
    restored = World.from_json(json.loads(text))
    assert json.dumps(restored.to_json(), sort_keys=True) == text
    assert restored.group_of(a) is restored.group_of(b)


def test_snapshot_resumes_prng_stream():
    world = World(seed=51)
    q = world.allocate(Owner.ALICE)
    world.apply_gate(HADAMARD, [q])
    restored = World.from_json(world.to_json())
    expected = [world.measure_hadamard(q) for _ in range(1)]
    # same stream position: the restored world draws the same outcomes
    world2 = World(seed=51)
    q2 = world2.allocate(Owner.ALICE)
    world2.apply_gate(HADAMARD, [q2])
    assert restored.measure_hadamard(q) == world2.measure_hadamard(q2)


def test_snapshot_rejects_wrong_format_and_version():
    world = World(seed=0)
    doc = world.to_json()
    bad = dict(doc, format="something-else")
    with pytest.raises(ValueError):
        World.from_json(bad)
    bad = dict(doc, version=99)
    with pytest.raises(ValueError):
        World.from_json(bad)


def test_snapshot_rejects_duplicate_handles():
    world = World(seed=0)
    world.allocate(Owner.ALICE)
    doc = world.to_json()
    doc["groups"].append(json.loads(json.dumps(doc["groups"][0])))
    with pytest.raises(ValueError):
        World.from_json(doc)


def _break_norm(doc):
    doc["groups"][0]["amplitudes"] = [[1.2, 0.0], [1.6, 0.0]]


def _nan_amplitude(doc):
    doc["groups"][0]["amplitudes"][0] = [float("nan"), 0.0]


def _qid_at_next_qid(doc):
    doc["groups"][1]["qubits"][0][0] = doc["next_qid"]


def _shared_qid(doc):
    # same id, different owner: two distinct handles for one qubit
    doc["groups"][1]["qubits"][0][0] = doc["groups"][0]["qubits"][0][0]


def _empty_group(doc):
    doc["groups"].append({"qubits": [], "amplitudes": [[1.0, 0.0]]})


def _ceiling_below_group(doc):
    doc["max_group_qubits"] = max(len(g["qubits"]) for g in doc["groups"]) - 1


@pytest.mark.parametrize(
    "corrupt, message",
    [(_nan_amplitude, "finite"), (_break_norm, "norm"),
     (_qid_at_next_qid, "next_qid"), (_shared_qid, "twice"),
     (_empty_group, "0 qubits is outside"), (_ceiling_below_group, "2 qubits is outside")],
)
def test_snapshot_rejects_invalid_worlds(corrupt, message):
    world = World(seed=53)
    world.allocate(Owner.ALICE, (0.6, 0.8))
    world.allocate_group([Owner.BANK] * 2, [0, 1, 0, 0])
    doc = world.to_json()
    corrupt(doc)
    with pytest.raises(ValueError, match=message):
        World.from_json(doc)


@pytest.mark.parametrize("case", ["empty group", "group over ceiling"])
def test_partition_check_flags_group_size_outside_ceiling(case):
    world = World(seed=53)
    qs = world.allocate_group([Owner.ALICE] * 2, [1, 0, 0, 0])
    if case == "empty group":
        world.group_of(qs[0]).qubits.clear()
    else:
        world.max_group_qubits = 1
    with pytest.raises(AssertionError, match="qubits is outside"):
        world.check_partition()


def test_state_vector_norm_is_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(71)
    for n in range(1, 13):
        for _ in range(4):
            vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            vec /= np.linalg.norm(vec)
            norm = _check_state_vector(vec, 2**n)
            assert type(norm) is np.float64
            assert norm.tobytes() == np.linalg.norm(vec).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_state_vector_with_non_finite_amplitude_is_refused(bad, part):
    vec = np.array([0.6, 0.8j, 0, 0], dtype=complex)
    vec[2] = complex(bad, 0) if part == "real" else complex(0, bad)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        _check_state_vector(vec, 4)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        World(seed=0).allocate_group([Owner.ALICE] * 2, vec)


def test_unnormalised_state_vector_is_refused():
    for vec in ([1.2, 1.6], [0.0, 0.0]):
        with pytest.raises(ValueError, match="is not 1"):
            _check_state_vector(np.array(vec, dtype=complex), 2)
        with pytest.raises(ValueError, match="is not 1"):
            World(seed=0).allocate(Owner.ALICE, vec)


# ----------------------------------------------------------------------
# random state helpers
# ----------------------------------------------------------------------


def test_haar_qubit_normalized_and_seeded():
    a = haar_random_qubit(np.random.default_rng(60))
    b = haar_random_qubit(np.random.default_rng(60))
    assert np.allclose(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_haar_unitary_is_unitary():
    for dim in (2, 4):
        u = haar_random_unitary(np.random.default_rng(61), dim)
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_identity_gate_exists_and_does_nothing():
    world = World(seed=0)
    q = world.allocate(Owner.ALICE, (0.6, 0.8))
    world.apply_gate(ID2, [q])
    assert overlap_mod(state_of(world, [q]), [0.6, 0.8]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the kernels against the tensordot, kron and moveaxis code they replaced
# ----------------------------------------------------------------------


def _oracle_apply(amps, gate, positions):
    n = amps.size.bit_length() - 1
    k = len(positions)
    psi = np.tensordot(gate.reshape((2,) * (2 * k)), amps.reshape((2,) * n),
                       axes=(list(range(k, 2 * k)), positions))
    return np.ascontiguousarray(np.moveaxis(psi, list(range(k)), positions)).reshape(-1)


def _oracle_collapse(amps, positions, basis, u):
    n = amps.size.bit_length() - 1
    psi = np.moveaxis(amps.reshape((2,) * n), positions, range(len(positions)))
    acc = 0.0
    for label, _, terms in basis:
        kept = functools.reduce(np.add, [amp * psi[index] for index, amp in terms]).reshape(-1)
        p = float(np.vdot(kept, kept).real)
        acc += p
        if u < acc:
            break
    kept *= 1.0 / np.sqrt(p)
    return label, kept


def _random_group(world, rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    qs = world.allocate_group([Owner.ALICE] * n, amps / np.linalg.norm(amps))
    return qs, world.group_of(qs[0]).amps.copy()


def _target_lists(n):
    singles = [[i] for i in range(n)]
    pairs = [[i, j] for i in range(n) for j in range(n) if i != j]
    return singles, pairs


def test_gates_match_tensordot_oracle():
    # every target position and order, groups of 1-6 qubits; random 1- and
    # 2-qubit gates, and the Fredkin gate on three targets
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for n in range(1, 7):
            world = World(seed=seed)
            qs, expected = _random_group(world, rng, n)
            singles, pairs = _target_lists(n)
            triples = [list(t) for t in itertools.permutations(range(n), 3)]
            for positions in singles + pairs + triples:
                gate = FREDKIN if len(positions) == 3 else haar_random_unitary(rng, 2 ** len(positions))
                world.apply_gate(gate, [qs[i] for i in positions])
                expected = _oracle_apply(expected, gate, positions)
                got = world.group_of(qs[0]).amps
                assert world.group_of(qs[0]).qubits == qs
                assert np.max(np.abs(got - expected)) < 1e-12


def test_merges_match_kron_bit_for_bit():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for n in range(2, 7):
            for split in range(1, n):
                world = World(seed=seed)
                left, a = _random_group(world, rng, split)
                right, b = _random_group(world, rng, n - split)
                merged = world._merge(world.group_of(left[0]), world.group_of(right[0]))
                assert merged.qubits == left + right
                assert np.array_equal(merged.amps, np.kron(a, b))
                world.check_partition()


def test_k_way_merge_matches_kron_fold():
    # 3-6 groups of 1-4 qubits, beside a group left out of the merge, against the
    # pairwise left fold of np.kron that the balanced product replaced
    for seed in range(20):
        rng = np.random.default_rng(seed)
        world = World(seed=seed)
        bystander, _ = _random_group(world, rng, 2)
        parts = [_random_group(world, rng, int(rng.integers(1, 5)))
                 for _ in range(int(rng.integers(3, 7)))]
        groups = [world.group_of(qs[0]) for qs, _ in parts]
        merged = world._merge(*groups)
        assert merged.qubits == [q for qs, _ in parts for q in qs]
        assert np.max(np.abs(merged.amps - functools.reduce(np.kron, [a for _, a in parts]))) < 1e-12
        assert list(world._groups)[-1] is merged
        assert world.group_of(bystander[0]) in world._groups
        world.check_partition()


@pytest.mark.parametrize("kind", ["computational", "hadamard", "bell"])
def test_measurements_match_moveaxis_oracle(kind):
    basis = {"computational": _Z_BASIS, "hadamard": _X_BASIS, "bell": _BELL_BASIS}[kind]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for n in range(1, 7):
            singles, pairs = _target_lists(n)
            for positions in pairs if kind == "bell" else singles:
                world = World(seed=seed)
                qs, amps = _random_group(world, rng, n)
                targets = [qs[i] for i in positions]
                label = getattr(world, f"measure_{kind}")(*targets)
                expected, residual = _oracle_collapse(
                    amps, positions, basis, np.random.default_rng(seed).random())
                assert label == expected
                assert_one_draw(world, seed)
                rest = [q for q in qs if q not in targets]
                if rest:
                    assert world.group_of(rest[0]).qubits == rest
                    assert np.max(np.abs(world.group_of(rest[0]).amps - residual)) < 1e-12


# ----------------------------------------------------------------------
# collapse kernels: branches and residuals against the same arithmetic
# on fresh arrays
# ----------------------------------------------------------------------


def _fresh_swap(amps, pairs, u):
    """The swap test as fresh arrays, normalised by a real reciprocal."""
    n = amps.size.bit_length() - 1
    axes = list(range(n))
    for i, j in pairs:
        axes[i], axes[j] = j, i
    psi = amps.reshape((2,) * n)
    swapped = psi.transpose(axes)
    kept = psi + swapped
    p = float(np.vdot(kept, kept).real) / 4.0
    passed = u < p
    if not passed:
        kept = psi - swapped
        p = float(np.vdot(kept, kept).real) / 4.0
    kept *= 1.0 / (2.0 * np.sqrt(p))
    return passed, kept.reshape(-1)


_COLLAPSES = {"computational": (1, _Z_BASIS), "hadamard": (1, _X_BASIS), "bell": (2, _BELL_BASIS)}


def _collapse_both(world, reference, qs, expected, kind, positions):
    """Run one collapse on the world and as fresh arrays; return the
    live qubits left in the group and their expected amplitudes."""
    targets = [qs[i] for i in positions]
    rest = [q for q in qs if q not in targets]
    if kind == "swap":
        w = len(positions) // 2
        passed, expected = _fresh_swap(
            expected, list(zip(positions[:w], positions[w:])), reference.random())
        reference.random()
        assert world.measure_swap(targets[:w], targets[w:]) == passed
        return qs, expected
    label, residual = _oracle_collapse(expected, positions, _COLLAPSES[kind][1], reference.random())
    assert getattr(world, f"measure_{kind}")(*targets) == label
    return rest, residual


def test_collapses_match_fresh_arrays_bit_for_bit():
    # every kind of collapse on groups of 1-12 qubits, then a chain of
    # measurements and narrow swap tests on what is left, so each group
    # narrows step by step from a wide state
    kinds = [(kind, width) for kind, (width, _) in _COLLAPSES.items()]
    kinds += [("swap", 2 * w) for w in range(1, 7)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for kind, width in kinds:
            n = int(rng.integers(width, 13))
            world, reference = World(seed=seed), np.random.default_rng(seed)
            qs, expected = _random_group(world, rng, n)
            positions = [int(i) for i in rng.permutation(n)[:width]]
            qs, expected = _collapse_both(world, reference, qs, expected, kind, positions)
            while len(qs) > 1:
                qs, expected = _collapse_both(world, reference, qs, expected, "computational", [0])
                if len(qs) >= 3:
                    qs, expected = _collapse_both(world, reference, qs, expected, "swap", [1, 2])
                if qs:
                    assert world.group_of(qs[0]).qubits == qs
                    assert np.array_equal(world.group_of(qs[0]).amps, expected)
            assert world.rng.bit_generator.state == reference.bit_generator.state
            world.check_partition()


def _wide_program(seed):
    """A world and a list of steps: swap tests of widths 1-6 and
    collapses on a 12-qubit group, down to a few qubits."""
    rng = np.random.default_rng(seed)
    world = World(seed=seed)
    qs, _ = _random_group(world, rng, 12)
    steps = [lambda w=w: world.measure_swap(qs[:w], qs[w:2 * w]) for w in range(6, 0, -1)]
    steps += [lambda q=q: world.discard(q) for q in qs[:4]]
    steps += [lambda: world.measure_bell(qs[4], qs[5]), lambda: world.measure_hadamard(qs[6]),
              lambda: world.measure_computational(qs[7])]
    return world, steps


def test_interleaved_worlds_match_separate_runs():
    alone = []
    for seed in (3, 4):
        world, steps = _wide_program(seed)
        alone.append(([step() for step in steps], world.to_json()))
    (world_a, steps_a), (world_b, steps_b) = _wide_program(3), _wide_program(4)
    outcomes_a, outcomes_b = [], []
    for step_a, step_b in zip(steps_a, steps_b):
        outcomes_a.append(step_a())
        outcomes_b.append(step_b())
    assert alone == [(outcomes_a, world_a.to_json()), (outcomes_b, world_b.to_json())]


def test_threads_match_sequential_runs():
    from qcheque.adversary import run_honest
    from qcheque.protocol import SchemeParams

    seeds = (11, 12)
    sequential = [run_honest(SchemeParams(), trials=40, seed=seed).to_json() for seed in seeds]
    threaded = [None, None]

    def run(i):
        threaded[i] = run_honest(SchemeParams(), trials=40, seed=seeds[i]).to_json()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert threaded == sequential


# ----------------------------------------------------------------------
# deferred discard: a discard queues its qubit and uniform on the group,
# which collapses only when it is next used
# ----------------------------------------------------------------------


def _checkpoint(world, twin, rng, live):
    """One operation that settles the groups it reaches, run on both
    worlds; returns the qubits it retired."""
    kind = ["apply_gate", "measure_swap", "measure_bell", "reduced_density",
            "to_json", "check_partition"][int(rng.integers(6))]
    pick = [live[i] for i in rng.permutation(len(live))]
    if kind == "apply_gate":
        targets = pick[:int(rng.integers(1, 3))]
        gate = haar_random_unitary(rng, 2 ** len(targets))
        for w in (world, twin):
            w.apply_gate(gate, targets)
    elif kind == "measure_swap" and len(pick) >= 2:
        w = min(len(pick) // 2, int(rng.integers(1, 3)))
        assert world.measure_swap(pick[:w], pick[w:2 * w]) == twin.measure_swap(pick[:w], pick[w:2 * w])
    elif kind == "measure_bell" and len(pick) >= 2:
        assert world.measure_bell(*pick[:2]) == twin.measure_bell(*pick[:2])
        return pick[:2]
    elif kind == "reduced_density":
        subset = pick[:int(rng.integers(1, 3))]
        assert np.array_equal(world.reduced_density(subset), twin.reduced_density(subset))
    elif kind in ("to_json", "check_partition"):
        getattr(world, kind)()
        getattr(twin, kind)()
    return []


def _assert_matches_eager_twin(world, twin):
    """Every live group and its amplitudes bit for bit, and the PRNGs at
    the same position; the twin also holds each discarded qubit as a
    measured singleton."""
    assert world.rng.bit_generator.state == twin.rng.bit_generator.state
    live = handles(world)
    for q in live:
        mine, theirs = world.group_of(q), twin.group_of(q)
        assert mine.qubits == theirs.qubits
        assert np.array_equal(mine.amps, theirs.amps)
    groups = {id(twin.group_of(q)) for q in live}
    assert len(world._groups) == len(groups)
    world.check_partition()


def test_deferred_discard_matches_eager_twin():
    # random programs of gates, measurements, allocations and discards;
    # the twin measures where the world discards, and the two are
    # compared only at random checkpoints, so discards queue up between them
    queued, dropped = 0, 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        world = World(seed=seed)
        live = [q for _ in range(3) for q in _random_group(world, rng, int(rng.integers(1, 4)))[0]]
        twin = World.from_json(world.to_json())
        widths = collapse_widths(world)
        for _ in range(60):
            step = rng.random()
            if step < 0.4 and live:
                q = live.pop(int(rng.integers(len(live))))
                group, collapses = world._index[q], len(widths)
                world.discard(q)
                twin.measure_computational(q)
                assert len(widths) == collapses  # a discard does no arithmetic
                queued = max(queued, len(group.pending))
                if group not in world._groups:
                    dropped += 1
            elif step < 0.55 or len(live) < 2:
                amps = rng.normal(size=4) + 1j * rng.normal(size=4)
                amps /= np.linalg.norm(amps)
                new = world.allocate_group([Owner.ALICE] * 2, amps)
                assert twin.allocate_group([Owner.ALICE] * 2, amps) == new
                live += new
            elif step < 0.75:
                q, r = (live[i] for i in rng.permutation(len(live))[:2])
                gate = haar_random_unitary(rng, 4)
                world.apply_gate(gate, [q, r])
                twin.apply_gate(gate, [q, r])
            else:
                for q in _checkpoint(world, twin, rng, live):
                    live.remove(q)
                _assert_matches_eager_twin(world, twin)
        _assert_matches_eager_twin(world, twin)
    assert queued >= 3 and dropped >= 10


def test_fully_discarded_group_is_dropped_without_collapse():
    world = World(seed=5)
    rng = np.random.default_rng(5)
    qs, _ = _random_group(world, rng, 4)
    keep = world.allocate(Owner.BANK)
    widths = collapse_widths(world)
    group = world.group_of(qs[0])
    for q in qs:
        world.discard(q)
        assert q not in world
    assert widths == [] and group not in world._groups
    assert world.qubit_count == 1 and handles(world) == [keep]
    reference = np.random.default_rng(5)  # one uniform drawn per discard
    reference.random(len(qs))
    assert world.rng.bit_generator.state == reference.bit_generator.state
    world.check_partition()


def test_discard_cost_does_not_grow_with_the_world():
    # the qubit index is the one registry, so a group that leaves the
    # world costs no scan of the others: a singleton discarded from a
    # world of 40,000 groups costs about what it does among 20
    def discard_ns(world):
        q = world.allocate(Owner.ALICE)
        start = time.perf_counter_ns()
        world.discard(q)
        return time.perf_counter_ns() - start

    small, large = World(seed=1), World(seed=2)
    for world, groups in ((small, 20), (large, 40_000)):
        for _ in range(groups):
            world.allocate(Owner.ALICE)
    costs = [(discard_ns(small), discard_ns(large)) for _ in range(200)]
    small_ns, large_ns = (statistics.median(side) for side in zip(*costs))
    assert large_ns <= 20 * small_ns, (small_ns, large_ns)


# ----------------------------------------------------------------------
# deferred swap-test projection: the verdict comes from per-block norms,
# and the branch is built only when its group is next used
# ----------------------------------------------------------------------


def _eager_swap(world, register_a, register_b):
    """The swap test built at once: one merge, then `_fresh_swap` with
    the verdict drawn from the merged state."""
    targets = [q for pair in zip(register_a, register_b) for q in pair]
    group = world._group_for(targets)
    pairs = [(group.position(a), group.position(b)) for a, b in zip(register_a, register_b)]
    passed, group.amps = _fresh_swap(group.amps, pairs, world.rng.random())
    world.rng.random()
    return passed


@pytest.mark.parametrize("layout", list(SWAP_LAYOUTS))
def test_deferred_swap_matches_eager_projection_bit_for_bit(layout):
    verdicts = set()
    for seed in range(20):
        world = World(seed=seed)
        a, b = swap_layout(world, np.random.default_rng(seed), layout)
        eager, snapped = World.from_json(world.to_json()), World.from_json(world.to_json())
        passed = world.measure_swap(a, b)
        assert passed == snapped.measure_swap(a, b) == _eager_swap(eager, a, b)
        verdicts.add(passed)
        assert world.rng.bit_generator.state == eager.rng.bit_generator.state
        group = world._index[a[0]]
        assert group.amps is None and group.projection is not None
        # a snapshot taken while the projection is pending settles it
        assert snapped.to_json() == eager.to_json()
        # a discard queued behind the projection collapses after it
        for w in (world, eager):
            w.discard(a[0])
            w.group_of(b[0])
        assert [g.qubits for g in world._groups] == [g.qubits for g in eager._groups]
        for mine, theirs in zip(world._groups, eager._groups):
            assert np.array_equal(mine.amps, theirs.amps)
        world.check_partition()
    assert verdicts == {True, False}


@pytest.mark.parametrize("layout", ["singletons", "one block of three groups"])
def test_fully_discarded_swap_test_group_is_never_built(layout, monkeypatch):
    world = World(seed=7)
    a, b = swap_layout(world, np.random.default_rng(7), layout)
    world.measure_swap(a, b)
    widths, products = collapse_widths(world), product_widths(monkeypatch)
    for q in handles(world):
        world.discard(q)
    assert widths == [] and products == [] and not world._groups
    world.check_partition()


@pytest.mark.parametrize("layout", ["singletons", "one group, several pairs"])
def test_zero_branch_at_settle_is_refused_and_leaves_the_projection(layout):
    world = World(seed=3)
    a, b = swap_layout(world, np.random.default_rng(3), layout)
    world.measure_swap(a, b)
    group = world._index[a[0]]
    projection = group.projection
    factors = projection[0]
    for factor in factors:
        factor[:] = 0  # a corrupt state
    with pytest.raises(RuntimeError, match="zero branch"):
        world.group_of(b[0])
    assert group.projection is projection and group.amps is None
    assert world._index[b[0]] is group and group in world._groups
    # refused before anything is written: a scale by 1/0 would leave NaNs
    assert all(np.array_equal(factor, np.zeros(factor.size)) for factor in factors)


# ----------------------------------------------------------------------
# handles: (qid, owner) tuples that hash and compare in C
# ----------------------------------------------------------------------


def test_handles_are_equal_exactly_when_qid_and_owner_are():
    handles = [QubitHandle(qid, owner) for qid in (0, 1, 5) for owner in Owner]
    for h in handles:
        for other in handles:
            same = h.qid == other.qid and h.owner is other.owner
            assert (h == other) is same and (h != other) is not same
        twin = QubitHandle(h.qid, Owner(h.owner.value))
        assert twin == h and hash(twin) == hash(h)
    assert len(set(handles)) == len(handles)


def test_handle_from_a_snapshot_pair_finds_the_live_group():
    world = World(seed=0)
    world.allocate(Owner.ALICE)
    q = world.allocate_group([Owner.ALICE, Owner.BANK], [0.6, 0, 0, 0.8])[1]
    found = sim._handle([q.qid, q.owner.value])
    assert found == q and found in world
    assert world.group_of(found) is world.group_of(q)
    assert repr(QubitHandle(5, Owner.BANK)) == "q5<bank>"


@pytest.mark.parametrize("gate", [PAULI_X, np.kron(PAULI_X, PAULI_Z)], ids=["2x2", "4x4"])
def test_bare_handle_as_target_list_raises_and_changes_nothing(gate):
    # a handle is a 2-tuple, so it unpacks to [qid, owner]: neither a
    # target count that fits a one-qubit gate nor a pair of live handles
    world = World(seed=0)
    q = world.allocate(Owner.BANK, (0.6, 0.8))
    world.allocate(Owner.ALICE)
    before = world.to_json()
    with pytest.raises(ValueError):
        world.apply_gate(gate, q)
    assert world.to_json() == before


# ----------------------------------------------------------------------
# fast paths against the general code they bypass
# ----------------------------------------------------------------------


def _block_product_terms(a, b):
    """The norm and overlap of a swap-test block of two single qubits by
    the general path: vdots over their product and its swapped view."""
    psi = sim._product([a, b])
    swapped = psi.reshape(2, 2).transpose(1, 0)
    return np.vdot(psi, psi).real, np.vdot(psi, swapped).real


def test_closed_form_pair_terms_match_the_block_product():
    rng = np.random.default_rng(29)
    for _ in range(256):
        # norms off 1 by up to 1e-9, as allocation lets through
        a, b = (haar_random_qubit(rng) * (1.0 + rng.uniform(-1e-9, 1e-9)) for _ in range(2))
        norm, overlap = sim._pair_terms(a, b)
        want_norm, want_overlap = _block_product_terms(a, b)
        assert abs(norm - want_norm) <= 1e-15
        assert abs(overlap - want_overlap) <= 1e-15
    for a in (np.array([1.0, 0.0j]), haar_random_qubit(rng)):
        assert abs(sim._pair_terms(a, a)[1] - 1.0) <= 1e-15


def test_singleton_swap_tests_match_the_product_path(monkeypatch):
    # the "singletons" layout is a deposit's swap tests: blocks of one
    # cheque and one target qubit, one pair (an amount test) or several
    # (the authentication test)
    verdicts = set()
    for seed in range(60):
        for width in (1, 3):
            world = World(seed=seed)
            a, b = swap_layout(world, np.random.default_rng(seed), "singletons")
            product_path = World.from_json(world.to_json())
            passed = world.measure_swap(a[:width], b[:width])
            with monkeypatch.context() as patched:
                patched.setattr(sim, "_pair_terms", _block_product_terms)
                assert product_path.measure_swap(a[:width], b[:width]) == passed
            verdicts.add(passed)
            assert world.rng.bit_generator.state == product_path.rng.bit_generator.state
            assert world.to_json() == product_path.to_json()
    assert verdicts == {True, False}


def _always_permute(positions, n):
    """`_front` without its identity shortcut: always a permutation, with
    its inverse."""
    perm = positions + tuple(i for i in range(n) if i not in positions)
    return perm, tuple(perm.index(i) for i in range(n))


def _amps_bytes(world, qubits):
    return [world.group_of(q).amps.tobytes() for q in qubits]


@pytest.mark.parametrize("kind", ["gate", "computational", "hadamard", "bell"])
def test_leading_targets_skip_the_transpose_bit_for_bit(kind, monkeypatch):
    # the targets lead their group in order, so the permutation that
    # would bring them forward is the identity
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        world = World(seed=seed)
        qs, _ = _random_group(world, rng, n)
        forced = World.from_json(world.to_json())
        width = 2 if kind == "bell" else int(rng.integers(1, 3))
        gate = haar_random_unitary(rng, 2**width)
        outcomes = []
        for w, front in ((world, sim._front), (forced, _always_permute)):
            with monkeypatch.context() as patched:
                patched.setattr(sim, "_front", front)
                if kind == "gate":
                    w.apply_gate(gate, qs[:width])
                else:
                    outcomes.append(getattr(w, f"measure_{kind}")(*qs[:width if kind == "bell" else 1]))
        assert outcomes[:1] == outcomes[1:]
        live = [q for q in qs if q in world]
        assert _amps_bytes(world, live) == _amps_bytes(forced, live)
        assert world.to_json() == forced.to_json()
