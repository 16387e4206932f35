"""Random programs run on `World` and on the flat reference simulator.

After every step the two agree on the outcome, on the PRNG position and,
keyed by qubit id, on the state up to global phase.  This checks every
kernel (merge, gate, collapse, swap test) and the snapshot round trip
against code that has no groups at all.
"""

import functools
import json

import numpy as np
from helpers import handles, haar_random_unitary
from reference import BELL_BASIS, X_BASIS, Z_BASIS, FlatWorld

from qcheque.sim import Owner, World

MAX_QUBITS = 10
STEPS = 40


def _world_state(world):
    """The world's state tensor over all live qubits, axes in ascending id."""
    groups = []
    for q in handles(world):
        if world.group_of(q) not in groups:
            groups.append(world.group_of(q))
    tensors = [g.amps.reshape((2,) * g.n_qubits) for g in groups]
    qids = [q.qid for g in groups for q in g.qubits]
    return functools.reduce(np.multiply.outer, tensors, np.ones(())).transpose(np.argsort(qids))


def _assert_same_state(world, flat):
    got, want = _world_state(world), flat.state()
    assert got.shape == want.shape
    phase = np.vdot(want, got)
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(got - phase * want)) < 1e-12


def _step(world, flat, live, rng):
    """One random operation on both simulators; returns its name and the
    two outcomes."""
    n = len(live)
    moves = ["single", "group"] if n < MAX_QUBITS - 2 else []
    if n >= 1:
        moves += ["gate1", "z", "x", "discard"]
    if n >= 2:
        moves += ["gate2", "bell", "swap"]
    move = moves[rng.integers(len(moves))]
    picked = [live[i] for i in rng.permutation(n)]
    if move in ("single", "group"):
        k = 1 if move == "single" else int(rng.integers(2, 4))
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        amps /= np.linalg.norm(amps)
        fresh = world.allocate_group([Owner.ALICE] * k, amps)
        flat.allocate([h.qid for h in fresh], amps)
        live += fresh
        return move, None, None
    if move in ("gate1", "gate2"):
        k = 1 if move == "gate1" else 2
        gate = haar_random_unitary(rng, 2**k)
        world.apply_gate(gate, picked[:k])
        flat.apply(gate, [q.qid for q in picked[:k]])
        return move, None, None
    if move == "swap":
        w = int(rng.integers(1, min(3, n // 2) + 1))
        a, b = picked[:w], picked[w:2 * w]
        return f"swap{w}", world.measure_swap(a, b), flat.swap_test([q.qid for q in a], [q.qid for q in b])
    q = picked[0]
    if move == "z":
        return move, world.measure_computational(q), flat.measure([q.qid], Z_BASIS, retire=False)
    if move == "x":
        return move, world.measure_hadamard(q), flat.measure([q.qid], X_BASIS, retire=False)
    if move == "discard":
        live.remove(q)
        world.discard(q)
        flat.measure([q.qid], Z_BASIS, retire=True)
        return move, None, None
    live.remove(q)
    live.remove(picked[1])
    return move, world.measure_bell(q, picked[1]), flat.measure([q.qid, picked[1].qid], BELL_BASIS, retire=True)


def test_random_programs_match_flat_reference():
    moves = set()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        world, flat, live = World(seed=seed), FlatWorld(seed), []
        for step in range(STEPS):
            if step == STEPS // 2:
                world = World.from_json(json.loads(json.dumps(world.to_json())))
            move, got, want = _step(world, flat, live, rng)
            moves.add(move)
            assert got == want, (seed, step)
            assert world.rng.bit_generator.state == flat.rng.bit_generator.state, (seed, step)
            assert sorted(q.qid for q in handles(world)) == sorted(q.qid for q in live)
            world.check_partition()
            if live:
                _assert_same_state(world, flat)
    assert moves == {"single", "group", "gate1", "gate2", "z", "x", "discard", "bell",
                     "swap1", "swap2", "swap3"}
