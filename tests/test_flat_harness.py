"""The whole attack harness run on the flat reference simulator.

`run_honest` and every strategy are run twice: once on `World`, with its
groups, merges and deferred discards and projections, and once on
`reference.FlatWorld`, which holds every live qubit in one tensor and
defers nothing.  The reports must be equal, and every trial's PRNG must
end in the same state.  The flat tensor holds every live qubit, so clone
runs stay at l, n <= 2 and the other strategies at l <= 4.
"""

import pytest
from reference import BELL_BASIS, X_BASIS, Z_BASIS, FlatWorld

from qcheque import adversary
from qcheque.adversary import STRATEGIES, run_attack, run_honest
from qcheque.protocol import SchemeParams
from qcheque.sim import HadamardOutcome, Owner, QubitHandle, World


class FlatHarnessWorld:
    """`FlatWorld` behind the `World` methods the package calls; qubits
    are numbered as `World` numbers them."""

    def __init__(self, seed=None):
        self.flat = FlatWorld(seed)
        self.rng = self.flat.rng
        self.live: set[QubitHandle] = set()
        self.next_qid = 0

    def allocate_group(self, owners, amplitudes):
        handles = [QubitHandle(self.next_qid + i, Owner(owner)) for i, owner in enumerate(owners)]
        self.next_qid += len(handles)
        self.flat.allocate([q.qid for q in handles], amplitudes)
        self.live.update(handles)
        return handles

    def allocate(self, owner, amplitudes=(1.0, 0.0)):
        return self.allocate_group([owner], amplitudes)[0]

    def allocate_register(self, owner, amplitude_pairs):
        return [self.allocate(owner, pair) for pair in amplitude_pairs]

    def __contains__(self, q):
        return q in self.live

    def group_of(self, q):
        if q not in self.live:
            raise ValueError(f"unknown or retired qubit handle {q!r}")

    def _qids(self, qubits):
        for q in qubits:
            self.group_of(q)
        return [q.qid for q in qubits]

    def apply_gate(self, gate, targets):
        self.flat.apply(gate, self._qids(targets))

    def measure_hadamard(self, q):
        return self.flat.measure(self._qids([q]), X_BASIS, retire=False)

    def measure_hadamard_register(self, register, partners, correction):
        # one pair at a time: measure, correct, then discard the measured qubit
        outcomes = []
        for q, partner in zip(register, partners):
            outcomes.append(self.measure_hadamard(q))
            if outcomes[-1] is HadamardOutcome.MINUS:
                self.apply_gate(correction, [partner])
            self.discard(q)
        return outcomes

    def measure_bell(self, q1, q2):
        outcome = self.flat.measure(self._qids([q1, q2]), BELL_BASIS, retire=True)
        self.live -= {q1, q2}
        return outcome

    def discard(self, q):
        self.flat.measure(self._qids([q]), Z_BASIS, retire=True)
        self.live.remove(q)

    def discard_register(self, handles):
        for q in handles:
            self.discard(q)

    def measure_swap(self, register_a, register_b):
        return self.flat.swap_test(self._qids(register_a), self._qids(register_b))


def _run(monkeypatch, world_class, strategy, params, trials, seed):
    """The report of one run with `world_class` as the harness's world,
    and the final PRNG state of each trial's world."""
    worlds = []

    def make(seed=None):
        worlds.append(world_class(seed=seed))
        return worlds[-1]

    monkeypatch.setattr(adversary, "World", make)
    if strategy == "honest":
        stats = run_honest(params, trials, seed)
    else:
        stats = run_attack(strategy, params, trials, seed)
    assert len(worlds) == trials
    return stats.to_json(), [w.rng.bit_generator.state for w in worlds]


CASES = [
    *[(strategy, l, l, 20, 7) for l in (1, 2) for strategy in ("honest", *STRATEGIES)],
    *[(strategy, 4, 3, 10, 11) for strategy in ("honest", *STRATEGIES)
      if strategy != "clone-double-spend"],
]


@pytest.mark.parametrize("strategy, l, n, trials, seed", CASES)
def test_harness_reports_match_the_flat_reference(monkeypatch, strategy, l, n, trials, seed):
    params = SchemeParams(ghz_triples=l, auth_qubits=n, key_bits=64, serial_bits=64)
    grouped = _run(monkeypatch, World, strategy, params, trials, seed)
    flat = _run(monkeypatch, FlatHarnessWorld, strategy, params, trials, seed)
    assert flat == grouped
