"""Reference implementations, the differential oracles for the package.

`FlatWorld` is a flat statevector simulator, the oracle for `qcheque.sim`.

One dense tensor holds every live qubit, one axis each; there are no
groups and no merges.  It keeps the conventions of `World` written out
afresh: a group is allocated big-endian, every measurement draws one
uniform and takes the first branch, in basis order, whose running
probability exceeds it, and the swap test is the textbook circuit (an
ancilla in |+>, one Fredkin gate per qubit pair, the ancilla read out in
the X basis and then discarded), whose discard draws the second uniform.
Only the outcome labels come from the package.

`TupleBitString` and `tuple_frame_fields` are the bit-tuple form of
`qcheque.bits`, one Python int per bit, and `loop_verify` is Lamport
verification one digest position at a time, stopping at the first
mismatch; `qcheque.bits` and `qcheque.signatures` must agree with them.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from qcheque.signatures import LamportPublicKey
from qcheque.sim import BellOutcome, HadamardOutcome

_R = 1 / np.sqrt(2.0)
Z_BASIS = [(0, [1, 0]), (1, [0, 1])]
X_BASIS = [(HadamardOutcome.PLUS, [_R, _R]), (HadamardOutcome.MINUS, [_R, -_R])]
# PSI labels the even-parity pair states, PHI the odd ones.
BELL_BASIS = [
    (BellOutcome.PSI_PLUS, [[_R, 0], [0, _R]]),
    (BellOutcome.PSI_MINUS, [[_R, 0], [0, -_R]]),
    (BellOutcome.PHI_PLUS, [[0, _R], [_R, 0]]),
    (BellOutcome.PHI_MINUS, [[0, _R], [-_R, 0]]),
]
FREDKIN = np.eye(8)[[0, 1, 2, 3, 4, 6, 5, 7]]
H = np.array([[_R, _R], [_R, -_R]])


class FlatWorld:
    """Every live qubit in one tensor; qubits are named by integer ids."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.qids: list[int] = []
        self.psi = np.ones((), dtype=complex)

    def allocate(self, qids, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).reshape((2,) * len(qids))
        self.psi = np.multiply.outer(self.psi, amps / np.linalg.norm(amps))
        self.qids += list(qids)

    def apply(self, gate, qids) -> None:
        k = len(qids)
        axes = [self.qids.index(q) for q in qids]
        out = np.tensordot(np.reshape(gate, (2,) * (2 * k)), self.psi,
                           axes=(list(range(k, 2 * k)), axes))
        self.psi = np.moveaxis(out, list(range(k)), axes)

    def measure(self, qids, basis, retire: bool):
        """Born-rule measurement; a kept qubit is left in the observed state."""
        k = len(qids)
        front = np.moveaxis(self.psi, [self.qids.index(q) for q in qids], list(range(k)))
        u = self.rng.random()
        acc = 0.0
        for label, state in basis:
            state = np.asarray(state, dtype=complex)
            kept = np.tensordot(state.conj(), front, axes=k)
            p = float(np.vdot(kept, kept).real)
            acc += p
            if u < acc:
                break
        self.psi = kept / np.sqrt(p)
        self.qids = [q for q in self.qids if q not in qids]
        if not retire:
            self.allocate(qids, state)
        return label

    def swap_test(self, register_a, register_b) -> bool:
        ancilla = -1
        self.allocate([ancilla], [_R, _R])
        for a, b in zip(register_a, register_b):
            self.apply(FREDKIN, [ancilla, a, b])
        self.apply(H, [ancilla])
        passed = self.measure([ancilla], Z_BASIS, retire=False) == 0
        self.measure([ancilla], Z_BASIS, retire=True)
        return passed

    def state(self) -> np.ndarray:
        """The state tensor with its axes in ascending qubit id."""
        return self.psi.transpose(np.argsort(self.qids))


@dataclass(frozen=True)
class TupleBitString:
    """A bit string as a tuple of 0 and 1, most significant bit first."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("BitString entries must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_text(cls, text: str) -> "TupleBitString":
        return cls.from_bytes(text.encode("utf-8"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TupleBitString":
        return cls(tuple((byte >> k) & 1 for byte in raw for k in range(7, -1, -1)))

    @classmethod
    def from_int(cls, value: int, width: int) -> "TupleBitString":
        if value < 0 or value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls(tuple((value >> k) & 1 for k in range(width - 1, -1, -1)))

    @classmethod
    def from_binary_text(cls, text: str) -> "TupleBitString":
        return cls(tuple({"0": 0, "1": 1}[c] for c in text))

    @classmethod
    def random(cls, rng: np.random.Generator, nbits: int) -> "TupleBitString":
        if nbits < 1:
            raise ValueError("nbits must be positive")
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=nbits)))

    def to_bytes(self) -> bytes:
        packed = bytearray((len(self.bits) + 7) // 8)
        for i, b in enumerate(self.bits):
            packed[i // 8] |= b << (7 - i % 8)
        return bytes(packed)


def tuple_frame_fields(*fields) -> bytes:
    return b"".join(len(f).to_bytes(4, "big") + f.to_bytes() for f in fields)


def loop_verify(public_key, message, signature) -> bool:
    """Lamport verification of `signature` on the `qcheque.bits.BitString`
    `message`, one digest bit at a time."""
    if not isinstance(public_key, LamportPublicKey):
        return False
    if not isinstance(signature, (bytes, bytearray)) or len(signature) != 16 * 256:
        return False
    digest = hashlib.sha256(tuple_frame_fields(message)).digest()
    for i in range(256):
        bit = (digest[i // 8] >> (7 - i % 8)) & 1
        preimage = bytes(signature[16 * i : 16 * (i + 1)])
        if hashlib.sha256(preimage).digest() != public_key.entries[i][bit]:
            return False
    return True
