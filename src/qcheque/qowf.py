"""Hash-seeded preparation of hard-to-guess product states.

Classical inputs are framed injectively, expanded through SHA-256 in
counter mode, and mapped to per-qubit Bloch angles.  Drawing the |0>
population uniformly via theta = arccos(sqrt(u)) makes each qubit
uniform over the sphere, so states derived from different inputs are
nearly orthogonal on average and carry no usable structure.

Two preparations are built on this:

* an authentication register binding (key, account id, nonce, amount),
  recomputable only with the shared key, and
* an amount register, one single-qubit state per entangled triple of a
  cheque, state i binding (nonce, amount, i); (tag, nonce, amount) is
  framed once and each 32-bit index appended, the bytes of framing all
  four fields per state.

Each is derived and allocated as one register.

SHA-256 is the single expansion function used here; swap `_HASH` to
rebase the whole construction on a different hash.
"""

from __future__ import annotations

import hashlib
import math
import struct

from .bits import BitString, frame_fields
from .sim import Owner, QubitHandle, World

__all__ = [
    "derive_angles",
    "angles_to_amplitudes",
    "auth_state_amplitudes",
    "amount_register_amplitudes",
    "prepare_auth_state",
    "prepare_amount_register",
]

_HASH = hashlib.sha256
_BLOCK = 32
_TWO_64 = float(2**64)
_TWO_PI = 2.0 * math.pi
# one qubit's 16 bytes of stream: the theta word, then the phi word
_QUBIT_WORDS = struct.Struct(">QQ")

_AUTH_TAG = BitString.from_text("auth-state")
_AMOUNT_TAG = BitString.from_text("amount-state")
_INDEX_WIDTH = (32).to_bytes(4, "big")
_FIRST_BLOCK = (0).to_bytes(4, "big")


def _expand(data: bytes, nbytes: int) -> bytes:
    """Counter-mode expansion of `data` to an arbitrary-length stream."""
    blocks = [_HASH(data + counter.to_bytes(4, "big")).digest()
              for counter in range((nbytes + _BLOCK - 1) // _BLOCK)]
    return b"".join(blocks)[:nbytes]


def derive_angles(data: bytes, count: int) -> list[tuple[float, float]]:
    """Deterministic (theta, phi) pairs for `count` qubits.

    theta lies in [0, pi/2] with cos(theta)^2 uniform, phi in [0, 2*pi).
    Every bit of `data` influences every angle through the hash.
    """
    if count < 1:
        raise ValueError("count must be positive")
    return _angles(_expand(data, 16 * count))


def _angles(stream: bytes) -> list[tuple[float, float]]:
    """The (theta, phi) pair of each 16 bytes of `stream`."""
    return [(math.acos(math.sqrt(w1 / _TWO_64)), _TWO_PI * (w2 / _TWO_64))
            for w1, w2 in _QUBIT_WORDS.iter_unpack(stream)]


def angles_to_amplitudes(theta: float, phi: float) -> tuple[complex, complex]:
    """Amplitudes (cos(theta), e^{i phi} sin(theta)) of one derived qubit."""
    return complex(math.cos(theta)), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)


def auth_state_amplitudes(
    key: BitString,
    account_id: BitString,
    nonce: BitString,
    amount: BitString,
    num_qubits: int,
) -> list[tuple[complex, complex]]:
    """Per-qubit amplitude pairs of the authentication register."""
    data = frame_fields(_AUTH_TAG, key, account_id, nonce, amount)
    return [angles_to_amplitudes(t, p) for t, p in derive_angles(data, num_qubits)]


def amount_register_amplitudes(
    nonce: BitString, amount: BitString, count: int
) -> list[tuple[complex, complex]]:
    """Amplitude pairs of the amount states riding triples 1 to `count`:
    state i is one qubit of `derive_angles` over the frame of (tag, nonce,
    amount, i as 32 bits), the first 16 bytes of its block 0."""
    if not 1 <= count < 1 << 32:
        raise ValueError(f"count {count} is outside [1, 2**32)")
    prefix = frame_fields(_AMOUNT_TAG, nonce, amount) + _INDEX_WIDTH
    stream = b"".join(_HASH(prefix + i.to_bytes(4, "big") + _FIRST_BLOCK).digest()[:16]
                      for i in range(1, count + 1))
    return [angles_to_amplitudes(t, p) for t, p in _angles(stream)]


def prepare_auth_state(
    world: World,
    key: BitString,
    account_id: BitString,
    nonce: BitString,
    amount: BitString,
    num_qubits: int,
    owner: Owner = Owner.ALICE,
) -> list[QubitHandle]:
    """Allocate the n-qubit product state binding (key, id, nonce, amount)."""
    pairs = auth_state_amplitudes(key, account_id, nonce, amount, num_qubits)
    return world.allocate_register(owner, pairs)


def prepare_amount_register(
    world: World,
    nonce: BitString,
    amount: BitString,
    count: int,
    owner: Owner = Owner.ALICE,
) -> list[QubitHandle]:
    """Allocate the `count` amount states of (nonce, amount), in triple order."""
    return world.allocate_register(owner, amount_register_amplitudes(nonce, amount, count))
