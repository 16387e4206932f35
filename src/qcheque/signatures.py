"""One-time digital signatures used to authorise cheque serial numbers.

The scheme is a Lamport construction over SHA-256: the secret key
is a pair of random preimages per digest bit, the public key holds their
hashes, and a signature reveals one preimage per bit.  Each secret key
signs exactly once; a second use is refused rather than silently leaking
the complement preimages.

The bank snapshots public keys only; secret keys never leave memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .bits import BitString, frame_fields

__all__ = [
    "PREIMAGE_BITS",
    "LamportSignatureScheme",
    "LamportPublicKey",
    "LamportSecretKey",
    "KeyPair",
]

_DIGEST_BITS = 256
# Length of every secret preimage; snapshots record it and refuse any other.
PREIMAGE_BITS = 128
_PREIMAGE_BYTES = PREIMAGE_BITS // 8
_SIGNATURE_BYTES = _PREIMAGE_BYTES * _DIGEST_BITS
_HASH_BYTES = 32


@dataclass(frozen=True)
class LamportPublicKey:
    """Hashes of all secret preimages, indexed [bit position][bit value]."""

    entries: tuple[tuple[bytes, bytes], ...]


@dataclass
class LamportSecretKey:
    """Random preimages, consumed by the first signature."""

    entries: tuple[tuple[bytes, bytes], ...]
    used: bool = False


@dataclass(frozen=True)
class KeyPair:
    public: LamportPublicKey
    secret: LamportSecretKey


def _message_digest_bits(message: BitString) -> list[int]:
    digest = hashlib.sha256(frame_fields(message)).digest()
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8)).tolist()


class LamportSignatureScheme:
    """Lamport one-time signatures over SHA-256 message digests."""

    identifier = "lamport-sha256-v1"

    def generate_keypair(self, rng: np.random.Generator) -> KeyPair:
        """Draw a fresh keypair of `PREIMAGE_BITS`-bit preimages."""
        secret_entries = []
        public_entries = []
        for _ in range(_DIGEST_BITS):
            pre0 = rng.bytes(_PREIMAGE_BYTES)
            pre1 = rng.bytes(_PREIMAGE_BYTES)
            secret_entries.append((pre0, pre1))
            public_entries.append((hashlib.sha256(pre0).digest(), hashlib.sha256(pre1).digest()))
        return KeyPair(
            public=LamportPublicKey(tuple(public_entries)),
            secret=LamportSecretKey(tuple(secret_entries)),
        )

    def sign(self, secret_key: LamportSecretKey, message: BitString) -> bytes:
        if secret_key.used:
            raise ValueError("one-time secret key has already signed a message")
        bits = _message_digest_bits(message)
        secret_key.used = True
        return b"".join([pair[b] for pair, b in zip(secret_key.entries, bits)])

    def verify(self, public_key: LamportPublicKey, message: BitString, signature: bytes) -> bool:
        """Total verification: malformed input yields False, never an exception."""
        if not isinstance(public_key, LamportPublicKey):
            return False
        if not isinstance(signature, (bytes, bytearray)) or len(signature) != _SIGNATURE_BYTES:
            return False
        sha256 = hashlib.sha256
        revealed = b"".join([sha256(signature[i : i + _PREIMAGE_BYTES]).digest()
                             for i in range(0, _SIGNATURE_BYTES, _PREIMAGE_BYTES)])
        expected = b"".join([pair[b] for pair, b in zip(public_key.entries, _message_digest_bits(message))])
        return revealed == expected

    # serialization, used by bank database snapshots

    def public_key_to_json(self, public_key: LamportPublicKey) -> dict:
        return {
            "scheme": self.identifier,
            "preimage_bits": PREIMAGE_BITS,
            "entries": [[a.hex(), b.hex()] for a, b in public_key.entries],
        }

    def public_key_from_json(self, doc: dict) -> LamportPublicKey:
        if not isinstance(doc, dict):
            raise ValueError("public key is not a JSON object")
        if doc.get("scheme") != self.identifier:
            raise ValueError(f"public key scheme {doc.get('scheme')!r} is not {self.identifier!r}")
        if doc.get("preimage_bits") != PREIMAGE_BITS:
            raise ValueError(
                f"public key has {doc.get('preimage_bits')!r}-bit preimages, expected {PREIMAGE_BITS}"
            )
        entries = tuple((bytes.fromhex(a), bytes.fromhex(b)) for a, b in doc["entries"])
        # verify compares all selected entries joined, which is the
        # per-entry comparison only while every entry is one digest long
        if len(entries) != _DIGEST_BITS or any(len(h) != _HASH_BYTES for pair in entries for h in pair):
            raise ValueError("public key has a malformed entry table")
        return LamportPublicKey(entries)
