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
    "LamportSignatureScheme",
    "LamportPublicKey",
    "LamportSecretKey",
    "KeyPair",
]

_DIGEST_BITS = 256


@dataclass(frozen=True)
class LamportPublicKey:
    """Hashes of all secret preimages, indexed [bit position][bit value]."""

    scheme: str
    preimage_bits: int
    entries: tuple[tuple[bytes, bytes], ...]


@dataclass
class LamportSecretKey:
    """Random preimages, consumed by the first signature."""

    scheme: str
    preimage_bits: int
    entries: tuple[tuple[bytes, bytes], ...]
    used: bool = False


@dataclass(frozen=True)
class KeyPair:
    public: LamportPublicKey
    secret: LamportSecretKey


def _message_digest_bits(message: BitString) -> list[int]:
    digest = hashlib.sha256(frame_fields(message)).digest()
    return [(byte >> k) & 1 for byte in digest for k in range(7, -1, -1)]


class LamportSignatureScheme:
    """Lamport one-time signatures over SHA-256 message digests."""

    identifier = "lamport-sha256-v1"

    def generate_keypair(self, security_parameter: int, rng: np.random.Generator) -> KeyPair:
        """Draw a fresh keypair; `security_parameter` is the preimage length in bits."""
        if security_parameter < 64:
            raise ValueError("security_parameter must be at least 64 bits")
        if security_parameter % 8:
            raise ValueError("security_parameter must be a whole number of bytes")
        width = security_parameter // 8
        secret_entries = []
        public_entries = []
        for _ in range(_DIGEST_BITS):
            pre0 = rng.bytes(width)
            pre1 = rng.bytes(width)
            secret_entries.append((pre0, pre1))
            public_entries.append((hashlib.sha256(pre0).digest(), hashlib.sha256(pre1).digest()))
        return KeyPair(
            public=LamportPublicKey(self.identifier, security_parameter, tuple(public_entries)),
            secret=LamportSecretKey(self.identifier, security_parameter, tuple(secret_entries)),
        )

    def sign(self, secret_key: LamportSecretKey, message: BitString) -> bytes:
        if secret_key.used:
            raise ValueError("one-time secret key has already signed a message")
        if secret_key.scheme != self.identifier:
            raise ValueError("secret key belongs to a different scheme")
        bits = _message_digest_bits(message)
        secret_key.used = True
        return b"".join(secret_key.entries[i][b] for i, b in enumerate(bits))

    def verify(self, public_key: LamportPublicKey, message: BitString, signature: bytes) -> bool:
        """Total verification: malformed input yields False, never an exception."""
        if not isinstance(public_key, LamportPublicKey) or public_key.scheme != self.identifier:
            return False
        width = public_key.preimage_bits // 8
        if not isinstance(signature, (bytes, bytearray)) or len(signature) != width * _DIGEST_BITS:
            return False
        bits = _message_digest_bits(message)
        for i, b in enumerate(bits):
            preimage = bytes(signature[i * width : (i + 1) * width])
            if hashlib.sha256(preimage).digest() != public_key.entries[i][b]:
                return False
        return True

    # serialization, used by bank database snapshots

    def public_key_to_json(self, public_key: LamportPublicKey) -> dict:
        return {
            "scheme": public_key.scheme,
            "preimage_bits": public_key.preimage_bits,
            "entries": [[a.hex(), b.hex()] for a, b in public_key.entries],
        }

    def public_key_from_json(self, doc: dict) -> LamportPublicKey:
        if not isinstance(doc, dict):
            raise ValueError("public key is not a JSON object")
        if doc.get("scheme") != self.identifier:
            raise ValueError(f"public key scheme {doc.get('scheme')!r} is not {self.identifier!r}")
        entries = tuple((bytes.fromhex(a), bytes.fromhex(b)) for a, b in doc["entries"])
        if len(entries) != _DIGEST_BITS:
            raise ValueError("public key has a malformed entry table")
        return LamportPublicKey(self.identifier, int(doc["preimage_bits"]), entries)
