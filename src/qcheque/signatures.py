"""One-time digital signatures used to authorise cheque serial numbers.

The scheme is a Lamport construction over SHA-256 (Lamport, *Constructing
digital signatures from a one-way function*, 1979): the secret key is a
pair of random preimages per digest bit, the public key holds their
hashes, and a signature reveals one preimage per bit, the 256 of them
end to end.  Each secret key signs exactly once; a second use is refused
rather than silently leaking the complement preimages.

Signing and verifying are pure-Python byte work at hash speed: the
message's digest bits come from the digest's binary numeral, each bit
picks its entry of a pair in one `operator.getitem` map, one `struct`
unpack splits a signature into its preimages, and verification hashes
them in one pass and compares the list of hashes with the list of picked
entries once.  Verification is total: a malformed key, message or
signature yields False.

The bank snapshots public keys only; secret keys never leave memory.
"""

from __future__ import annotations

import hashlib
import operator
import struct
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
# a signature as its preimages, in digest-bit order
_PREIMAGES = struct.Struct(f"{_PREIMAGE_BYTES}s" * _DIGEST_BITS)
# the ASCII digits of a binary numeral as the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


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


def _message_digest_bits(message: BitString) -> bytes:
    """The SHA-256 digest bits of the framed message, most significant
    first, one byte of value 0 or 1 per bit."""
    digest = int.from_bytes(hashlib.sha256(frame_fields(message)).digest(), "big")
    return format(digest, f"0{_DIGEST_BITS}b").encode().translate(_DIGIT_VALUES)


def _selected(entries, message: BitString) -> list[bytes]:
    """The entry of each pair that the message's digest bit picks."""
    return list(map(operator.getitem, entries, _message_digest_bits(message)))


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
        signature = b"".join(_selected(secret_key.entries, message))
        secret_key.used = True
        return signature

    def verify(self, public_key: LamportPublicKey, message: BitString, signature: bytes) -> bool:
        """Total verification: malformed input yields False, never an
        exception.  The key must be a `LamportPublicKey`, the message a
        `BitString` and the signature `bytes` or a `bytearray` of the
        signature length."""
        if not isinstance(public_key, LamportPublicKey) or not isinstance(message, BitString):
            return False
        if not isinstance(signature, (bytes, bytearray)) or len(signature) != _SIGNATURE_BYTES:
            return False
        sha256 = hashlib.sha256
        revealed = [sha256(preimage).digest() for preimage in _PREIMAGES.unpack(signature)]
        return revealed == _selected(public_key.entries, message)

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
        if len(entries) != _DIGEST_BITS or any(len(h) != _HASH_BYTES for pair in entries for h in pair):
            raise ValueError("public key has a malformed entry table")
        return LamportPublicKey(entries)
