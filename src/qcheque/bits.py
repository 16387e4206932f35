"""Fixed-length bit strings and an injective framing for hash inputs.

Classical protocol fields (shared keys, nonces, serial numbers, amounts)
are all bit strings of known length.  When several fields are fed into a
hash together, each one is framed with an explicit length prefix so that
distinct tuples can never produce the same byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BitString", "frame_fields"]


@dataclass(frozen=True)
class BitString:
    """An immutable sequence of bits, most significant bit first."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("BitString entries must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Encode UTF-8 text, one byte per eight bits."""
        return cls.from_bytes(text.encode("utf-8"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BitString":
        bits = []
        for byte in raw:
            bits.extend((byte >> k) & 1 for k in range(7, -1, -1))
        return cls(tuple(bits))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        if value < 0 or value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls(tuple((value >> k) & 1 for k in range(width - 1, -1, -1)))

    @classmethod
    def from_binary_text(cls, text: str) -> "BitString":
        """Parse a string of '0' and '1' characters."""
        return cls(tuple(int(c) for c in text))

    @classmethod
    def random(cls, rng: np.random.Generator, nbits: int) -> "BitString":
        if nbits < 1:
            raise ValueError("nbits must be positive")
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=nbits)))

    def to_bytes(self) -> bytes:
        """Pack into bytes, zero-padded at the tail to a byte boundary."""
        return self._packed

    @cached_property  # kept out of equality and hashing, which see only `bits`
    def _packed(self) -> bytes:
        return np.packbits(np.frombuffer(bytes(self.bits), dtype=np.uint8)).tobytes()


def frame_fields(*fields: BitString) -> bytes:
    """Concatenate bit strings into one unambiguous byte stream.

    Each field contributes a 4-byte big-endian bit count followed by its
    packed payload, so ("ab", "c") and ("a", "bc") frame differently.
    """
    parts = []
    for field in fields:
        parts.append(len(field).to_bytes(4, "big"))
        parts.append(field.to_bytes())
    return b"".join(parts)
