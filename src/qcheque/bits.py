"""Fixed-length bit strings and an injective framing for hash inputs.

Classical protocol fields (shared keys, nonces, serial numbers, amounts)
are all bit strings of known length.  A `BitString` is a length and a
non-negative int whose binary digits, most significant first and
zero-filled to that length, are the bits; text, bytes and integer
conversions, equality and hashing are all int operations.  When several
fields are fed into a hash together, each one is framed with an explicit
length prefix so that distinct tuples can never produce the same byte
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BitString", "frame_fields"]


@dataclass(frozen=True)
class BitString:
    """An immutable sequence of `length` bits: the binary digits of `value`,
    most significant bit first."""

    length: int
    value: int
    # the bits packed into bytes, zero-padded at the tail; kept out of
    # equality and hashing, which see only (length, value)
    _packed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.length < 0 or not 0 <= self.value < 1 << self.length:
            raise ValueError(f"{self.value} does not fit in {self.length} bits")
        pad = -self.length % 8
        object.__setattr__(self, "_packed", (self.value << pad).to_bytes((self.length + pad) // 8, "big"))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return f"{self.value:0{self.length}b}" if self.length else ""

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits as a tuple of 0 and 1."""
        return tuple((self.value >> k) & 1 for k in range(self.length - 1, -1, -1))

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Encode UTF-8 text, one byte per eight bits."""
        return cls.from_bytes(text.encode("utf-8"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BitString":
        return cls(8 * len(raw), int.from_bytes(raw, "big"))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        return cls(width, value)

    @classmethod
    def from_binary_text(cls, text: str) -> "BitString":
        """Parse a string of ASCII '0' and '1' characters.

        Anything else is refused, including the other Unicode digits and
        the underscores, signs and whitespace that `int(text, 2)` accepts.
        """
        if not isinstance(text, str):
            raise TypeError(f"binary text must be a str, not {type(text).__name__}")
        if text.strip("01"):
            raise ValueError(f"binary text {text!r} holds a character other than '0' and '1'")
        return cls(len(text), int(text, 2) if text else 0)

    @classmethod
    def random(cls, rng: np.random.Generator, nbits: int) -> "BitString":
        if nbits < 1:
            raise ValueError("nbits must be positive")
        packed = np.packbits(rng.integers(0, 2, size=nbits)).tobytes()
        return cls(nbits, int.from_bytes(packed, "big") >> (-nbits % 8))

    def to_bytes(self) -> bytes:
        """Pack into bytes, zero-padded at the tail to a byte boundary."""
        return self._packed


def frame_fields(*fields: BitString) -> bytes:
    """Concatenate bit strings into one unambiguous byte stream.

    Each field contributes a 4-byte big-endian bit count followed by its
    packed payload, so ("ab", "c") and ("a", "bc") frame differently.
    """
    return b"".join([f.length.to_bytes(4, "big") + f._packed for f in fields])
