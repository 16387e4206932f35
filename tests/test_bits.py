import numpy as np
import pytest
from helpers import flip

from qcheque.bits import BitString, frame_fields


def test_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        BitString((0, 2, 1))


def test_str_and_len():
    b = BitString((1, 0, 1, 1))
    assert str(b) == "1011"
    assert len(b) == 4


def test_from_text_round_trips_through_bytes():
    b = BitString.from_text("hi")
    assert b.to_bytes() == b"hi"
    assert len(b) == 16


def test_from_int_width_and_bounds():
    assert str(BitString.from_int(5, 4)) == "0101"
    assert str(BitString.from_int(0, 3)) == "000"
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)
    with pytest.raises(ValueError):
        BitString.from_int(-1, 3)


def test_from_binary_text_inverse_of_str():
    for text in ("0", "1", "0110100", "1" * 40):
        assert str(BitString.from_binary_text(text)) == text


def test_to_bytes_pads_tail_with_zeros():
    # 1111 packs into a single byte with the low nibble cleared
    assert BitString((1, 1, 1, 1)).to_bytes() == b"\xf0"


def test_to_bytes_matches_bitwise_packing():
    # the per-bit loop it replaced, byte for byte
    rng = np.random.default_rng(17)
    for n in range(1, 301):
        bits = BitString.random(rng, n)
        expected = bytearray((n + 7) // 8)
        for i, b in enumerate(bits.bits):
            if b:
                expected[i // 8] |= 1 << (7 - i % 8)
        assert bits.to_bytes() == bytes(expected)


def test_flip_changes_exactly_one_bit():
    b = BitString((0, 0, 0, 0))
    flipped = flip(b, 2)
    assert str(flipped) == "0010"
    assert str(b) == "0000"


def test_random_is_seed_deterministic():
    a = BitString.random(np.random.default_rng(7), 64)
    b = BitString.random(np.random.default_rng(7), 64)
    assert a == b
    assert len(a) == 64


def test_random_rejects_empty():
    with pytest.raises(ValueError):
        BitString.random(np.random.default_rng(0), 0)


def test_frame_fields_layout():
    # each field is a 4-byte big-endian bit count plus packed payload
    framed = frame_fields(BitString((1, 0, 1)))
    assert framed == b"\x00\x00\x00\x03" + b"\xa0"


def test_frame_fields_separates_field_boundaries():
    ab_c = frame_fields(BitString.from_text("ab"), BitString.from_text("c"))
    a_bc = frame_fields(BitString.from_text("a"), BitString.from_text("bc"))
    assert ab_c != a_bc


def test_frame_fields_injective_over_random_splits():
    """Distinct field tuples never frame to the same byte stream."""
    rng = np.random.default_rng(13)
    seen = {}
    for _ in range(300):
        parts = tuple(
            BitString.random(rng, int(rng.integers(1, 24)))
            for _ in range(int(rng.integers(1, 4)))
        )
        framed = frame_fields(*parts)
        if framed in seen:
            assert seen[framed] == parts
        seen[framed] = parts
    assert len(seen) > 250


def test_cached_packing_matches_packbits():
    rng = np.random.default_rng(41)
    for n in range(1, 41):
        bits = BitString.random(rng, n)
        expected = np.packbits(np.array(bits.bits, dtype=np.uint8)).tobytes()
        assert bits.to_bytes() == expected
        assert bits.to_bytes() is bits.to_bytes()


def test_equality_and_hash_ignore_the_packing_cache():
    packed, fresh = BitString((1, 0, 1)), BitString((1, 0, 1))
    packed.to_bytes()
    assert packed == fresh and hash(packed) == hash(fresh)
    assert packed != BitString((1, 0, 1, 0))
    assert len({packed, fresh}) == 1
