import numpy as np
import pytest
from helpers import flip
from reference import TupleBitString, tuple_frame_fields

from qcheque.bits import BitString, frame_fields


def test_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        BitString.from_binary_text("021")
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString(3, -1)


def test_str_and_len():
    b = BitString(4, 0b1011)
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
    assert BitString(4, 0b1111).to_bytes() == b"\xf0"


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
    b = BitString(4, 0)
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
    framed = frame_fields(BitString(3, 0b101))
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
    packed, fresh = BitString(3, 0b101), BitString.from_binary_text("101")
    packed.to_bytes()
    assert packed == fresh and hash(packed) == hash(fresh)
    assert packed != BitString(4, 0b1010)
    assert len({packed, fresh}) == 1


@pytest.mark.parametrize(
    "text", ["\u0661\u0660", "\uff11", "1_0", " 10", "10\n", "+1", "-1", "0b1", "2", "1 0"]
)
def test_from_binary_text_accepts_only_ascii_zero_and_one(text):
    # int() reads other Unicode digits, and int(text, 2) also reads
    # underscores, a sign and surrounding whitespace
    with pytest.raises(ValueError):
        BitString.from_binary_text(text)


def test_from_binary_text_refuses_non_strings():
    with pytest.raises(TypeError):
        BitString.from_binary_text(["1", "0"])


def test_length_is_part_of_the_value():
    # leading zeros are bits: 101 and 0101 differ
    assert BitString(3, 0b101) != BitString(4, 0b101)
    assert str(BitString(4, 0b101)) == "0101"
    assert str(BitString(0, 0)) == "" and BitString(0, 0).to_bytes() == b""
    assert BitString.from_binary_text("") == BitString(0, 0)


def _same(new: BitString, old: TupleBitString) -> None:
    assert str(new) == str(old)
    assert len(new) == len(old)
    assert new.bits == old.bits
    assert new.to_bytes() == old.to_bytes()


def test_matches_the_bit_tuple_form():
    """Every conversion agrees with one Python int per bit, and `random`
    draws the same bits and leaves the generator where it left it."""
    rng = np.random.default_rng(2024)
    for n in range(1, 301):
        seed = int(rng.integers(2**32))
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new, old = BitString.random(new_rng, n), TupleBitString.random(old_rng, n)
        _same(new, old)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

        value = int(str(old), 2)
        _same(BitString.from_int(value, n), TupleBitString.from_int(value, n))
        _same(BitString.from_binary_text(str(old)), old)
        assert BitString.from_binary_text(str(new)) == new

        raw = rng.bytes(n % 40)
        _same(BitString.from_bytes(raw), TupleBitString.from_bytes(raw))
        text = "".join(chr(int(c)) for c in rng.integers(1, 0x2FFF, size=n % 12))
        _same(BitString.from_text(text), TupleBitString.from_text(text))

        _same(BitString.from_int(value, n + 8), TupleBitString.from_int(value, n + 8))
        with pytest.raises(ValueError, match="does not fit"):
            BitString.from_int(1 << n, n)


def test_equality_hash_and_framing_match_the_bit_tuple_form():
    rng = np.random.default_rng(77)
    pool = []
    for _ in range(200):
        text = "".join("01"[int(b)] for b in rng.integers(0, 2, size=int(rng.integers(0, 12))))
        pool.append((BitString.from_binary_text(text), TupleBitString.from_binary_text(text)))
    for new_a, old_a in pool[:40]:
        for new_b, old_b in pool:
            assert (new_a == new_b) == (old_a == old_b)
            if new_a == new_b:
                assert hash(new_a) == hash(new_b)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=k)]
        assert frame_fields(*(p[0] for p in picks)) == tuple_frame_fields(*(p[1] for p in picks))
