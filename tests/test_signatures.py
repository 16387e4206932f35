import hashlib

import numpy as np
import pytest
from helpers import flip
from reference import loop_verify

from qcheque.bits import BitString, frame_fields
from qcheque.signatures import LamportSignatureScheme, _message_digest_bits


def keypair(seed=0):
    scheme = LamportSignatureScheme()
    return scheme, scheme.generate_keypair(np.random.default_rng(seed))


def test_sign_verify_round_trip():
    scheme, pair = keypair()
    message = BitString.from_text("serial-0001")
    signature = scheme.sign(pair.secret, message)
    assert scheme.verify(pair.public, message, signature)


def test_wrong_message_rejected():
    scheme, pair = keypair()
    signature = scheme.sign(pair.secret, BitString.from_text("pay me 5"))
    assert not scheme.verify(pair.public, BitString.from_text("pay me 500"), signature)


def test_single_flipped_bit_in_message_rejected():
    scheme, pair = keypair()
    message = BitString.from_int(0xDEAD, 16)
    signature = scheme.sign(pair.secret, message)
    assert not scheme.verify(pair.public, flip(message, 7), signature)


def test_corrupted_signature_rejected():
    scheme, pair = keypair()
    message = BitString.from_text("x")
    signature = bytearray(scheme.sign(pair.secret, message))
    signature[10] ^= 0x01
    assert not scheme.verify(pair.public, message, bytes(signature))


def test_verification_is_total_on_garbage():
    """Malformed input must come back False, never raise."""
    scheme, pair = keypair()
    message = BitString.from_text("x")
    signature = scheme.sign(pair.secret, message)
    for bad in (b"", b"short", b"\x00" * 10_000, signature[:-16], signature + signature[:16],
                memoryview(signature), signature.decode("latin-1"), list(signature), None):
        assert not scheme.verify(pair.public, message, bad)


def test_secret_key_signs_exactly_once():
    scheme, pair = keypair()
    scheme.sign(pair.secret, BitString.from_text("first"))
    with pytest.raises(ValueError):
        scheme.sign(pair.secret, BitString.from_text("second"))


def test_key_and_signature_sizes():
    # 256 digest positions, two preimages each, 16 bytes per 128-bit
    # preimage; public hashes are full 32-byte digests
    scheme, pair = keypair()
    assert len(pair.secret.entries) == 256
    assert all(len(pre) == 16 for row in pair.secret.entries for pre in row)
    assert len(pair.public.entries) == 256
    assert all(len(h) == 32 for row in pair.public.entries for h in row)
    signature = scheme.sign(pair.secret, BitString.from_text("m"))
    assert len(signature) == 256 * 16


def test_keygen_is_seed_deterministic():
    _, a = keypair(seed=9)
    _, b = keypair(seed=9)
    assert a.secret.entries == b.secret.entries
    assert a.public.entries == b.public.entries


def test_different_seeds_give_different_keys():
    _, a = keypair(seed=1)
    _, b = keypair(seed=2)
    assert a.public.entries != b.public.entries


def test_public_key_json_round_trip():
    scheme, pair = keypair()
    doc = scheme.public_key_to_json(pair.public)
    restored = scheme.public_key_from_json(doc)
    assert restored == pair.public
    message = BitString.from_text("still works")
    signature = scheme.sign(pair.secret, message)
    assert scheme.verify(restored, message, signature)


@pytest.mark.parametrize("bits", [64, 256, "128", None])
def test_public_key_json_refuses_other_preimage_widths(bits):
    # Every key has 128-bit preimages; a key recorded with another width
    # would load and then reject its own genuine signatures.
    scheme, pair = keypair()
    doc = scheme.public_key_to_json(pair.public)
    assert doc["preimage_bits"] == 128
    with pytest.raises(ValueError, match="preimages"):
        scheme.public_key_from_json({**doc, "preimage_bits": bits})


def test_public_key_json_scheme_mismatch_rejected():
    scheme, pair = keypair()
    doc = scheme.public_key_to_json(pair.public)
    doc["scheme"] = "other-scheme-v9"
    with pytest.raises(ValueError):
        scheme.public_key_from_json(doc)


def test_cross_key_verification_fails():
    scheme, pair_a = keypair(seed=3)
    _, pair_b = keypair(seed=4)
    message = BitString.from_text("serial")
    signature = scheme.sign(pair_a.secret, message)
    assert not scheme.verify(pair_b.public, message, signature)


def test_verify_matches_the_per_bit_loop():
    scheme, pair = keypair(seed=21)
    message = BitString.from_text("serial-0042")
    signature = scheme.sign(pair.secret, message)
    _, other = keypair(seed=22)
    rng = np.random.default_rng(5)
    cases = [
        (pair.public, message, signature),
        (pair.public, message, bytearray(signature)),
        (pair.public, message, signature[:-1]),
        (pair.public, message, signature + b"\x00"),
        (pair.public, message, b""),
        (pair.public, flip(message, 3), signature),
        (pair.public, BitString.from_text("serial-0043"), signature),
        (other.public, message, signature),
        (pair.public.entries, message, signature),
        (None, message, signature),
    ]
    for _ in range(64):
        corrupt = bytearray(signature)
        corrupt[int(rng.integers(len(corrupt)))] ^= int(rng.integers(1, 256))
        cases.append((pair.public, message, bytes(corrupt)))
    verdicts = [scheme.verify(*case) for case in cases]
    assert verdicts == [loop_verify(*case) for case in cases]
    assert verdicts[:2] == [True, True] and not any(verdicts[2:])


def test_public_key_json_refuses_entries_that_are_not_digests():
    # every entry is one 32-byte digest; an entry of another length could
    # never match a revealed preimage's hash
    scheme, pair = keypair()
    doc = scheme.public_key_to_json(pair.public)
    a, b = doc["entries"][0]
    doc["entries"][0], doc["entries"][1][0] = [a[:-2], b], doc["entries"][1][0] + a[-2:]
    with pytest.raises(ValueError, match="malformed entry table"):
        scheme.public_key_from_json(doc)


# ----------------------------------------------------------------------
# the classical step without numpy, against the numpy forms it replaced
# ----------------------------------------------------------------------


def _unpackbits_reference(message):
    """The digest bits as `np.unpackbits` gives them."""
    digest = hashlib.sha256(frame_fields(message)).digest()
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8)).tolist()


@pytest.mark.parametrize("length", [0, 1, 7, 64, 256])
def test_digest_bits_match_unpackbits(length):
    rng = np.random.default_rng(length)
    for _ in range(20):
        value = int.from_bytes(rng.bytes(32), "big") >> (256 - length) if length else 0
        message = BitString(length, value)
        assert list(_message_digest_bits(message)) == _unpackbits_reference(message)


def test_sign_matches_the_per_bit_join():
    for seed in range(8):
        scheme, pair = keypair(seed=seed)
        message = BitString.random(np.random.default_rng(seed), 128)
        expected = b"".join(row[bit] for row, bit in zip(pair.secret.entries, _unpackbits_reference(message)))
        assert scheme.sign(pair.secret, message) == expected


def test_verify_rejects_each_single_flipped_preimage():
    scheme, pair = keypair(seed=31)
    message = BitString.from_text("serial-0031")
    signature = scheme.sign(pair.secret, message)
    assert scheme.verify(pair.public, message, signature)
    assert scheme.verify(pair.public, message, bytearray(signature))
    for i in range(256):
        corrupt = bytearray(signature)
        corrupt[16 * i + i % 16] ^= 0x80
        assert not scheme.verify(pair.public, message, bytes(corrupt)), i


@pytest.mark.parametrize("message", ["0" * 64, b"serial", 5, None, (1, 0)])
def test_verify_is_false_for_a_message_that_is_not_a_bit_string(message):
    scheme, pair = keypair(seed=33)
    signature = scheme.sign(pair.secret, BitString.from_text("serial-0033"))
    assert scheme.verify(pair.public, message, signature) is False
